"""Per-thread user-user reply graphs and group-teleport PageRank metrics."""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .corpus import Event
from .sentiment import Lexicon, tokenize

log = logging.getLogger(__name__)

TELEPORT_PROB = 0.25  # probability of restarting the walk at each step


class ConvergenceError(Exception):
    def __init__(self, iterations: int, delta: float):
        super().__init__(f"power iteration did not converge in {iterations} steps (delta={delta:g})")
        self.iterations = iterations


GROUP_ATTACKER = "attacker"
GROUP_DEFENDER = "defender"
GROUP_OTHER = "other"


@dataclass
class ReplyGraph:
    """Directed weighted user-user graph for one thread.

    Edge weight w(i -> j) counts i's direct replies to j's comments; replies
    to the post itself create no edge.
    """

    nodes: dict[str, str] = field(default_factory=dict)  # user -> group tag
    edges: dict[tuple[str, str], int] = field(default_factory=dict)
    skipped_comments: int = 0
    has_self_loops: bool = False

    def users_in_group(self, group: str) -> set[str]:
        return {u for u, g in self.nodes.items() if g == group}

    def weight_between(self, from_group: str, to_group: str) -> int:
        return sum(
            w
            for (i, j), w in self.edges.items()
            if self.nodes[i] == from_group and self.nodes[j] == to_group
        )


def build_reply_graph(
    comments: list[Event],
    post_id: str,
    attackers: set[str],
    defenders: set[str],
) -> ReplyGraph:
    """Build the reply graph of a thread; comments with dangling parent ids
    are skipped and counted."""
    graph = ReplyGraph()
    author_of = {c.id: c.author for c in comments}

    def tag(user: str) -> str:
        if user in attackers:
            return GROUP_ATTACKER
        if user in defenders:
            return GROUP_DEFENDER
        return GROUP_OTHER

    for c in comments:
        graph.nodes.setdefault(c.author, tag(c.author))
        if c.parent_id == post_id:
            continue
        parent_author = author_of.get(c.parent_id)
        if parent_author is None:
            graph.skipped_comments += 1
            continue
        graph.nodes.setdefault(parent_author, tag(parent_author))
        key = (c.author, parent_author)
        graph.edges[key] = graph.edges.get(key, 0) + 1
        if c.author == parent_author:
            graph.has_self_loops = True
    if graph.skipped_comments:
        log.debug("reply graph for %s skipped %d dangling comments", post_id, graph.skipped_comments)
    return graph


@dataclass
class GroupPageRank:
    scores: dict[str, float]
    teleport_set: str
    alpha: float
    iterations: int


def _teleport_nodes(graph: ReplyGraph, teleport_set) -> set[str]:
    if teleport_set == "attackers":
        return graph.users_in_group(GROUP_ATTACKER)
    if teleport_set == "defenders":
        return graph.users_in_group(GROUP_DEFENDER)
    if teleport_set == "all":
        return set(graph.nodes)
    return set(teleport_set)


def group_pagerank(
    graph: ReplyGraph,
    teleport_set="all",
    alpha: float = TELEPORT_PROB,
    tol: float = 1e-10,
    max_iter: int = 10000,
) -> GroupPageRank:
    """Personalized PageRank with the restart distribution uniform over the
    teleport set.

    Dangling nodes redirect their mass to the teleport set (not uniformly to
    all nodes), preserving the walk-restarts-from-the-group semantics. alpha
    is the teleport probability, i.e. damping factor 1-alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    nodes = sorted(graph.nodes)
    if not nodes:
        raise ValueError("empty graph")
    index = {u: i for i, u in enumerate(nodes)}
    teleport = _teleport_nodes(graph, teleport_set)
    if not teleport:
        raise ValueError(f"empty teleport set {teleport_set!r}")
    unknown = teleport - set(nodes)
    if unknown:
        raise ValueError(f"teleport nodes not in graph: {sorted(unknown)}")

    n = len(nodes)
    v = np.zeros(n)
    for u in teleport:
        v[index[u]] = 1.0 / len(teleport)

    out_weight = np.zeros(n)
    for (i, j), w in graph.edges.items():
        out_weight[index[i]] += w
    src = np.array([index[i] for (i, j) in graph.edges], dtype=np.intp)
    dst = np.array([index[j] for (i, j) in graph.edges], dtype=np.intp)
    wgt = np.array(list(graph.edges.values()), dtype=np.float64)
    dangling = out_weight == 0.0
    safe_out = np.where(dangling, 1.0, out_weight)

    x = v.copy()
    for iteration in range(1, max_iter + 1):
        flow = np.zeros(n)
        if src.size:
            np.add.at(flow, dst, x[src] * wgt / safe_out[src])
        dangling_mass = float(x[dangling].sum())
        x_new = alpha * v + (1.0 - alpha) * (flow + dangling_mass * v)
        delta = float(np.abs(x_new - x).sum())
        x = x_new
        if delta < tol:
            label = teleport_set if isinstance(teleport_set, str) else "custom"
            return GroupPageRank(
                scores={u: float(x[index[u]]) for u in nodes},
                teleport_set=label,
                alpha=alpha,
                iterations=iteration,
            )
    raise ConvergenceError(max_iter, delta)


@dataclass
class EchoReport:
    attacker_attacker_weight: int
    attacker_defender_weight: int
    defender_defender_weight: int
    defender_attacker_weight: int
    attacker_within_cross_ratio: float | None
    defender_within_cross_ratio: float | None
    cross_group_ratio: float | None
    defender_apr_zero_fraction: float
    defender_apr_tentimes_fraction: float
    n_attackers: int
    n_defenders: int


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def echo_metrics(graph: ReplyGraph, apr: dict[str, float] | None = None) -> EchoReport:
    """Within- vs cross-group interaction totals plus the skew of defenders'
    attacker-teleport PageRank scores ``apr``, computed with the default
    alpha and tol when not given.

    The zero-score fraction counts defenders whose A-PageRank sits exactly at
    the no-inflow floor of 0 (a defender outside the teleport set receives
    mass only through in-edges).
    """
    attackers = graph.users_in_group(GROUP_ATTACKER)
    defenders = graph.users_in_group(GROUP_DEFENDER)
    if not attackers or not defenders:
        raise ValueError("echo metrics need at least one attacker and one defender")

    aa = graph.weight_between(GROUP_ATTACKER, GROUP_ATTACKER)
    ad = graph.weight_between(GROUP_ATTACKER, GROUP_DEFENDER)
    dd = graph.weight_between(GROUP_DEFENDER, GROUP_DEFENDER)
    da = graph.weight_between(GROUP_DEFENDER, GROUP_ATTACKER)
    cross = ad + da

    if apr is None:
        apr = group_pagerank(graph, "attackers").scores
    pooled = [apr[u] for u in sorted(attackers | defenders)]
    mean_score = sum(pooled) / len(pooled)
    defender_scores = [apr[u] for u in sorted(defenders)]
    zero_fraction = sum(1 for s in defender_scores if s == 0.0) / len(defender_scores)
    if mean_score > 0.0:
        tentimes = sum(1 for s in defender_scores if s >= 10.0 * mean_score) / len(defender_scores)
    else:
        tentimes = 0.0

    return EchoReport(
        attacker_attacker_weight=aa,
        attacker_defender_weight=ad,
        defender_defender_weight=dd,
        defender_attacker_weight=da,
        attacker_within_cross_ratio=_ratio(aa, cross),
        defender_within_cross_ratio=_ratio(dd, cross),
        cross_group_ratio=_ratio(cross, aa + dd),
        defender_apr_zero_fraction=zero_fraction,
        defender_apr_tentimes_fraction=tentimes,
        n_attackers=len(attackers),
        n_defenders=len(defenders),
    )


def anger_rate(
    comments: list[Event],
    lexicon: Lexicon,
    from_users: set[str],
    to_users: set[str],
) -> float | None:
    """Anger-token rate over direct replies from one user group to another.

    Returns None (not 0) when no such replies exist.
    """
    anger = lexicon.categories.get("anger")
    if anger is None:
        raise ValueError("lexicon has no 'anger' category")
    author_of = {c.id: c.author for c in comments}
    total = hits = 0
    found = False
    for c in comments:
        if c.author not in from_users:
            continue
        parent_author = author_of.get(c.parent_id)
        if parent_author is None or parent_author not in to_users:
            continue
        found = True
        for tok in tokenize(c.body):
            total += 1
            if tok in anger:
                hits += 1
    if not found:
        return None
    return hits / total if total else 0.0
