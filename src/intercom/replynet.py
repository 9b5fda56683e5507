"""Per-thread user-user reply graphs and group-teleport PageRank metrics."""
from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .corpus import Corpus, Event
from .mobilization import MobilizationRecord
from .sentiment import Lexicon, tokenize

log = logging.getLogger(__name__)

TELEPORT_PROB = 0.25  # probability of restarting the walk at each step


class ConvergenceError(Exception):
    def __init__(self, iterations: int, delta: float):
        super().__init__(f"power iteration did not converge in {iterations} steps (delta={delta:g})")
        self.iterations = iterations


REPLYNET_HEADER = [
    "mobilization", "n_attackers", "n_defenders",
    "attacker_attacker_weight", "attacker_defender_weight",
    "defender_defender_weight", "defender_attacker_weight",
    "attacker_within_cross_ratio", "defender_within_cross_ratio", "cross_group_ratio",
    "defender_apr_zero_fraction", "defender_apr_tentimes_fraction",
    "defender_reply_fraction_to_attackers", "mean_defender_apr", "mean_attacker_dpr",
    "anger_attacker_to_defender", "anger_defender_to_attacker",
]

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
    iterations: int


def _teleport_nodes(graph: ReplyGraph, teleport_set) -> set[str]:
    if teleport_set == "attackers":
        return graph.users_in_group(GROUP_ATTACKER)
    if teleport_set == "defenders":
        return graph.users_in_group(GROUP_DEFENDER)
    if teleport_set == "all":
        return set(graph.nodes)
    return set(teleport_set)


class _Job(NamedTuple):
    """One graph's PageRank inputs in its sorted node order."""

    nodes: list[str]
    src: list[int]
    dst: list[int]
    wgt: list[float]
    out_weight: list[float]
    teleport: list[int]
    dangling: int


def _job(graph: ReplyGraph, teleport_set) -> _Job:
    nodes = sorted(graph.nodes)
    if not nodes:
        raise ValueError("empty graph")
    teleport = _teleport_nodes(graph, teleport_set)
    if not teleport:
        raise ValueError(f"empty teleport set {teleport_set!r}")
    unknown = teleport - graph.nodes.keys()
    if unknown:
        raise ValueError(f"teleport nodes not in graph: {sorted(unknown)}")
    index = {u: i for i, u in enumerate(nodes)}
    src = [index[i] for i, _j in graph.edges]
    dst = [index[j] for _i, j in graph.edges]
    out_weight = [0.0] * len(nodes)
    for i, w in zip(src, graph.edges.values()):
        out_weight[i] += w
    return _Job(nodes, src, dst, list(graph.edges.values()), out_weight,
                sorted(index[u] for u in teleport), out_weight.count(0.0))


def _power_iterate(jobs: list[_Job], alpha: float, tol: float, max_iter: int):
    """Iterate jobs of one node count n and one dangling count d as the rows
    of a (G, n) array. Returns each row's scores and iteration count at the
    step it converged, and the last step's L1 changes; a row that did not
    converge in max_iter steps has iteration count 0."""
    G, n = len(jobs), len(jobs[0].nodes)
    # flat index of node i of row r: r * n + i
    src = np.array([r * n + i for r, job in enumerate(jobs) for i in job.src], dtype=np.intp)
    dst = np.array([r * n + j for r, job in enumerate(jobs) for j in job.dst], dtype=np.intp)
    wgt = np.array([w for job in jobs for w in job.wgt], dtype=np.float64)
    out_weight = np.array([w for job in jobs for w in job.out_weight])
    dangling = out_weight == 0.0
    safe_out_src = np.where(dangling, 1.0, out_weight)[src]
    dangling_rows = np.flatnonzero(dangling).reshape(G, jobs[0].dangling)
    v = np.zeros(G * n)
    v[[r * n + i for r, job in enumerate(jobs) for i in job.teleport]] = [
        1.0 / len(job.teleport) for job in jobs for _i in job.teleport]
    v = v.reshape(G, n)
    alpha_v = alpha * v

    x = v.copy()
    scores = np.empty((G, n))
    iterations = np.zeros(G, dtype=np.intp)
    for iteration in range(1, max_iter + 1):
        flow = np.bincount(dst, weights=x.ravel()[src] * wgt / safe_out_src, minlength=G * n)
        dangling_mass = x.ravel()[dangling_rows].sum(axis=1)
        x_new = alpha_v + (1.0 - alpha) * (flow.reshape(G, n) + dangling_mass[:, None] * v)
        delta = np.abs(x_new - x).sum(axis=1)
        x = x_new
        converged = (delta < tol) & (iterations == 0)
        if converged.any():
            scores[converged] = x[converged]
            iterations[converged] = iteration
            if iterations.all():
                break
    return scores, iterations, delta


def group_pagerank(
    graphs: Sequence[ReplyGraph],
    teleport_set="all",
    alpha: float = TELEPORT_PROB,
    tol: float = 1e-10,
    max_iter: int = 10000,
) -> list[GroupPageRank]:
    """Personalized PageRank with the restart distribution uniform over the
    teleport set.

    Dangling nodes redirect their mass to the teleport set (not uniformly to
    all nodes), preserving the walk-restarts-from-the-group semantics. alpha
    is the teleport probability, i.e. damping factor 1-alpha. A graph
    converges at the first step whose L1 change is below ``tol``; raises
    ``ConvergenceError`` when one has not converged after ``max_iter`` steps.

    Returns one result per graph in input order, each over the same
    teleport set. The graphs are grouped by (node count n, dangling-node
    count d), and each group runs its power iteration as one (G, n) array.
    Every value is computed as it would be for the graph alone, so the
    batch is exact: the flow is one ``bincount``
    over the edges in edge order, the same additions as ``np.add.at`` into
    zeros; the dangling mass gathers each row's d dangling scores into a
    C-contiguous (G, d) array, and it and the L1 change are ``sum(axis=1)``,
    which reduces every row as the 1-D sum of that row, with the same
    pairwise grouping (so no row is padded). A row's scores and iteration
    count are fixed at the step it converges.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    jobs = [_job(graph, teleport_set) for graph in graphs]
    groups: dict[tuple[int, int], list[int]] = {}
    for k, job in enumerate(jobs):
        groups.setdefault((len(job.nodes), job.dangling), []).append(k)
    results: list[GroupPageRank | None] = [None] * len(jobs)
    unconverged = []
    for members in groups.values():
        scores, iterations, delta = _power_iterate([jobs[k] for k in members], alpha, tol,
                                                   max_iter)
        for k, row, steps, last in zip(members, scores.tolist(), iterations.tolist(),
                                       delta.tolist()):
            if not steps:
                unconverged.append((k, last))
                continue
            results[k] = GroupPageRank(scores=dict(zip(jobs[k].nodes, row)), iterations=steps)
    if unconverged:
        raise ConvergenceError(max_iter, min(unconverged)[1])
    return results


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


def echo_metrics(graph: ReplyGraph, apr: dict[str, float]) -> EchoReport:
    """Within- vs cross-group interaction totals plus the skew of defenders'
    attacker-teleport PageRank scores ``apr``.

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


def thread_graph(corpus: Corpus, record: MobilizationRecord) -> ReplyGraph:
    """The reply graph of the record's target thread."""
    post = record.crosslink.target_post
    return build_reply_graph(corpus.thread_comments(post), post,
                             record.attackers, record.defenders)


def replynet_rows(corpus: Corpus, lexicon: Lexicon, records: list[MobilizationRecord], *,
                  alpha: float, tol: float, max_iter: int) -> tuple[list[list], list[int]]:
    """The REPLYNET_HEADER rows of the records with both attackers and
    defenders (one batched PageRank per teleport set), and the PageRanks'
    iterations: the attacker-teleport ones in record order, then the others."""
    records = [record for record in records if record.attackers and record.defenders]
    graphs, angers = [], []
    for record in records:  # one thread's comments are held at a time
        post = record.crosslink.target_post
        comments = corpus.thread_comments(post)
        graphs.append(build_reply_graph(comments, post, record.attackers, record.defenders))
        angers.append((anger_rate(comments, lexicon, record.attackers, record.defenders),
                       anger_rate(comments, lexicon, record.defenders, record.attackers)))
    ranks = [group_pagerank(graphs, group, alpha=alpha, tol=tol, max_iter=max_iter)
             for group in ("attackers", "defenders")]
    rows = []
    for record, graph, anger, a_rank, d_rank in zip(records, graphs, angers, *ranks):
        apr, dpr = a_rank.scores, d_rank.scores
        echo = echo_metrics(graph, apr)
        defender_out = sum(w for (i, _j), w in graph.edges.items() if i in record.defenders)
        reply_frac = (echo.defender_attacker_weight / defender_out) if defender_out else 0.0
        mean_dapr = sum(apr[u] for u in sorted(record.defenders)) / len(record.defenders)
        mean_adpr = sum(dpr[u] for u in sorted(record.attackers)) / len(record.attackers)
        rows.append([
            record.id, echo.n_attackers, echo.n_defenders,
            echo.attacker_attacker_weight, echo.attacker_defender_weight,
            echo.defender_defender_weight, echo.defender_attacker_weight,
            echo.attacker_within_cross_ratio, echo.defender_within_cross_ratio,
            echo.cross_group_ratio,
            echo.defender_apr_zero_fraction, echo.defender_apr_tentimes_fraction,
            reply_frac, mean_dapr, mean_adpr, *anger,
        ])
    return rows, [rank.iterations for batch in ranks for rank in batch]
