"""Per-thread user-user reply graphs, group-teleport PageRank, and each
mobilization's reply-network row, read off its thread's replies and graph."""
from __future__ import annotations

import itertools
import logging
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .corpus import Corpus, Event
from .lexicon import Lexicon
from .mobilization import MobilizationRecord
from .sentiment import tokenize

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

    def users_in_group(self, group: str) -> set[str]:
        return {u for u, g in self.nodes.items() if g == group}


def thread_replies(comments: list[Event]) -> list[tuple[Event, str | None]]:
    """Each comment of a thread with the author of the comment its parent id
    names, or None where it names none (the post, or a missing comment)."""
    author_of = {c.id: c.author for c in comments}
    return [(c, author_of.get(c.parent_id)) for c in comments]


def build_reply_graph(replies: list[tuple[Event, str | None]], post_id: str, attackers: set[str],
                      defenders: set[str]) -> ReplyGraph:
    """Build the reply graph of a thread from its ``thread_replies``;
    comments with dangling parent ids are skipped and counted."""
    graph = ReplyGraph()

    def tag(user: str) -> str:
        if user in attackers:
            return GROUP_ATTACKER
        if user in defenders:
            return GROUP_DEFENDER
        return GROUP_OTHER

    for c, parent_author in replies:
        graph.nodes.setdefault(c.author, tag(c.author))
        if c.parent_id == post_id:
            continue
        if parent_author is None:
            graph.skipped_comments += 1
            continue
        graph.nodes.setdefault(parent_author, tag(parent_author))
        key = (c.author, parent_author)
        graph.edges[key] = graph.edges.get(key, 0) + 1
    if graph.skipped_comments:
        log.debug("reply graph for %s skipped %d dangling comments", post_id, graph.skipped_comments)
    return graph


@dataclass
class GroupPageRank:
    scores: dict[str, float]
    iterations: int


def _teleport_nodes(graph: ReplyGraph, teleport_set: str) -> set[str]:
    if teleport_set == "attackers":
        return graph.users_in_group(GROUP_ATTACKER)
    if teleport_set == "defenders":
        return graph.users_in_group(GROUP_DEFENDER)
    if teleport_set == "all":
        return set(graph.nodes)
    raise ValueError(f"unknown teleport set {teleport_set!r}")


class _Job(NamedTuple):
    """One graph's PageRank inputs in its sorted node order."""

    nodes: list[str]
    src: list[int]
    dst: list[int]
    wgt: list[float]
    out_weight: list[float]
    teleport: list[int]
    dangling: int


def _job(graph: ReplyGraph, teleport_set: str) -> _Job:
    nodes = sorted(graph.nodes)
    if not nodes:
        raise ValueError("empty graph")
    teleport = _teleport_nodes(graph, teleport_set)
    if not teleport:
        raise ValueError(f"empty teleport set {teleport_set!r}")
    index = {u: i for i, u in enumerate(nodes)}
    src = [index[i] for i, _j in graph.edges]
    dst = [index[j] for _i, j in graph.edges]
    out_weight = [0.0] * len(nodes)
    for i, w in zip(src, graph.edges.values()):
        out_weight[i] += w
    return _Job(nodes, src, dst, list(graph.edges.values()), out_weight,
                sorted(index[u] for u in teleport), out_weight.count(0.0))


def _power_iterate(jobs: list[_Job], alpha: float, tol: float, max_iter: int):
    """Iterate jobs of one node count n, in order of their dangling counts,
    as the rows of a (G, n) array. Returns each row's scores and iteration
    count at the step it converged, and the last step's L1 changes; a row
    that did not converge in max_iter steps has iteration count 0."""
    G, n = len(jobs), len(jobs[0].nodes)
    # flat index of node i of row r: r * n + i
    src = np.array([r * n + i for r, job in enumerate(jobs) for i in job.src], dtype=np.intp)
    dst = np.array([r * n + j for r, job in enumerate(jobs) for j in job.dst], dtype=np.intp)
    wgt = np.array([w for job in jobs for w in job.wgt], dtype=np.float64)
    out_weight = np.array([w for job in jobs for w in job.out_weight])
    dangling = out_weight == 0.0
    safe_out_src = np.where(dangling, 1.0, out_weight)[src]
    dangling_at = np.flatnonzero(dangling)
    # each run of rows with one dangling count d > 0: its rows, and its
    # entries of dangling_at, a C-contiguous (G_d, d) block
    blocks, row, entry = [], 0, 0
    for d, run in itertools.groupby(job.dangling for job in jobs):
        size = len(list(run))
        if d:
            blocks.append((slice(row, row + size), slice(entry, entry + size * d), (size, d)))
        row, entry = row + size, entry + size * d
    v = np.zeros(G * n)
    v[[r * n + i for r, job in enumerate(jobs) for i in job.teleport]] = [
        1.0 / len(job.teleport) for job in jobs for _i in job.teleport]
    v = v.reshape(G, n)
    alpha_v = alpha * v

    x = v.copy()
    scores = np.empty((G, n))
    iterations = np.zeros(G, dtype=np.intp)
    dangling_mass = np.zeros(G)  # 0.0 on rows without a dangling node
    for iteration in range(1, max_iter + 1):
        flow = np.bincount(dst, weights=x.ravel()[src] * wgt / safe_out_src, minlength=G * n)
        dangling_x = x.ravel()[dangling_at]
        for rows, entries, shape in blocks:
            dangling_x[entries].reshape(shape).sum(axis=1, out=dangling_mass[rows])
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
    teleport_set: str = "all",
    alpha: float = TELEPORT_PROB,
    tol: float = 1e-10,
    max_iter: int = 10000,
) -> list[GroupPageRank]:
    """Personalized PageRank with the restart distribution uniform over the
    teleport set: the graph's ``"attackers"``, its ``"defenders"`` or ``"all"``
    of its nodes.

    Dangling nodes redirect their mass to the teleport set (not uniformly to
    all nodes), preserving the walk-restarts-from-the-group semantics. alpha
    is the teleport probability, i.e. damping factor 1-alpha. A graph
    converges at the first step whose L1 change is below ``tol``; raises
    ``ConvergenceError`` when one has not converged after ``max_iter`` steps.

    Returns one result per graph in input order, each over the same
    teleport set. The graphs are grouped by node count n, and each group
    runs its power iteration as one (G, n) array, its rows in order of
    their dangling-node count d. Every value is computed as it would be for
    the graph alone, so the batch is exact: the flow is one ``bincount``
    over the edges in edge order, the same additions as ``np.add.at`` into
    zeros; the dangling mass gathers the d dangling scores of each run of
    rows with one d into its own C-contiguous (G_d, d) block, and it and the
    L1 change are ``sum(axis=1)``, which reduces every row as the 1-D sum of
    that row, with the same pairwise grouping (so no row is padded). A row's
    scores and iteration count are fixed at the step it converges.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    jobs = [_job(graph, teleport_set) for graph in graphs]
    groups: dict[int, list[int]] = {}
    for k in sorted(range(len(jobs)), key=lambda k: jobs[k].dangling):
        groups.setdefault(len(jobs[k].nodes), []).append(k)
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


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def echo_metrics(graph: ReplyGraph, apr: dict[str, float], dpr: dict[str, float]) -> dict:
    """The REPLYNET_HEADER columns from ``n_attackers`` to
    ``mean_attacker_dpr``, in header order, of a thread's graph and its
    attacker- and defender-teleport PageRank scores ``apr`` and ``dpr``, with
    one pass over the edges.

    Every column reads the graph's groups. The zero-score fraction counts
    defenders whose A-PageRank sits exactly at the no-inflow floor of 0 (a
    defender outside the teleport set receives mass only through in-edges).
    """
    attackers = sorted(graph.users_in_group(GROUP_ATTACKER))
    defenders = sorted(graph.users_in_group(GROUP_DEFENDER))
    if not attackers or not defenders:
        raise ValueError("echo metrics need at least one attacker and one defender")

    weight: dict[tuple[str, str], int] = {}  # (from group, to group) -> total weight
    for (i, j), w in graph.edges.items():
        key = graph.nodes[i], graph.nodes[j]
        weight[key] = weight.get(key, 0) + w
    aa = weight.get((GROUP_ATTACKER, GROUP_ATTACKER), 0)
    ad = weight.get((GROUP_ATTACKER, GROUP_DEFENDER), 0)
    dd = weight.get((GROUP_DEFENDER, GROUP_DEFENDER), 0)
    da = weight.get((GROUP_DEFENDER, GROUP_ATTACKER), 0)
    cross = ad + da
    defender_out = sum(w for (i, _j), w in weight.items() if i == GROUP_DEFENDER)

    pooled = [apr[u] for u in sorted(attackers + defenders)]
    mean_score = sum(pooled) / len(pooled)
    defender_scores = [apr[u] for u in defenders]
    zero_fraction = sum(1 for s in defender_scores if s == 0.0) / len(defender_scores)
    tentimes = (sum(1 for s in defender_scores if s >= 10.0 * mean_score) / len(defender_scores)
                if mean_score > 0.0 else 0.0)

    return dict(zip(REPLYNET_HEADER[1:15], (
        len(attackers), len(defenders), aa, ad, dd, da,
        _ratio(aa, cross), _ratio(dd, cross), _ratio(cross, aa + dd),
        zero_fraction, tentimes, da / defender_out if defender_out else 0.0,
        sum(defender_scores) / len(defenders),
        sum(dpr[u] for u in attackers) / len(attackers),
    )))


def anger_rate(replies: list[tuple[Event, str | None]], lexicon: Lexicon, from_users: set[str],
               to_users: set[str]) -> float | None:
    """Anger-token rate over a thread's direct replies (its
    ``thread_replies``) from one user group to another.

    Returns None (not 0) when no such replies exist.
    """
    anger = lexicon.categories.get("anger")
    if anger is None:
        raise ValueError("lexicon has no 'anger' category")
    total = hits = 0
    found = False
    for c, parent_author in replies:
        if c.author not in from_users or parent_author not in to_users:
            continue
        found = True
        tokens = tokenize(c.body)
        total += len(tokens)
        hits += sum(tok in anger for tok in tokens)
    if not found:
        return None
    return hits / total if total else 0.0


def thread_graph(corpus: Corpus, record: MobilizationRecord) -> ReplyGraph:
    """The reply graph of the record's target thread."""
    post = record.crosslink.target_post
    return build_reply_graph(thread_replies(corpus.thread_comments(post)), post,
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
        replies = thread_replies(corpus.thread_comments(post))
        graphs.append(build_reply_graph(replies, post, record.attackers, record.defenders))
        angers.append((anger_rate(replies, lexicon, record.attackers, record.defenders),
                       anger_rate(replies, lexicon, record.defenders, record.attackers)))
    ranks = [group_pagerank(graphs, group, alpha=alpha, tol=tol, max_iter=max_iter)
             for group in ("attackers", "defenders")]
    rows = [[record.id, *echo_metrics(graph, a_rank.scores, d_rank.scores).values(), *anger]
            for record, graph, anger, a_rank, d_rank in zip(records, graphs, angers, *ranks)]
    return rows, [rank.iterations for batch in ranks for rank in batch]
