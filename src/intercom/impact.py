"""Long-term activity impact, defense success, and nonparametric tests."""
from __future__ import annotations

import logging
import math
from itertools import combinations, groupby, repeat
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .corpus import DAY, CommentTable, Corpus, window_slices
from .matching import HISTORY_GAP_DAYS, match_pools, matched_user
from .mobilization import MobilizationRecord
from .replynet import REPLYNET_HEADER

log = logging.getLogger(__name__)

IMPACT_WINDOW_DAYS = 30
POST_GAP_DAYS = 3  # the "after" period starts 3 days after the cross-link

# Above these sizes the tests switch from exact enumeration to the normal
# approximation with tie and continuity corrections.
MWU_EXACT_MAX = 20  # combined sample size
WILCOXON_EXACT_MAX = 25  # nonzero pairs

IMPACT_HEADER = [
    "mobilization", "n_attackers", "n_defenders",
    "mean_attacker_delta", "mean_defender_delta",
    "mean_attacker_matched_delta", "mean_defender_matched_delta",
    "success_score", "decile",
]


class ActivityDelta(NamedTuple):
    delta: float
    low_support: bool


class Participant(NamedTuple):
    """An attacker or defender of ``records[record]``, with its own and its
    matched user's activity deltas in the record's target community."""
    record: int
    role: str  # "attacker" | "defender"
    user: str
    delta: float
    matched_delta: float | None  # None without a matched user
    low_support: bool


def _window_edges(times, t0: float) -> list[int]:
    """The before and after windows of a cross-link at t0, each as the two
    rank ranges [i, a) and [b, j) of the distinct comment ``times`` that
    ``window_slices`` leaves in it."""
    gap = HISTORY_GAP_DAYS * DAY
    after_lo = t0 + POST_GAP_DAYS * DAY
    edges = []
    for lo, hi in ((t0 - IMPACT_WINDOW_DAYS * DAY, t0),
                   (after_lo, after_lo + IMPACT_WINDOW_DAYS * DAY)):
        head, tail = window_slices(times, lo, hi, t0, gap)
        edges += (head.start, head.stop, tail.start, tail.stop)
    return edges


def _window_totals(found: np.ndarray) -> np.ndarray:
    """Per query, the comments in each of its two windows, from where
    ``np.searchsorted`` found its ``_window_edges`` among the keys."""
    counts = found[:, 1::2] - found[:, ::2]
    return counts[:, ::2] + counts[:, 1::2]


def _time_ranks(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``times``, sorted, and each time's index among
    them, as int32."""
    order = np.argsort(times).astype(np.int32)
    ordered = times[order]
    new = np.ones(len(times), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    distinct = ordered[new]
    del ordered
    ranks = np.cumsum(new, dtype=np.int32)
    ranks -= 1
    rank = np.empty_like(ranks)
    rank[order] = ranks
    return distinct, rank


def _keys(table: CommentTable, rank: np.ndarray, span: np.int64, rows) -> np.ndarray:
    """The keys ``author * span + rank`` of the table's ``rows``, a slice
    or an index array, as int64."""
    keys = table.authors[rows].astype(np.int64)
    keys *= span
    keys += rank[rows]
    return keys


def _activity_counts(corpus: Corpus,
                     queries: list[tuple[str, str, float]]) -> tuple[np.ndarray, np.ndarray]:
    """Per query, the user's comments in the before and after windows, and
    those of them made in the query's community, each as a (queries, 2)
    array."""
    table = corpus.table
    distinct, rank = _time_ranks(table.times)
    span = np.int64(len(distinct) + 1)
    t0s = {t0: k for k, t0 in enumerate(dict.fromkeys(t0 for _u, _c, t0 in queries))}
    # bisect reads a memoryview's items as floats, faster than numpy scalars
    edges = np.array([_window_edges(memoryview(distinct), t0) for t0 in t0s], dtype=np.int64)
    del distinct  # each large array is freed once read for the last time
    users = np.array([corpus.user_codes.get(user, -1) for user, _c, _t in queries], dtype=np.int64)
    # each edge's key: a user without comments (-1) has keys below every comment's
    edges = edges[[t0s[t0] for _u, _c, t0 in queries]]
    edges += users[:, None] * span

    # per queried community, the keys of its rows, which are a run of the table
    communities = np.array([corpus.community_codes.get(community, -1)
                            for _u, community, _t in queries], dtype=np.int64)
    asked = np.argsort(communities, kind="stable")
    codes = np.arange(len(corpus.communities) + 1, dtype=np.int32)
    runs = np.searchsorted(table.communities, codes).tolist()
    groups = np.searchsorted(communities[asked], codes).tolist()
    inside = np.zeros((len(queries), 2), dtype=np.int64)
    for code in set(communities.tolist()) - {-1}:
        keys = _keys(table, rank, span, slice(runs[code], runs[code + 1]))
        keys.sort()
        group = asked[groups[code]:groups[code + 1]]
        inside[group] = _window_totals(np.searchsorted(keys, edges[group]))
    rows = corpus.by_user.rows  # by (user, time), so their keys are sorted
    keys = _keys(table, rank, span, rows)
    del rank
    return _window_totals(np.searchsorted(keys, edges)), inside


def activity_delta(corpus: Corpus, queries: list[tuple[str, str, float]]) -> list[ActivityDelta]:
    """For each (user, community, t0) query, the change (after minus before)
    in the user's fraction of comments made in ``community``.

    Before window: [t0-30d, t0). After window: [t0+3d, t0+33d). Comments
    within +/-3 days of t0 are excluded from both. A window with zero
    comments contributes fraction 0 and flags the record as low-support.

    The whole batch is counted by ``np.searchsorted`` on exact int64 keys:
    a user code times the number of distinct comment times plus one, plus
    the rank of a comment's time among them, over all of the user's
    comments and over those in each queried community.
    """
    if not queries:
        return []
    totals, inside = _activity_counts(corpus, queries)
    fractions = np.divide(inside, totals, out=np.zeros(totals.shape), where=totals > 0)
    before, after = fractions.T
    # tuple.__new__ skips the Python-level __new__ of a NamedTuple
    return list(map(tuple.__new__, repeat(ActivityDelta), zip(
        (after - before).tolist(), (totals == 0).any(axis=1).tolist())))


def mobilization_impacts(corpus: Corpus, records: list[MobilizationRecord],
                         seed: int = 0) -> list[Participant]:
    """Every attacker and defender of the ``records``, in record order, each
    record's attackers before its defenders and each side by name, from one
    ``activity_delta`` batch."""
    found, queries = [], []
    for index, record in enumerate(records):
        link = record.crosslink
        subjects = sorted(record.attackers), sorted(record.defenders)
        # matched in a comprehension, so no match pool is held through the batch
        matches = [matched_user(corpus, users, pool, seed=seed) if users else []
                   for users, pool in zip(subjects, match_pools(corpus, link))]
        for role, home, users, matched in zip(("attacker", "defender"), (
                link.source_community, link.target_community), subjects, matches):
            for user, match in zip(users, matched):
                found.append((index, role, user, match))
                queries.append((user, link.target_community, link.t0))
                if match is None:
                    log.debug("no matched user for %s in %s", user, home)
                else:
                    queries.append((match, link.target_community, link.t0))
    answers = iter(activity_delta(corpus, queries))
    del queries
    # zip reads each user's answer, and next() its matched user's after it
    return [Participant(index, role, user, own.delta,
                        None if match is None else next(answers).delta, own.low_support)
            for (index, role, user, match), own in zip(found, answers)]


def moving_average(values: list[float], window: int = 5) -> list[float]:
    """Centered moving average of +/-window points, truncated at the edges."""
    n = len(values)
    out = []
    for i in range(n):
        lo, hi = max(0, i - window), min(n, i + window + 1)
        out.append(sum(values[lo:hi]) / (hi - lo))
    return out


def success_series(scores: list[float], values: list[float], window: int = 5,
                   n_buckets: int = 100) -> tuple[list[tuple[float, float]], bool]:
    """The ``values`` of defenses sorted by their success ``scores``, averaged
    over equal-size success buckets and smoothed by a centered +/-window
    moving average, as (mean score, value) points, and whether they were
    smoothed.

    Falls back to the raw (unsmoothed) series when there are fewer than
    2*window+1 buckets.
    """
    n = len(scores)
    if n == 0:
        return [], False
    buckets = min(n_buckets, n)
    xs, ys = [], []
    for b in range(buckets):
        lo, hi = (b * n) // buckets, ((b + 1) * n) // buckets
        xs.append(sum(scores[lo:hi]) / (hi - lo))
        ys.append(sum(values[lo:hi]) / (hi - lo))
    if buckets < 2 * window + 1:
        return list(zip(xs, ys)), False
    return list(zip(xs, moving_average(ys, window))), True


def midranks(values) -> list[float]:
    """1-based ranks of ``values``, ties given the mean of their positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j + 2) / 2.0  # average of 1-based positions i+1..j+1
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


def _tie_term(values) -> float:
    counts: dict = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return sum(t**3 - t for t in counts.values())


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def mann_whitney_u(a, b) -> tuple[float, float]:
    """Mann-Whitney U for sample ``a`` with a two-sided p-value.

    Exact permutation enumeration (midrank ties) up to a combined size of
    ``MWU_EXACT_MAX``; normal approximation with tie and continuity
    corrections beyond that.
    """
    a, b = list(a), list(b)
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        raise ValueError("both samples must be non-empty")
    pooled = a + b
    ranks = midranks(pooled)
    r1 = sum(ranks[:n1])
    u = r1 - n1 * (n1 + 1) / 2.0
    mu = n1 * n2 / 2.0

    if n1 + n2 <= MWU_EXACT_MAX:
        # midranks doubled are integers, making the comparison exact
        r2 = [int(round(2 * r)) for r in ranks]
        mu2 = n1 * n2  # 2*mu
        offset = n1 * (n1 + 1)
        target = abs(int(round(2 * u)) - mu2)
        hits = total = 0
        for combo in combinations(r2, n1):
            total += 1
            if abs(sum(combo) - offset - mu2) >= target:
                hits += 1
        return u, hits / total

    n = n1 + n2
    var = (n1 * n2 / 12.0) * ((n + 1) - _tie_term(pooled) / (n * (n - 1)))
    if var <= 0.0:
        return u, 1.0
    z = max(0.0, abs(u - mu) - 0.5) / math.sqrt(var)
    return u, min(1.0, 2.0 * _normal_sf(z))


def wilcoxon_signed_rank(pairs) -> tuple[float, float]:
    """Wilcoxon signed-rank W (sum of positive-difference ranks) with a
    two-sided p-value.

    Zero differences are dropped; exact sign-pattern distribution up to
    ``WILCOXON_EXACT_MAX`` nonzero pairs, normal approximation with tie and
    continuity corrections beyond.
    """
    diffs = [x - y for x, y in pairs]
    if not diffs:
        raise ValueError("no pairs")
    diffs = [d for d in diffs if d != 0]
    n = len(diffs)
    if n == 0:
        raise ValueError("all differences are zero")
    abs_ranks = midranks([abs(d) for d in diffs])
    w = sum(r for r, d in zip(abs_ranks, diffs) if d > 0)
    mu = n * (n + 1) / 4.0

    if n <= WILCOXON_EXACT_MAX:
        r2 = [int(round(2 * r)) for r in abs_ranks]
        max_sum = sum(r2)
        counts = [0] * (max_sum + 1)
        counts[0] = 1
        for r in r2:
            for s in range(max_sum, r - 1, -1):
                if counts[s - r]:
                    counts[s] += counts[s - r]
        mu2 = n * (n + 1) / 2.0  # 2*mu, may be half-integral only if n(n+1) odd (never)
        target = abs(2 * w - mu2)
        hits = sum(c for s, c in enumerate(counts) if abs(s - mu2) >= target - 1e-9)
        return w, hits / (2**n)

    var = n * (n + 1) * (2 * n + 1) / 24.0 - _tie_term([abs(d) for d in diffs]) / 48.0
    if var <= 0.0:
        return w, 1.0
    z = max(0.0, abs(w - mu) - 0.5) / math.sqrt(var)
    return w, min(1.0, 2.0 * _normal_sf(z))


def _mean(xs):
    return sum(xs) / len(xs) if xs else None


def _sides(participants: list[Participant]) -> tuple[list[Participant], list[Participant]]:
    """The attackers and the defenders among ``participants``, each in their order."""
    return ([p for p in participants if p.role == "attacker"],
            [p for p in participants if p.role == "defender"])


def _matched(side: list[Participant]) -> list[tuple[float, float]]:
    """The (delta, matched delta) pairs of the ``side``'s matched users."""
    return [(p.delta, p.matched_delta) for p in side if p.matched_delta is not None]


def aggregate(records: list[MobilizationRecord], participants: list[Participant],
              replynet_rows: list[list], columns: list[str]) -> tuple[list[list], dict, dict, dict]:
    """The impact of the mobilization ``records`` from their ``participants``
    (``mobilization_impacts``): the IMPACT_HEADER rows of those with
    defenders, in record order, each defense's success score its mean
    defender delta minus its mean matched defender delta (0.0 without a
    matched defender), so positive means the defense succeeded, and its
    success decile (1 = least successful; the deciles' sizes differ by at
    most one); per REPLYNET_HEADER column named in ``columns``, the
    ``success_series`` of that column of their replynet rows (0.0 where
    missing); the tests on the participants pooled, each
    ``{"skipped": reason}`` where it cannot run; and the counts of outcomes
    and fallbacks."""
    rows = []
    for index, group in groupby(participants, attrgetter("record")):
        attackers, defenders = _sides(list(group))
        if not defenders:
            continue
        mean_defender = _mean([p.delta for p in defenders])
        mean_matched = _mean([m for _d, m in _matched(defenders)])
        rows.append([
            records[index].id, len(attackers), len(defenders),
            _mean([p.delta for p in attackers]), mean_defender,
            _mean([m for _d, m in _matched(attackers)]),
            mean_matched, mean_defender - (mean_matched or 0.0), None,
        ])
    ordered = sorted(rows, key=lambda row: (row[-2], row[0]))  # by (success score, id)
    for rank, row in enumerate(ordered):
        row[-1] = min(10, 1 + (rank * 10) // len(ordered))

    by_id = {row[0]: row for row in replynet_rows}
    blank = [None] * len(REPLYNET_HEADER)  # the replynet row of a record without one
    scores = [row[-2] for row in ordered]
    series = {}
    for column in columns:
        at = REPLYNET_HEADER.index(column)
        values = (by_id.get(row[0], blank)[at] for row in ordered)
        series[column] = success_series(scores, [0.0 if v is None else float(v) for v in values])

    def result(test, statistic, *samples):
        try:
            value, p = test(*samples)
        except ValueError as exc:  # the samples are empty, or all ties
            return {"skipped": str(exc)}
        return {statistic: value, "p": p}

    attackers, defenders = _sides(participants)
    tests = {"defender_vs_attacker_delta_mwu": result(
        mann_whitney_u, "U", [p.delta for p in defenders], [p.delta for p in attackers])}
    counts = {"outcomes": len(rows)}
    for role, side in (("attacker", attackers), ("defender", defenders)):
        pairs = _matched(side)
        tests[f"{role}_delta_vs_matched_wilcoxon"] = result(wilcoxon_signed_rank, "W", pairs)
        counts[f"no_matched_{role}"] = len(side) - len(pairs)
    counts["low_support"] = sum(p.low_support for p in participants)
    return rows, series, tests, counts
