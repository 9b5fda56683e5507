"""Long-term activity impact, defense success, and nonparametric tests."""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import combinations

from .corpus import DAY, Corpus, window_keys
from .matching import HISTORY_GAP_DAYS, match_pool, matched_user
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
# the reply-network metrics averaged over success buckets: file, REPLYNET_HEADER column
SERIES = [
    ("series_reply_fraction.csv", "defender_reply_fraction_to_attackers"),
    ("series_defender_apr.csv", "mean_defender_apr"),
    ("series_attacker_dpr.csv", "mean_attacker_dpr"),
    ("series_defender_anger.csv", "anger_defender_to_attacker"),
]


@dataclass(frozen=True)
class ActivityDelta:
    delta: float
    before_fraction: float
    after_fraction: float
    before_total: int
    after_total: int
    low_support: bool


@dataclass
class ImpactRecord:
    user: str
    role: str  # "attacker" | "defender"
    delta: float
    matched_delta: float | None
    low_support: bool = False


@dataclass
class DefenseOutcome:
    mobilization_id: str
    success_score: float
    decile: int | None = None


def _window_fraction(corpus: Corpus, user: str, community: str, lo: float, hi: float, t0: float):
    communities = window_keys(corpus.user_timelines.get(user), lo, hi, t0, HISTORY_GAP_DAYS * DAY)
    total = len(communities)
    return (communities.count(community) / total if total else 0.0), total


def activity_delta(corpus: Corpus, user: str, community: str, t0: float) -> ActivityDelta:
    """Change (after minus before) in the user's fraction of comments made in
    ``community``.

    Before window: [t0-30d, t0). After window: [t0+3d, t0+33d). Comments
    within +/-3 days of t0 are excluded from both. A window with zero
    comments contributes fraction 0 and flags the record as low-support.
    """
    before_lo, before_hi = t0 - IMPACT_WINDOW_DAYS * DAY, t0
    after_lo = t0 + POST_GAP_DAYS * DAY
    after_hi = after_lo + IMPACT_WINDOW_DAYS * DAY
    before_frac, before_total = _window_fraction(corpus, user, community, before_lo, before_hi, t0)
    after_frac, after_total = _window_fraction(corpus, user, community, after_lo, after_hi, t0)
    return ActivityDelta(
        delta=after_frac - before_frac,
        before_fraction=before_frac,
        after_fraction=after_frac,
        before_total=before_total,
        after_total=after_total,
        low_support=(before_total == 0 or after_total == 0),
    )


def mobilization_impacts(corpus: Corpus, record: MobilizationRecord, seed: int = 0) -> list[ImpactRecord]:
    """Activity deltas in the target community for every attacker and
    defender, paired with their matched users' deltas (``matched_delta`` is
    None for a user with no matched user)."""
    link = record.crosslink
    impacts = []
    for role, users, home in (
        ("attacker", record.attackers, link.source_community),
        ("defender", record.defenders, link.target_community),
    ):
        if not users:
            continue
        subjects = sorted(users)
        matches = matched_user(corpus, subjects, match_pool(corpus, link, home), seed=seed)
        for user, match in zip(subjects, matches):
            own = activity_delta(corpus, user, link.target_community, link.t0)
            matched_delta = None
            if match is None:
                log.debug("no matched user for %s in %s", user, home)
            else:
                matched_delta = activity_delta(corpus, match, link.target_community, link.t0).delta
            impacts.append(
                ImpactRecord(
                    user=user,
                    role=role,
                    delta=own.delta,
                    matched_delta=matched_delta,
                    low_support=own.low_support,
                )
            )
    return impacts


def defense_success(record: MobilizationRecord, impacts: list[ImpactRecord]) -> DefenseOutcome:
    """Mean defender delta minus mean matched delta; positive means the
    defense was successful. Records without a matched user fall back to a
    raw (unadjusted) contribution of zero on the matched side."""
    defender = [i for i in impacts if i.role == "defender"]
    if not defender:
        raise ValueError(f"no defender impact records for {record.id}")
    mean_delta = sum(i.delta for i in defender) / len(defender)
    matched = [i.matched_delta for i in defender if i.matched_delta is not None]
    mean_matched = sum(matched) / len(matched) if matched else 0.0
    return DefenseOutcome(mobilization_id=record.id, success_score=mean_delta - mean_matched)


def assign_deciles(outcomes: list[DefenseOutcome]) -> list[DefenseOutcome]:
    """Label each outcome with its success decile (1 = least successful);
    bin sizes differ by at most one."""
    ordered = sorted(outcomes, key=lambda o: (o.success_score, o.mobilization_id))
    n = len(ordered)
    for rank, outcome in enumerate(ordered):
        outcome.decile = min(10, 1 + (rank * 10) // n)
    return outcomes


def moving_average(values: list[float], window: int = 5) -> list[float]:
    """Centered moving average of +/-window points, truncated at the edges."""
    n = len(values)
    out = []
    for i in range(n):
        lo, hi = max(0, i - window), min(n, i + window + 1)
        out.append(sum(values[lo:hi]) / (hi - lo))
    return out


@dataclass
class SuccessSeries:
    points: list[tuple[float, float]]
    smoothed: bool


def decile_series(
    outcomes: list[DefenseOutcome],
    metric_fn,
    window: int = 5,
    n_buckets: int = 100,
) -> SuccessSeries:
    """Per-outcome metric averaged over equal-size success buckets, smoothed
    by a centered +/-window moving average.

    Falls back to the raw (unsmoothed) series when there are fewer than
    2*window+1 buckets.
    """
    ordered = sorted(outcomes, key=lambda o: (o.success_score, o.mobilization_id))
    n = len(ordered)
    if n == 0:
        return SuccessSeries(points=[], smoothed=False)
    buckets = min(n_buckets, n)
    xs, ys = [], []
    for b in range(buckets):
        lo, hi = (b * n) // buckets, ((b + 1) * n) // buckets
        chunk = ordered[lo:hi]
        xs.append(sum(o.success_score for o in chunk) / len(chunk))
        ys.append(sum(metric_fn(o) for o in chunk) / len(chunk))
    if buckets < 2 * window + 1:
        return SuccessSeries(points=list(zip(xs, ys)), smoothed=False)
    return SuccessSeries(points=list(zip(xs, moving_average(ys, window))), smoothed=True)


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


def mann_whitney_u(a, b, exact_max: int = MWU_EXACT_MAX) -> tuple[float, float]:
    """Mann-Whitney U for sample ``a`` with a two-sided p-value.

    Exact permutation enumeration (midrank ties) up to a combined size of
    ``exact_max``; normal approximation with tie and continuity corrections
    beyond that.
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

    if n1 + n2 <= exact_max:
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


def wilcoxon_signed_rank(pairs, exact_max: int = WILCOXON_EXACT_MAX) -> tuple[float, float]:
    """Wilcoxon signed-rank W (sum of positive-difference ranks) with a
    two-sided p-value.

    Zero differences are dropped; exact sign-pattern distribution up to
    ``exact_max`` nonzero pairs, normal approximation with tie and
    continuity corrections beyond.
    """
    diffs = [x - y for x, y in pairs]
    diffs = [d for d in diffs if d != 0]
    n = len(diffs)
    if n == 0:
        raise ValueError("all differences are zero")
    abs_ranks = midranks([abs(d) for d in diffs])
    w = sum(r for r, d in zip(abs_ranks, diffs) if d > 0)
    mu = n * (n + 1) / 4.0

    if n <= exact_max:
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


def aggregate(corpus: Corpus, records: list[MobilizationRecord], replynet_rows: list[list],
              seed: int = 0) -> tuple[list[list], dict[str, SuccessSeries], dict, dict]:
    """The impact of the mobilization ``records``: the IMPACT_HEADER rows of
    those with defenders; per SERIES column, the column of their
    REPLYNET_HEADER rows (0.0 where missing) over the success buckets; the
    tests, None where one cannot run; and the counts of outcomes and fallbacks."""
    metrics = {row[0]: dict(zip(REPLYNET_HEADER, row)) for row in replynet_rows}
    outcomes, rows = [], []
    deltas = {"attacker": [], "defender": []}
    pairs = {"attacker": [], "defender": []}
    counts = {"no_matched_attacker": 0, "no_matched_defender": 0, "low_support": 0}
    for record in records:
        impacts = mobilization_impacts(corpus, record, seed=seed)
        for i in impacts:
            counts[f"no_matched_{i.role}"] += i.matched_delta is None
            counts["low_support"] += i.low_support
            deltas[i.role].append(i.delta)
            if i.matched_delta is not None:
                pairs[i.role].append((i.delta, i.matched_delta))
        attackers = [i for i in impacts if i.role == "attacker"]
        defenders = [i for i in impacts if i.role == "defender"]
        if not defenders:
            continue
        outcome = defense_success(record, impacts)
        outcomes.append(outcome)
        rows.append([
            record.id, len(attackers), len(defenders),
            _mean([i.delta for i in attackers]), _mean([i.delta for i in defenders]),
            _mean([i.matched_delta for i in attackers if i.matched_delta is not None]),
            _mean([i.matched_delta for i in defenders if i.matched_delta is not None]),
            outcome.success_score, None,
        ])
    assign_deciles(outcomes)
    for row, outcome in zip(rows, outcomes):
        row[-1] = outcome.decile

    series = {}
    for _filename, column in SERIES:
        def metric(outcome, column=column):
            value = metrics.get(outcome.mobilization_id, {}).get(column)
            return 0.0 if value is None else float(value)
        series[column] = decile_series(outcomes, metric)

    tests = {}
    if deltas["attacker"] and deltas["defender"]:
        u, p = mann_whitney_u(deltas["defender"], deltas["attacker"])
        tests["defender_vs_attacker_delta_mwu"] = {"U": u, "p": p}
    for role in ("attacker", "defender"):
        try:
            w, p = wilcoxon_signed_rank(pairs[role])
            tests[f"{role}_delta_vs_matched_wilcoxon"] = {"W": w, "p": p}
        except ValueError:
            tests[f"{role}_delta_vs_matched_wilcoxon"] = None
    return rows, series, tests, {"outcomes": len(outcomes), **counts}
