import csv
import math
import random
from itertools import combinations, product

import pytest

from intercom.impact import (
    IMPACT_HEADER,
    MWU_EXACT_MAX,
    WILCOXON_EXACT_MAX,
    Participant,
    _activity_counts,
    activity_delta,
    aggregate,
    mann_whitney_u,
    mobilization_impacts,
    moving_average,
    success_series,
    wilcoxon_signed_rank,
)
from intercom.pipeline import SERIES, Config, run_pipeline
from intercom.stages import Run
from intercom.synth import SynthSpec, generate_corpus

from conftest import BASE, DAY, HOUR, comment, corpus_from, paired_participants, post


def _activity_corpus(before_in, before_out, after_in, after_out, t0):
    """User 'u' comments in T (in) and elsewhere (out) around t0."""
    events = [post("pt", "x", "T", BASE), post("po", "x", "O", BASE)]
    n = 0
    for count, community, window_start in (
        (before_in, "T", t0 - 20 * DAY), (before_out, "O", t0 - 20 * DAY),
        (after_in, "T", t0 + 10 * DAY), (after_out, "O", t0 + 10 * DAY),
    ):
        for i in range(count):
            events.append(comment(f"c{n}", "u", community, window_start + i * 60,
                                  "pt" if community == "T" else "po"))
            n += 1
    return corpus_from(events)


def test_activity_delta_identical_behavior():
    t0 = BASE + 60 * DAY
    corpus = _activity_corpus(3, 7, 3, 7, t0)
    [result] = activity_delta(corpus, [("u", "T", t0)])
    assert result.delta == pytest.approx(0.0)
    assert not result.low_support


def test_activity_delta_half_shift():
    t0 = BASE + 60 * DAY
    corpus = _activity_corpus(0, 10, 5, 5, t0)
    [result] = activity_delta(corpus, [("u", "T", t0)])
    assert result.delta == pytest.approx(0.5)
    totals, inside = _activity_counts(corpus, [("u", "T", t0)])
    assert (inside / totals).tolist() == [[0.0, 0.5]]  # the before and after fractions


def test_activity_delta_gap_exclusion():
    # every comment inside the +/-3 day band: flagged, delta 0
    t0 = BASE + 60 * DAY
    events = [post("pt", "x", "T", BASE)]
    for i in range(5):
        events.append(comment(f"c{i}", "u", "T", t0 - 2 * DAY + i * HOUR, "pt"))
        events.append(comment(f"d{i}", "u", "T", t0 + 2 * DAY + i * HOUR, "pt"))
    corpus = corpus_from(events)
    [result] = activity_delta(corpus, [("u", "T", t0)])
    assert result.delta == 0.0
    assert result.low_support


def test_activity_delta_windows_brute_force():
    # independent oracle: recount fractions directly from the event list
    rng = random.Random(11)
    t0 = BASE + 60 * DAY
    events = [post("pt", "x", "T", BASE), post("po", "x", "O", BASE)]
    times = []
    for i in range(120):
        ts = t0 + rng.uniform(-35, 40) * DAY
        community = "T" if rng.random() < 0.4 else "O"
        times.append((ts, community))
        events.append(comment(f"c{i}", "u", community, ts,
                              "pt" if community == "T" else "po"))
    corpus = corpus_from(events)
    [result] = activity_delta(corpus, [("u", "T", t0)])

    def frac(lo, hi):
        window = [(ts, c) for ts, c in times if lo <= ts < hi and abs(ts - t0) >= 3 * DAY]
        if not window:
            return 0.0
        return sum(1 for _, c in window if c == "T") / len(window)

    expected = frac(t0 + 3 * DAY, t0 + 33 * DAY) - frac(t0 - 30 * DAY, t0)
    assert result.delta == pytest.approx(expected)


def impact_rows(impacts):
    """``aggregate``'s rows for records with the ids of ``impacts``, in that
    order, whose participants are ``impacts[id]``, each a (user, role,
    delta, matched_delta)."""
    records = [type("R", (), {"id": key})() for key in impacts]
    participants = [Participant(index, role, user, delta, matched_delta, False)
                    for index, found in enumerate(impacts.values())
                    for user, role, delta, matched_delta in found]
    rows, *_ = aggregate(records, participants, [], [])
    return rows


def success_scores(impacts):
    """The success_score column of ``impact_rows``, by record id."""
    return {row[0]: row[IMPACT_HEADER.index("success_score")] for row in impact_rows(impacts)}


def test_defense_success_values():
    scores = success_scores({
        "m1": [("d1", "defender", 0.2, 0.0), ("d2", "defender", 0.4, 0.0),
               ("a1", "attacker", 0.9, 0.9)],
        "m2": [("d", "defender", 0.1, 0.1)],
        # no matched defender: the matched side counts 0.0
        "m3": [("d", "defender", 0.25, None)],
    })
    assert scores == {"m1": pytest.approx(0.3), "m2": pytest.approx(0.0), "m3": 0.25}


def test_defense_success_requires_defenders():
    # a mobilization without defenders has no defense, so no row
    assert success_scores({"m1": [("a", "attacker", 0.0, None)]}) == {}


def test_every_success_score_is_the_mean_defender_delta_less_the_mean_matched_one(tmp_path):
    """As read back from impact.csv: the written columns keep every float
    exact, so a reader recomputes each score from the two written means."""
    events_path, _ = generate_corpus(SynthSpec(), tmp_path / "world")  # 60 links
    run_pipeline(Config(corpus=str(events_path), output_dir=str(tmp_path / "out")))
    with open(tmp_path / "out" / "impact.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) > 10
    for row in rows:
        matched = row["mean_defender_matched_delta"]
        expected = float(row["mean_defender_delta"]) - (float(matched) if matched else 0.0)
        assert float(row["success_score"]) == expected, row["mobilization"]


def test_aggregate_decile_partition():
    # each record's one defender has no matched user, so its score is its delta
    order = list(range(25))
    random.Random(0).shuffle(order)
    rows = impact_rows({f"m{i}": [("d", "defender", i * 0.01, None)] for i in order})
    score, decile = IMPACT_HEADER.index("success_score"), IMPACT_HEADER.index("decile")
    sizes = {}
    for row in rows:
        sizes[row[decile]] = sizes.get(row[decile], 0) + 1
    assert set(sizes) == set(range(1, 11))
    assert max(sizes.values()) - min(sizes.values()) <= 1
    ordered = sorted(rows, key=lambda row: row[score])
    assert all(a[decile] <= b[decile] for a, b in zip(ordered, ordered[1:]))


def test_moving_average_constant():
    assert moving_average([2.0] * 15, window=5) == [pytest.approx(2.0)] * 15


def test_moving_average_impulse_plateau():
    values = [0.0] * 12 + [1.0] + [0.0] * 12
    smoothed = moving_average(values, window=5)
    for i, v in enumerate(smoothed):
        if 7 <= i <= 17:
            assert v == pytest.approx(1 / 11)
        else:
            assert v == 0.0


def test_success_series_smoothing_and_flag():
    scores = [i / 50 for i in range(50)]
    points, smoothed = success_series(scores, scores, n_buckets=25)
    assert smoothed
    assert len(points) == 25
    xs = [x for x, _ in points]
    assert xs == sorted(xs)

    small_points, small_smoothed = success_series(scores[:6], [1.0] * 6, n_buckets=100)
    assert not small_smoothed
    assert len(small_points) == 6


def _mwu_exact_oracle(a, b):
    """Enumerate all choose(n1+n2, n1) rank assignments."""
    pooled = sorted(a + b)
    ranks = []
    i = 0
    while i < len(pooled):
        j = i
        while j + 1 < len(pooled) and pooled[j + 1] == pooled[i]:
            j += 1
        for _ in range(i, j + 1):
            ranks.append((i + j + 2) / 2)
        i = j + 1
    value_ranks = {}
    for v, r in zip(pooled, ranks):
        value_ranks.setdefault(v, []).append(r)
    # observed U from actual assignment
    take = {v: 0 for v in value_ranks}
    r_obs = 0.0
    for v in a:
        r_obs += value_ranks[v][take[v]]
        take[v] += 1
    n1, n2 = len(a), len(b)
    u_obs = r_obs - n1 * (n1 + 1) / 2
    mu = n1 * n2 / 2
    hits = total = 0
    for combo in combinations(ranks, n1):
        u = sum(combo) - n1 * (n1 + 1) / 2
        total += 1
        if abs(u - mu) >= abs(u_obs - mu) - 1e-12:
            hits += 1
    return u_obs, hits / total


def test_mwu_separated_samples_exact():
    u, p = mann_whitney_u([1, 2, 3], [4, 5, 6])
    assert u == 0
    assert p == pytest.approx(0.1)
    oracle_u, oracle_p = _mwu_exact_oracle([1, 2, 3], [4, 5, 6])
    assert (u, p) == (pytest.approx(oracle_u), pytest.approx(oracle_p))


def test_mwu_identical_samples():
    _, p = mann_whitney_u([1, 2, 3], [1, 2, 3])
    assert p == pytest.approx(1.0)


def test_mwu_matches_oracle_with_ties():
    rng = random.Random(0)
    for _ in range(20):
        n1, n2 = rng.randint(1, 5), rng.randint(1, 5)
        a = [rng.randint(0, 4) for _ in range(n1)]
        b = [rng.randint(0, 4) for _ in range(n2)]
        u, p = mann_whitney_u(a, b)
        ou, op = _mwu_exact_oracle(a, b)
        assert u == pytest.approx(ou)
        assert p == pytest.approx(op)


def test_mwu_u_complement_identity():
    rng = random.Random(1)
    for _ in range(30):
        a = [rng.randint(0, 9) for _ in range(rng.randint(1, 8))]
        b = [rng.randint(0, 9) for _ in range(rng.randint(1, 8))]
        u_ab, _ = mann_whitney_u(a, b)
        u_ba, _ = mann_whitney_u(b, a)
        assert u_ab + u_ba == pytest.approx(len(a) * len(b))


def test_mwu_monotone_transform_invariance():
    rng = random.Random(2)
    a = [rng.uniform(0, 5) for _ in range(8)]
    b = [rng.uniform(0, 5) for _ in range(7)]
    _, p1 = mann_whitney_u(a, b)
    _, p2 = mann_whitney_u([math.exp(x) for x in a], [math.exp(x) for x in b])
    assert p1 == pytest.approx(p2)


def test_mwu_normal_approximation_path():
    rng = random.Random(3)
    a = [rng.gauss(0, 1) for _ in range(30)]
    b = [rng.gauss(0, 1) for _ in range(30)]
    _, p = mann_whitney_u(a, b)
    assert 0.0 < p <= 1.0
    # extreme separation is significant under the approximation
    _, p_sep = mann_whitney_u(list(range(30)), list(range(100, 130)))
    assert p_sep < 1e-6


def test_mwu_empty_sample_error():
    with pytest.raises(ValueError):
        mann_whitney_u([], [1, 2])


def _wilcoxon_exact_oracle(diffs):
    """Enumerate all 2^n sign patterns over the |diff| midranks."""
    absd = [abs(d) for d in diffs]
    order = sorted(range(len(absd)), key=lambda i: absd[i])
    ranks = [0.0] * len(absd)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and absd[order[j + 1]] == absd[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j + 2) / 2
        i = j + 1
    w_obs = sum(r for r, d in zip(ranks, diffs) if d > 0)
    n = len(diffs)
    mu = n * (n + 1) / 4
    hits = 0
    for signs in product((0, 1), repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        if abs(w - mu) >= abs(w_obs - mu) - 1e-12:
            hits += 1
    return w_obs, hits / 2**n


def test_wilcoxon_all_positive_exact():
    pairs = [(i, 0) for i in (1, 2, 3, 4, 5)]
    w, p = wilcoxon_signed_rank(pairs)
    assert w == 15
    assert p == pytest.approx(0.0625)
    ow, op = _wilcoxon_exact_oracle([1, 2, 3, 4, 5])
    assert (w, p) == (pytest.approx(ow), pytest.approx(op))


def test_wilcoxon_antisymmetric_pair():
    _, p = wilcoxon_signed_rank([(1, 0), (0, 1)])
    assert p == pytest.approx(1.0)


def test_wilcoxon_matches_oracle_with_ties():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(1, 8)
        diffs = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n)]
        pairs = [(d, 0) for d in diffs]
        w, p = wilcoxon_signed_rank(pairs)
        ow, op = _wilcoxon_exact_oracle(diffs)
        assert w == pytest.approx(ow)
        assert p == pytest.approx(op)


def test_wilcoxon_drops_zero_differences():
    w, p = wilcoxon_signed_rank([(1, 1), (2, 0), (3, 0)])
    ow, op = _wilcoxon_exact_oracle([2, 3])
    assert w == pytest.approx(ow)
    assert p == pytest.approx(op)


def test_wilcoxon_all_zero_error():
    # the message is the reason stat_tests.json records for a skipped test
    with pytest.raises(ValueError, match="^all differences are zero$"):
        wilcoxon_signed_rank([(1, 1), (2, 2)])
    with pytest.raises(ValueError, match="^no pairs$"):
        wilcoxon_signed_rank([])


def test_wilcoxon_odd_transform_invariance():
    # invariant under strictly increasing odd transforms of the differences
    rng = random.Random(5)
    diffs = [rng.uniform(-3, 3) for _ in range(10)]
    _, p1 = wilcoxon_signed_rank([(d, 0) for d in diffs])
    _, p2 = wilcoxon_signed_rank([(d**3, 0) for d in diffs])
    assert p1 == pytest.approx(p2)


def test_wilcoxon_normal_approximation_path():
    rng = random.Random(6)
    pairs = [(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(60)]
    _, p = wilcoxon_signed_rank(pairs)
    assert 0.0 < p <= 1.0
    pairs_shift = [(x + 3, y) for x, y in pairs]
    _, p_shift = wilcoxon_signed_rank(pairs_shift)
    assert p_shift < 1e-6


# scipy as an independent oracle. The statistics are sums of midranks, so
# they must be equal; the p-values come from the same distributions by
# different arithmetic (integer counts against scipy's recursions, math.erfc
# against scipy's ndtr), so they may differ in the last digits only.
P_REL = 1e-9


def test_mwu_matches_scipy_on_both_sides_of_the_exact_limit():
    stats = pytest.importorskip("scipy.stats")
    rng = random.Random(5)
    cases = [(1, 1), (10, 10), (1, MWU_EXACT_MAX - 1)]
    cases += [(n1, rng.randint(1, MWU_EXACT_MAX - n1)) for n1 in rng.sample(range(1, 20), 8)]
    for n1, n2 in cases:  # exact branch: tie-free samples
        pooled = [v / 7 for v in rng.sample(range(1000), n1 + n2)]
        a, b = pooled[:n1], pooled[n1:]
        u, p = mann_whitney_u(a, b)
        ref = stats.mannwhitneyu(a, b, alternative="two-sided", method="exact")
        assert u == ref.statistic
        assert p == pytest.approx(ref.pvalue, rel=P_REL)
    for n1, n2 in [(1, MWU_EXACT_MAX), (11, 10), (30, 25), (5, 50), (40, 40)]:
        for _ in range(3):  # asymptotic branch: ties, with both corrections
            a = [rng.randint(0, 6) for _ in range(n1)]
            b = [rng.randint(2, 8) for _ in range(n2)]
            b[0] = 8  # at least two distinct values
            u, p = mann_whitney_u(a, b)
            ref = stats.mannwhitneyu(a, b, use_continuity=True, alternative="two-sided",
                                     method="asymptotic")
            assert u == ref.statistic
            assert p == pytest.approx(ref.pvalue, rel=P_REL)


def test_wilcoxon_matches_scipy_on_both_sides_of_the_exact_limit():
    stats = pytest.importorskip("scipy.stats")
    rng = random.Random(6)
    sizes = [1, 2, WILCOXON_EXACT_MAX] + rng.sample(range(3, WILCOXON_EXACT_MAX), 8)
    for n in sizes:  # exact branch: distinct nonzero |differences|
        diffs = [m * rng.choice((-1, 1)) / 4 for m in rng.sample(range(1, 200), n)]
        pairs = [(1.0 + d, 1.0) for d in diffs]
        w, p = wilcoxon_signed_rank(pairs)
        x, y = [a for a, _b in pairs], [b for _a, b in pairs]
        greater = stats.wilcoxon(x, y, zero_method="wilcox", alternative="greater", method="exact")
        both = stats.wilcoxon(x, y, zero_method="wilcox", alternative="two-sided", method="exact")
        assert w == greater.statistic
        assert p == pytest.approx(both.pvalue, rel=P_REL)
    for n in (WILCOXON_EXACT_MAX + 1, 30, 45, 60):
        for _ in range(3):  # asymptotic branch: ties and zero differences
            pairs = [(rng.randint(0, 6), rng.randint(0, 5)) for _ in range(n)]
            k = rng.randint(0, WILCOXON_EXACT_MAX + 1)  # > 25 nonzero, skewed by k
            pairs += [(9, 2)] * k + [(2, 9)] * (WILCOXON_EXACT_MAX + 1 - k)
            x, y = [a for a, _b in pairs], [b for _a, b in pairs]
            w, p = wilcoxon_signed_rank(pairs)
            kwargs = dict(zero_method="wilcox", correction=True, method="asymptotic")
            assert w == stats.wilcoxon(x, y, alternative="greater", **kwargs).statistic
            assert p == pytest.approx(stats.wilcoxon(x, y, alternative="two-sided",
                                                     **kwargs).pvalue, rel=P_REL)


def test_mobilization_impacts_roles(two_community_corpus):
    from intercom.corpus import extract_crosslinks
    from intercom.mobilization import detect, measure

    corpus, _ = two_community_corpus
    links = extract_crosslinks(corpus)
    record = detect(measure(corpus, links)[0], 1.6)
    impacts = mobilization_impacts(corpus, [record])
    roles = {(i.user, i.role) for i in impacts}
    assert {(f"a{i}", "attacker") for i in range(1, 6)} <= roles
    assert {("b1", "defender"), ("b2", "defender")} <= roles
    for i in impacts:
        assert i.record == 0
        assert -1.0 <= i.delta <= 1.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_each_participant_is_paired_with_its_own_matched_users_delta(seed, tmp_path):
    """On every record of the default world, mobilizations or not, against
    one activity_delta call per user and per matched user."""
    events_path, _ = generate_corpus(SynthSpec(seed=seed), tmp_path / "world")
    run = Run(Config(corpus=str(events_path), output_dir=str(tmp_path / "out")))
    found = mobilization_impacts(run.corpus, run.records, seed=seed + 5)
    assert len({p.record for p in found}) > 50
    # repr compares floats bit for bit and keeps None apart from 0
    assert repr(found) == repr(paired_participants(run.corpus, run.records, seed + 5))


def test_aggregate_of_no_mobilizations():
    assert mobilization_impacts(corpus_from([]), [], seed=3) == []
    rows, series, tests, counts = aggregate([], [], [], [column for _, column in SERIES])
    assert rows == []
    assert list(series) == [column for _, column in SERIES]
    assert all(s == ([], False) for s in series.values())
    assert tests == {"defender_vs_attacker_delta_mwu": {"skipped": "both samples must be non-empty"},
                     "attacker_delta_vs_matched_wilcoxon": {"skipped": "no pairs"},
                     "defender_delta_vs_matched_wilcoxon": {"skipped": "no pairs"}}
    assert counts == {"outcomes": 0, "no_matched_attacker": 0, "no_matched_defender": 0,
                      "low_support": 0}
