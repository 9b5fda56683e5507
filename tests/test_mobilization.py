import pytest

from intercom.corpus import extract_crosslinks
from intercom.mobilization import (
    BaselineError,
    baseline_ratio,
    detect,
    measure,
    smoothed_ratio,
)

from conftest import BASE, DAY, HOUR, comment, corpus_from, post


def test_window_counts_planted_fixture(two_community_corpus):
    # fixture plants exactly 2 source-member comments before t0 and 9 after
    corpus, t0 = two_community_corpus
    link = extract_crosslinks(corpus)[0]
    [counts] = measure(corpus, [link])
    assert (counts.before, counts.after) == (2, 9)


def test_window_counts_no_activity():
    t0 = BASE + 40 * DAY + 15 * HOUR
    corpus = corpus_from([
        post("tgt", "bob", "B", t0 - DAY),
        post("src", "alice", "A", t0, body="r/B/comments/tgt"),
    ])
    link = extract_crosslinks(corpus)[0]
    [counts] = measure(corpus, [link])
    assert (counts.before, counts.after) == (0, 0)


def test_window_counts_half_open_at_t0():
    t0 = BASE + 40 * DAY + 15 * HOUR
    events = [
        post("anchor", "x", "A", BASE),
        post("tgt", "bob", "B", t0 - DAY),
        post("src", "alice", "A", t0, body="r/B/comments/tgt"),
        comment("m1", "a1", "A", t0 - 10 * DAY, "anchor"),
        comment("exact", "a1", "B", t0, "tgt"),
    ]
    corpus = corpus_from(events)
    link = extract_crosslinks(corpus)[0]
    [counts] = measure(corpus, [link])
    assert (counts.before, counts.after) == (0, 1)


def test_smoothed_ratio():
    assert smoothed_ratio(0, 0) == 1.0
    assert smoothed_ratio(2, 9) == pytest.approx(10 / 3)


def _baseline_corpus(matched_counts):
    """One cross-link per entry; each target gets a matched thread whose
    (before, after) source-member comment counts are as given."""
    events = [post("anchor", "x", "A", BASE)]
    links_t0 = []
    for i, (m_before, m_after) in enumerate(matched_counts):
        t0 = BASE + (40 + 3 * i) * DAY + 15 * HOUR
        links_t0.append(t0)
        tgt, mat, src = f"tgt{i}", f"mat{i}", f"src{i}"
        events.append(post(tgt, "bob", "B", t0 - 14 * HOUR))
        events.append(post(mat, "eve", "B", t0 - 14 * HOUR + 600))
        events.append(post(src, "alice", "A", t0, body=f"r/B/comments/{tgt}"))
        for j in range(m_before + m_after):
            user = f"a{i}_{j}"
            events.append(comment(f"mem{i}_{j}", user, "A", t0 - 10 * DAY + j, "anchor"))
            ts = t0 - HOUR - j if j < m_before else t0 + HOUR + j
            events.append(comment(f"mc{i}_{j}", user, "B", ts, mat))
    return corpus_from(events)


def test_baseline_identity_ratio():
    corpus = _baseline_corpus([(1, 1), (1, 1)])
    links = extract_crosslinks(corpus)
    assert baseline_ratio(measure(corpus, links)) == pytest.approx(1.0)


def test_baseline_mean_of_ratios():
    # smoothed matched ratios {1.0, 3.0} -> mean 2.0
    corpus = _baseline_corpus([(0, 0), (0, 2)])
    links = extract_crosslinks(corpus)
    assert baseline_ratio(measure(corpus, links)) == pytest.approx(2.0)
    assert baseline_ratio(measure(corpus, links), stat="median") == pytest.approx(2.0)


def test_baseline_restricts_on_precount_difference():
    # target pre-count 0 vs matched pre-count 5: pair excluded
    corpus = _baseline_corpus([(5, 3), (0, 2)])
    links = extract_crosslinks(corpus)
    assert baseline_ratio(measure(corpus, links)) == pytest.approx(3.0)


def test_baseline_no_pairs_error():
    corpus = corpus_from([
        post("tgt", "bob", "B", BASE + 39 * DAY),
        post("src", "alice", "A", BASE + 40 * DAY, body="r/B/comments/tgt"),
    ])
    links = extract_crosslinks(corpus)
    with pytest.raises(BaselineError, match="1.6"):
        baseline_ratio(measure(corpus, links))


def test_detect_mobilization_fixture(two_community_corpus):
    corpus, t0 = two_community_corpus
    links = extract_crosslinks(corpus)
    record = detect(measure(corpus, links)[0], 1.6)
    assert record.ratio == pytest.approx(10 / 3)
    assert record.verdict == "mobilization"
    assert record.attackers == {"a1", "a2", "a3", "a4", "a5"}
    assert record.defenders == {"b1", "b2"}
    assert record.attackers & record.defenders == set()
    assert record.matched_before == 0 and record.matched_after == 0


def test_detect_no_activity_none():
    t0 = BASE + 40 * DAY + 15 * HOUR
    corpus = corpus_from([
        post("tgt", "bob", "B", t0 - DAY),
        post("src", "alice", "A", t0, body="r/B/comments/tgt"),
    ])
    record = detect(measure(corpus, extract_crosslinks(corpus))[0], 1.6)
    assert record.ratio == 1.0
    assert record.verdict == "none"
    assert record.attackers == set() and record.defenders == set()


def test_detect_requires_positive_baseline(two_community_corpus):
    corpus, _ = two_community_corpus
    link = extract_crosslinks(corpus)[0]
    with pytest.raises(ValueError):
        detect(measure(corpus, [link])[0], 0.0)


def test_detect_monotone_in_after_count():
    # adding after-window comments never flips mobilization -> none
    t0 = BASE + 40 * DAY + 15 * HOUR
    base_events = [
        post("anchor", "x", "A", BASE),
        post("tgt", "bob", "B", t0 - DAY),
        post("src", "alice", "A", t0, body="r/B/comments/tgt"),
        comment("mem", "a1", "A", t0 - 10 * DAY, "anchor"),
    ]
    last_verdict = "none"
    for n_after in range(8):
        events = list(base_events)
        for k in range(n_after):
            events.append(comment(f"aft{k}", "a1", "B", t0 + 60 + k, "tgt"))
        corpus = corpus_from(events)
        record = detect(measure(corpus, extract_crosslinks(corpus))[0], 1.6)
        if last_verdict == "mobilization":
            assert record.verdict == "mobilization"
        last_verdict = record.verdict
    assert last_verdict == "mobilization"
