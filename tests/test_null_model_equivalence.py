"""``measure`` with ``baseline_ratio`` and ``detect`` against the two
functions they replaced, which measured every cross-link twice and are kept
here as the oracle, on random small logs with several cross-links.

Every drawn log holds random links, which share target community B, and
three planted ones: one into a community with no other post (no matched
post), the same from a community with no comments, and one whose target
thread has at least 5 more source-member comments before t0 than its matched
thread (skipped by the baseline). The oracle finds members by scanning the
comments, as sets of names, and must give the same records bit for bit.
"""
import math
import statistics
from itertools import count

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from intercom.corpus import DAY, CrossLink, day_start  # noqa: E402
from intercom.matching import NoMatchError, crosslink_involved_posts, matched_post  # noqa: E402
from intercom.mobilization import (  # noqa: E402
    DEFAULT_BASELINE,
    MAX_PRECOUNT_DIFF,
    BaselineError,
    MobilizationRecord,
    baseline_ratio,
    detect,
    measure,
    smoothed_ratio,
)

from conftest import BASE, HOUR, comment, corpus_from, post  # noqa: E402

USERS = [f"u{i}" for i in range(6)]
DAY0 = BASE + 40 * DAY  # the day every drawn link is created on
EXAMPLES = settings(max_examples=150, deadline=None)


# -- the null model as it was: each function measures every link itself ------

def reference_members(corpus, community, day, excluded):
    """Users with a comment in ``community`` during [day-30d, day) and none
    in ``excluded``, by a scan of every comment."""
    def authors(name):
        return {c.author for c in corpus.comments.values()
                if c.community == name and day - 30 * DAY <= c.timestamp < day}
    return authors(community) - authors(excluded)


def reference_thread_counts(corpus, post_id, users, t0, window_s):
    before = after = 0
    for c in corpus.thread_comments(post_id):
        if c.author not in users:
            continue
        if t0 - window_s <= c.timestamp < t0:
            before += 1
        elif t0 <= c.timestamp < t0 + window_s:
            after += 1
    return before, after


def reference_baseline_ratio(corpus, links, window_hours=12.0, stat="mean", involved=None,
                             counts=None):
    if stat not in ("mean", "median"):
        raise ValueError(f"stat must be mean or median, got {stat!r}")
    if involved is None:
        involved = crosslink_involved_posts(links)
    window_s = window_hours * 3600.0
    ratios = []
    no_match = skipped = 0
    for link in links:
        try:
            match = matched_post(corpus, link.target_post, involved)
        except NoMatchError:
            no_match += 1
            continue
        mem = reference_members(corpus, link.source_community, day_start(link.t0),
                                link.target_community)
        target_before, _ = reference_thread_counts(corpus, link.target_post, mem, link.t0, window_s)
        m_before, m_after = reference_thread_counts(corpus, match.match_id, mem, link.t0, window_s)
        if abs(target_before - m_before) >= MAX_PRECOUNT_DIFF:
            skipped += 1
            continue
        ratios.append(smoothed_ratio(m_before, m_after))
    if counts is not None:
        counts.update(eligible_pairs=len(ratios), no_matched_post=no_match, precount_skipped=skipped)
    if not ratios:
        raise BaselineError(
            "no eligible matched pairs for the null model; "
            f"pass an explicit baseline (reference value {DEFAULT_BASELINE})"
        )
    return statistics.mean(ratios) if stat == "mean" else statistics.median(ratios)


def reference_detect(corpus, link, baseline, links=None, window_hours=12.0):
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    window_s = window_hours * 3600.0
    day = day_start(link.t0)
    source_members = reference_members(corpus, link.source_community, day, link.target_community)
    target_members = reference_members(corpus, link.target_community, day, link.source_community)

    before, after = reference_thread_counts(corpus, link.target_post, source_members, link.t0,
                                            window_s)
    ratio = smoothed_ratio(before, after)

    attackers, defenders = set(), set()
    for c in corpus.thread_comments(link.target_post):
        if link.t0 <= c.timestamp < link.t0 + window_s:
            if c.author in source_members:
                attackers.add(c.author)
            elif c.author in target_members:
                defenders.add(c.author)

    matched_before = matched_after = None
    if links is not None:
        try:
            match = matched_post(corpus, link.target_post, crosslink_involved_posts(links))
            matched_before, matched_after = reference_thread_counts(
                corpus, match.match_id, source_members, link.t0, window_s
            )
        except NoMatchError:
            pass

    return MobilizationRecord(
        crosslink=link,
        before_count=before,
        after_count=after,
        ratio=ratio,
        baseline=baseline,
        verdict="mobilization" if ratio > baseline else "none",
        attackers=attackers,
        defenders=defenders,
        matched_before=matched_before,
        matched_after=matched_after,
    )


# -- random logs -------------------------------------------------------------

def window_edges(t0, window_s):
    """The times the window counts and the membership window compare
    against, and the floats next to each."""
    day = day_start(t0)
    points = [t0 - window_s, t0, t0 + window_s, day - 30 * DAY, day]
    return [p for x in points for p in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]


def planted(skip_extra):
    """Three links created at 15:00 on DAY0. Two are from community P: into
    Q, whose target thread has ``5 + skip_extra`` source-member comments in
    the hour before t0 and whose one other post (its matched post) has none,
    and into D, which has no other post and no comment. The third is into D
    from E, which has no comment either."""
    t0 = DAY0 + 15 * HOUR
    events = [post("p_anchor", "x", "P", DAY0 - 20 * DAY),
              post("q_target", "y", "Q", t0 - 2 * HOUR),
              post("q_match", "y", "Q", t0 - 3 * HOUR),
              post("d_target", "z", "D", t0 - 2 * HOUR)]
    for j in range(MAX_PRECOUNT_DIFF + skip_extra):
        user = f"p{j}"
        events.append(comment(f"pm{j}", user, "P", DAY0 - 5 * DAY + j, "p_anchor"))
        events.append(comment(f"qc{j}", user, "Q", t0 - HOUR + j, "q_target"))
    links = []
    for source_community, target, community in (("P", "q_target", "Q"), ("P", "d_target", "D"),
                                                ("E", "d_target", "D")):
        source = f"src_{source_community}_{target}"
        events.append(post(source, "linker", source_community, t0,
                           body=f"r/{community}/comments/{target}"))
        links.append(CrossLink(source_post=source, target_post=target,
                               source_community=source_community, target_community=community,
                               t0=t0, author="linker"))
    return events, links


@st.composite
def drawn_logs(draw):
    """Events, the cross-links (random ones into B from A or C, then the
    ``planted`` ones, in a drawn order) and the window in hours."""
    window_hours = draw(st.sampled_from([12.0, 3.0, 30.0]))
    window_s = window_hours * 3600.0
    t0s = draw(st.lists(st.sampled_from([0.0, 1.0, 15 * HOUR, DAY - 1.0]), min_size=2, max_size=4))
    t0s = [DAY0 + offset for offset in t0s]
    near = sorted({p for t0 in t0s for p in window_edges(t0, window_s)})
    times = st.one_of(st.sampled_from(near), st.floats(min_value=DAY0 - 35 * DAY,
                                                       max_value=DAY0 + 3 * DAY))
    ids = count()
    events, threads = [], {}
    for community in ("A", "B", "C"):
        for _ in range(draw(st.integers(1, 4))):
            pid = f"p{next(ids)}"
            events.append(post(pid, draw(st.sampled_from(USERS)), community, draw(times)))
            threads.setdefault(community, []).append(pid)
    links = []
    for i, t0 in enumerate(t0s):
        source, community = f"src{i}", draw(st.sampled_from(["A", "C"]))
        target = draw(st.sampled_from(threads["B"]))
        events.append(post(source, "linker", community, t0, body=f"r/B/comments/{target}"))
        links.append(CrossLink(source_post=source, target_post=target, source_community=community,
                               target_community="B", t0=t0, author="linker"))
    for _ in range(draw(st.integers(0, 60))):
        community = draw(st.sampled_from(["A", "B", "C"]))
        events.append(comment(f"c{next(ids)}", draw(st.sampled_from(USERS)), community,
                              draw(times), draw(st.sampled_from(threads[community]))))
    planted_events, planted_links = planted(draw(st.integers(0, 2)))
    links = draw(st.permutations(links + planted_links))
    return events + planted_events, links, window_hours


def outcome(fn, *args, **kwargs):
    """A call's result, or the type of the BaselineError it raised."""
    try:
        return fn(*args, **kwargs)
    except BaselineError as exc:
        return type(exc)


# -- equivalence -------------------------------------------------------------

@EXAMPLES
@given(drawn_logs(), st.sampled_from(["mean", "median"]))
def test_one_measurement_gives_the_old_baseline_counts_and_records(drawn, stat):
    events, links, window_hours = drawn
    corpus = corpus_from(events)
    expected_counts, counts = {}, {}
    expected = outcome(reference_baseline_ratio, corpus, links, window_hours=window_hours,
                       stat=stat, counts=expected_counts)
    measured = measure(corpus, links, window_hours=window_hours)
    assert outcome(baseline_ratio, measured, stat=stat, counts=counts) == expected
    assert counts == expected_counts
    assert counts["no_matched_post"] >= 1 and counts["precount_skipped"] >= 1

    baseline = DEFAULT_BASELINE if expected is BaselineError else expected
    assert [m.link for m in measured] == links
    for link, link_counts in zip(links, measured):
        old = reference_detect(corpus, link, baseline, links=links, window_hours=window_hours)
        assert detect(link_counts, baseline).to_dict() == old.to_dict()
