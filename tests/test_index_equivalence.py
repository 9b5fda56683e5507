"""The indexed membership and matching lookups against the linear scans they
replaced, ``index_lines`` against the two-pass indexing it replaced, and
``load_events`` against a ``json.loads`` loader of its written input rule,
which strips a line of JSON whitespace only, kept here as oracles, on
random small corpora. The scans give the lookups' results in their shapes
(masks and counts over user codes, a name or None per subject) from the
events alone, and must equal them bit for bit.

Timestamps are drawn mostly from the edges the lookups compare against: day
boundaries, the ends of the 30-day window, t0 +/- 3 days, and the floats
next to each.
"""
import json
import math
import random
import re
import sys
import tempfile
from array import array
from dataclasses import replace
from itertools import count, product
from operator import attrgetter

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from intercom.corpus import (  # noqa: E402
    DAY,
    MAX_DEPTH,
    PACK,
    CrossLink,
    Event,
    LoadStats,
    day_start,
    index_lines,
    link_members,
    load_events,
    member_window,
    members,
    window_codes,
    window_slices,
    _depth,
)
from intercom.impact import activity_delta  # noqa: E402
from intercom.matching import (  # noqa: E402
    NoMatchError,
    crosslink_involved_posts,
    match_pools,
    matched_post,
    matched_user,
)

from conftest import (BASE, HOUR, comment, comment_events, corpus_from, log_line,  # noqa: E402
                      post, record)

GAP = 3 * DAY
COMMUNITIES = ["A", "B", "C"]
USERS = [f"u{i}" for i in range(6)]
DAY0 = BASE + 40 * DAY  # the day every drawn link is created on
EXAMPLES = settings(max_examples=150, deadline=None)


# -- the scans the indexes replaced ------------------------------------------
# They read only ``comment_events``, none of the indexes under test.

def scan_comments(corpus, lo, hi, t0=0.0, gap=0.0, user=None, community=None):
    """The comments in [lo, hi) with ``abs(t - t0) >= gap``, of ``user``
    and in ``community`` when given."""
    return [c for c in comment_events(corpus).values()
            if lo <= c.timestamp < hi and abs(c.timestamp - t0) >= gap
            and user in (None, c.author) and community in (None, c.community)]


def commenters(corpus):
    """Every user with a comment, in name order: user code k is the k-th."""
    return sorted({c.author for c in comment_events(corpus).values()})


def scan_member_names(corpus, community, day, excluded=None):
    lo, hi = day - 30 * DAY, day
    found = {c.author for c in scan_comments(corpus, lo, hi, community=community)}
    if excluded is not None and found:
        found -= {c.author for c in scan_comments(corpus, lo, hi, community=excluded)}
    return found


def scan_members(corpus, community, day, excluded=None):
    """``scan_member_names`` as a mask over user codes."""
    found = scan_member_names(corpus, community, day, excluded)
    return np.array([u in found for u in commenters(corpus)], dtype=bool)


def scan_history_count(corpus, user, community, day, t0):
    return len(scan_comments(corpus, day - 30 * DAY, day, t0, GAP, user, community))


def scan_history(corpus, community, day, t0):
    """``scan_history_count`` of every user, over user codes."""
    return np.array([scan_history_count(corpus, u, community, day, t0)
                     for u in commenters(corpus)], dtype=np.intp)


def same(got, expected):
    """Whether two arrays hold the same values, bit for bit, of the same
    kind and shape."""
    return got.dtype.kind == expected.dtype.kind and np.array_equal(got, expected)


def scan_window_fraction(corpus, user, community, lo, hi, t0):
    total = len(scan_comments(corpus, lo, hi, t0, GAP, user))
    in_comm = len(scan_comments(corpus, lo, hi, t0, GAP, user, community))
    return (in_comm / total if total else 0.0), total


def scan_pool(corpus, link, community):
    """The names in a side's pool: its members on the link's day, less the
    target thread's commenters."""
    if community == link.source_community:
        counterpart = link.target_community
    elif community == link.target_community:
        counterpart = link.source_community
    else:
        raise ValueError(f"{community!r} is not a side of the cross-link")
    pool = scan_member_names(corpus, community, day_start(link.t0), counterpart)
    return pool - {c.author for c in corpus.thread_comments(link.target_post)}


def scan_matched_user(corpus, link, users, community, seed=0):
    """Per subject, the name of its matched user, or None."""
    day = day_start(link.t0)
    names = scan_pool(corpus, link, community)
    picks = []
    for user in users:
        pool = names - {user}
        if not pool:
            picks.append(None)
            continue
        subject = scan_history_count(corpus, user, community, day, link.t0)
        dist = {u: abs(scan_history_count(corpus, u, community, day, link.t0) - subject)
                for u in pool}
        best = min(dist.values())
        tied = sorted(u for u, d in dist.items() if d == best)
        picks.append(tied[0] if len(tied) == 1 else random.Random(seed).choice(tied))
    return picks


def scan_matched_post(corpus, links, post_id):
    post_ = corpus.posts[post_id]
    involved = {l.source_post for l in links} | {l.target_post for l in links}
    best = None
    for cand in corpus.community_posts.get(post_.community, []):
        if cand.id == post_id or cand.id in involved:
            continue
        key = (abs(cand.timestamp - post_.timestamp), cand.timestamp, cand.id)
        if best is None or key < best[0]:
            best = (key, cand)
    if best is None:
        raise NoMatchError(post_id)
    return best[1].id, best[0][0]


class TwoPassCorpus:
    """The indexing ``index_lines`` replaced: ``add`` every event, each one
    line of the log, then ``build_indexes``; the community comment
    timelines are built on their first read. The first event of a kind and
    id is kept, and a later one is a rejected line."""

    def __init__(self):
        self.posts, self.comments = {}, {}
        self.stats = LoadStats()
        self._timeline = None

    def add(self, event):
        self.stats.lines += 1
        store = self.posts if event.kind == "post" else self.comments
        if event.id in store:
            self.stats.rejected += 1
        else:
            store[event.id] = event

    def build_indexes(self):
        order = lambda e: (e.timestamp, e.id)  # noqa: E731
        self.posts_by_time = sorted(self.posts.values(), key=order)

        kept = {}
        for cid, c in self.comments.items():
            if c.thread_id in self.posts:
                kept[cid] = c
            else:
                self.stats.dangling_comments += 1
        self.comments = kept
        self.comments_by_time = sorted(self.comments.values(), key=order)

        self.thread_comments = {}
        self.community_posts = {}
        self.user_posts = {}
        self.user_timelines = {}
        for p in self.posts_by_time:
            self.community_posts.setdefault(p.community, []).append(p)
            self.user_posts.setdefault(p.author, []).append(p)
        for c in self.comments_by_time:
            self.thread_comments.setdefault(c.thread_id, []).append(c)
            entry = self.user_timelines.setdefault(c.author, (array("d"), []))
            entry[0].append(c.timestamp)
            entry[1].append(c.community)

        self.stats.posts = len(self.posts)
        self.stats.comments = len(self.comments)
        self._timeline = None

    def comment_timeline(self, community):
        if self._timeline is None:
            timeline = {}
            for c in self.comments_by_time:
                entry = timeline.get(c.community)
                if entry is None:
                    entry = timeline[c.community] = (array("d"), [])
                entry[0].append(c.timestamp)
                entry[1].append(c.author)
            self._timeline = timeline
        return self._timeline.get(community)


def two_pass(events):
    corpus = TwoPassCorpus()
    for event in events:
        corpus.add(event)
    corpus.build_indexes()
    return corpus


def outcome(fn, *args, **kwargs):
    """A call's result, or the type of the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except NoMatchError as exc:
        return type(exc)


# -- random corpora ----------------------------------------------------------

def edges(t0):
    """The times the lookups compare against, and the floats next to each."""
    day = day_start(t0)
    points = [day + k * DAY for k in (-31, -30, -29, -3, -1, 0, 1, 3, 33)]
    points += [t0 + k for k in (-33 * DAY, -30 * DAY, -GAP, 0.0, GAP, 30 * DAY, 33 * DAY)]
    return sorted({p for x in points for p in (math.nextafter(x, -math.inf), x,
                                               math.nextafter(x, math.inf))})


@st.composite
def drawn_events(draw):
    """Events on communities A-C, a cross-link from A to a B post created
    on DAY0, and the link's t0."""
    t0 = DAY0 + draw(st.sampled_from([0.0, 1.0, 15 * HOUR, DAY - 1.0]))
    times = st.one_of(st.sampled_from(edges(t0)),
                      st.floats(min_value=t0 - 40 * DAY, max_value=t0 + 40 * DAY))
    ids = count()
    events = [post("target", "x", "B", t0 - 2 * HOUR)]
    threads = {"B": ["target"]}
    for community in COMMUNITIES:
        for _ in range(draw(st.integers(1, 4))):
            pid = f"p{next(ids)}"
            events.append(post(pid, draw(st.sampled_from(USERS)), community, draw(times)))
            threads.setdefault(community, []).append(pid)
    for _ in range(draw(st.integers(0, 40))):
        community = draw(st.sampled_from(COMMUNITIES))
        events.append(comment(f"c{next(ids)}", draw(st.sampled_from(USERS)), community,
                              draw(times), draw(st.sampled_from(threads[community]))))
    events.append(post("source", "linker", "A", t0, body="r/B/comments/target"))
    link = CrossLink(source_post="source", target_post="target", source_community="A",
                     target_community="B", t0=t0, author="linker")
    return events, link, t0


def corpora():
    """A corpus of ``drawn_events``, the cross-link and its t0."""
    return drawn_events().map(lambda drawn: (corpus_from(drawn[0]), *drawn[1:]))


# -- equivalence -------------------------------------------------------------

def link_members_equal_scan(corpus, link):
    """Whether ``link_members`` equals the scans: each side's members on the
    link's day, less the other side's."""
    day = day_start(link.t0)
    source, target = link_members(corpus, link)
    return (same(source, scan_members(corpus, link.source_community, day, link.target_community))
            and same(target, scan_members(corpus, link.target_community, day,
                                          link.source_community)))


@EXAMPLES
@given(corpora(), st.data())
def test_members_equals_scan(drawn, data):
    corpus, link, t0 = drawn
    names = COMMUNITIES + ["Z"]  # Z is unknown
    day = data.draw(st.sampled_from(edges(t0) + [day_start(t0)]))
    for community in names:
        assert same(members(corpus, community, day - 30 * DAY, day),
                    scan_members(corpus, community, day))
    # every ordered pair of sides, for a link whose t0 is drawn from the edges
    at = data.draw(st.sampled_from(edges(t0) + [t0]))
    for source, target in product(names, repeat=2):
        assert link_members_equal_scan(corpus, replace(link, source_community=source,
                                                       target_community=target, t0=at))


def pools_equal_scan(corpus, link):
    """Whether both sides of ``match_pools`` equal the scans: each pool's
    codes, ascending, and every user's history count."""
    users = commenters(corpus)
    day = day_start(link.t0)
    sides = (link.source_community, link.target_community)
    for side, (codes, history) in zip(sides, match_pools(corpus, link)):
        expected = np.array([users.index(u) for u in sorted(scan_pool(corpus, link, side))],
                            dtype=np.intp)
        if not (same(codes, expected) and same(history, scan_history(corpus, side, day, link.t0))):
            return False
    return True


@EXAMPLES
@given(corpora())
def test_history_count_and_pool_equal_scan(drawn):
    corpus, link, t0 = drawn
    day = day_start(t0)
    for community in COMMUNITIES + ["Z"]:
        history = np.bincount(window_codes(corpus.timelines.get(community), day - 30 * DAY, day,
                                           t0, GAP), minlength=len(corpus.users))
        assert same(history, scan_history(corpus, community, day, t0))
    # the drawn link from A, and one from C into the same thread
    for source in ("A", "C"):
        assert pools_equal_scan(corpus, replace(link, source_community=source))


@EXAMPLES
@given(drawn_events(), st.data())
def test_batched_activity_delta_equals_scan(drawn, data):
    # one batch over users without comments, a community with posts only (D)
    # and one unknown to the log (Z), and t0s on the window edges of the link's
    events, _link, t0 = drawn
    corpus = corpus_from(events + [post("elsewhere", "x", "D", t0)])
    t0s = [t0, t0 - GAP, t0 + GAP, t0 + 33 * DAY, data.draw(st.sampled_from(edges(t0)))]
    queries = [(user, community, at) for at in t0s for user in USERS + ["nobody"]
               for community in COMMUNITIES + ["D", "Z"]]
    queries = data.draw(st.permutations(queries))
    expected = []
    for user, community, at in queries:
        after_lo = at + 3 * DAY
        before = scan_window_fraction(corpus, user, community, at - 30 * DAY, at, at)
        after = scan_window_fraction(corpus, user, community, after_lo, after_lo + 30 * DAY, at)
        expected.append((after[0] - before[0], before[0], after[0], before[1], after[1],
                         before[1] == 0 or after[1] == 0))
    # repr compares floats bit for bit
    assert repr([tuple(d) for d in activity_delta(corpus, queries)]) == repr(expected)


@EXAMPLES
@given(corpora(), st.integers(0, 3))
def test_matched_user_equals_scan(drawn, seed):
    corpus, link, _t0 = drawn
    subjects = sorted(USERS + ["nobody"])  # nobody has no comment, so no user code
    for source in ("A", "C"):  # every community is a side of one of the two links
        side_link = replace(link, source_community=source)
        for community, pool in zip((source, "B"), match_pools(corpus, side_link)):
            assert (matched_user(corpus, subjects, pool, seed=seed)
                    == scan_matched_user(corpus, side_link, subjects, community, seed=seed))


def edge_case(kind):
    """A corpus and a cross-link from A to the B post "target", on DAY0, for
    one edge case of the pool: A's members are u0-u3 with 5 history comments
    each, B's are b0-b1, and
    - "own pool": the subjects are in their own pool, where u0, with 7
      comments, is nearest itself and then u1, with 6;
    - "all tied": u0 has 2 comments, so u1-u3 tie at distance 3 from it;
    - "empty pool": every A member comments in the target thread;
    - "no comments": community A has posts and no comments.
    """
    t0 = DAY0 + 15 * HOUR
    events = [post("a", "x", "A", DAY0 - 20 * DAY), post("target", "y", "B", t0 - HOUR),
              post("source", "linker", "A", t0, body="r/B/comments/target")]
    counts = {"u0": 5, "u1": 5, "u2": 5, "u3": 5}
    if kind == "own pool":
        counts.update(u0=7, u1=6)
    elif kind == "all tied":
        counts["u0"] = 2
    ids = count()
    if kind != "no comments":
        for user, n in counts.items():
            events += [comment(f"c{next(ids)}", user, "A", DAY0 - 10 * DAY + k, "a")
                       for k in range(n)]
    for user in ("b0", "b1"):
        events.append(comment(f"c{next(ids)}", user, "B", DAY0 - 5 * DAY, "target"))
    if kind == "empty pool":
        events += [comment(f"c{next(ids)}", user, "B", t0 + HOUR, "target") for user in counts]
    link = CrossLink(source_post="source", target_post="target", source_community="A",
                     target_community="B", t0=t0, author="linker")
    return corpus_from(events), link


@pytest.mark.parametrize("kind, picks", [
    ("own pool", {"u0": {"u1"}, "u3": {"u2"}}),
    ("all tied", {"u0": {"u1", "u2", "u3"}, "u3": {"u1", "u2"}}),
    ("empty pool", {"u0": {None}, "u3": {None}}),
    ("no comments", {"u0": {None}, "u3": {None}}),
])
def test_matched_user_edge_cases_equal_scan(kind, picks):
    corpus, link = edge_case(kind)
    day = day_start(link.t0)
    for community in ("A", "B"):
        assert same(members(corpus, community, *member_window(link)),
                    scan_members(corpus, community, day))
    for source, target in product("AB", repeat=2):
        assert link_members_equal_scan(corpus, replace(link, source_community=source,
                                                       target_community=target))
    assert pools_equal_scan(corpus, link)
    pool, subjects = match_pools(corpus, link)[0], sorted(picks)
    seen = {user: set() for user in subjects}
    for seed in range(12):
        got = matched_user(corpus, subjects, pool, seed=seed)
        assert got == scan_matched_user(corpus, link, subjects, "A", seed=seed)
        for user, pick in zip(subjects, got):
            seen[user].add(pick)
    assert seen == picks


@EXAMPLES
@given(st.lists(st.sampled_from([0.0, 1.0, 2.0, 5.0, 5.0, 7.5, 100.0]) | st.floats(-10, 110),
                min_size=1, max_size=25),
       st.data())
def test_matched_post_equals_scan(times, data):
    # repeated timestamps make distance and time ties; a third of the posts
    # are cross-linked
    events = [post(f"p{i:02d}", "u", "C", BASE + t) for i, t in enumerate(times)]
    events.append(post("elsewhere", "u", "D", BASE))
    corpus = corpus_from(events)
    ids = sorted(e.id for e in events if e.community == "C")
    linked = data.draw(st.lists(st.sampled_from(ids), max_size=len(ids) // 3, unique=True))
    links = [CrossLink(f"ext{j}", pid, "D", "C", BASE, "u") for j, pid in enumerate(linked)]
    for pid in ids:
        expected = outcome(scan_matched_post, corpus, links, pid)
        got = outcome(matched_post, corpus, pid, crosslink_involved_posts(links))
        if isinstance(got, type):
            assert got is expected
        else:
            assert (got.match_id, got.match_distance) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=30),
       st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False),
       st.floats(min_value=0.0, allow_nan=False, allow_infinity=False, exclude_min=True))
def test_window_slices_equal_scan_on_any_floats(times, lo, hi, t0, gap):
    # rounding of t - t0 at any magnitude, on a timeline's numpy times and on
    # a sequence of Python floats, as activity_delta bisects its distinct times
    times.sort()
    expected = [k for k, t in enumerate(times) if lo <= t < hi and abs(t - t0) >= gap]
    timeline = (np.array(times, dtype=np.float64), np.arange(len(times), dtype=np.int32))
    with np.errstate(over="ignore"):  # t - t0 may overflow to inf, as a scan's does
        assert window_codes(timeline, lo, hi, t0, gap).tolist() == expected
    head, tail = window_slices(times, lo, hi, t0, gap)
    assert [*range(len(times))[head], *range(len(times))[tail]] == expected
    assert window_codes(timeline, lo, hi).tolist() == \
        [k for k, t in enumerate(times) if lo <= t < hi]


def ordered(value):
    """``value`` with every dict turned into its list of items, so that
    comparing two values also compares the order of their keys."""
    if isinstance(value, dict):
        return [(k, ordered(v)) for k, v in value.items()]
    if isinstance(value, tuple):
        return tuple(ordered(v) for v in value)
    return value


@st.composite
def event_logs(draw):
    """``drawn_events`` in any order, plus comments whose thread is not a
    post, ids shared by a post and a comment at the same time, and events
    that repeat the kind and id of an earlier one, which is kept."""
    events, _link, t0 = draw(drawn_events())
    times = st.sampled_from(edges(t0))
    for k in range(draw(st.integers(0, 3))):
        events.append(comment(f"dangling{k}", draw(st.sampled_from(USERS)),
                              draw(st.sampled_from(COMMUNITIES)), draw(times),
                              draw(st.sampled_from(["ghost", "c0"]))))
    posts = [e for e in events if e.kind == "post"]
    comments = [e for e in events if e.kind == "comment"]
    for c in draw(st.lists(st.sampled_from(comments), max_size=2)) if comments else []:
        events.append(post(c.id, c.author, draw(st.sampled_from(COMMUNITIES)), c.timestamp))
    for p in draw(st.lists(st.sampled_from(posts), max_size=2)):
        events.append(comment(p.id, draw(st.sampled_from(USERS)), p.community, p.timestamp, p.id))
    for e in draw(st.lists(st.sampled_from(events), max_size=3)):
        replacement = (post(e.id, "again", e.community, draw(times)) if e.kind == "post" else
                       comment(e.id, "again", e.community, draw(times), e.thread_id))
        events.append(replacement)
    return draw(st.permutations(events))


INDEXES = ("posts", "posts_by_time", "community_posts", "user_posts", "stats")


def named_timelines(corpus):
    """``corpus.timelines`` with lists of times and author names."""
    return {community: (times.tolist(), [corpus.users[k] for k in codes.tolist()])
            for community, (times, codes) in corpus.timelines.items()}


def listed(timelines):
    """A ``TwoPassCorpus``'s community timelines with lists of times."""
    return {community: (list(times), authors) for community, (times, authors) in timelines.items()}


def assert_indexes_equal(corpus, expected):
    """``corpus``, from ``index_lines`` or ``load_events``, against a
    ``TwoPassCorpus`` of the same events: every index, the comment table
    and its per-community, per-user and per-thread slices."""
    for name in INDEXES:
        assert ordered(getattr(corpus, name)) == ordered(getattr(expected, name)), name
    assert corpus.users == sorted({c.author for c in expected.comments.values()})
    assert corpus.communities == sorted({e.community for e in (*expected.posts.values(),
                                                               *expected.comments.values())})
    assert corpus.threads == [p.id for p in expected.posts_by_time]
    for names, codes in ((corpus.users, corpus.user_codes),
                         (corpus.communities, corpus.community_codes),
                         (corpus.threads, corpus.thread_codes)):
        assert codes == {name: k for k, name in enumerate(names)}

    table = corpus.table
    assert [column.dtype for column in table] == [np.float64] + [np.int32] * 4
    assert not any(column.flags.writeable for column in table)
    rows = sorted(expected.comments_by_time, key=attrgetter("community"))  # stable
    assert table.times.tolist() == [c.timestamp for c in rows]
    assert [corpus.users[k] for k in table.authors.tolist()] == [c.author for c in rows]
    assert [corpus.communities[k] for k in table.communities.tolist()] == \
        [c.community for c in rows]
    assert [corpus.threads[k] for k in table.threads.tolist()] == [c.thread_id for c in rows]
    # each row's input-order index picks its id, body and parent id from
    # the columns, and the comments built from them are the events
    assert [(corpus.comment_ids[k], corpus.comment_bodies[k], corpus.comment_parents[k])
            for k in table.events.tolist()] == [(c.id, c.body, c.parent_id) for c in rows]
    assert list(comment_events(corpus).items()) == list(expected.comments.items())

    expected.comment_timeline("Z")  # builds every community's timeline
    assert named_timelines(corpus) == listed(expected._timeline)
    assert list(corpus.timelines) == [c for c in corpus.communities if c in expected._timeline]
    users = {}
    for code, user in enumerate(corpus.users):
        rows = corpus.by_user.of(code)
        users[user] = (table.times[rows].tolist(),
                       [corpus.communities[k] for k in table.communities[rows].tolist()])
    assert users == listed(expected.user_timelines)
    for post_id, comments in expected.thread_comments.items():
        assert corpus.thread_comments(post_id) == comments
        times, authors = corpus.thread_timeline(post_id)
        assert times.tolist() == [c.timestamp for c in comments]
        assert [corpus.users[k] for k in authors.tolist()] == [c.author for c in comments]
    for post_id in expected.posts.keys() - expected.thread_comments.keys():
        assert corpus.thread_comments(post_id) == []
        assert [len(column) for column in corpus.thread_timeline(post_id)] == [0, 0]


@EXAMPLES
@given(event_logs())
def test_index_lines_equals_two_pass_indexing(events):
    assert_indexes_equal(index_lines(map(log_line, events)), two_pass(events))


# -- the loader load_events replaced, under the written rule -----------------
# ``json.loads`` decodes each line; its parse hooks refuse what parts 1-2 of
# ``load_events``' rule refuse, and walks of the decoded value apply the
# lone-surrogate half of part 1 and the depth limit of part 3.

_REQUIRED = ("kind", "id", "author", "community", "timestamp")
SURROGATE = re.compile("[\ud800-\udfff]")


class Refused(ValueError):
    """A constant or number the written rule refuses."""


def refuse_constant(name):
    raise Refused(name)  # NaN, Infinity or -Infinity


def finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise Refused(text)
    return value


def finite_int(text):
    # an integer of more than 309 digits is past the float range; refusing
    # it first keeps int() clear of the interpreter's digit limit
    if len(text.lstrip("-")) > 309:
        raise Refused(text)
    value = int(text)
    try:
        float(value)
    except OverflowError:
        raise Refused(text) from None
    return value


def walk(value):
    """The nesting depth of a decoded value (0 for a scalar), and its
    strings, object keys included."""
    deepest, strings, stack = 0, [], [(value, 0)]
    while stack:
        value, depth = stack.pop()
        if isinstance(value, str):
            strings.append(value)
        elif isinstance(value, (list, dict)):
            depth += 1
            deepest = max(deepest, depth)
            if isinstance(value, dict):
                strings.extend(value)
                value = value.values()
            stack.extend((v, depth) for v in value)
    return deepest, strings


def oracle_decode(line):
    """The value of a log line stripped of JSON whitespace, or None when the
    rule refuses it."""
    try:
        value = json.loads(line, parse_constant=refuse_constant, parse_int=finite_int,
                           parse_float=finite_float)
    except (ValueError, RecursionError):  # RecursionError: nesting far past MAX_DEPTH
        return None
    depth, strings = walk(value)
    if depth > MAX_DEPTH or any(SURROGATE.search(text) for text in strings):
        return None
    return value


def oracle_id(value):
    """An id or name as a str, or None: a string, or an integer in
    [-2**63, 2**64), which stands for its decimal string."""
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool) and -2**63 <= value < 2**64:
        return str(value)
    return None


def oracle_parse_record(obj) -> Event | None:
    if not isinstance(obj, dict):
        return None
    for key in _REQUIRED:
        if obj.get(key) is None:
            return None
    kind = obj["kind"]
    if kind not in ("post", "comment"):
        return None
    ts = obj["timestamp"]
    if isinstance(ts, bool) or not isinstance(ts, (int, float)) or ts < 0:
        return None
    body = obj.get("body", "")
    if not isinstance(body, str):
        return None
    ident, author, community = (oracle_id(obj[key]) for key in ("id", "author", "community"))
    if ident is None or author is None or community is None:
        return None
    if author.split() != [author] or community.split() != [community]:
        return None
    thread_id = parent_id = None
    if kind == "comment":
        thread_id, parent_id = oracle_id(obj.get("thread_id")), oracle_id(obj.get("parent_id"))
        if thread_id is None or parent_id is None:
            return None
    return Event(kind=kind, id=ident, author=author, community=community,
                 timestamp=float(ts),  # an int's nearest float
                 body=body, thread_id=thread_id, parent_id=parent_id)


def oracle_load_events(path):
    """A ``TwoPassCorpus`` of the log as ``json.loads`` reads it under the
    written rule."""
    stats = LoadStats()
    posts, comments = {}, {}
    # an undecodable byte becomes a lone surrogate, which the walk refuses
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line in fh:
            line = line.strip(" \t\r\n")
            if not line:
                continue
            stats.lines += 1
            event = oracle_parse_record(oracle_decode(line))
            if event is None:
                stats.rejected += 1
                continue
            store = posts if event.kind == "post" else comments
            if event.id in store:
                stats.rejected += 1
                continue
            store[event.id] = event
    corpus = two_pass([*posts.values(), *comments.values()])
    corpus.stats.lines, corpus.stats.rejected = stats.lines, stats.rejected
    return corpus


RAW = "@raw@"  # a value that json.dumps writes as the string below it replaces
RAW_TIMESTAMPS = ["NaN", "Infinity", "-Infinity", "true", "false", "null", "-1", "-0.0", '"5"',
                  "1" + "0" * 400, "1e400", repr(sys.float_info.max), "[1]", "{}", "-0",
                  "1e-400"]
BAD_NAMES = ["a b", "", " u", "u\t", "u\n", "\u00a0u", "\u2028u"]
FIELDS = list(_REQUIRED) + ["thread_id", "parent_id", "body"]
GARBAGE = ["{not json", "[]", "1", '"post"', "null", "true", "{}", "{", '{"kind": "post"',
           "\ufeff{}", "[{}]", "1 2", "NaN"]
# where the stdlib's own rule differs from the written one: lone-surrogate
# escapes, integers outside [-2**63, 2**64) or past the float range, and
# nesting deeper than MAX_DEPTH; a value of NESTED sits one level inside
# its line's object, so the nesting 255 deep is the deepest accepted
SURROGATES = ['"\\ud800"', '"\\udc80"', '"u\\ud800"', '"\\udc80 x"']
BIG_INTS = [-2**63 - 1, -2**63, 2**63, 2**64 - 1, 2**64, 10**20, 2**64 + 2**11,
            2**64 + 2**11 + 1, int(sys.float_info.max) + 1, 2**1024 - 2**970 - 1,
            2**1024 - 2**970]
# a line's padding: JSON's whitespace, other whitespace, or none
PADDING = st.sampled_from(["", " ", "\t", "  \t", "\u00a0", "\u3000", "\u2028", "\f", " \f",
                           "\x1c", "\x1f", "\x0b", "\x85"])
NESTED = [*("[" * d + "]" * d for d in (100, 255, 256, 300, 1100, 5000)),
          *('{"a": ' * d + "1" + "}" * d for d in (255, 256, 1100, 5000)),
          '"' + "[{" * 200 + '"']


@st.composite
def changed_line(draw, event):
    """The event's log line, valid or made malformed in one of the ways a
    loader must reject."""
    row = record(event)
    how = draw(st.sampled_from(["keep", "keep", "keep", "int timestamp", "raw timestamp",
                                "drop", "null", "bad name", "int id", "body", "kind",
                                "trailing", "bom", "truncate", "non-ascii", "padded",
                                "surrogate", "big int", "repeated key", "nested", "unread"]))
    raw = None
    if how == "int timestamp":
        row["timestamp"] = int(row["timestamp"])
    elif how == "raw timestamp":
        row["timestamp"], raw = RAW, draw(st.sampled_from(RAW_TIMESTAMPS))
    elif how in ("drop", "null"):
        key = draw(st.sampled_from(FIELDS))
        if how == "drop":
            row.pop(key, None)
        else:
            row[key] = None
    elif how == "bad name":
        row[draw(st.sampled_from(["author", "community"]))] = draw(st.sampled_from(BAD_NAMES))
    elif how == "int id":
        key = draw(st.sampled_from(["id", "author", "community", "thread_id", "parent_id"]))
        row[key] = draw(st.integers(-5, 5) | st.integers(10**18, 10**40))
    elif how == "body":
        row["body"] = draw(st.sampled_from([5, ["x"], {}, True]))
    elif how == "kind":
        row["kind"] = draw(st.sampled_from(["vote", "Post", "", 1, ["post"]]))
    elif how == "non-ascii":
        row["body"] = draw(st.sampled_from(["caf\u00e9", "\u2603 snow", "\U0001f600", "\u00a0"]))
    elif how == "surrogate":
        row[draw(st.sampled_from(["body", "author", "community"]))] = RAW
        raw = draw(st.sampled_from(SURROGATES))
    elif how == "big int":
        key = draw(st.sampled_from(["timestamp", "id", "author", "community", "thread_id",
                                    "parent_id"]))
        row[key] = draw(st.sampled_from(BIG_INTS))
    elif how == "repeated key":
        key = draw(st.sampled_from(FIELDS))
        # the value written last counts; null is invalid in every field read
        values = [row.pop(key, None), None]
        repeated = ", ".join(f'"{key}": {json.dumps(v)}'
                             for v in draw(st.permutations(values)))
    elif how == "nested":
        row["extra"], raw = RAW, draw(st.sampled_from(NESTED))
    elif how == "unread":  # the rule holds in a field no record check reads
        row["extra"], raw = RAW, draw(st.sampled_from(RAW_TIMESTAMPS + SURROGATES
                                                      + [str(n) for n in BIG_INTS]))
    line = json.dumps(row, ensure_ascii=draw(st.booleans()))
    if how == "repeated key":
        line = line[:-1] + ", " + repeated + "}"
    if raw is not None:
        line = line.replace(f'"{RAW}"', raw)
    if how == "trailing":
        line += draw(st.sampled_from([" x", "{}", ",", " 1", "]", "}"]))
    elif how == "bom":
        line = "\ufeff" + line
    elif how == "truncate":
        line = line[:draw(st.integers(1, len(line) - 1))]
    elif how == "padded":  # JSON's whitespace, stripped, or any other, rejected
        line = draw(PADDING) + line + draw(PADDING)
    return line


@st.composite
def raw_logs(draw):
    """The text of an event log: ``drawn_events``, each line valid or made
    malformed, with repeated ids, lines that are no event at all and blank
    lines, in any order and with any line ending."""
    events, _link, t0 = draw(drawn_events())
    lines = [draw(changed_line(e)) for e in events]
    for e in draw(st.lists(st.sampled_from(events), max_size=4)):  # repeated ids
        again = e._replace(author="again", timestamp=draw(st.sampled_from(edges(t0))))
        lines.append(draw(changed_line(again)))
    lines += draw(st.lists(st.sampled_from(GARBAGE + ["", "   "]), max_size=4))
    lines = draw(st.permutations(lines))
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                            max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, endings))


def assert_loads_as_the_oracle_does(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/events.jsonl"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        corpus, expected = load_events(path), oracle_load_events(path)
    assert_indexes_equal(corpus, expected)


@EXAMPLES
@given(raw_logs())
def test_load_events_equals_the_json_loads_loader(text):
    assert_loads_as_the_oracle_does(text)


@st.composite
def batched_logs(draw):
    """The text of an event log that ``load_events`` reads in two ``PACK``
    batches: blank lines, then the lines of ``drawn_events``, each valid or
    made malformed, split between the batches, with some comments of the
    first batch written again in the second."""
    events, _link, t0 = draw(drawn_events())
    events = draw(st.permutations(events))
    comments = [k for k, e in enumerate(events) if e.kind == "comment"]
    hypothesis.assume(comments)
    repeated = draw(st.lists(st.sampled_from(comments), min_size=1, max_size=4))
    lines = [draw(changed_line(e)) for e in events]
    split = draw(st.integers(max(repeated) + 1, len(lines)))
    head, tail = lines[:split], lines[split:]
    for k in repeated:
        head[k] = json.dumps(record(events[k]))  # valid, so the first of its id
        again = events[k]._replace(author="again", timestamp=draw(st.sampled_from(edges(t0))))
        tail.insert(draw(st.integers(0, len(tail))), json.dumps(record(again)))
    # the blank lines fill the first batch up to the last line of ``head``
    return "\n" * (PACK - split) + "".join(line + "\n" for line in head + tail)


@EXAMPLES
@given(batched_logs())
def test_load_events_equals_the_json_loads_loader_across_batches(text):
    assert_loads_as_the_oracle_does(text)


# strings full of the characters the depth counter must see past
BRACKETY = st.text(alphabet='[]{}"\\ xé', max_size=8)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | BRACKETY,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(BRACKETY, children,
                                                                     max_size=4),
    max_leaves=40)


@EXAMPLES
@given(JSON_VALUES, st.booleans())
def test_depth_counter_equals_the_decoded_values_depth(value, ensure_ascii):
    assert _depth(json.dumps(value, ensure_ascii=ensure_ascii)) == walk(value)[0]
