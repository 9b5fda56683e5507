"""The indexed membership and matching lookups against the linear scans they
replaced, ``index_events`` against the two-pass indexing it replaced, and
``load_events`` against the ``json.loads`` loader it replaced, kept here as
oracles, on random small corpora.

Timestamps are drawn mostly from the edges the lookups compare against: day
boundaries, the ends of the 30-day window, t0 +/- 3 days, and the floats
next to each.
"""
import json
import math
import random
import sys
import tempfile
from array import array
from itertools import count

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from intercom.corpus import (  # noqa: E402
    DAY,
    CrossLink,
    Event,
    LoadStats,
    count_beyond_gap,
    day_start,
    index_events,
    load_events,
    members,
)
from intercom.impact import _window_fraction, activity_delta  # noqa: E402
from intercom.matching import (  # noqa: E402
    NoMatchError,
    _history_count,
    match_pool,
    matched_post,
    matched_user,
)

from conftest import BASE, HOUR, comment, corpus_from, post, record  # noqa: E402

GAP = 3 * DAY
COMMUNITIES = ["A", "B", "C"]
USERS = [f"u{i}" for i in range(6)]
DAY0 = BASE + 40 * DAY  # the day every drawn link is created on
EXAMPLES = settings(max_examples=150, deadline=None)


# -- the scans the indexes replaced ------------------------------------------

def scan_has_time_in(times, lo, hi):
    return any(lo <= t < hi for t in times)


def scan_members(corpus, community, day, excluded=None):
    by_user = corpus.comment_times.get(community)
    if by_user is None:
        return set()
    lo, hi = day - 30 * DAY, day
    found = {u for u, times in by_user.items() if scan_has_time_in(times, lo, hi)}
    if excluded is not None and found:
        other = corpus.comment_times.get(excluded, {})
        found = {u for u in found if not scan_has_time_in(other.get(u, []), lo, hi)}
    return found


def scan_history_count(corpus, user, community, day, t0):
    times = corpus.comment_times.get(community, {}).get(user, [])
    lo, hi = day - 30 * DAY, day
    return sum(1 for t in times if lo <= t < hi and abs(t - t0) >= GAP)


def scan_window_fraction(corpus, user, community, lo, hi, t0):
    all_times = corpus.user_comment_times.get(user, [])
    comm_times = corpus.comment_times.get(community, {}).get(user, [])
    total = sum(1 for t in all_times if lo <= t < hi and abs(t - t0) >= GAP)
    in_comm = sum(1 for t in comm_times if lo <= t < hi and abs(t - t0) >= GAP)
    return (in_comm / total if total else 0.0), total


def scan_matched_user(corpus, link, user, community, seed=0):
    if community == link.source_community:
        counterpart = link.target_community
    elif community == link.target_community:
        counterpart = link.source_community
    else:
        raise ValueError(f"{community!r} is not a side of the cross-link")
    day = day_start(link.t0)
    pool = scan_members(corpus, community, day, counterpart)
    pool -= {c.author for c in corpus.thread_comments.get(link.target_post, [])}
    pool.discard(user)
    if not pool:
        raise NoMatchError(user)
    subject = scan_history_count(corpus, user, community, day, link.t0)
    dist = {u: abs(scan_history_count(corpus, u, community, day, link.t0) - subject) for u in pool}
    best = min(dist.values())
    tied = sorted(u for u, d in dist.items() if d == best)
    pick = tied[0] if len(tied) == 1 else random.Random(seed).choice(tied)
    return pick, float(best)


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
    """The indexing ``index_events`` replaced: ``add`` every event, then
    ``build_indexes``; the comment timeline is built on its first read."""

    def __init__(self):
        self.posts, self.comments = {}, {}
        self.stats = LoadStats()
        self._timeline = None

    def add(self, event):
        if event.kind == "post":
            self.posts[event.id] = event
        else:
            self.comments[event.id] = event

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
        self.comment_times = {}
        self.user_comment_times = {}
        self.user_posts = {}
        for p in self.posts_by_time:
            self.community_posts.setdefault(p.community, []).append(p)
            self.user_posts.setdefault(p.author, []).append(p)
        for c in self.comments_by_time:
            self.thread_comments.setdefault(c.thread_id, []).append(c)
            self.comment_times.setdefault(c.community, {}).setdefault(c.author, []).append(c.timestamp)
            self.user_comment_times.setdefault(c.author, []).append(c.timestamp)

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
    except (NoMatchError, ValueError) as exc:
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

@EXAMPLES
@given(corpora(), st.data())
def test_members_equals_scan(drawn, data):
    corpus, _link, t0 = drawn
    names = COMMUNITIES + ["Z"]  # Z is unknown
    day = data.draw(st.sampled_from(edges(t0) + [day_start(t0)]))
    for community in names:
        for excluded in names + [None]:
            assert members(corpus, community, day, excluded) == \
                scan_members(corpus, community, day, excluded)


@EXAMPLES
@given(corpora())
def test_history_count_and_pool_equal_scan(drawn):
    corpus, link, t0 = drawn
    day = day_start(t0)
    for community in COMMUNITIES + ["Z"]:
        for user in USERS + ["nobody"]:
            assert _history_count(corpus, user, community, day, t0) == \
                scan_history_count(corpus, user, community, day, t0)
    for side, counterpart in (("A", "B"), ("B", "A")):
        expected = scan_members(corpus, side, day, counterpart)
        expected -= {c.author for c in corpus.thread_comments.get("target", [])}
        assert match_pool(corpus, link, side) == \
            {u: scan_history_count(corpus, u, side, day, t0) for u in expected}


@EXAMPLES
@given(corpora(), st.data())
def test_window_fraction_and_activity_delta_equal_scan(drawn, data):
    corpus, _link, t0 = drawn
    windows = [(t0 - 30 * DAY, t0), (t0 + 3 * DAY, t0 + 33 * DAY)]
    points = edges(t0)
    lo = data.draw(st.sampled_from(points))
    windows.append((lo, data.draw(st.sampled_from([p for p in points if p >= lo]))))
    for user in USERS:
        for community in COMMUNITIES + ["Z"]:
            for lo, hi in windows:
                assert _window_fraction(corpus, user, community, lo, hi, t0) == \
                    scan_window_fraction(corpus, user, community, lo, hi, t0)
            before = scan_window_fraction(corpus, user, community, *windows[0], t0)
            after = scan_window_fraction(corpus, user, community, *windows[1], t0)
            delta = activity_delta(corpus, user, community, t0)
            assert (delta.before_fraction, delta.before_total) == before
            assert (delta.after_fraction, delta.after_total) == after


@EXAMPLES
@given(corpora(), st.integers(0, 3))
def test_matched_user_equals_scan(drawn, seed):
    corpus, link, _t0 = drawn
    for community in ("A", "B", "C"):
        pool = outcome(match_pool, corpus, link, community)
        for user in USERS:
            expected = outcome(scan_matched_user, corpus, link, user, community, seed=seed)
            got = outcome(matched_user, corpus, link, user, community, seed=seed)
            if isinstance(got, type):
                assert got is expected
            else:
                assert (got.match_id, got.match_distance) == expected
            if isinstance(pool, dict):
                pooled = outcome(matched_user, corpus, link, user, community, seed=seed, pool=pool)
                assert pooled == got


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
        got = outcome(matched_post, corpus, links, pid)
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
def test_count_beyond_gap_equals_scan_on_any_floats(times, lo, hi, t0, gap):
    # rounding of t - t0 at any magnitude
    times.sort()
    expected = sum(1 for t in times if lo <= t < hi and abs(t - t0) >= gap)
    assert count_beyond_gap(times, lo, hi, t0, gap) == expected


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
    that replace an earlier one of the same kind and id."""
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


INDEXES = ("posts", "comments", "posts_by_time", "thread_comments", "community_posts",
           "comment_times", "user_comment_times", "user_posts", "stats")


@EXAMPLES
@given(event_logs())
def test_index_events_equals_two_pass_indexing(events):
    corpus, expected = index_events(events), two_pass(events)
    for name in INDEXES:
        assert ordered(getattr(corpus, name)) == ordered(getattr(expected, name)), name
    communities = {e.community for e in events} | {"Z"}
    for community in sorted(communities):
        assert corpus.timelines.get(community) == expected.comment_timeline(community)
    assert ordered(corpus.timelines) == ordered(expected._timeline)
    assert all(times.typecode == "d" for times, _authors in corpus.timelines.values())


# -- the loader load_events replaced -----------------------------------------

_REQUIRED = ("kind", "id", "author", "community", "timestamp")


def oracle_parse_record(obj: dict) -> Event | None:
    if not isinstance(obj, dict):
        return None
    for key in _REQUIRED:
        if obj.get(key) is None:
            return None
    kind = obj["kind"]
    if kind not in ("post", "comment"):
        return None
    ts = obj["timestamp"]
    if isinstance(ts, bool) or not isinstance(ts, (int, float)) or not 0 <= ts <= sys.float_info.max:
        return None
    thread_id = obj.get("thread_id")
    parent_id = obj.get("parent_id")
    if kind == "comment" and (thread_id is None or parent_id is None):
        return None
    body = obj.get("body", "")
    if not isinstance(body, str):
        return None
    author, community = str(obj["author"]), str(obj["community"])
    if author.split() != [author] or community.split() != [community]:
        return None
    return Event(
        kind=kind,
        id=str(obj["id"]),
        author=author,
        community=community,
        timestamp=float(ts),
        body=body,
        thread_id=str(thread_id) if kind == "comment" else None,
        parent_id=str(parent_id) if kind == "comment" else None,
    )


def oracle_load_events(path):
    """A ``TwoPassCorpus`` of the log as the ``json.loads`` loader read it."""
    stats = LoadStats()
    posts, comments = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            stats.lines += 1
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                stats.rejected += 1
                continue
            event = oracle_parse_record(obj)
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
                  "1" + "0" * 400, "1e400", "[1]", "{}"]
BAD_NAMES = ["a b", "", " u", "u\t", "u\n", "\u00a0u", "\u2028u"]
FIELDS = list(_REQUIRED) + ["thread_id", "parent_id", "body"]
GARBAGE = ["{not json", "[]", "1", '"post"', "null", "true", "{}", "{", '{"kind": "post"',
           "\ufeff{}", "[{}]", "1 2", "NaN"]


@st.composite
def changed_line(draw, event):
    """The event's log line, valid or made malformed in one of the ways a
    loader must reject."""
    row = record(event)
    how = draw(st.sampled_from(["keep", "keep", "keep", "int timestamp", "raw timestamp",
                                "drop", "null", "bad name", "int id", "body", "kind",
                                "trailing", "bom", "truncate", "non-ascii", "padded"]))
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
    line = json.dumps(row, ensure_ascii=draw(st.booleans()))
    if raw is not None:
        line = line.replace(f'"{RAW}"', raw)
    if how == "trailing":
        line += draw(st.sampled_from([" x", "{}", ",", " 1", "]", "}"]))
    elif how == "bom":
        line = "\ufeff" + line
    elif how == "truncate":
        line = line[:draw(st.integers(1, len(line) - 1))]
    elif how == "padded":
        line = draw(st.sampled_from([" ", "\t", "\u00a0", "\u3000"])) + line + " \f"
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


@EXAMPLES
@given(raw_logs())
def test_load_events_equals_the_json_loads_loader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/events.jsonl"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        corpus, expected = load_events(path), oracle_load_events(path)
    for name in INDEXES:
        assert ordered(getattr(corpus, name)) == ordered(getattr(expected, name)), name
    expected.comment_timeline("Z")  # builds every community's timeline
    assert ordered(corpus.timelines) == ordered(expected._timeline)
