"""Event-log parsing, indexing, cross-link extraction, and community membership."""
from __future__ import annotations

import gc
import json
import json.scanner
import logging
import re
import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import NamedTuple

log = logging.getLogger(__name__)

DAY = 86400.0
MEMBER_WINDOW_DAYS = 30

# Permalink shape: an optional scheme+host prefix, then r/<community>/comments/<post_id>.
# Host is validated against the allowlist only when present; bare "r/..." always matches.
CROSSLINK_RE = re.compile(
    r"(?:https?://([\w.\-]+)/)?\br/([A-Za-z0-9_\-]+)/comments/([A-Za-z0-9_\-]+)",
    re.IGNORECASE,
)


class CorpusError(Exception):
    """Unrecoverable problem with an event-log file."""


class Event(NamedTuple):
    """One post or comment from the event log."""

    kind: str  # "post" | "comment"
    id: str
    author: str
    community: str
    timestamp: float  # epoch seconds, UTC
    body: str = ""
    thread_id: str | None = None  # comments only: the post the comment lives under
    parent_id: str | None = None  # comments only: post id or comment id replied to


@dataclass(frozen=True)
class CrossLink:
    """A post in one community hyperlinking a post in another community."""

    source_post: str
    target_post: str
    source_community: str
    target_community: str
    t0: float  # creation time of the source post
    author: str


@dataclass
class LoadStats:
    lines: int = 0
    posts: int = 0
    comments: int = 0
    rejected: int = 0
    dangling_comments: int = 0


@dataclass
class Corpus:
    """Indexed view of an event log, built once by ``index_events``.

    ``posts`` and ``comments`` map ids to events in input order; comments
    whose thread is not a post are not indexed. The lists below are ordered
    by ``(timestamp, id)``. Comment activity is indexed twice, per community
    (``timelines``) and per user (``user_timelines``); membership, matching
    histories and activity fractions all count a window of one of them
    through ``window_keys``. Nothing here changes after ``index_events``
    returns.
    """

    posts: dict[str, Event]
    comments: dict[str, Event]
    stats: LoadStats
    posts_by_time: list[Event] = field(default_factory=list)
    # post id -> comments in the thread, time-ordered
    thread_comments: dict[str, list[Event]] = field(default_factory=dict)
    # community -> posts, time-ordered
    community_posts: dict[str, list[Event]] = field(default_factory=dict)
    # user -> posts authored, time-ordered
    user_posts: dict[str, list[Event]] = field(default_factory=dict)
    # community -> (its comment timestamps, time-ordered, and each comment's
    # author); communities without comments are absent
    timelines: dict[str, tuple[array, list[str]]] = field(default_factory=dict)
    # user -> (their comment timestamps, time-ordered, and each comment's
    # community); users without comments are absent
    user_timelines: dict[str, tuple[array, list[str]]] = field(default_factory=dict)


def index_events(events, stats: LoadStats | None = None) -> Corpus:
    """Index posts and comments in one pass over them in ``(timestamp, id)``
    order.

    A later event replaces an earlier one of the same kind and id. Comments
    whose thread is not a post are dropped and counted in
    ``stats.dangling_comments``.
    """
    posts: dict[str, Event] = {}
    comments: dict[str, Event] = {}
    for event in events:
        (posts if event.kind == "post" else comments)[event.id] = event
    return _index(posts, comments, stats if stats is not None else LoadStats())


def _index(posts: dict[str, Event], comments: dict[str, Event], stats: LoadStats) -> Corpus:
    """``index_events`` on posts and comments already keyed by id."""
    dangling = [cid for cid, c in comments.items() if c.thread_id not in posts]
    for cid in dangling:
        del comments[cid]
    if dangling:
        stats.dangling_comments += len(dangling)
        log.warning("dropped %d comments with unknown thread ids", len(dangling))
    stats.posts, stats.comments = len(posts), len(comments)

    corpus = Corpus(posts, comments, stats)
    posts_by_time, community_posts, user_posts = (
        corpus.posts_by_time, corpus.community_posts, corpus.user_posts)
    thread_comments, timelines, user_timelines = (
        corpus.thread_comments, corpus.timelines, corpus.user_timelines)
    # one sort on the (timestamp, id) key: a log written in about time order
    # is nearly sorted on it already, which a first sort by id would undo
    for e in sorted(chain(posts.values(), comments.values()), key=attrgetter("timestamp", "id")):
        kind, _id, author, community, ts, _body, thread_id, _parent_id = e
        if kind == "post":
            posts_by_time.append(e)
            community_posts.setdefault(community, []).append(e)
            user_posts.setdefault(author, []).append(e)
            continue
        thread_comments.setdefault(thread_id, []).append(e)
        timeline = timelines.get(community)
        if timeline is None:
            timeline = timelines[community] = (array("d"), [])
        timeline[0].append(ts)
        timeline[1].append(author)
        timeline = user_timelines.get(author)
        if timeline is None:
            timeline = user_timelines[author] = (array("d"), [])
        timeline[0].append(ts)
        timeline[1].append(community)
    return corpus


_MAX_TIMESTAMP = sys.float_info.max


def _name(value, names: dict[str, str]) -> str | None:
    """An author or community name as a str, or None when ``value`` is not
    a string or a non-bool integer, or is empty or contains whitespace.

    User and community names are written one per vector-file line, split on
    whitespace; Reddit's names never contain any. ``names`` maps each name
    that passed to itself, so every event shares one string per name;
    ``_read_events`` looks a name up there first and calls this only for a
    value it does not find.
    """
    if type(value) is int:
        value = str(value)
    elif type(value) is not str:
        return None
    name = names.get(value)
    if name is None and value.split() == [value]:
        name = names[value] = value
    return name


def load_events(path) -> Corpus:
    """Load a line-delimited JSON event log into an indexed Corpus.

    Each line is one JSON object in UTF-8. A line that is not valid UTF-8,
    is not one JSON value or is not a valid record, or that repeats the id
    of an earlier event of its kind, is skipped and counted in
    ``corpus.stats.rejected``; an unreadable file raises CorpusError. The
    cyclic garbage collector is paused while the Corpus is built and then
    restored to its previous state.

    A successful load ends with ``gc.freeze()``, which acts on the whole
    process: every object the collector tracks at that point, the new
    Corpus and the caller's own objects alike, moves to the permanent
    generation, which no later collection walks. The Corpus holds no
    reference cycles, so reference counting still frees it; a cycle that is
    already garbage when the load ends is kept until ``gc.unfreeze()``.
    """
    try:
        # an undecodable byte becomes a lone surrogate, which rejects its line
        fh = open(path, "r", encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise CorpusError(f"cannot read event log {path}: {exc}") from exc
    collecting = gc.isenabled()
    # every line allocates containers and keeps one, its event; none is in a
    # cycle, so collections during the load would traverse the growing
    # corpus for nothing
    gc.disable()
    try:
        with fh:
            posts, comments, stats = _read_events(fh)
        corpus = _index(posts, comments, stats)
        # Event is a tuple subclass, which the collector never untracks: left
        # in a generation, the events would be walked again by every
        # collection after the load
        gc.freeze()
    finally:
        if collecting:
            gc.enable()
    if stats.rejected:
        log.warning("skipped %d malformed lines in %s", stats.rejected, path)
    return corpus


def _read_events(lines) -> tuple[dict[str, Event], dict[str, Event], LoadStats]:
    """The posts and comments of an event log's lines, each keyed by id in
    input order, and the log's line counts.

    An id is a JSON string, or a non-bool integer, which stands for its
    decimal string; a name is checked by ``_name``. Every non-blank line
    either stores one event or is rejected.
    """
    scan = json.scanner.make_scanner(json.JSONDecoder())
    new = tuple.__new__  # Event's own __new__ is a Python function
    names: dict[str, str] = {}
    posts: dict[str, Event] = {}
    comments: dict[str, Event] = {}
    n_lines = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        n_lines += 1
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                continue
        # StopIteration: no JSON value starts the line; ValueError: a
        # malformed one, or an integer past the interpreter's digit limit;
        # RecursionError: nesting past its recursion limit
        try:
            obj, end = scan(line, 0)
        except (StopIteration, ValueError, RecursionError):
            continue
        if end != len(line):
            continue
        # KeyError: a required field is missing; TypeError: the line's value
        # is not an object
        try:
            kind, ident, author, community, ts = (
                obj["kind"], obj["id"], obj["author"], obj["community"], obj["timestamp"])
        except (KeyError, TypeError):
            continue
        body = obj.get("body", "")
        # json also gives true, NaN, Infinity and ints past the float range
        if (kind != "post" and kind != "comment" or type(body) is not str
                or type(ts) is not float and type(ts) is not int or not 0 <= ts <= _MAX_TIMESTAMP):
            continue
        if type(ident) is int:
            ident = str(ident)
        if type(ident) is not str:
            continue
        # ``names`` holds only str keys, so only a name seen before is found;
        # TypeError: an array or object
        try:
            author = names[author]
        except (KeyError, TypeError):
            author = _name(author, names)
            if author is None:
                continue
        try:
            community = names[community]
        except (KeyError, TypeError):
            community = _name(community, names)
            if community is None:
                continue
        if kind == "post":
            if ident not in posts:  # ids are unique per kind
                posts[ident] = new(Event, ("post", ident, author, community, float(ts), body,
                                           None, None))
            continue
        thread_id, parent_id = obj.get("thread_id"), obj.get("parent_id")
        if type(thread_id) is int:
            thread_id = str(thread_id)
        if type(parent_id) is int:
            parent_id = str(parent_id)
        if type(thread_id) is str and type(parent_id) is str and ident not in comments:
            comments[ident] = new(Event, ("comment", ident, author, community, float(ts), body,
                                          thread_id, parent_id))
    return posts, comments, LoadStats(lines=n_lines, rejected=n_lines - len(posts) - len(comments))


def day_start(ts: float) -> float:
    """Midnight (UTC) of the day containing ts."""
    return ts - (ts % DAY)


def extract_crosslinks(
    corpus: Corpus,
    host_allowlist=None,
    remove_overlaps: bool = True,
    window_hours: float = 12.0,
    counts: dict[str, int] | None = None,
) -> list[CrossLink]:
    """Extract cross-community links from post bodies, sorted by t0.

    At most one link per source post (the first permalink that resolves to an
    existing post in a different community). Permalinks to unknown posts are
    dropped. When ``remove_overlaps`` is set, links sharing a target post
    whose +/-window analysis intervals intersect are reduced to the earliest
    one. A ``counts`` dict receives how many permalinks named an unknown post
    (``unknown_target``) and how many links the overlap rule removed
    (``overlap_removed``).
    """
    allow = {h.lower() for h in host_allowlist} if host_allowlist else None
    links: list[CrossLink] = []
    dropped_unknown = 0
    for post in corpus.posts_by_time:
        for m in CROSSLINK_RE.finditer(post.body):
            host, _url_comm, target_id = m.group(1), m.group(2), m.group(3)
            if host is not None and allow is not None and host.lower() not in allow:
                continue
            target = corpus.posts.get(target_id)
            if target is None:
                dropped_unknown += 1
                continue
            if target.community == post.community:
                continue
            links.append(
                CrossLink(
                    source_post=post.id,
                    target_post=target.id,
                    source_community=post.community,
                    target_community=target.community,
                    t0=post.timestamp,
                    author=post.author,
                )
            )
            break
    if dropped_unknown:
        log.warning("dropped %d cross-links to nonexistent target posts", dropped_unknown)
    links.sort(key=lambda l: (l.t0, l.source_post))
    found = len(links)
    if remove_overlaps:
        links = remove_overlapping(links, window_hours=window_hours)
    if counts is not None:
        counts.update(unknown_target=dropped_unknown, overlap_removed=found - len(links))
    return links


def remove_overlapping(links: list[CrossLink], window_hours: float = 12.0) -> list[CrossLink]:
    """Keep only the earliest of any links that share a target post and whose
    half-open analysis windows [t0-w, t0+w) intersect."""
    span = 2 * window_hours * 3600.0
    last_kept: dict[str, float] = {}
    kept = []
    for link in sorted(links, key=lambda l: (l.t0, l.source_post)):
        prev = last_kept.get(link.target_post)
        if prev is not None and link.t0 - prev < span:
            continue
        last_kept[link.target_post] = link.t0
        kept.append(link)
    return kept


def window_keys(timeline, lo: float, hi: float, t0: float = 0.0, gap: float = 0.0) -> list[str]:
    """The keys of the entries of ``timeline`` with a time in [lo, hi) and
    ``abs(t - t0) >= gap``, in time order.

    ``timeline`` is a ``(times, keys)`` pair of ``Corpus.timelines`` or
    ``Corpus.user_timelines``, or None for no entries.
    """
    if timeline is None:
        return []
    times, keys = timeline
    i, j = bisect_left(times, lo), bisect_left(times, hi)
    if gap <= 0.0 or i >= j:  # no gap to leave out, or an empty window
        return keys[i:j]

    # ``t - t0`` is computed as a scan computes it. Rounding never decreases
    # it as ``t`` grows, so the entries within the gap are one contiguous
    # range [a, b), and bisect on that key finds exactly the ones a scan
    # would leave out.
    def offset(t):
        return t - t0

    a = bisect_right(times, -gap, i, j, key=offset)
    b = bisect_left(times, gap, a, j, key=offset)
    return keys[i:a] + keys[b:j]


def members(corpus: Corpus, community: str, day: float, excluded: str | None = None) -> set[str]:
    """Users with >=1 comment in ``community`` during [day-30d, day) and none
    in ``excluded`` during the same window."""
    timeline = corpus.timelines.get(community)
    if timeline is None:
        log.warning("members(): unknown community %r", community)
        return set()
    lo, hi = day - MEMBER_WINDOW_DAYS * DAY, day
    found = set(window_keys(timeline, lo, hi))
    if excluded is not None and found:
        found.difference_update(window_keys(corpus.timelines.get(excluded), lo, hi))
    return found


def user_activity(corpus: Corpus, user: str, community: str, window: tuple[float, float]):
    """Comment counts for a user in [t1, t2): (in-community, total, fraction)."""
    t1, t2 = window
    if not t1 < t2:
        raise ValueError(f"bad window: [{t1}, {t2})")
    communities = window_keys(corpus.user_timelines.get(user), t1, t2)
    total, in_comm = len(communities), communities.count(community)
    fraction = in_comm / total if total else 0.0
    return in_comm, total, fraction
