"""Event-log parsing, indexing, cross-link extraction, and community membership."""
from __future__ import annotations

import gc
import json
import json.scanner
import logging
import math
import re
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from operator import attrgetter
from typing import NamedTuple

import numpy as np
import orjson

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


class CommentColumns(NamedTuple):
    """The comments of an event log in input order, one entry per comment
    in each column: the fields of ``Event`` after ``kind``."""

    ids: list[str]
    authors: list[str]
    communities: list[str]
    times: Sequence[float]  # epoch seconds
    bodies: list[str]
    threads: list[str]
    parents: list[str]


class CommentTable(NamedTuple):
    """Every indexed comment, one row each, sorted by (community, timestamp,
    id). The columns are read-only."""

    times: np.ndarray  # float64 epoch seconds
    authors: np.ndarray  # int32 user codes
    communities: np.ndarray  # int32 community codes
    threads: np.ndarray  # int32 thread codes
    events: np.ndarray  # int32 indices into Corpus.comment_ids, _bodies and _parents


class Groups(NamedTuple):
    """The rows of a ``CommentTable`` grouped by one of its code columns:
    the rows of code k, in ``(timestamp, id)`` order, are
    ``rows[offsets[k]:offsets[k + 1]]``."""

    rows: np.ndarray  # int32
    offsets: np.ndarray  # int64, one more than there are codes

    def of(self, code: int) -> np.ndarray:
        return self.rows[self.offsets[code]:self.offsets[code + 1]]


@dataclass
class Corpus:
    """Indexed view of an event log, built once by ``index_events``.

    ``posts`` and ``comments`` map ids to events in input order; comments
    whose thread is not a post are not indexed. Comments are held as
    columns, not as events: their ids, bodies and parent ids in input order
    (``comment_ids``, ``comment_bodies``, ``comment_parents``) and every
    other field in ``table``. ``thread_comments`` and ``comments`` build
    ``Event``s from these on demand, with the author, community and thread
    id strings of ``users``, ``communities`` and ``threads``; ``comments``
    is built on first use, as the analysis never looks a comment up by id.
    Every other list below is ordered by ``(timestamp, id)``.

    Users, communities and threads have integer codes, which index
    ``users`` (sorted, so sorting codes sorts names), ``communities``
    (sorted; every community with a post or a comment) and ``threads`` (the
    ids of ``posts_by_time``: a thread's code is its post's).

    Comment activity is indexed once, as the columns of ``table``.
    ``timelines`` are views of its per-community runs, and ``by_user`` and
    ``by_thread`` order its rows per user and per thread; a thread's
    comments are sliced from the latter (``thread_comments``). Membership,
    matching histories, thread counts and activity fractions all count
    windows of these, by ``window_slices``' rule. Nothing here changes after
    ``index_events`` returns.
    """

    posts: dict[str, Event]
    # the comments' ids, bodies and parent ids, in input order
    comment_ids: list[str]
    comment_bodies: list[str]
    comment_parents: list[str]
    stats: LoadStats
    posts_by_time: list[Event]
    # community -> posts; user -> posts authored
    community_posts: dict[str, list[Event]]
    user_posts: dict[str, list[Event]]
    # code -> name, and name -> code
    users: list[str]
    user_codes: dict[str, int]
    communities: list[str]
    community_codes: dict[str, int]
    threads: list[str]
    thread_codes: dict[str, int]
    table: CommentTable
    by_user: Groups
    by_thread: Groups
    # community -> (its comments' timestamps, author codes): views of
    # ``table``; communities without comments are absent
    timelines: dict[str, tuple[np.ndarray, np.ndarray]]
    # the log lines ``load_events`` decided again by the stdlib's rule
    redecided: int = 0

    @cached_property
    def comments(self) -> dict[str, Event]:
        rows = np.empty(len(self.comment_ids), dtype=np.int32)
        rows[self.table.events] = np.arange(len(rows), dtype=np.int32)  # input order
        return dict(zip(self.comment_ids, self._comment_events(rows)))

    def _comment_events(self, rows: np.ndarray) -> list[Event]:
        """The comments of the table's ``rows``, as Events."""
        table = self.table
        ids, bodies, parents = self.comment_ids, self.comment_bodies, self.comment_parents
        users, communities, threads = self.users, self.communities, self.threads
        new = tuple.__new__  # Event's own __new__ is a Python function
        return [new(Event, ("comment", ids[k], users[a], communities[c], t, bodies[k],
                            threads[h], parents[k]))
                for k, a, c, t, h in zip(table.events[rows].tolist(), table.authors[rows].tolist(),
                                         table.communities[rows].tolist(),
                                         table.times[rows].tolist(), table.threads[rows].tolist())]

    def _thread_rows(self, post_id: str) -> np.ndarray:
        code = self.thread_codes.get(post_id)
        return self.by_thread.of(code) if code is not None else self.by_thread.rows[:0]

    def thread_comments(self, post_id: str) -> list[Event]:
        """The comments on a thread, time-ordered; empty for a post without
        comments or an id that is no post."""
        return self._comment_events(self._thread_rows(post_id))

    def thread_timeline(self, post_id: str) -> tuple[np.ndarray, np.ndarray]:
        """The timestamps and author codes of the comments on a thread,
        time-ordered; empty for a post without comments or an id that is no
        post."""
        rows = self._thread_rows(post_id)
        return self.table.times[rows], self.table.authors[rows]


def index_events(events, stats: LoadStats | None = None) -> Corpus:
    """Index posts and comments in ``(timestamp, id)`` order.

    A later event replaces an earlier one of the same kind and id. Comments
    whose thread is not a post are dropped and counted in
    ``stats.dangling_comments``.
    """
    posts: dict[str, Event] = {}
    comments: dict[str, Event] = {}
    for event in events:
        (posts if event.kind == "post" else comments)[event.id] = event
    # the fields after ``kind``, one column each
    fields = [list(column) for column in zip(*comments.values())][1:]
    columns = CommentColumns._make(fields or ([] for _ in CommentColumns._fields))
    return _index(posts, columns, stats if stats is not None else LoadStats())


def _time_order(times: np.ndarray, ids: list[str]) -> np.ndarray:
    """The indices of the comments with timestamps ``times`` and ids
    ``ids`` in ``(timestamp, id)`` order, as int32."""
    order = np.argsort(times).astype(np.int32)
    ordered = times[order]
    # runs of equal timestamps, rare in a log, are put in id order
    for t in set(ordered[1:][ordered[1:] == ordered[:-1]].tolist()):
        lo, hi = np.searchsorted(ordered, t, "left"), np.searchsorted(ordered, t, "right")
        order[lo:hi] = sorted(order[lo:hi].tolist(), key=ids.__getitem__)
    return order


def _coded(names: Iterable[str], codes: dict[str, int], n: int) -> np.ndarray:
    """The codes of the n ``names``, as int32."""
    return np.fromiter(map(codes.__getitem__, names), dtype=np.int32, count=n)


def _grouped(codes: np.ndarray, n_codes: int, rows: np.ndarray) -> Groups:
    """``rows`` stably sorted by ``codes[rows]``, codes in [0, n_codes),
    with the offsets of each code's run."""
    keys = codes[rows]
    offsets = np.zeros(n_codes + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n_codes), out=offsets[1:])
    # unique keys, each code's in order of its rows, sort faster than a
    # stable sort of the codes
    keys = keys.astype(np.int64)
    keys *= len(rows)
    keys += np.arange(len(rows), dtype=np.int32)
    return Groups(rows[np.argsort(keys)], offsets)


def _index(posts: dict[str, Event], columns: CommentColumns, stats: LoadStats) -> Corpus:
    """``index_events`` on posts keyed by id and on the comments' columns."""
    posts_by_time = sorted(posts.values(), key=attrgetter("timestamp", "id"))
    community_posts: dict[str, list[Event]] = {}
    user_posts: dict[str, list[Event]] = {}
    for e in posts_by_time:
        community_posts.setdefault(e.community, []).append(e)
        user_posts.setdefault(e.author, []).append(e)

    # a thread's code is its post's index in posts_by_time; -1 for none
    threads = [e.id for e in posts_by_time]
    thread_codes = dict(zip(threads, range(len(threads))))
    n = len(columns.ids)
    thread = np.fromiter(map(thread_codes.get, columns.threads, repeat(-1)),
                         dtype=np.int32, count=n)
    if (thread < 0).any():
        kept = (thread >= 0).tolist()
        columns = CommentColumns._make(list(compress(column, kept)) for column in columns)
        stats.dangling_comments += n - len(columns.ids)
        log.warning("dropped %d comments with unknown thread ids", n - len(columns.ids))
        thread = thread[thread >= 0]
        n = len(columns.ids)
    stats.posts, stats.comments = len(posts), n

    times = np.array(columns.times, dtype=np.float64)
    in_time = _time_order(times, columns.ids)
    communities = sorted(set(columns.communities).union(community_posts))
    community_codes = dict(zip(communities, range(len(communities))))
    community = _coded(columns.communities, community_codes, n)
    users = sorted(set(columns.authors))
    user_codes = dict(zip(users, range(len(users))))
    author = _coded(columns.authors, user_codes, n)

    # the table's rows are the comments grouped by community, in time order
    rows, offsets = _grouped(community, len(communities), in_time)
    table = CommentTable(times[rows], author[rows], community[rows], thread[rows], rows)
    for column in table:
        column.flags.writeable = False
    # each array is freed once read for the last time, so that the indexes
    # built after it reuse its memory
    del times, author, community, thread
    table_in_time = np.empty(n, dtype=np.int32)
    table_in_time[rows] = np.arange(n, dtype=np.int32)  # each comment's table row
    table_in_time = table_in_time[in_time]
    del in_time
    by_user = _grouped(table.authors, len(users), table_in_time)
    by_thread = _grouped(table.threads, len(threads), table_in_time)
    del table_in_time

    bounds = offsets.tolist()
    timelines = {name: (table.times[lo:hi], table.authors[lo:hi])
                 for name, lo, hi in zip(communities, bounds, bounds[1:]) if lo < hi}
    return Corpus(posts, columns.ids, columns.bodies, columns.parents, stats, posts_by_time,
                  community_posts, user_posts,
                  users, user_codes, communities, community_codes, threads, thread_codes,
                  table, by_user, by_thread, timelines)


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

    A line is decided in two steps (``_read_events``): orjson decodes it
    and the record checks run on its value; a line orjson refuses, or whose
    value fails a check, is decided again by the stdlib's JSON scanner and
    the same checks, whose verdict is final. The accepted lines and every
    stored value are those of the stdlib alone. The lines decided again are
    counted in ``corpus.redecided``, which is 0 on an ordinary log.

    Comments are read into columns, never into one object each (see
    ``Corpus``), and every comment that names the same thread id or parent
    id shares one string for it.

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
    # every line allocates containers and a post keeps one, its event; none
    # is in a cycle, so collections during the load would traverse the
    # growing corpus for nothing
    gc.disable()
    try:
        with fh:
            posts, columns, stats, redecided = _read_events(fh)
        corpus = _index(posts, columns, stats)
        corpus.redecided = redecided
        # Event is a tuple subclass, which the collector never untracks: left
        # in a generation, the posts and the Corpus's lists and dicts would be
        # walked again by every collection after the load
        gc.freeze()
    finally:
        if collecting:
            gc.enable()
    if stats.rejected:
        log.warning("skipped %d malformed lines in %s", stats.rejected, path)
    return corpus


# A line with more brackets than this is never given to orjson, whose
# parser has no depth limit and overflows the C stack on deep nesting; the
# stdlib's scanner raises RecursionError instead.
_ORJSON_MAX_BRACKETS = 256
# orjson rounds an integer just past the float range, which the stdlib keeps
# exact and so rejects as a timestamp, to float_info.max: a timestamp of
# exactly that float is decided again
_ORJSON_MAX_TIMESTAMP = math.nextafter(_MAX_TIMESTAMP, 0.0)


def _read_events(lines) -> tuple[dict[str, Event], CommentColumns, LoadStats, int]:
    """The posts of an event log's lines keyed by id in input order, its
    comments as columns in input order, the log's line counts, and how many
    lines were decided again. The first event of a repeated id is kept.

    An id is a JSON string, or a non-bool integer, which stands for its
    decimal string; a name is checked by ``_name``. Every non-blank line
    either stores one event or is rejected. Every comment that names the
    same thread id or parent id shares one string for it.

    A line is decoded by orjson and checked. When orjson refuses it or its
    value fails a check, the line is decided again: it must be UTF-8, the
    stdlib's scanner must decode it to its end, and the value must pass the
    same checks. Only then is it rejected. orjson 3.8 differs from the
    stdlib only on lines this second step decides:

    - it refuses NaN, +-Infinity, numbers past the float range such as
      1e400, lone-surrogate escapes such as "\\ud800", and text that is
      not UTF-8;
    - it gives integers outside [-2**63, 2**64) as floats, which fail the
      checks on ids and names; as a timestamp, such a float equals the
      stdlib's ``float(int)``, except that an integer just past
      ``float_info.max`` rounds to it, where the stdlib's exact integer is
      out of range: orjson's pass accepts no timestamp of ``float_info.max``;
    - it decodes nesting of any depth, and crashes on deep enough nesting,
      where the stdlib raises RecursionError: a line with more than
      ``_ORJSON_MAX_BRACKETS`` brackets goes to the second step unread.

    Both decoders keep the last value of a repeated key.
    """
    loads = orjson.loads
    scan = json.scanner.make_scanner(json.JSONDecoder())
    new = tuple.__new__  # Event's own __new__ is a Python function
    # (exact, the largest timestamp the pass accepts)
    passes = ((False, _ORJSON_MAX_TIMESTAMP), (True, _MAX_TIMESTAMP))
    names: dict[str, str] = {}
    # thread and parent id -> itself; apart from ``names``, whose hits skip
    # the whitespace check
    ids: dict[str, str] = {}
    posts: dict[str, Event] = {}
    seen: set[str] = set()  # comment ids
    columns = CommentColumns([], [], [], array("d"), [], [], [])
    add_id, add_author, add_community, add_time, add_body, add_thread, add_parent = (
        column.append for column in columns)
    n_lines = redecided = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        n_lines += 1
        # a failed check ends the pass: orjson's pass is followed by the
        # stdlib's, whose failure rejects the line
        for exact, top in passes:
            if not exact:
                if (len(line) > _ORJSON_MAX_BRACKETS
                        and line.count("[") + line.count("{") > _ORJSON_MAX_BRACKETS):
                    continue
                try:
                    obj = loads(line)
                except ValueError:
                    continue
            else:
                redecided += 1
                if not line.isascii():
                    try:
                        line.encode("utf-8")
                    except UnicodeEncodeError:
                        break
                # StopIteration: no JSON value starts the line; ValueError: a
                # malformed one, or an integer past the interpreter's digit
                # limit; RecursionError: nesting past its recursion limit
                try:
                    obj, end = scan(line, 0)
                except (StopIteration, ValueError, RecursionError):
                    break
                if end != len(line):
                    break
            # KeyError: a required field is missing; TypeError: the line's
            # value is not an object
            try:
                kind, ident, author, community, ts = (
                    obj["kind"], obj["id"], obj["author"], obj["community"], obj["timestamp"])
            except (KeyError, TypeError):
                continue
            body = obj.get("body", "")
            # json also gives true, NaN, Infinity and ints past the float range
            if (kind != "post" and kind != "comment" or type(body) is not str
                    or type(ts) is not float and type(ts) is not int
                    or not 0 <= ts <= top):
                continue
            if type(ident) is int:
                ident = str(ident)
            if type(ident) is not str:
                continue
            # ``names`` holds only str keys, so only a name seen before is
            # found; TypeError: an array or object
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
                    posts[ident] = new(Event, ("post", ident, author, community, float(ts),
                                               body, None, None))
                break
            thread_id, parent_id = obj.get("thread_id"), obj.get("parent_id")
            if type(thread_id) is int:
                thread_id = str(thread_id)
            if type(parent_id) is int:
                parent_id = str(parent_id)
            if type(thread_id) is not str or type(parent_id) is not str:
                continue
            if ident not in seen:  # ids are unique per kind
                seen.add(ident)
                add_id(ident)
                add_author(author)
                add_community(community)
                add_time(ts)
                add_body(body)
                add_thread(ids.setdefault(thread_id, thread_id))
                add_parent(ids.setdefault(parent_id, parent_id))
            break
    stats = LoadStats(lines=n_lines, rejected=n_lines - len(posts) - len(seen))
    return posts, columns, stats, redecided


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


def window_slices(times, lo: float, hi: float, t0: float = 0.0,
                  gap: float = 0.0) -> tuple[slice, slice]:
    """The entries of the time-ordered ``times`` with a time in [lo, hi) and
    ``abs(t - t0) >= gap``, as two slices, the earlier first.

    ``times`` is the first half of a ``Corpus.timelines`` entry (a numpy
    array) or the log's distinct comment times, among which
    ``impact.activity_delta`` ranks each comment's time; both are sliced by
    this one rule.
    """
    i, j = bisect_left(times, lo), bisect_left(times, hi)
    if gap <= 0.0 or i >= j:  # no gap to leave out, or an empty window
        return slice(i, j), slice(j, j)

    # ``t - t0`` is computed as a scan computes it. Rounding never decreases
    # it as ``t`` grows, so the entries within the gap are one contiguous
    # range [a, b), and bisect on that key finds exactly the ones a scan
    # would leave out.
    def offset(t):
        return t - t0

    a = bisect_right(times, -gap, i, j, key=offset)
    b = bisect_left(times, gap, a, j, key=offset)
    return slice(i, a), slice(b, j)


def window_codes(timeline, lo: float, hi: float, t0: float = 0.0, gap: float = 0.0) -> np.ndarray:
    """The author codes of the entries of a ``Corpus.timelines`` entry, or
    None for no entries, in ``window_slices``' window, in time order."""
    if timeline is None:
        return np.empty(0, dtype=np.int32)
    times, codes = timeline
    head, tail = window_slices(times, lo, hi, t0, gap)
    return codes[head] if tail.start == tail.stop else np.concatenate((codes[head], codes[tail]))


def members(corpus: Corpus, community: str, lo: float, hi: float) -> np.ndarray:
    """A boolean mask over user codes: the users with >=1 comment in ``community`` in [lo, hi)."""
    if community not in corpus.community_codes:
        log.warning("members(): unknown community %r", community)
    found = np.zeros(len(corpus.users), dtype=bool)
    found[window_codes(corpus.timelines.get(community), lo, hi)] = True
    return found


def member_window(link: CrossLink) -> tuple[float, float]:
    """The window a cross-link's members are taken over: [day-30d, day),
    where day is the midnight that starts the day of its t0."""
    day = day_start(link.t0)
    return day - MEMBER_WINDOW_DAYS * DAY, day


def link_members(corpus: Corpus, link: CrossLink) -> tuple[np.ndarray, np.ndarray]:
    """Masks over user codes of the link's source and target members over
    ``member_window``, each side less the other's members: the two are disjoint."""
    lo, hi = member_window(link)
    source = members(corpus, link.source_community, lo, hi)
    target = members(corpus, link.target_community, lo, hi)
    return source & ~target, target & ~source
