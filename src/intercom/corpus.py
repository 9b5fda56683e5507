"""Event-log parsing, indexing, cross-link extraction, and community membership."""
from __future__ import annotations

import logging
import re
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import accumulate, compress, islice, repeat
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

    def to_dict(self) -> dict:
        """The fields by name in declaration order, as ``dataclasses.asdict``
        gives them, without its deep copy of each value."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass
class LoadStats:
    lines: int = 0
    posts: int = 0
    comments: int = 0
    rejected: int = 0
    dangling_comments: int = 0


class Texts:
    """Strings packed into one UTF-8 buffer: string k is
    ``data[offsets[k]:offsets[k + 1]]``, and ``texts[k]`` decodes it. Any
    ``str`` packs, a lone surrogate included. Not changed once built."""

    __slots__ = ("data", "offsets")

    def __init__(self, data: bytes | bytearray, offsets: np.ndarray):
        self.data = data
        self.offsets = offsets  # int64, one more than there are strings

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, k: int) -> str:
        if not 0 <= k < len(self):
            raise IndexError(k)
        lo, hi = self.offsets[k:k + 2].tolist()
        return self.data[lo:hi].decode("utf-8", "surrogatepass")

    def strings(self, rows: np.ndarray) -> list[str]:
        """The strings at the integer array ``rows``, in its order."""
        data, offsets = self.data, self.offsets
        return [data[lo:hi].decode("utf-8", "surrogatepass")
                for lo, hi in zip(offsets[rows].tolist(), offsets[rows + 1].tolist())]

    def select(self, kept: np.ndarray) -> Texts:
        """The strings where the boolean mask ``kept`` is set, in order."""
        lengths = np.diff(self.offsets)
        data = np.frombuffer(self.data, dtype=np.uint8)[np.repeat(kept, lengths)]
        return Texts(data.tobytes(), _offsets([lengths[kept]]))


def _pack(strings: list[str], data: bytearray) -> np.ndarray:
    """Append ``strings`` to ``data`` as UTF-8; their lengths in bytes, as int64."""
    text = "".join(strings)
    if text.isascii():  # one byte a character
        data += text.encode("ascii")
        pieces = strings
    else:
        pieces = [s.encode("utf-8", "surrogatepass") for s in strings]
        data += b"".join(pieces)
    return np.fromiter(map(len, pieces), dtype=np.int64, count=len(pieces))


def _offsets(lengths: list[np.ndarray]) -> np.ndarray:
    """The ``Texts.offsets`` of strings packed in order, their lengths in
    bytes given by the int64 arrays ``lengths`` one after another."""
    return np.cumsum(np.concatenate([np.zeros(1, dtype=np.int64), *lengths]))


class CommentColumns(NamedTuple):
    """The comments of an event log in input order, one entry per comment
    in each column: the fields of ``Event`` after ``kind``. Ids and bodies
    are packed ``Texts``, times a float64 array and the other fields lists
    of strings."""

    ids: Texts
    authors: list[str]
    communities: list[str]
    times: np.ndarray  # float64 epoch seconds
    bodies: Texts
    threads: list[str]
    parents: list[str]


def _select(columns: CommentColumns, kept: np.ndarray) -> CommentColumns:
    """The comments where the boolean mask ``kept`` is set, in order."""
    flags = kept.tolist()
    return CommentColumns._make(
        column.select(kept) if isinstance(column, Texts)
        else column[kept] if isinstance(column, np.ndarray)
        else list(compress(column, flags)) for column in columns)


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
    """Indexed view of an event log, built once from its lines by
    ``index_lines``, which ``load_events`` calls on a file.

    ``posts`` maps ids to posts in input order; comments whose thread is not
    a post are not indexed. Comments are held as columns, not as events:
    their ids, bodies and parent ids in input order (``comment_ids`` and
    ``comment_bodies``, packed as ``Texts``, and ``comment_parents``, a list
    of shared strings) and every other field in ``table``.
    ``thread_comments`` builds a thread's ``Event``s from these on demand,
    decoding only that thread's ids and bodies, with the author, community
    and thread id strings of ``users``, ``communities`` and ``threads``.
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
    ``index_lines`` returns.
    """

    posts: dict[str, Event]
    # the comments' ids, bodies and parent ids, in input order
    comment_ids: Texts
    comment_bodies: Texts
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

    def _thread_rows(self, post_id: str) -> np.ndarray:
        code = self.thread_codes.get(post_id)
        return self.by_thread.of(code) if code is not None else self.by_thread.rows[:0]

    def thread_comments(self, post_id: str) -> list[Event]:
        """The comments on a thread, time-ordered; empty for a post without
        comments or an id that is no post."""
        rows = self._thread_rows(post_id)
        table = self.table
        events = table.events[rows]
        ids, bodies = self.comment_ids.strings(events), self.comment_bodies.strings(events)
        parents = self.comment_parents
        users, communities, threads = self.users, self.communities, self.threads
        new = tuple.__new__  # Event's own __new__ is a Python function
        return [new(Event, ("comment", i, users[a], communities[c], t, b, threads[h], parents[k]))
                for i, b, k, a, c, t, h in zip(ids, bodies, events.tolist(),
                                               table.authors[rows].tolist(),
                                               table.communities[rows].tolist(),
                                               table.times[rows].tolist(),
                                               table.threads[rows].tolist())]

    def thread_timeline(self, post_id: str) -> tuple[np.ndarray, np.ndarray]:
        """The timestamps and author codes of the comments on a thread,
        time-ordered; empty for a post without comments or an id that is no
        post."""
        rows = self._thread_rows(post_id)
        return self.table.times[rows], self.table.authors[rows]


def index_lines(lines) -> Corpus:
    """The Corpus of an event log's lines, by ``load_events``' rule: the
    one way every Corpus is built, from a file or from lines in memory."""
    return _index(*_read_events(lines))


def _time_order(times: np.ndarray, ids: Texts) -> np.ndarray:
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
    """The Corpus of posts keyed by id and of the comments' columns, as
    ``_read_events`` gives them, in ``(timestamp, id)`` order. Comments
    whose thread is not a post are dropped and counted in
    ``stats.dangling_comments``."""
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
        kept = thread >= 0
        columns = _select(columns, kept)
        stats.dangling_comments += n - len(columns.ids)
        log.warning("dropped %d comments with unknown thread ids", n - len(columns.ids))
        thread = thread[kept]
        n = len(columns.ids)
    stats.posts, stats.comments = len(posts), n

    times = columns.times
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
    """Load a line-delimited JSON event log into an indexed Corpus: the
    ``index_lines`` of its lines.

    Every line, stripped of surrounding JSON whitespace (space, tab, CR and
    LF) only, that is not blank either stores one event or is rejected:
    skipped and counted in ``corpus.stats.rejected``. A line of other
    whitespace, such as a form feed or U+00A0, is rejected, not blank. An
    unreadable file raises CorpusError. A line's verdict depends on its
    bytes alone. It is rejected unless:

    1. it is UTF-8 and one RFC 8259 value: no NaN or Infinity, no
       lone-surrogate escape such as "\\ud800", no byte-order mark and
       nothing after the value;
    2. every number's nearest float64 is finite, wherever it appears, so
       1e400 and a 400-digit integer reject their line;
    3. its nesting is at most ``MAX_DEPTH`` deep, where a bracket inside a
       string does not count;
    4. an integer (a number with no fraction or exponent) given as an id or
       a name, or as a comment's ``thread_id`` or ``parent_id``, lies in
       [-2**63, 2**64);
    5. its timestamp is a non-negative number, stored as its nearest
       float64;

    and its value is a valid record (``_read_events``) whose id no earlier
    event of its kind has. orjson decides parts 1, 2 and 4 on its own: it
    gives an integer outside [-2**63, 2**64) as its nearest float, which no
    id or name may be. ``_depth`` decides part 3 before orjson, whose parser
    has no depth limit and crashes on deep enough nesting, reads the line.

    Comments are read into columns, never into one object each (see
    ``Corpus``): their ids and bodies are packed into ``Texts`` a batch of
    ``PACK`` lines at a time, and every comment that names the same thread
    id or parent id shares one string for it. No set of comment ids is
    kept while the lines are read; the first comment of a repeated id is
    found after the last line (``_first_rows``), so a repeated comment's
    id and body are held until then.
    """
    try:
        # an undecodable byte becomes a lone surrogate, which orjson refuses
        fh = open(path, "r", encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise CorpusError(f"cannot read event log {path}: {exc}") from exc
    with fh:
        corpus = index_lines(fh)
    if corpus.stats.rejected:
        log.warning("skipped %d malformed lines in %s", corpus.stats.rejected, path)
    return corpus


# The deepest nesting an event-log line may hold (part 3 of ``load_events``'
# rule). A record is one object deep; the limit keeps orjson, which has no
# depth limit of its own, far from the nesting that overflows its stack.
MAX_DEPTH = 256
# a JSON string, closed or running to the end of the line, or one bracket
_STRING_OR_BRACKET = re.compile(r'"(?:[^"\\]|\\.)*"?|[\[\]{}]', re.DOTALL)
_DEPTH_STEP = {"[": 1, "{": 1, "]": -1, "}": -1}


def _depth(line: str) -> int:
    """The deepest nesting of the brackets of ``line`` that are outside its
    JSON strings."""
    steps = map(_DEPTH_STEP.get, _STRING_OR_BRACKET.findall(line), repeat(0))
    return max(accumulate(steps, initial=0))


# The lines ``_read_events`` reads between two packings of their comments'
# ids and bodies into ``Texts``: the strings of at most this many comments
# are held at once.
PACK = 4096


def _read_events(lines) -> tuple[dict[str, Event], CommentColumns, LoadStats]:
    """The posts of an event log's lines keyed by id in input order, its
    comments as columns in input order, and the log's line counts, by
    ``load_events``' rule. The first event of a repeated id is kept.

    An id is a JSON string, or a non-bool integer, which stands for its
    decimal string; a name is checked by ``_name``. Every comment that
    names the same thread id or parent id shares one string for it.

    Comment ids and bodies are packed into ``Texts`` every ``PACK`` lines,
    and no set of the ids read is kept: every comment is stored, and after
    the last line ``_first_rows`` finds the repeated ids from their hashes
    and drops all but the first row of each.
    """
    loads = orjson.loads
    new = tuple.__new__  # Event's own __new__ is a Python function
    names: dict[str, str] = {}
    # thread and parent id -> itself; apart from ``names``, whose hits skip
    # the whitespace check
    ids: dict[str, str] = {}
    posts: dict[str, Event] = {}
    authors: list[str] = []
    communities: list[str] = []
    times = array("d")
    threads: list[str] = []
    parents: list[str] = []
    add_author, add_community, add_time, add_thread, add_parent = (
        authors.append, communities.append, times.append, threads.append, parents.append)
    # the packed ids and bodies, their lengths in bytes a batch each, and the
    # ids' hashes
    id_data, body_data = bytearray(), bytearray()
    id_lengths: list[np.ndarray] = []
    body_lengths: list[np.ndarray] = []
    hashes = array("q")
    n_lines = 0
    lines = iter(lines)
    while batch := list(islice(lines, PACK)):
        batch_ids: list[str] = []
        batch_bodies: list[str] = []
        add_id, add_body = batch_ids.append, batch_bodies.append
        for line in batch:
            line = line.strip(" \t\r\n")  # JSON's whitespace alone
            if not line:
                continue
            n_lines += 1
            # only a line with more brackets than MAX_DEPTH can nest deeper
            if (len(line) > MAX_DEPTH and line.count("[") + line.count("{") > MAX_DEPTH
                    and _depth(line) > MAX_DEPTH):
                continue
            # ValueError: the line breaks parts 1-2 of the rule; KeyError: a
            # required field is missing; TypeError: the line's value is not
            # an object
            try:
                obj = loads(line)
                kind, ident, author, community, ts = (
                    obj["kind"], obj["id"], obj["author"], obj["community"], obj["timestamp"])
            except (ValueError, KeyError, TypeError):
                continue
            body = obj.get("body", "")
            if (kind != "post" and kind != "comment" or type(body) is not str
                    or type(ts) is not float and type(ts) is not int or ts < 0):
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
                continue
            thread_id, parent_id = obj.get("thread_id"), obj.get("parent_id")
            if type(thread_id) is int:
                thread_id = str(thread_id)
            if type(parent_id) is int:
                parent_id = str(parent_id)
            if type(thread_id) is not str or type(parent_id) is not str:
                continue
            add_id(ident)
            add_author(author)
            add_community(community)
            add_time(ts)
            add_body(body)
            add_thread(ids.setdefault(thread_id, thread_id))
            add_parent(ids.setdefault(parent_id, parent_id))
        id_lengths.append(_pack(batch_ids, id_data))
        body_lengths.append(_pack(batch_bodies, body_data))
        hashes.frombytes(np.fromiter(map(hash, batch_ids), dtype=np.int64,
                                     count=len(batch_ids)).tobytes())
    columns = CommentColumns(Texts(id_data, _offsets(id_lengths)), authors, communities,
                             np.frombuffer(times, dtype=np.float64),
                             Texts(body_data, _offsets(body_lengths)), threads, parents)
    kept = _first_rows(columns.ids, np.frombuffer(hashes, dtype=np.int64))
    if not kept.all():  # ids are unique per kind
        columns = _select(columns, kept)
    n_comments = len(columns.ids)
    return posts, columns, LoadStats(lines=n_lines, rejected=n_lines - len(posts) - n_comments)


def _first_rows(texts: Texts, hashes: np.ndarray) -> np.ndarray:
    """A boolean mask over ``texts``, set at the first row of each distinct
    string, where ``hashes`` holds each row's ``hash()``.

    Only rows whose hash another row shares can repeat a string; their
    strings alone are compared, so a hash collision keeps both rows.
    """
    kept = np.ones(len(hashes), dtype=bool)
    ordered = np.sort(hashes)
    shared = ordered[1:][ordered[1:] == ordered[:-1]]
    candidates = np.flatnonzero(np.isin(hashes, shared))  # in input order
    seen: set[str] = set()
    for k, text in zip(candidates.tolist(), texts.strings(candidates)):
        if text in seen:
            kept[k] = False
        else:
            seen.add(text)
    return kept


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
