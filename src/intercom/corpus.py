"""Event-log parsing, indexing, cross-link extraction, and community membership."""
from __future__ import annotations

import json
import logging
import re
import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter

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


@dataclass(frozen=True)
class Event:
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
    by ``(timestamp, id)``. Nothing here changes after ``index_events``
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
    # community -> user -> sorted comment timestamps
    comment_times: dict[str, dict[str, list[float]]] = field(default_factory=dict)
    # user -> sorted timestamps of all comments, any community
    user_comment_times: dict[str, list[float]] = field(default_factory=dict)
    # user -> posts authored, time-ordered
    user_posts: dict[str, list[Event]] = field(default_factory=dict)
    # community -> (its comment timestamps, time-ordered, and each comment's
    # author); communities without comments are absent
    timelines: dict[str, tuple[array, list[str]]] = field(default_factory=dict)


def index_events(events, stats: LoadStats | None = None) -> Corpus:
    """Index posts and comments in one pass over them in ``(timestamp, id)``
    order.

    A later event replaces an earlier one of the same kind and id. Comments
    whose thread is not a post are dropped and counted in
    ``stats.dangling_comments``.
    """
    stats = stats if stats is not None else LoadStats()
    posts: dict[str, Event] = {}
    comments: dict[str, Event] = {}
    for event in events:
        (posts if event.kind == "post" else comments)[event.id] = event
    dangling = [cid for cid, c in comments.items() if c.thread_id not in posts]
    for cid in dangling:
        del comments[cid]
    if dangling:
        stats.dangling_comments += len(dangling)
        log.warning("dropped %d comments with unknown thread ids", len(dangling))
    stats.posts, stats.comments = len(posts), len(comments)

    corpus = Corpus(posts, comments, stats)
    for e in sorted(chain(posts.values(), comments.values()), key=attrgetter("timestamp", "id")):
        if e.kind == "post":
            corpus.posts_by_time.append(e)
            corpus.community_posts.setdefault(e.community, []).append(e)
            corpus.user_posts.setdefault(e.author, []).append(e)
            continue
        corpus.thread_comments.setdefault(e.thread_id, []).append(e)
        corpus.comment_times.setdefault(e.community, {}).setdefault(e.author, []).append(e.timestamp)
        corpus.user_comment_times.setdefault(e.author, []).append(e.timestamp)
        timeline = corpus.timelines.get(e.community)
        if timeline is None:
            timeline = corpus.timelines[e.community] = (array("d"), [])
        timeline[0].append(e.timestamp)
        timeline[1].append(e.author)
    return corpus


_REQUIRED = ("kind", "id", "author", "community", "timestamp")


def _parse_record(obj: dict) -> Event | None:
    if not isinstance(obj, dict):
        return None
    for key in _REQUIRED:
        if obj.get(key) is None:
            return None
    kind = obj["kind"]
    if kind not in ("post", "comment"):
        return None
    ts = obj["timestamp"]
    # json also gives true, NaN, Infinity and ints past the float range
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
    # user and community names are written one per vector-file line, split on
    # whitespace; Reddit's names never contain any
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


def load_events(path) -> Corpus:
    """Load a line-delimited JSON event log into an indexed Corpus.

    Malformed lines are skipped and counted in ``corpus.stats.rejected``;
    an unreadable file raises CorpusError.
    """
    stats = LoadStats()
    posts: dict[str, Event] = {}
    comments: dict[str, Event] = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise CorpusError(f"cannot read event log {path}: {exc}") from exc
    with fh:
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
            event = _parse_record(obj)
            if event is None:
                stats.rejected += 1
                continue
            store = posts if event.kind == "post" else comments
            if event.id in store:  # ids are unique per kind
                stats.rejected += 1
                continue
            store[event.id] = event
    events = [*posts.values(), *comments.values()]
    del posts, comments  # free them: index_events keys the events again
    corpus = index_events(events, stats)
    if stats.rejected:
        log.warning("skipped %d malformed lines in %s", stats.rejected, path)
    return corpus


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


def members(corpus: Corpus, community: str, day: float, excluded: str | None = None) -> set[str]:
    """Users with >=1 comment in ``community`` during [day-30d, day) and none
    in ``excluded`` during the same window."""
    timeline = corpus.timelines.get(community)
    if timeline is None:
        log.warning("members(): unknown community %r", community)
        return set()
    lo, hi = day - MEMBER_WINDOW_DAYS * DAY, day
    times, authors = timeline
    found = set(authors[bisect_left(times, lo):bisect_left(times, hi)])
    other = corpus.timelines.get(excluded) if excluded is not None and found else None
    if other is not None:
        times, authors = other
        found.difference_update(authors[bisect_left(times, lo):bisect_left(times, hi)])
    return found


def _count_in(times: list[float], lo: float, hi: float) -> int:
    return bisect_left(times, hi) - bisect_left(times, lo)


def gap_band(times, i: int, j: int, t0: float, gap: float) -> tuple[int, int]:
    """The index range [a, b) of the sorted ``times[i:j]`` with ``abs(t - t0)
    < gap``.

    ``t - t0`` is computed as a scan computes it. Rounding never decreases
    it as ``t`` grows, so the band is one contiguous range and bisect on
    that key finds exactly the timestamps a scan would exclude.
    """
    def offset(t):
        return t - t0

    a = bisect_right(times, -gap, i, j, key=offset)
    return a, bisect_left(times, gap, a, j, key=offset)


def count_beyond_gap(times, lo: float, hi: float, t0: float, gap: float) -> int:
    """How many of the sorted ``times`` lie in [lo, hi) with ``abs(t - t0) >=
    gap``, by bisect."""
    i, j = bisect_left(times, lo), bisect_left(times, hi)
    if i >= j:  # an empty window, or lo > hi
        return 0
    a, b = gap_band(times, i, j, t0, gap)
    return (j - i) - (b - a)


def user_activity(corpus: Corpus, user: str, community: str, window: tuple[float, float]):
    """Comment counts for a user in [t1, t2): (in-community, total, fraction)."""
    t1, t2 = window
    if not t1 < t2:
        raise ValueError(f"bad window: [{t1}, {t2})")
    total = _count_in(corpus.user_comment_times.get(user, []), t1, t2)
    in_comm = _count_in(corpus.comment_times.get(community, {}).get(user, []), t1, t2)
    fraction = in_comm / total if total else 0.0
    return in_comm, total, fraction
