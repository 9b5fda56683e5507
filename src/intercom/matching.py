"""Matched comparison posts and users (null-model controls)."""
from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .corpus import DAY, Corpus, CrossLink, Event, link_members, member_window, window_codes

HISTORY_GAP_DAYS = 3  # events within +/-3 days of the cross-link are ignored


class NoMatchError(Exception):
    """No eligible match exists."""


@dataclass(frozen=True)
class MatchedPair:
    subject_id: str
    match_id: str
    match_distance: float  # seconds


def crosslink_involved_posts(links: list[CrossLink]) -> set[str]:
    involved = set()
    for link in links:
        involved.add(link.source_post)
        involved.add(link.target_post)
    return involved


def _timestamp(event: Event) -> float:
    return event.timestamp


def matched_post(corpus: Corpus, post_id: str, involved: set[str]) -> MatchedPair:
    """Nearest-in-time post from the same community that is not in
    ``involved`` (``crosslink_involved_posts`` of the cross-links); ties
    broken toward the earlier post, then the smaller id."""
    post = corpus.posts.get(post_id)
    if post is None:
        raise KeyError(f"unknown post {post_id!r}")
    posts = corpus.community_posts.get(post.community, [])
    start = bisect_left(posts, post.timestamp, key=_timestamp)
    # Walk outward from the post's time on each side. The distance never
    # shrinks along a side, so a side ends at the first candidate farther
    # than the best so far; candidates at the best distance are all compared.
    best = None
    for side in (range(start, len(posts)), range(start - 1, -1, -1)):
        for k in side:
            cand = posts[k]
            distance = abs(cand.timestamp - post.timestamp)
            if best is not None and distance > best[0][0]:
                break
            if cand.id == post_id or cand.id in involved:
                continue
            key = (distance, cand.timestamp, cand.id)
            if best is None or key < best[0]:
                best = (key, cand)
    if best is None:
        raise NoMatchError(f"no eligible matched post for {post_id!r}")
    return MatchedPair(subject_id=post_id, match_id=best[1].id, match_distance=best[0][0])


def match_pools(corpus: Corpus, link: CrossLink) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The source and the target side's pools for ``matched_user``: the
    side's ``link_members`` less the target thread's commenters, as
    ascending user codes, and every user's comment count in the side's
    community over ``member_window``, less those within +/-3 days of t0."""
    lo, hi = member_window(link)
    commenters = corpus.thread_timeline(link.target_post)[1]
    pools = []
    for community, pool in zip((link.source_community, link.target_community),
                               link_members(corpus, link)):
        pool[commenters] = False
        history = window_codes(corpus.timelines.get(community), lo, hi, link.t0,
                               HISTORY_GAP_DAYS * DAY)
        pools.append((np.flatnonzero(pool), np.bincount(history, minlength=len(corpus.users))))
    return tuple(pools)


# a distance above any count difference: a subject's own entry in its pool
_FAR = np.iinfo(np.int64).max


@lru_cache(maxsize=4096)
def _tie_index(seed: int, n: int) -> int:
    """The index ``random.Random(seed).choice`` picks among n tied items: it
    draws from their number alone."""
    return random.Random(seed).choice(range(n))


def matched_user(corpus: Corpus, users: list[str], pool: tuple[np.ndarray, np.ndarray],
                 seed: int = 0) -> list[str | None]:
    """For each of one side's subjects ``users``, the user of ``pool`` other
    than the subject whose 30-day comment count is closest to the subject's;
    ties broken by ``random.Random(seed).choice`` of the tied names in
    sorted order. None for a subject with no other user in the pool.

    ``pool`` is the side's entry of ``match_pools``, whose counts also give
    each subject's own.
    """
    codes, history = pool
    if not codes.size:
        return [None] * len(users)
    subjects = np.array([corpus.user_codes.get(user, -1) for user in users], dtype=np.intp)
    own = np.where(subjects >= 0, history[subjects], 0)  # a user without a code has no comment
    distance = np.abs(history[codes] - own[:, None])  # subjects x pool
    distance[codes == subjects[:, None]] = _FAR
    best = distance.min(axis=1)
    picks = []
    for row, nearest in zip(distance == best[:, None], best.tolist()):
        if nearest == _FAR:
            picks.append(None)
            continue
        tied = codes[row].tolist()  # ascending codes: sorted names
        picks.append(corpus.users[tied[_tie_index(seed, len(tied))]])
    return picks
