"""Matched comparison posts and users (null-model controls)."""
from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

from .corpus import DAY, MEMBER_WINDOW_DAYS, Corpus, CrossLink, Event, day_start, members, window_keys

HISTORY_GAP_DAYS = 3  # events within +/-3 days of the cross-link are ignored


class NoMatchError(Exception):
    """No eligible match exists."""


@dataclass(frozen=True)
class MatchedPair:
    subject_id: str
    match_id: str
    match_distance: float  # seconds for posts, comment-count difference for users


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


def _history_count(corpus: Corpus, user: str, community: str, day: float, t0: float) -> int:
    """Comments by user in community during [day-30d, day), ignoring events
    within +/-3 days of t0."""
    return _history(corpus.user_timelines.get(user), day, t0).count(community)


def _history_counts(corpus: Corpus, community: str, day: float, t0: float) -> Counter:
    """``_history_count`` of every user at once, from the community's
    comment timeline."""
    return Counter(_history(corpus.timelines.get(community), day, t0))


def _history(timeline, day: float, t0: float) -> list[str]:
    """``window_keys`` of a timeline over the history window of a link
    created at ``t0`` on ``day``."""
    return window_keys(timeline, day - MEMBER_WINDOW_DAYS * DAY, day, t0, HISTORY_GAP_DAYS * DAY)


def match_pool(corpus: Corpus, link: CrossLink, community: str) -> dict[str, int]:
    """The users ``matched_user`` picks from for one side of a cross-link,
    each with their 30-day comment count (``_history_count``): members of
    ``community`` on the link's day who are not members of the counterpart
    community and did not comment in the target thread.

    ``community`` must be the link's source or target community.
    """
    if community == link.source_community:
        counterpart = link.target_community
    elif community == link.target_community:
        counterpart = link.source_community
    else:
        raise ValueError(f"{community!r} is not a side of the cross-link")
    day = day_start(link.t0)
    pool = members(corpus, community, day, counterpart)
    pool.difference_update(c.author for c in corpus.thread_comments.get(link.target_post, []))
    counts = _history_counts(corpus, community, day, link.t0)
    return {u: counts[u] for u in pool}


def matched_user(
    corpus: Corpus,
    link: CrossLink,
    user: str,
    community: str,
    pool: dict[str, int],
    seed: int = 0,
) -> MatchedPair:
    """Same-community member with the closest 30-day comment count who did not
    comment in the cross-linked target thread; ties broken by seeded choice.

    ``community`` must be the link's source or target community; the
    membership exclusion uses the counterpart. ``pool`` is
    ``match_pool(corpus, link, community)``.
    """
    subject_count = _history_count(corpus, user, community, day_start(link.t0), link.t0)
    best, tied = None, []
    for u, count in pool.items():
        if u == user:
            continue
        distance = abs(count - subject_count)
        if best is None or distance < best:
            best, tied = distance, [u]
        elif distance == best:
            tied.append(u)
    if best is None:
        raise NoMatchError(f"no eligible matched user for {user!r} in {community!r}")
    tied.sort()
    pick = tied[0] if len(tied) == 1 else random.Random(seed).choice(tied)
    return MatchedPair(subject_id=user, match_id=pick, match_distance=float(best))
