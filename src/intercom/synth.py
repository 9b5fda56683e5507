"""Synthetic event-log generator with planted mobilizations (the test oracle)."""
from __future__ import annotations

import bisect
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

DAY = 86400.0
HOUR = 3600.0
T_BASE = 1_399_939_200.0  # a UTC midnight

# Planted t0 falls in [14:00, 18:00) UTC so the 12 h pre-window stays inside
# t0's own day: burst comments then never leak into the [day-30d, day)
# membership window of their own or any later same-pair cross-link.
T0_EARLIEST_HOUR = 14.0

# A user who comments in the target community stays ineligible as a "source
# member" for same-pair links during the next 30 days; rotating user slices
# recycle only after this many rounds (3-day round spacing).
ROUND_SPACING_DAYS = 3
SLICE_CYCLE = 11

# Membership comments land a uniform [5, 20) days before t0: inside the
# [day-30d, day) window, 3+ days clear of t0. The far end is the least
# first_link_day, so each lands after its community's anchor post (day 0.5).
MEMBER_LOOKBACK_DAYS = (5.0, 20.0)

# Whom a burst comment replies to, by its author's group: the first group whose cumulative
# probability exceeds a uniform roll, else (or if it has no comment yet) the target post.
REPLY_TARGETS = {
    "attacker": ((0.3, "defender"), (0.5, "attacker")),
    "defender": ((0.5, "attacker"), (0.7, "defender")),
}

ANGER_WORDS = ["hate", "idiots", "stupid", "garbage", "pathetic", "rage", "awful", "dumb", "ridiculous", "morons"]
NEUTRAL_WORDS = [
    "today", "thread", "interesting", "discussion", "link", "post", "people", "look",
    "question", "point", "topic", "update", "news", "story", "comment", "reply",
    "share", "note", "detail", "source", "great", "good", "nice", "helpful",
]


class SynthError(ValueError):
    pass


@dataclass
class SynthSpec:
    n_communities: int = 12
    users_per_community: int | None = None  # None: smallest feasible pool
    background_posts_per_community: int = 30
    background_comments_per_user: int = 12
    n_crosslinks: int = 60
    mobilization_fraction: float = 0.5
    burst_ratio: float = 3.2  # planted smoothed ratio of mobilizing links
    quiet_ratio: float = 0.8  # planted smoothed ratio of non-mobilizing links
    matched_ratio: float = 1.6  # smoothed ratio planted on matched threads
    pre_comments: int = 4
    attackers_per_link: int = 6
    defenders_per_link: int = 4
    negative_fraction: float = 0.5
    days: int = 120
    first_link_day: int = 40
    seed: int = 0

    def validate(self) -> None:
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise SynthError(f"{f.name} must be finite")
        # with 2, a target's defenders also comment in its links' source, as source members
        if self.n_communities < 3:
            raise SynthError("need at least 3 communities")
        for name in ("background_posts_per_community", "background_comments_per_user",
                     "n_crosslinks", "pre_comments", "attackers_per_link", "defenders_per_link"):
            if getattr(self, name) < 0:
                raise SynthError(f"{name} must be >= 0")
        for name in ("burst_ratio", "quiet_ratio", "matched_ratio"):
            if getattr(self, name) <= 0:
                raise SynthError(f"{name} must be > 0")
            if self.attackers_per_link == 0 and self._after_count(getattr(self, name)) > 0:
                raise SynthError(f"{name} plants after-window comments but attackers_per_link is 0")
        for name in ("mobilization_fraction", "negative_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise SynthError(f"{name} must be in [0, 1]")
        if self.days < 1:
            raise SynthError("days must be >= 1")
        if self.first_link_day < MEMBER_LOOKBACK_DAYS[1]:
            raise SynthError(f"first_link_day must be >= {MEMBER_LOOKBACK_DAYS[1]:g}")
        self.pool_size()  # raises when users_per_community is too small

    def _after_count(self, ratio: float) -> int:
        return max(0, int(round(ratio * (self.pre_comments + 1))) - 1)

    @property
    def rounds(self) -> int:
        return math.ceil(self.n_crosslinks / self.n_communities) if self.n_crosslinks else 0

    @property
    def slice_size(self) -> int:
        # pre + attackers for the target thread, and again for the matched one
        return 2 * (self.pre_comments + self.attackers_per_link)

    def pool_size(self) -> int:
        needed = self.slice_size * min(max(self.rounds, 1), SLICE_CYCLE)
        needed = max(needed, self.defenders_per_link + 2, 8)
        if self.users_per_community is not None:
            if self.users_per_community < needed:
                raise SynthError(
                    f"users_per_community={self.users_per_community} too small; "
                    f"planted bursts need at least {needed}"
                )
            return self.users_per_community
        return needed

    def total_days(self) -> int:
        last_link_day = self.first_link_day + max(0, self.rounds - 1) * ROUND_SPACING_DAYS
        return max(self.days, last_link_day + 36)


def _body(rng, anger_prob: float, n_tokens: int) -> str:
    toks = []
    for _ in range(n_tokens):
        pool = ANGER_WORDS if rng.random() < anger_prob else NEUTRAL_WORDS
        toks.append(pool[int(rng.integers(0, len(pool)))])
    return " ".join(toks)


class _Builder:
    def __init__(self):
        self.events: list[dict] = []
        self._post_n = 0
        self._comment_n = 0

    def post(self, author, community, ts, body="") -> str:
        pid = f"p{self._post_n:05d}"
        self._post_n += 1
        self.events.append(
            {"kind": "post", "id": pid, "author": author, "community": community,
             "timestamp": float(ts), "body": body}
        )
        return pid

    def comment(self, author, community, ts, thread_id, parent_id, body="") -> str:
        cid = f"c{self._comment_n:06d}"
        self._comment_n += 1
        self.events.append(
            {"kind": "comment", "id": cid, "author": author, "community": community,
             "timestamp": float(ts), "body": body, "thread_id": thread_id,
             "parent_id": parent_id}
        )
        return cid


def _anchored_comment(build: _Builder, rng, posts: tuple[list[float], list[str]], author, community, ts) -> None:
    """A comment at ts on the latest of ``posts`` (times, ids) before ts; validate keeps one there."""
    times, ids = posts
    anchor = ids[bisect.bisect_left(times, ts) - 1]
    build.comment(author, community, ts, anchor, anchor, _body(rng, 0.05, 6))


@dataclass(frozen=True)
class LinkPlan:
    """One planted link's decisions, made before any event is written."""
    source: str  # source community
    target: str  # target community
    t0: float
    target_time: float  # the target post's creation time
    matched_time: float  # the matched post's creation time
    hot: bool  # a mobilization
    negative: bool  # the source post's planted sentiment
    pre_users: list[str]  # comment on the target thread before t0
    attackers: list[str]  # comment on it after t0
    matched_pre_users: list[str]  # the same two on the matched thread
    matched_after_users: list[str]
    n_after: int  # attacker comments after t0


def plan_links(spec: SynthSpec, rng, users: dict[str, list[str]]) -> list[LinkPlan]:
    """One LinkPlan per link, link k from community k+1 to community k.

    Per link this draws four values, in this order: the t0 offset, the target
    post's offset, ``hot`` and ``negative``. ``perfbench.fixtures.synth_seed``
    replays them to pick seeds that plant a fixed number of mobilizations, so
    their number and order must not change."""
    communities = list(users)
    nc, n_pre, half = len(communities), spec.pre_comments, spec.slice_size // 2
    plans = []
    for k in range(spec.n_crosslinks):
        day = spec.first_link_day + (k // nc) * ROUND_SPACING_DAYS
        t0 = T_BASE + day * DAY + T0_EARLIEST_HOUR * HOUR + rng.uniform(0.0, 4.0) * HOUR
        target_time = t0 - rng.uniform(13.0, 16.0) * HOUR
        hot = rng.random() < spec.mobilization_fraction
        negative = rng.random() < spec.negative_fraction
        source = communities[(k + 1) % nc]
        s0 = ((k // nc) % SLICE_CYCLE) * spec.slice_size
        sset = users[source][s0 : s0 + spec.slice_size]
        n_after = spec._after_count(spec.burst_ratio if hot else spec.quiet_ratio)
        plans.append(LinkPlan(
            source=source, target=communities[k % nc], t0=t0, target_time=target_time,
            matched_time=target_time + 600.0, hot=hot, negative=negative,
            pre_users=sset[:n_pre], attackers=sset[n_pre:half][:n_after], n_after=n_after,
            matched_pre_users=sset[half : half + n_pre], matched_after_users=sset[half + n_pre :]))
    return plans


def generate_corpus(spec: SynthSpec, out_dir) -> tuple[Path, dict]:
    """Write events.jsonl and manifest.json; returns (events path, manifest).

    The manifest is the ground truth: planted link verdicts, attacker and
    defender sets, sentiment labels, and the planted matched-thread ratio.
    Byte-identical output for a fixed spec.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    build = _Builder()

    pool = spec.pool_size()
    communities = [f"comm{j:02d}" for j in range(spec.n_communities)]
    users = {c: [f"u{j * pool + i:05d}" for i in range(pool)] for j, c in enumerate(communities)}
    days = spec.total_days()
    plans = plan_links(spec, rng, users)

    # -- background posts (kept 2 h clear of planted post times) ----------
    # every community gets one early anchor post so membership comments
    # always have a thread to land on
    reserved: dict[str, list[float]] = {c: [] for c in communities}
    for plan in plans:
        reserved[plan.target] += (plan.target_time, plan.matched_time)
        reserved[plan.source].append(plan.t0)
    bg_posts: dict[str, tuple[list[float], list[str]]] = {}
    for c in communities:
        times: list[float] = [T_BASE + 0.5 * DAY]
        while len(times) < spec.background_posts_per_community + 1:
            ts = T_BASE + rng.uniform(1.0, days - 1.0) * DAY
            if any(abs(ts - r) < 2 * HOUR for r in reserved[c]):
                continue
            times.append(ts)
        times.sort()
        ids = [build.post(users[c][int(rng.integers(0, pool))], c, ts, _body(rng, 0.05, 8)) for ts in times]
        bg_posts[c] = (times, ids)

    # -- planted links ----------------------------------------------------
    manifest_links = []
    matched_after = spec._after_count(spec.matched_ratio)
    for plan in plans:
        sc, tc, t0 = plan.source, plan.target, plan.t0
        target_author = users[tc][int(rng.integers(0, pool))]
        target_post = build.post(target_author, tc, plan.target_time, _body(rng, 0.05, 10))
        matched_author = users[tc][int(rng.integers(0, pool))]
        matched_post = build.post(matched_author, tc, plan.matched_time, _body(rng, 0.05, 10))

        source_author = users[sc][int(rng.integers(0, pool))]
        url = f"https://reddit.example/r/{tc}/comments/{target_post}"
        anger_prob = 0.55 if plan.negative else 0.02
        body = f"{_body(rng, anger_prob, 12)} {url} {_body(rng, anger_prob, 4)}"
        source_post = build.post(source_author, sc, t0, body)
        defenders = [u for u in users[tc] if u not in (target_author, matched_author)][: spec.defenders_per_link]

        # membership comments put every planted participant inside the
        # 30-day window (and outside the +/-3 day exclusion band)
        source_members = plan.pre_users + plan.attackers + plan.matched_pre_users + plan.matched_after_users
        for c, u in [(sc, u) for u in source_members] + [(tc, u) for u in defenders]:
            _anchored_comment(build, rng, bg_posts[c], u, c, t0 - rng.uniform(*MEMBER_LOOKBACK_DAYS) * DAY)

        # pre-window comments on the target thread by source members
        pre_ts = sorted(rng.uniform(t0 - 11 * HOUR, t0 - 1 * HOUR, size=spec.pre_comments))
        for u, ts in zip(plan.pre_users, pre_ts):
            build.comment(u, tc, ts, target_post, target_post, _body(rng, 0.1, 8))

        # interleaved burst: attacker and defender comments after t0
        burst = [(t0 + 600.0 + rng.uniform(0, 11 * HOUR - 1200.0), plan.attackers[i % len(plan.attackers)],
                  "attacker") for i in range(plan.n_after)]
        burst += [(t0 + 900.0 + rng.uniform(0, 11 * HOUR - 1800.0), u, "defender")
                  for u in defenders for _ in range(2)]
        burst.sort(key=lambda t: t[0])
        placed: list[tuple[str, str]] = []  # (comment id, group)
        for ts, u, group in burst:
            roll = rng.random()
            want = next((g for p, g in REPLY_TARGETS[group] if roll < p), None)
            options = [cid for cid, g in placed if g == want]
            parent = options[int(rng.integers(0, len(options)))] if options else target_post
            anger_prob = 0.5 if parent != target_post and want != group else 0.15
            cid = build.comment(u, tc, ts, target_post, parent, _body(rng, anger_prob, 8))
            placed.append((cid, group))

        # matched-thread comments by source members tune the null model
        m_pre_ts = sorted(rng.uniform(t0 - 11 * HOUR, t0 - 1 * HOUR, size=spec.pre_comments))
        for u, ts in zip(plan.matched_pre_users, m_pre_ts):
            build.comment(u, tc, ts, matched_post, matched_post, _body(rng, 0.05, 6))
        m_after_ts = sorted(rng.uniform(t0 + 600.0, t0 + 11 * HOUR, size=matched_after))
        for i, ts in enumerate(m_after_ts):
            u = plan.matched_after_users[i % len(plan.matched_after_users)]
            build.comment(u, tc, ts, matched_post, matched_post, _body(rng, 0.05, 6))

        manifest_links.append({
            "source_post": source_post,
            "target_post": target_post,
            "matched_post": matched_post,
            "source_community": sc,
            "target_community": tc,
            "t0": t0,
            "mobilization": plan.hot,
            "planted_ratio": (plan.n_after + 1) / (spec.pre_comments + 1),
            "sentiment": "negative" if plan.negative else "neutral",
            "attackers": sorted(plan.attackers),
            "defenders": sorted(defenders),
            "before_count": spec.pre_comments,
            "after_count": plan.n_after,
            "matched_before": spec.pre_comments,
            "matched_after": matched_after,
        })

    # -- background comments ----------------------------------------------
    for c in communities:
        for u in users[c]:
            for _ in range(spec.background_comments_per_user):
                _anchored_comment(build, rng, bg_posts[c], u, c, T_BASE + rng.uniform(2.0, days - 2.0) * DAY)

    build.events.sort(key=lambda e: (e["timestamp"], e["kind"], e["id"]))
    events_path = out_dir / "events.jsonl"
    with open(events_path, "w", encoding="utf-8") as fh:
        for ev in build.events:
            fh.write(json.dumps(ev, sort_keys=True) + "\n")

    manifest = {
        "spec": asdict(spec),
        "planted_matched_ratio": (matched_after + 1) / (spec.pre_comments + 1),
        "links": manifest_links,
        "counts": {
            "events": len(build.events),
            "posts": build._post_n,
            "comments": build._comment_n,
            "mobilizations": sum(1 for l in manifest_links if l["mobilization"]),
        },
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return events_path, manifest

