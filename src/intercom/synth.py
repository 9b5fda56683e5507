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
        if self.n_communities < 2:
            raise SynthError("need at least 2 communities")
        for name in ("background_posts_per_community", "background_comments_per_user",
                     "n_crosslinks", "pre_comments", "attackers_per_link", "defenders_per_link"):
            if getattr(self, name) < 0:
                raise SynthError(f"{name} must be >= 0")
        for name in ("burst_ratio", "quiet_ratio", "matched_ratio"):
            if getattr(self, name) <= 0:
                raise SynthError(f"{name} must be > 0")
        for name in ("mobilization_fraction", "negative_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise SynthError(f"{name} must be in [0, 1]")
        if self.days < 1:
            raise SynthError("days must be >= 1")
        if self.first_link_day < 0:
            raise SynthError("first_link_day must be >= 0")
        if self.attackers_per_link == 0 and self._after_count(self.burst_ratio) > 0:
            raise SynthError("planted burst exceeds the attacker user pool")
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


def _attach_post(post_times: list[float], post_ids: list[str], ts: float) -> str | None:
    """Latest post created before ts, if any."""
    i = bisect.bisect_left(post_times, ts)
    return post_ids[i - 1] if i > 0 else None


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

    nc = spec.n_communities
    pool = spec.pool_size()
    communities = [f"comm{j:02d}" for j in range(nc)]
    users = {c: [f"u{j * pool + i:05d}" for i in range(pool)] for j, c in enumerate(communities)}
    days = spec.total_days()

    # -- plan links -------------------------------------------------------
    plans = []
    reserved: dict[str, list[float]] = {c: [] for c in communities}
    for k in range(spec.n_crosslinks):
        tc = communities[k % nc]
        sc = communities[(k + 1) % nc]
        day = spec.first_link_day + (k // nc) * ROUND_SPACING_DAYS
        t0 = T_BASE + day * DAY + T0_EARLIEST_HOUR * HOUR + rng.uniform(0.0, 4.0) * HOUR
        target_time = t0 - rng.uniform(13.0, 16.0) * HOUR
        matched_time = target_time + 600.0
        hot = rng.random() < spec.mobilization_fraction
        negative = rng.random() < spec.negative_fraction
        plans.append(
            {"k": k, "sc": sc, "tc": tc, "t0": t0, "target_time": target_time,
             "matched_time": matched_time, "hot": hot, "negative": negative}
        )
        reserved[tc].extend([target_time, matched_time])
        reserved[sc].append(t0)

    # -- background posts (kept 2 h clear of planted post times) ----------
    # every community gets one early anchor post so membership comments
    # always have a thread to land on
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
    after_hot = spec._after_count(spec.burst_ratio)
    after_quiet = spec._after_count(spec.quiet_ratio)
    matched_after = spec._after_count(spec.matched_ratio)

    for plan in plans:
        k, sc, tc, t0 = plan["k"], plan["sc"], plan["tc"], plan["t0"]
        rnd = k // nc
        s0 = (rnd % SLICE_CYCLE) * spec.slice_size
        sset = users[sc][s0 : s0 + spec.slice_size]
        half = spec.slice_size // 2
        pre_users = sset[:spec.pre_comments]
        attacker_pool = sset[spec.pre_comments : half]
        m_pre_users = sset[half : half + spec.pre_comments]
        m_after_pool = sset[half + spec.pre_comments :]

        target_author = users[tc][int(rng.integers(0, pool))]
        target_post = build.post(target_author, tc, plan["target_time"], _body(rng, 0.05, 10))
        matched_author = users[tc][int(rng.integers(0, pool))]
        matched_post = build.post(matched_author, tc, plan["matched_time"], _body(rng, 0.05, 10))

        source_author = users[sc][int(rng.integers(0, pool))]
        url = f"https://reddit.example/r/{tc}/comments/{target_post}"
        anger_prob = 0.55 if plan["negative"] else 0.02
        body = f"{_body(rng, anger_prob, 12)} {url} {_body(rng, anger_prob, 4)}"
        source_post = build.post(source_author, sc, t0, body)

        n_after = after_hot if plan["hot"] else after_quiet
        attackers = attacker_pool[: min(len(attacker_pool), n_after)] if n_after else []
        defender_pool = [u for u in users[tc] if u not in (target_author, matched_author)]
        defenders = defender_pool[: spec.defenders_per_link]

        # membership comments put every planted participant inside the
        # 30-day window (and outside the +/-3 day exclusion band)
        sc_times, sc_ids = bg_posts[sc]
        tc_times, tc_ids = bg_posts[tc]
        for u in dict.fromkeys(pre_users + list(attackers) + m_pre_users + m_after_pool):
            ts = t0 - rng.uniform(5.0, 20.0) * DAY
            anchor = _attach_post(sc_times, sc_ids, ts)
            if anchor is not None:
                build.comment(u, sc, ts, anchor, anchor, _body(rng, 0.05, 6))
        for u in defenders:
            ts = t0 - rng.uniform(5.0, 20.0) * DAY
            anchor = _attach_post(tc_times, tc_ids, ts)
            if anchor is not None:
                build.comment(u, tc, ts, anchor, anchor, _body(rng, 0.05, 6))

        # pre-window comments on the target thread by source members
        pre_ts = sorted(rng.uniform(t0 - 11 * HOUR, t0 - 1 * HOUR, size=spec.pre_comments))
        for u, ts in zip(pre_users, pre_ts):
            build.comment(u, tc, ts, target_post, target_post, _body(rng, 0.1, 8))

        # interleaved burst: attacker and defender comments after t0
        burst: list[tuple[float, str, str]] = []
        for i in range(n_after):
            burst.append((t0 + 600.0 + rng.uniform(0, 11 * HOUR - 1200.0), attackers[i % len(attackers)], "attacker"))
        for i, u in enumerate(defenders):
            for _ in range(2):
                burst.append((t0 + 900.0 + rng.uniform(0, 11 * HOUR - 1800.0), u, "defender"))
        burst.sort(key=lambda t: t[0])
        placed: list[tuple[str, str]] = []  # (comment id, group)
        for ts, u, group in burst:
            roll = rng.random()
            parent = target_post
            if group == "attacker":
                want = "defender" if roll < 0.3 else ("attacker" if roll < 0.5 else None)
            else:
                want = "attacker" if roll < 0.5 else ("defender" if roll < 0.7 else None)
            if want is not None:
                options = [cid for cid, g in placed if g == want]
                if options:
                    parent = options[int(rng.integers(0, len(options)))]
            to_defender = group == "attacker" and parent != target_post and want == "defender"
            to_attacker = group == "defender" and parent != target_post and want == "attacker"
            anger_prob = 0.5 if (to_defender or to_attacker) else 0.15
            cid = build.comment(u, tc, ts, target_post, parent, _body(rng, anger_prob, 8))
            placed.append((cid, group))

        # matched-thread comments by source members tune the null model
        m_pre_ts = sorted(rng.uniform(t0 - 11 * HOUR, t0 - 1 * HOUR, size=spec.pre_comments))
        for u, ts in zip(m_pre_users, m_pre_ts):
            build.comment(u, tc, ts, matched_post, matched_post, _body(rng, 0.05, 6))
        m_after_ts = sorted(rng.uniform(t0 + 600.0, t0 + 11 * HOUR, size=matched_after))
        for i, ts in enumerate(m_after_ts):
            u = m_after_pool[i % len(m_after_pool)]
            build.comment(u, tc, ts, matched_post, matched_post, _body(rng, 0.05, 6))

        manifest_links.append(
            {
                "source_post": source_post,
                "target_post": target_post,
                "matched_post": matched_post,
                "source_community": sc,
                "target_community": tc,
                "t0": t0,
                "mobilization": bool(plan["hot"]),
                "planted_ratio": (n_after + 1) / (spec.pre_comments + 1),
                "sentiment": "negative" if plan["negative"] else "neutral",
                "attackers": sorted(set(attackers)),
                "defenders": sorted(defenders),
                "before_count": spec.pre_comments,
                "after_count": n_after,
                "matched_before": spec.pre_comments,
                "matched_after": matched_after,
            }
        )

    # -- background comments ----------------------------------------------
    for c in communities:
        times, ids = bg_posts[c]
        if not ids:
            continue
        for u in users[c]:
            for _ in range(spec.background_comments_per_user):
                ts = T_BASE + rng.uniform(2.0, days - 2.0) * DAY
                anchor = _attach_post(times, ids, ts)
                if anchor is None:
                    continue
                build.comment(u, c, ts, anchor, anchor, _body(rng, 0.05, 6))

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

