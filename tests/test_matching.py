import random

import pytest

from intercom.corpus import CrossLink, extract_crosslinks
from intercom.matching import (NoMatchError, crosslink_involved_posts, match_pools, matched_post,
                               matched_user)

from conftest import BASE, DAY, HOUR, comment, comment_events, corpus_from, post


def _link(source_post, target_post, t0, sc="A", tc="B", author="alice"):
    return CrossLink(source_post=source_post, target_post=target_post,
                     source_community=sc, target_community=tc, t0=t0, author=author)


def test_matched_post_nearest_in_time():
    corpus = corpus_from([
        post("p0", "u", "C", BASE + 0),
        post("p1", "u", "C", BASE + 100),
        post("p2", "u", "C", BASE + 205),
    ])
    pair = matched_post(corpus, "p1", set())
    assert pair.match_id == "p0"
    assert pair.match_distance == 100


def test_matched_post_only_post_in_community():
    corpus = corpus_from([post("p1", "u", "C", BASE)])
    with pytest.raises(NoMatchError):
        matched_post(corpus, "p1", set())


def test_matched_post_skips_crosslinked():
    # nearest candidate has a cross-link; verified by enumerating the 3-post fixture
    corpus = corpus_from([
        post("p1", "u", "C", BASE + 100),
        post("near", "u", "C", BASE + 110),
        post("far", "u", "C", BASE + 300),
        post("src", "u", "A", BASE, body="r/C/comments/near"),
    ])
    links = extract_crosslinks(corpus)
    assert [l.target_post for l in links] == ["near"]
    pair = matched_post(corpus, "p1", crosslink_involved_posts(links))
    assert pair.match_id == "far"


def test_matched_post_tie_prefers_earlier():
    corpus = corpus_from([
        post("early", "u", "C", BASE + 50),
        post("p1", "u", "C", BASE + 100),
        post("late", "u", "C", BASE + 150),
    ])
    assert matched_post(corpus, "p1", set()).match_id == "early"


def test_matched_post_minimal_distance_exhaustive():
    # independent oracle: brute-force min over eligible candidates
    rng = random.Random(3)
    for trial in range(10):
        events = []
        times = {}
        for i in range(rng.randint(5, 100)):
            ts = BASE + rng.uniform(0, 90) * DAY
            events.append(post(f"p{i}", "u", "C", ts))
            times[f"p{i}"] = ts
        involved_ids = set(rng.sample(sorted(times), k=len(times) // 4))
        links = [_link(f"ext{j}", pid, BASE, tc="C") for j, pid in enumerate(sorted(involved_ids))]
        corpus = corpus_from(events)
        subject = sorted(set(times) - involved_ids)[0]
        eligible = {p: abs(times[p] - times[subject]) for p in times
                    if p != subject and p not in involved_ids}
        if not eligible:
            continue
        best = min(eligible.values())
        pair = matched_post(corpus, subject, crosslink_involved_posts(links))
        assert pair.match_distance == pytest.approx(best)


def _count(corpus, pool, user):
    """The user's 30-day comment count in a side of ``match_pools``."""
    return int(pool[1][corpus.user_codes[user]])


def _user_match_corpus():
    """Community C members with controlled 30-day comment counts."""
    t0 = BASE + 60 * DAY + 15 * HOUR
    d = BASE + 60 * DAY
    events = [
        post("anchor", "x", "C", BASE),
        post("other", "x", "D", BASE),
        post("tgt", "x", "B", BASE + 59 * DAY),
        post("src", "subject", "C", t0, body="r/B/comments/tgt"),
    ]
    counts = {"subject": 12, "u5": 5, "u11": 11, "u30": 30}
    cid = 0
    for user, n in counts.items():
        for i in range(n):
            events.append(comment(f"c{cid}", user, "C", d - 25 * DAY + cid, "anchor"))
            cid += 1
    return corpus_from(events), _link("src", "tgt", t0, sc="C", tc="B", author="subject"), t0


def test_matched_user_nearest_count():
    corpus, link, _ = _user_match_corpus()
    pool = match_pools(corpus, link)[0]
    assert matched_user(corpus, ["subject"], pool) == ["u11"]
    assert _count(corpus, pool, "subject") - _count(corpus, pool, "u11") == 1


def test_matched_user_tie_seeded():
    corpus, link, t0 = _user_match_corpus()
    # add u13 so u11 and u13 are both at distance 1
    extra = [comment(f"x{i}", "u13", "C", BASE + 40 * DAY + i, "anchor") for i in range(13)]
    events = list(corpus.posts.values()) + list(comment_events(corpus).values()) + extra
    corpus2 = corpus_from(events)
    pool = match_pools(corpus2, link)[0]
    picks = {matched_user(corpus2, ["subject"], pool, seed=s)[0] for s in range(20)}
    assert picks == {"u11", "u13"}
    assert all(matched_user(corpus2, ["subject"], pool, seed=5)
               == matched_user(corpus2, ["subject"], pool, seed=5) for _ in range(3))


def test_matched_user_excludes_thread_commenters():
    corpus, link, t0 = _user_match_corpus()
    events = (list(corpus.posts.values()) + list(comment_events(corpus).values())
              + [comment("onthread", "u11", "B", t0 + 60, "tgt")])
    corpus2 = corpus_from(events)
    assert matched_user(corpus2, ["subject"], match_pools(corpus2, link)[0]) == ["u5"]


def test_matched_user_no_candidates():
    events = [
        post("anchor", "x", "C", BASE),
        post("tgt", "x", "B", BASE + 59 * DAY),
    ]
    t0 = BASE + 60 * DAY
    events.append(comment("c0", "subject", "C", t0 - 5 * DAY, "anchor"))
    corpus = corpus_from(events)
    link = _link("src", "tgt", t0, sc="C")
    assert matched_user(corpus, ["subject"], match_pools(corpus, link)[0]) == [None]


def test_matched_user_minimal_distance_exhaustive():
    # independent oracle: recount 30-day comment histories from the raw events
    rng = random.Random(9)
    t0 = BASE + 60 * DAY + 15 * HOUR
    d = BASE + 60 * DAY
    events = [
        post("anchor", "x", "C", BASE),
        post("other", "x", "D", BASE),
        post("tgt", "x", "B", BASE + 59 * DAY),
    ]
    raw = []  # (user, community, ts)
    cid = 0
    users = [f"u{i:03d}" for i in range(60)] + ["subject"]
    for user in users:
        for _ in range(rng.randint(1, 15)):
            ts = d - rng.uniform(0.5, 35) * DAY
            community = "C" if rng.random() < 0.9 else "D"
            events.append(comment(f"c{cid}", user, community,
                                  ts, "anchor" if community == "C" else "other"))
            raw.append((user, community, ts))
            cid += 1
    corpus = corpus_from(events)
    link = _link("src", "tgt", t0, sc="C", tc="B", author="subject")

    def oracle_count(user):
        return sum(1 for u, c, ts in raw
                   if u == user and c == "C" and d - 30 * DAY <= ts < d
                   and abs(ts - t0) >= 3 * DAY)

    def oracle_member(user):
        in_c = any(u == user and c == "C" and d - 30 * DAY <= ts < d for u, c, ts in raw)
        in_d = any(u == user and c == "D" and d - 30 * DAY <= ts < d for u, c, ts in raw)
        return in_c and not in_d

    if not oracle_member("subject"):
        raw.append(("subject", "C", d - 10 * DAY))
        events.append(comment("extra", "subject", "C", d - 10 * DAY, "anchor"))
        corpus = corpus_from(events)
    [match] = matched_user(corpus, ["subject"], match_pools(corpus, link)[0])
    eligible = [u for u in users if u != "subject" and oracle_member(u)]
    best = min(abs(oracle_count(u) - oracle_count("subject")) for u in eligible)
    assert match in eligible
    assert abs(oracle_count(match) - oracle_count("subject")) == best


def test_matched_user_history_excludes_gap():
    # comments inside +/-3 days of t0 do not count toward the 30-day history
    t0 = BASE + 60 * DAY + 15 * HOUR
    events = [
        post("anchor", "x", "C", BASE),
        post("tgt", "x", "B", BASE + 10 * DAY),
    ]
    for i in range(4):
        events.append(comment(f"s{i}", "subject", "C", t0 - 10 * DAY + i, "anchor"))
    # candidate "gap" has 4 comments but 2 fall within the exclusion band
    for i in range(2):
        events.append(comment(f"g{i}", "gap", "C", t0 - 10 * DAY + 100 + i, "anchor"))
    for i in range(2):
        events.append(comment(f"gx{i}", "gap", "C", t0 - DAY + i, "anchor"))
    # candidate "full" has 3 countable comments
    for i in range(3):
        events.append(comment(f"f{i}", "full", "C", t0 - 12 * DAY + i, "anchor"))
    corpus = corpus_from(events)
    link = _link("src", "tgt", t0, sc="C")
    pool = match_pools(corpus, link)[0]
    assert matched_user(corpus, ["subject"], pool) == ["full"]
    assert _count(corpus, pool, "subject") - _count(corpus, pool, "full") == 1
