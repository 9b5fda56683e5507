"""Hypothesis properties of the analysis stages, on random small inputs."""
import random
from dataclasses import dataclass
from itertools import count

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from intercom.corpus import (DAY, CrossLink, Texts, _offsets, _pack, _time_order,  # noqa: E402
                             day_start, extract_crosslinks, link_members, member_window,
                             members)
from intercom import impact as impact_mod  # noqa: E402
from intercom.impact import (ImpactRecord, _activity_counts, activity_delta,  # noqa: E402
                             aggregate, moving_average)
from intercom.matching import match_pools, matched_user  # noqa: E402
from intercom.mobilization import (DEFAULT_BASELINE, MobilizationRecord, detect,  # noqa: E402
                                   measure)
from intercom.replynet import (REPLYNET_HEADER, TELEPORT_PROB, ReplyGraph, anger_rate,  # noqa: E402
                               echo_metrics, group_pagerank, replynet_rows, thread_graph,
                               thread_replies)
from intercom.lexicon import Lexicon  # noqa: E402
from intercom.sentiment import tokenize  # noqa: E402

from conftest import BASE, HOUR, comment, corpus_from, names, post  # noqa: E402

LEXICON = Lexicon(name="t", categories={"anger": {"hate", "rage"}})
WORDS = ["hate", "rage", "calm", "fine", "well"]
# the columns that swap with attackers and defenders, in pairs
SWAPPED = [
    ("n_attackers", "n_defenders"),
    ("attacker_attacker_weight", "defender_defender_weight"),
    ("attacker_defender_weight", "defender_attacker_weight"),
    ("attacker_within_cross_ratio", "defender_within_cross_ratio"),
    ("mean_defender_apr", "mean_attacker_dpr"),
    ("anger_attacker_to_defender", "anger_defender_to_attacker"),
]


def threads(rng):
    """1-5 threads of 1-25 comments by up to 12 users, each replying to the
    post, to an earlier comment or (rarely) to a missing one, each named by
    the source post of its link, and one record per thread whose attackers
    and defenders are disjoint sets of its commenters (either may be
    empty)."""
    events, records = [], []
    for k in range(rng.randint(1, 5)):
        target = f"t{k}"
        events.append(post(target, "op", "B", BASE))
        events.append(post(f"s{k}", "op", "A", BASE + 30, body=f"r/B/comments/{target}"))
        users = [f"u{i:02d}" for i in range(rng.randint(1, 12))]
        ids, authors = [], set()
        for n in range(rng.randint(1, 25)):
            cid = f"{target}c{n}"
            r = rng.random()
            parent = target if r < 0.25 or not ids else "gone" if r < 0.3 else rng.choice(ids)
            author = rng.choice(users)
            body = " ".join(rng.choice(WORDS) for _ in range(rng.randint(0, 4)))
            events.append(comment(cid, author, "B", BASE + 60 + n, target, parent, body=body))
            ids.append(cid)
            authors.add(author)
        groups = {u: rng.choice(("attacker", "defender", "other")) for u in sorted(authors)}
        link = CrossLink(f"s{k}", target, "A", "B", BASE + 30, "op")
        records.append(MobilizationRecord(
            link, 0, 0, 0.0, 1.0, "mobilization",
            attackers={u for u, g in groups.items() if g == "attacker"},
            defenders={u for u, g in groups.items() if g == "defender"}))
    return corpus_from(events), records


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([TELEPORT_PROB, 0.1, 0.6]))
def test_swapping_attackers_and_defenders_swaps_the_replynet_columns(seed, alpha):
    corpus, records = threads(random.Random(seed))
    swapped = [MobilizationRecord(r.crosslink, r.before_count, r.after_count, r.ratio, r.baseline,
                                  r.verdict, attackers=r.defenders, defenders=r.attackers)
               for r in records]
    kwargs = dict(alpha=alpha, tol=1e-10, max_iter=10000)
    rows, iterations = replynet_rows(corpus, LEXICON, records, **kwargs)
    swapped_rows, swapped_iterations = replynet_rows(corpus, LEXICON, swapped, **kwargs)
    assert len(rows) == len(swapped_rows)
    at = {name: i for i, name in enumerate(REPLYNET_HEADER)}
    for row, other in zip(rows, swapped_rows):
        assert row[at["mobilization"]] == other[at["mobilization"]]
        for a, b in SWAPPED:
            # repr compares floats bit for bit and keeps None apart from 0
            assert repr(row[at[a]]) == repr(other[at[b]]), a
            assert repr(row[at[b]]) == repr(other[at[a]]), b
        assert repr(row[at["cross_group_ratio"]]) == repr(other[at["cross_group_ratio"]])
    # the attacker-teleport PageRanks of one are the defender-teleport ones of the other
    half = len(rows)
    assert swapped_iterations == iterations[half:] + iterations[:half]


def scan_echo_metrics(graph, apr, dpr):
    """Oracle: the echo columns by one scan of the edges per group pair and
    one more for the defenders' out-weight, with the means over the graph's
    groups in name order."""
    def weight_between(from_group, to_group):
        return sum(w for (i, j), w in graph.edges.items()
                   if graph.nodes[i] == from_group and graph.nodes[j] == to_group)

    def ratio(num, den):
        return num / den if den else None

    in_attackers, in_defenders = graph.users_in_group("attacker"), graph.users_in_group("defender")
    aa, ad = weight_between("attacker", "attacker"), weight_between("attacker", "defender")
    dd, da = weight_between("defender", "defender"), weight_between("defender", "attacker")
    cross = ad + da
    pooled = [apr[u] for u in sorted(in_attackers | in_defenders)]
    mean_score = sum(pooled) / len(pooled)
    scores = [apr[u] for u in sorted(in_defenders)]
    tentimes = (sum(1 for x in scores if x >= 10.0 * mean_score) / len(scores)
                if mean_score > 0.0 else 0.0)
    defender_out = sum(w for (i, _j), w in graph.edges.items() if i in in_defenders)
    return dict(zip(REPLYNET_HEADER[1:15], (
        len(in_attackers), len(in_defenders), aa, ad, dd, da,
        ratio(aa, cross), ratio(dd, cross), ratio(cross, aa + dd),
        sum(1 for x in scores if x == 0.0) / len(scores), tentimes,
        (da / defender_out) if defender_out else 0.0,
        sum(apr[u] for u in sorted(in_defenders)) / len(in_defenders),
        sum(dpr[u] for u in sorted(in_attackers)) / len(in_attackers))))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_echo_metrics_equals_the_per_group_edge_scans(seed):
    """On graphs with attackers, defenders and others, self-loops, and
    defenders that may reply to no one, and on scores with exact zeros and
    one score far above the rest."""
    rng = random.Random(seed)
    n = rng.randint(2, 14)
    names = [f"u{i:02d}" for i in range(n)]
    roles = ["attacker", "defender"] + [rng.choice(("attacker", "defender", "other"))
                                        for _ in range(n - 2)]
    rng.shuffle(roles)
    nodes = dict(zip(names, roles))
    silent = {u for u, role in nodes.items() if role == "defender" and rng.random() < 0.5}
    edges = {}
    for _ in range(rng.randint(0, 4 * n)):
        i, j = rng.choice(names), rng.choice(names)
        if i in silent:
            continue
        if rng.random() < 0.1:
            j = i  # a self-loop
        edges[(i, j)] = edges.get((i, j), 0) + rng.randint(1, 5)
    graph = ReplyGraph(nodes=nodes, edges=edges)

    def scores():
        out = {u: rng.choice((0.0, rng.random(), rng.random() / 7)) for u in names}
        out[rng.choice(names)] = rng.choice((0.0, 50.0 * rng.random()))
        return out

    apr, dpr = scores(), scores()
    assert repr(echo_metrics(graph, apr, dpr)) == repr(scan_echo_metrics(graph, apr, dpr))


def scan_anger_rate(comments, lexicon, from_users, to_users):
    """Oracle: the anger rate by a scan of the comment list, each reply's
    parent author looked up in the thread's id -> author map."""
    anger = lexicon.categories["anger"]
    author_of = {c.id: c.author for c in comments}
    total = hits = 0
    found = False
    for c in comments:
        if c.author not in from_users:
            continue
        parent_author = author_of.get(c.parent_id)
        if parent_author is None or parent_author not in to_users:
            continue
        found = True
        for tok in tokenize(c.body):
            total += 1
            if tok in anger:
                hits += 1
    if not found:
        return None
    return hits / total if total else 0.0


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_anger_rate_on_the_thread_replies_equals_the_comment_scan(seed):
    """On threads whose comments reply to the post, to another comment
    (earlier or later) or to a missing one, by overlapping user groups, and
    where a comment may share the post's id (ids are unique per kind only),
    so replies to the post resolve to that comment's author."""
    rng = random.Random(seed)
    users = [f"u{i}" for i in range(rng.randint(1, 8))]
    n = rng.randint(0, 30)
    twin = rng.randrange(n) if n and rng.random() < 0.3 else None  # the comment with id "p"
    comments = []
    for k in range(n):
        r = rng.random()
        parent = "p" if r < 0.25 else "gone" if r < 0.35 else f"c{rng.randrange(n)}"
        body = " ".join(rng.choice(WORDS) for _ in range(rng.randint(0, 4)))
        comments.append(comment("p" if k == twin else f"c{k}", rng.choice(users), "B", BASE + k,
                                "p", parent, body=body))
    replies = thread_replies(comments)
    for _ in range(4):
        from_users = set(rng.sample(users, rng.randint(0, len(users))))
        to_users = set(rng.sample(users, rng.randint(0, len(users))))
        assert (repr(anger_rate(replies, LEXICON, from_users, to_users))
                == repr(scan_anger_rate(comments, LEXICON, from_users, to_users)))


# -- comment order -------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 20), st.text(max_size=3)), max_size=80,
                unique_by=lambda pair: pair[1]))
def test_time_order_is_the_timestamp_then_id_order(comments):
    """On whole-second timestamps, as in a log of Reddit's ``created_utc``,
    so that many comments share one, and on distinct ids, as ``_index``
    gets them."""
    times = [BASE + second for second, _ in comments]
    ids = [cid for _, cid in comments]
    data = bytearray()
    order = _time_order(np.array(times, dtype=np.float64), Texts(data, _offsets([_pack(ids, data)])))
    assert order.dtype == np.int32
    assert order.tolist() == sorted(range(len(comments)), key=lambda k: (times[k], ids[k]))


# -- packed text ---------------------------------------------------------------

def packed_texts(strings):
    data = bytearray()
    return Texts(data, _offsets([_pack(strings, data)]))


# strings with non-ASCII characters and lone surrogates, which pack too
TEXTS = st.lists(st.text(max_size=6) | st.sampled_from(["\ud800", "a\udfffb", "\U0001f600"]),
                 max_size=40)


@settings(max_examples=300, deadline=None)
@given(TEXTS, st.sampled_from(["none", "all", "any"]), st.data())
def test_selected_texts_equal_the_kept_strings_packed(strings, which, data):
    if which == "any":
        kept = data.draw(st.lists(st.booleans(), min_size=len(strings), max_size=len(strings)))
    else:
        kept = [which == "all"] * len(strings)
    selected = packed_texts(strings).select(np.array(kept, dtype=bool))
    expected = packed_texts([text for text, keep in zip(strings, kept) if keep])
    assert bytes(selected.data) == bytes(expected.data)
    assert selected.offsets.dtype == np.int64
    assert selected.offsets.tolist() == expected.offsets.tolist()
    assert list(selected) == list(expected)


# -- windows -------------------------------------------------------------------

DAY0 = BASE + 40 * DAY  # the day the links of the tests below are created on
GAP = 3 * DAY
# Times are on a quarter-second grid near BASE, so a time plus or minus a
# whole number of days, of hours or of quarter seconds is exact, and so is
# ``day_start`` of it.
QUARTERS_PER_DAY = 4 * 86400


def grid(lo_days, hi_days):
    """Times on the quarter-second grid in [DAY0 + lo_days, DAY0 + hi_days)."""
    return st.integers(lo_days * QUARTERS_PER_DAY, hi_days * QUARTERS_PER_DAY - 1).map(
        lambda q: DAY0 + q / 4)


@settings(max_examples=100, deadline=None)
@given(grid(0, 1))
def test_window_edges_are_half_open(t0):
    """A comment at exactly day-30d makes a member and one at exactly day
    does not; on the target thread, one at exactly t0 is *after*, one at
    exactly t0-w *before* and one at exactly t0+w neither; a comment at
    exactly t0-3d stays in the match history and t0-3d and t0+3d in the
    activity windows, while one a quarter second inside the gap does not."""
    day, window_s = day_start(t0), 12 * HOUR
    events = [post("a", "x", "A", DAY0 - 40 * DAY), post("target", "y", "B", t0 - 20 * HOUR),
              post("source", "linker", "A", t0, body="r/B/comments/target"),
              comment("edge", "edge", "A", day - 30 * DAY, "a"),
              comment("late", "late", "A", day, "a"),
              comment("h_at_gap", "h", "A", t0 - GAP, "a"),
              comment("h_in_gap", "h", "A", t0 - GAP + 0.25, "a"),
              comment("h_after", "h", "B", t0 + GAP, "target")]
    for user, at in (("at_t0", t0), ("at_start", t0 - window_s), ("at_end", t0 + window_s)):
        events.append(comment(f"{user}_member", user, "A", day - 10 * DAY, "a"))
        events.append(comment(user, user, "B", at, "target"))
    corpus = corpus_from(events)
    [link] = extract_crosslinks(corpus)
    found = names(corpus, members(corpus, "A", *member_window(link)))
    assert "edge" in found and "late" not in found
    [counts] = measure(corpus, [link], window_hours=12.0)
    # a comment in B before ``day`` makes its author a B member, so no
    # source member's comment before ``day`` counts
    assert counts.before == (1 if t0 - window_s >= day else 0)
    assert (counts.after, counts.attackers) == (1, {"at_t0"})
    (_pool, history), _ = match_pools(corpus, link)
    assert history[corpus.user_codes["h"]] == 1
    totals, inside = _activity_counts(corpus, [("h", "B", t0)])
    assert totals.tolist() == [[1, 1]]  # the before and after windows
    assert (inside / totals).tolist() == [[0.0, 1.0]]


# -- whole-day shifts ------------------------------------------------------------

@st.composite
def linked_logs(draw):
    """Events on the grid: communities A-C with 1-3 posts each, 1-3 links
    from A or C into B posts created on DAY0, membership comments over the 35
    days before, and comments on the B threads from 6 hours before a link to
    13 hours after it, each replying to the post or to an earlier comment of
    its thread."""
    users = st.sampled_from([f"u{i}" for i in range(8)])
    ids = count()
    events, threads = [], {}
    for community in "ABC":
        for _ in range(draw(st.integers(1, 3))):
            pid = f"p{next(ids)}"
            events.append(post(pid, draw(users), community, draw(grid(-40, -35))))
            threads.setdefault(community, []).append(pid)
    t0s = draw(st.lists(grid(0, 1), min_size=1, max_size=3))
    for i, t0 in enumerate(t0s):
        target = draw(st.sampled_from(threads["B"]))
        events.append(post(f"s{i}", "linker", draw(st.sampled_from("AC")), t0,
                           body=f"r/B/comments/{target}"))
    for _ in range(draw(st.integers(10, 60))):
        community = draw(st.sampled_from("ABC"))
        events.append(comment(f"c{next(ids)}", draw(users), community, draw(grid(-35, 1)),
                              draw(st.sampled_from(threads[community]))))
    replies = {pid: [pid] for pid in threads["B"]}
    near = st.integers(-6 * 3600 * 4, 13 * 3600 * 4).map(lambda q: q / 4)
    for _ in range(draw(st.integers(5, 40))):
        thread = draw(st.sampled_from(threads["B"]))
        cid = f"c{next(ids)}"
        events.append(comment(cid, draw(users), "B", draw(st.sampled_from(t0s)) + draw(near),
                              thread, draw(st.sampled_from(replies[thread]))))
        replies[thread].append(cid)
    return events


def shifted(events, days):
    return [e._replace(timestamp=e.timestamp + days * DAY) for e in events]


def analysis(events):
    """What a whole-day shift must leave alone: each link's record but its
    t0, the activity deltas of its attackers and defenders, their matched
    users, and the PageRank scores and replynet rows of the records."""
    corpus = corpus_from(events)
    records = [detect(counts, DEFAULT_BASELINE)
               for counts in measure(corpus, extract_crosslinks(corpus))]
    out = {"records": [{k: v for k, v in r.to_dict().items() if k != "t0"} for r in records]}
    for r in records:
        link = r.crosslink
        for role, users, pool in zip(("attackers", "defenders"), (r.attackers, r.defenders),
                                     match_pools(corpus, link)):
            subjects = sorted(users)
            out[r.id, role] = (
                activity_delta(corpus, [(u, link.target_community, link.t0) for u in subjects]),
                matched_user(corpus, subjects, pool, seed=3))
    # the PageRanks need both groups, as in replynet_rows
    graphs = [thread_graph(corpus, r) for r in records if r.attackers and r.defenders]
    for group in ("attackers", "defenders"):
        out[group] = [rank.scores for rank in
                      group_pagerank(graphs, group, alpha=TELEPORT_PROB, tol=1e-10, max_iter=10000)]
    out["rows"] = replynet_rows(corpus, LEXICON, records, alpha=TELEPORT_PROB, tol=1e-10,
                                max_iter=10000)
    return out


@settings(max_examples=100, deadline=None)
@given(linked_logs(), st.integers(-5000, 5000))
def test_a_whole_day_shift_changes_no_verdict_delta_match_or_pagerank(events, days):
    # repr compares floats bit for bit
    assert repr(analysis(shifted(events, days))) == repr(analysis(events))


# -- host allowlists ---------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(linked_logs(), st.data())
def test_the_anger_columns_of_a_record_do_not_depend_on_the_host_allowlist(events, data):
    """The Corpus holds the bodies of every thread a permalink names, on
    any host, so a record that both an allowlist and none give has the same
    replynet row under both, anger columns included."""
    hosts = st.sampled_from(["", "https://reddit.example/", "http://elsewhere.example/"])

    def rewritten(e):
        if e.kind == "comment":
            return e._replace(body=" ".join(data.draw(st.lists(st.sampled_from(WORDS),
                                                               max_size=4))))
        if e.body:  # a source post's permalink, on a host in or outside the allowlist, or none
            return e._replace(body=data.draw(hosts) + e.body)
        return e

    corpus = corpus_from([rewritten(e) for e in events])
    rows = []
    for allowlist in (None, ["reddit.example"]):
        links = extract_crosslinks(corpus, host_allowlist=allowlist)
        records = [detect(counts, DEFAULT_BASELINE) for counts in measure(corpus, links)]
        found, _ = replynet_rows(corpus, LEXICON, records, alpha=TELEPORT_PROB, tol=1e-10,
                                 max_iter=10000)
        rows.append(dict(zip([r.crosslink for r in records if r.attackers and r.defenders],
                             found)))
    anger = slice(REPLYNET_HEADER.index("anger_attacker_to_defender"), None)
    every, allowed = rows
    for link in every.keys() & allowed.keys():
        # repr compares floats bit for bit and keeps None apart from 0
        assert repr(every[link][anger]) == repr(allowed[link][anger])


# -- one membership rule -----------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(linked_logs())
def test_measure_and_match_pools_read_the_link_members(events):
    """The two sides of ``link_members`` are disjoint, ``measure`` takes its
    attackers from the source side and its defenders from the target side,
    and each side's ``match_pools`` codes are that side less every commenter
    on the target thread."""
    corpus = corpus_from(events)
    for counts in measure(corpus, extract_crosslinks(corpus)):
        link = counts.link
        source, target = link_members(corpus, link)
        assert not (source & target).any()
        assert counts.attackers <= names(corpus, source)
        assert counts.defenders <= names(corpus, target)
        on_thread = {e.author for e in events
                     if e.kind == "comment" and e.thread_id == link.target_post}
        for side, (codes, _history) in zip((source, target), match_pools(corpus, link)):
            expected = names(corpus, side) - on_thread
            assert codes.tolist() == sorted(corpus.user_codes[u] for u in expected)


# -- defense outcomes ------------------------------------------------------------
# An oracle of ``impact.aggregate``: one object per defense, labelled with its
# decile, and the outcomes sorted again for each success series.

@dataclass
class DefenseOutcome:
    mobilization_id: str
    success_score: float
    decile: int | None = None


def assign_deciles(outcomes):
    """Oracle: each outcome's success decile, from the outcomes sorted once here."""
    ordered = sorted(outcomes, key=lambda o: (o.success_score, o.mobilization_id))
    n = len(ordered)
    for rank, outcome in enumerate(ordered):
        outcome.decile = min(10, 1 + (rank * 10) // n)
    return outcomes


def decile_series(outcomes, metric_fn, window=5, n_buckets=100):
    """Oracle: the outcomes sorted again, bucketed and smoothed, as
    (points, smoothed)."""
    ordered = sorted(outcomes, key=lambda o: (o.success_score, o.mobilization_id))
    n = len(ordered)
    if n == 0:
        return [], False
    buckets = min(n_buckets, n)
    xs, ys = [], []
    for b in range(buckets):
        lo, hi = (b * n) // buckets, ((b + 1) * n) // buckets
        chunk = ordered[lo:hi]
        xs.append(sum(o.success_score for o in chunk) / len(chunk))
        ys.append(sum(metric_fn(o) for o in chunk) / len(chunk))
    if buckets < 2 * window + 1:
        return list(zip(xs, ys)), False
    return list(zip(xs, moving_average(ys, window))), True


def outcome_rows_and_series(impacts, replynet, columns):
    """Oracle: the impact rows and success series of records whose impact
    records are ``impacts[id]``, through one DefenseOutcome per defense."""
    def mean(xs):
        return sum(xs) / len(xs) if xs else None

    metrics = {row[0]: dict(zip(REPLYNET_HEADER, row)) for row in replynet}
    outcomes, rows = [], []
    for key, found in impacts.items():
        attackers = [i for i in found if i.role == "attacker"]
        defenders = [i for i in found if i.role == "defender"]
        if not defenders:
            continue
        mean_defender = mean([i.delta for i in defenders])
        mean_matched = mean([i.matched_delta for i in defenders if i.matched_delta is not None])
        outcome = DefenseOutcome(key, mean_defender - (mean_matched or 0.0))
        outcomes.append(outcome)
        rows.append([
            key, len(attackers), len(defenders),
            mean([i.delta for i in attackers]), mean_defender,
            mean([i.matched_delta for i in attackers if i.matched_delta is not None]),
            mean_matched, outcome.success_score, None,
        ])
    assign_deciles(outcomes)
    for row, outcome in zip(rows, outcomes):
        row[-1] = outcome.decile
    series = {}
    for column in columns:
        def metric(outcome, column=column):
            value = metrics.get(outcome.mobilization_id, {}).get(column)
            return 0.0 if value is None else float(value)
        series[column] = decile_series(outcomes, metric)
    return rows, series


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_aggregate_rows_and_series_equal_the_per_outcome_oracle(seed, many):
    """On fewer than 11 or more than 100 defenses with tied success scores,
    records without defenders or without a replynet row, replynet rows of no
    record, and None, int and float columns."""
    rng = random.Random(seed)
    n = rng.randint(101, 130) if many else rng.randint(0, 10)
    ids = [f"m{k:03d}" for k in range(n + rng.randint(0, 3))]
    rng.shuffle(ids)  # record order is not id order
    deltas = (0.0, 0.25, -0.5, 1.0, 0.1, 1 / 3)
    impacts = {}
    for k, key in enumerate(ids):
        found = [ImpactRecord(user=f"{role}{j}", role=role, delta=rng.choice(deltas),
                              matched_delta=rng.choice((None, *deltas)),
                              low_support=rng.random() < 0.2)
                 for role, count in (("attacker", rng.randint(0, 2)),
                                     ("defender", rng.randint(1, 3) if k < n else 0))
                 for j in range(count)]
        rng.shuffle(found)
        impacts[key] = found
    values = (None, 0, 3, 0.5, 0.125, 2 / 3)
    replynet = [[key, *(rng.choice(values) for _ in REPLYNET_HEADER[1:])]
                for key in ids + ["m999"] if rng.random() < 0.7]
    columns = REPLYNET_HEADER[1:]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(impact_mod, "mobilization_impacts",
                      lambda corpus, records, seed: [impacts[r.id] for r in records])
        records = [type("R", (), {"id": key})() for key in ids]
        rows, series, _tests, counts = aggregate(None, records, replynet, columns)
    expected_rows, expected_series = outcome_rows_and_series(impacts, replynet, columns)
    assert counts["outcomes"] == len(expected_rows) == n
    # repr compares floats bit for bit and keeps None apart from 0
    assert repr(rows) == repr(expected_rows)
    assert repr(series) == repr(expected_series)
