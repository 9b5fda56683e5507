"""Hypothesis properties of the analysis stages, on random small inputs."""
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from intercom.corpus import CrossLink  # noqa: E402
from intercom.mobilization import MobilizationRecord  # noqa: E402
from intercom.replynet import REPLYNET_HEADER, TELEPORT_PROB, replynet_rows  # noqa: E402
from intercom.sentiment import Lexicon  # noqa: E402

from conftest import BASE, comment, corpus_from, post  # noqa: E402

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
    post, to an earlier comment or (rarely) to a missing one, and one record
    per thread whose attackers and defenders are disjoint sets of its
    commenters (either may be empty)."""
    events, records = [], []
    for k in range(rng.randint(1, 5)):
        target = f"t{k}"
        events.append(post(target, "op", "B", BASE))
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
