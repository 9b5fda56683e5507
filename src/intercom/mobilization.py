"""Null-model mobilization detector."""
from __future__ import annotations

import logging
import statistics
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, CrossLink, link_members
from .matching import NoMatchError, crosslink_involved_posts, matched_post

log = logging.getLogger(__name__)

DEFAULT_BASELINE = 1.6  # matched-thread after-to-before rate at full scale
DEFAULT_WINDOW_HOURS = 12.0
MAX_PRECOUNT_DIFF = 5  # target/matched pairs must have near-equal pre-counts


class BaselineError(Exception):
    """No eligible matched pairs; pass an explicit baseline (reference value 1.6)."""


@dataclass
class MobilizationRecord:
    """One cross-link's verdict. Its attackers and defenders are disjoint, as
    ``link_members`` makes a link's source and target members."""

    crosslink: CrossLink
    before_count: int
    after_count: int
    ratio: float
    baseline: float
    verdict: str  # "mobilization" | "none"
    attackers: set[str] = field(default_factory=set)
    defenders: set[str] = field(default_factory=set)
    matched_before: int | None = None
    matched_after: int | None = None

    def __post_init__(self):
        both = self.attackers & self.defenders
        if both:
            raise ValueError(f"users both attackers and defenders: {sorted(both)}")

    @property
    def id(self) -> str:
        return self.crosslink.source_post

    def to_dict(self) -> dict:
        return {
            **self.crosslink.to_dict(),
            "before_count": self.before_count,
            "after_count": self.after_count,
            "matched_before": self.matched_before,
            "matched_after": self.matched_after,
            "ratio": self.ratio,
            "baseline": self.baseline,
            "verdict": self.verdict,
            "attackers": sorted(self.attackers),
            "defenders": sorted(self.defenders),
        }


def smoothed_ratio(before: int, after: int) -> float:
    """Additively smoothed after/before ratio, defined for zero counts.

    The +1 smoothing keeps every cross-link classifiable; it shifts verdicts
    only for very low-activity threads.
    """
    return (after + 1) / (before + 1)


def _window_counts(corpus: Corpus, post_id: str, source_members: np.ndarray, t0: float,
                   window_s: float) -> tuple[int, int, np.ndarray]:
    """Comments on a thread by the users of the ``source_members`` mask in
    [t0-w, t0) and in [t0, t0+w), and the author codes of every comment on
    it in [t0, t0+w)."""
    times, authors = corpus.thread_timeline(post_id)
    lo, mid, hi = times.searchsorted((t0 - window_s, t0, t0 + window_s)).tolist()
    hits = source_members[authors[lo:hi]]
    return (int(np.count_nonzero(hits[:mid - lo])), int(np.count_nonzero(hits[mid - lo:])),
            authors[mid:hi])


@dataclass(frozen=True)
class LinkCounts:
    """The null model's measurement of one cross-link: source-member comments
    on the target thread in [t0-w, t0) and [t0, t0+w), the attackers and
    defenders of [t0, t0+w), and the same source members' counts on the
    matched thread (None when the target has no matched post)."""

    link: CrossLink
    before: int
    after: int
    attackers: set[str]
    defenders: set[str]
    matched_before: int | None
    matched_after: int | None


def measure(
    corpus: Corpus, links: list[CrossLink], window_hours: float = DEFAULT_WINDOW_HOURS
) -> list[LinkCounts]:
    """Count every cross-link once, in link order, for ``baseline_ratio``
    and ``detect``.

    Attackers are source members and defenders target members who comment on
    the target thread in [t0, t0+w). The matched thread is ``matched_post``
    among posts of no cross-link in ``links``.
    """
    window_s = window_hours * 3600.0
    involved = crosslink_involved_posts(links)
    names = corpus.users
    measured = []
    for link in links:
        source_members, target_members = link_members(corpus, link)
        before, after, later = _window_counts(corpus, link.target_post, source_members, link.t0,
                                              window_s)
        attackers = {names[k] for k in later[source_members[later]].tolist()}
        defenders = {names[k] for k in later[target_members[later]].tolist()}
        try:
            match = matched_post(corpus, link.target_post, involved)
            matched_before, matched_after, _ = _window_counts(
                corpus, match.match_id, source_members, link.t0, window_s)
        except NoMatchError:
            log.debug("no matched thread for %s", link.target_post)
            matched_before = matched_after = None
        measured.append(LinkCounts(link, before, after, attackers, defenders,
                                   matched_before, matched_after))
    return measured


def baseline_ratio(
    measured: list[LinkCounts], stat: str = "mean", counts: dict[str, int] | None = None
) -> float:
    """Mean (or median) smoothed after/before ratio of source-member comments
    on matched threads, over pairs with pre-count difference < 5.

    A ``counts`` dict receives how many links gave an eligible pair
    (``eligible_pairs``), had no matched post (``no_matched_post``) or were
    skipped for their pre-count difference (``precount_skipped``); it is
    filled in before a BaselineError is raised.
    """
    if stat not in ("mean", "median"):
        raise ValueError(f"stat must be mean or median, got {stat!r}")
    paired = [m for m in measured if m.matched_before is not None]
    ratios = [smoothed_ratio(m.matched_before, m.matched_after) for m in paired
              if abs(m.before - m.matched_before) < MAX_PRECOUNT_DIFF]
    if counts is not None:
        counts.update(eligible_pairs=len(ratios), no_matched_post=len(measured) - len(paired),
                      precount_skipped=len(paired) - len(ratios))
    if not ratios:
        raise BaselineError(
            "no eligible matched pairs for the null model; "
            f"pass an explicit baseline (reference value {DEFAULT_BASELINE})"
        )
    return statistics.mean(ratios) if stat == "mean" else statistics.median(ratios)


def detect(counts: LinkCounts, baseline: float) -> MobilizationRecord:
    """Classify one measured cross-link against the baseline rate."""
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    ratio = smoothed_ratio(counts.before, counts.after)
    return MobilizationRecord(
        crosslink=counts.link,
        before_count=counts.before,
        after_count=counts.after,
        ratio=ratio,
        baseline=baseline,
        verdict="mobilization" if ratio > baseline else "none",
        attackers=counts.attackers,
        defenders=counts.defenders,
        matched_before=counts.matched_before,
        matched_after=counts.matched_after,
    )
