"""Workload fixtures built from the benchmark seed alone.

Each workload is a planted synthetic corpus (``intercom.synth``) plus the
report config the benchmark runs on it. The program under test only ever
receives the generated files: the event log and, for ``learn-220``, a
sentiment model trained on a held-out corpus.
"""
from __future__ import annotations

import dataclasses
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from intercom.corpus import CrossLink, load_events
from intercom.forest import train_forest
from intercom.sentiment import builtin_lexicon, crosslink_features
from intercom.synth import SynthSpec, generate_corpus

SENTIMENT_TREES = 400
# Synth seeds tried per benchmark seed by synth_seed().
SEED_CANDIDATES = 1000
# The synth seed of the held-out corpus the sentiment model is trained on,
# the same for every benchmark seed: the trees of a model grown per seed
# differed in size from seed to seed, and the report's predict_proba time
# with them (3.1 s on one seed, 3.9 s on another, a 7% move of the whole
# report). No benchmark seed below 10**6 draws a corpus from it.
HELDOUT_SEED = 10**9 + 1


@dataclass(frozen=True)
class Workload:
    spec: dict
    why: str
    config: dict = field(default_factory=dict)
    sentiment_model: bool = False


# A run takes the median over rounds of short operations, because on a
# shared 2-core machine one report's wall time moves by up to +-30% from
# one operation to the next. At 880 links (10 s per report) only three
# rounds fit in a run within the benchmark's time budget, so the link-count
# workload uses 440 links. A third workload, wide-220 (users_per_community=880),
# does not fit the budget; its sentiment-model path runs on learn-220 instead.
WORKLOADS = {
    "links-440": Workload(
        spec={"n_crosslinks": 440},
        why="many links on the default user pools: matched-post scans, detect, "
            "baseline, PageRank on every mobilization and impact grow with the link count",
    ),
    # Embedding and LSTM epochs are cut from the defaults (20, 10) to fit the
    # time budget; every learning layer still runs and does most of the work.
    "learn-220": Workload(
        spec={"n_crosslinks": 220},
        config={"embed_enabled": True, "predict_enabled": True,
                "embed_epochs": 2, "predict_epochs": 1},
        sentiment_model=True,
        why="embedding SGD, LSTM BPTT, tf-idf, ensemble forest growth and per-link "
            "prediction by a 400-tree sentiment forest on a small corpus, where model work dominates",
    ),
}


@dataclass
class Fixture:
    workload: str
    seed: int
    config: dict  # keyword arguments of intercom.pipeline.Config, minus output_dir
    truth: dict  # the synth manifest: planted verdicts and labels
    info: dict


def build(workload: str, seed: int, workdir: Path) -> Fixture:
    """Write the workload's inputs under ``workdir``; byte-identical per seed."""
    wl = WORKLOADS[workload]
    start = time.perf_counter()
    spec = SynthSpec(seed=synth_seed(seed, SynthSpec(**wl.spec)), **wl.spec)
    events, truth = generate_corpus(spec, workdir / "corpus")
    config = {"corpus": str(events), "seed": seed, **wl.config}
    if wl.sentiment_model:
        heldout = SynthSpec(seed=HELDOUT_SEED, **wl.spec)
        config["sentiment_model"] = str(train_sentiment_model(heldout, workdir))
    info = {
        "spec": dataclasses.asdict(spec),
        "planted_mobilizations_target": planted_target(spec),
        "config": {k: v for k, v in config.items() if k not in ("corpus", "sentiment_model")},
        "sentiment_model_trees": SENTIMENT_TREES if wl.sentiment_model else 0,
        "events": truth["counts"]["events"],
        "links": len(truth["links"]),
        "mobilizations": truth["counts"]["mobilizations"],
        "generation_s": time.perf_counter() - start,
    }
    return Fixture(workload, seed, config, truth, info)


def planted_target(spec: SynthSpec) -> int:
    return round(spec.n_crosslinks * spec.mobilization_fraction)


def synth_seed(seed: int, spec: SynthSpec) -> int:
    """The first of seed * SEED_CANDIDATES + 0, 1, ... whose corpus plants
    exactly ``planted_target`` mobilizations.

    How much work a report does grows with the planted mobilizations (PageRank,
    impact and the learning layers run per mobilization), and left to the
    seed their count is binomial: 88-124 of 220 links over ten seeds, which
    moved a report's time by 10% from seed to seed. Fixing the count takes
    that out of the spread between runs of different seeds. The check
    replays the draws ``generate_corpus`` makes first: per link two
    uniforms, the draw that makes it a mobilization, and one more."""
    target = planted_target(spec)
    for k in range(SEED_CANDIDATES):
        candidate = seed * SEED_CANDIDATES + k
        draws = np.random.default_rng(candidate).random(4 * spec.n_crosslinks)
        if int((draws[2::4] < spec.mobilization_fraction).sum()) == target:
            return candidate
    raise ValueError(f"no synth seed for seed {seed} plants {target} mobilizations")


def train_sentiment_model(spec: SynthSpec, workdir: Path) -> Path:
    """Train the sentiment forest on a held-out corpus's planted labels and
    save it; the held-out corpus itself is deleted."""
    heldout = workdir / "heldout"
    events, truth = generate_corpus(spec, heldout)
    corpus = load_events(events)
    lexicon = builtin_lexicon()
    rows, labels = [], []
    for planted in truth["links"]:
        link = CrossLink(planted["source_post"], planted["target_post"],
                         planted["source_community"], planted["target_community"],
                         planted["t0"], corpus.posts[planted["source_post"]].author)
        rows.append(crosslink_features(corpus, link, lexicon))
        labels.append(planted["sentiment"])
    forest = train_forest(rows, labels, trees=SENTIMENT_TREES, seed=spec.seed)
    path = workdir / "sentiment_model.pkl"
    forest.save(path)
    shutil.rmtree(heldout)
    return path
