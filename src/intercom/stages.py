"""The values the stages share (``Run``) and the function of each stage of
``pipeline.STAGES``. A stage function computes what its outputs need from
the Run and writes them into the bundle. An all-hit re-run runs none of this
module."""
from __future__ import annotations

import dataclasses
import logging
import zlib
from functools import cached_property
from pathlib import Path

import numpy as np

# the stage modules by module, each looked up when a stage needs it
# (intercom.LAZY_MODULES)
from . import corpus as corpus_mod
from . import embed as embed_mod
from . import forest as forest_mod
from . import impact as impact_mod
from . import lexicon as lexicon_mod
from . import lstm as lstm_mod
from . import mobilization as mobilization_mod
from . import predictor as pred_mod
from . import replynet as replynet_mod
from . import sentiment as sentiment_mod
from .pipeline import SERIES, write_csv, write_json, write_jsonl
from .settings import Config

# the stages report to the pipeline's logger
log = logging.getLogger("intercom.pipeline")


def substream_seed(root: int, name: str) -> int:
    """Named, reproducible child seed of the root seed."""
    seq = np.random.SeedSequence([root, zlib.crc32(name.encode("utf-8"))])
    return int(seq.generate_state(1)[0])


class Run:
    """The values the stages share, each computed from the config on first
    use, also when the stage that writes it hit the cache. The CLI commands
    use the same values. Only the embeddings are read from the bundle
    (``embed.load_table``), and only when the embed stage hit the cache."""

    def __init__(self, config: Config):
        self.config = config
        self.out = Path(config.output_dir)
        # extract_crosslinks' drop counts, filled in when the links are extracted
        self.crosslink_drops: dict[str, int] = {}
        # baseline_ratio's pair counts, filled in when the baseline is measured
        self.baseline_pairs: dict[str, int] = {}
        # power iterations of every PageRank the replynet rows ran: the
        # attacker-teleport ones in record order, then the defender-teleport ones
        self.pagerank_iterations: list[int] = []

    @cached_property
    def corpus(self):
        return corpus_mod.load_events(self.config.corpus)

    @cached_property
    def lexicon(self):
        """The config's lexicon; ``run_pipeline`` sets it to the one its
        input digests read."""
        return lexicon_mod.configured(self.config.lexicon_dir)

    @cached_property
    def links(self) -> list[corpus_mod.CrossLink]:
        return corpus_mod.extract_crosslinks(self.corpus, host_allowlist=self.config.hosts(),
                                             window_hours=self.config.window_hours,
                                             counts=self.crosslink_drops)

    @cached_property
    def measured(self) -> list[mobilization_mod.LinkCounts]:
        """The null model's window counts of every link, which the baseline
        and the detect records both read."""
        return mobilization_mod.measure(self.corpus, self.links, window_hours=self.config.window_hours)

    @cached_property
    def baseline(self) -> dict:
        """The null-model rate: fixed by the config, measured on matched
        pairs, or the default when no pair is eligible (``fallback``)."""
        config = self.config
        if config.baseline != "auto":
            value, mode = float(config.baseline), "fixed"
        else:
            try:
                value = mobilization_mod.baseline_ratio(self.measured, stat=config.baseline_stat,
                                                        counts=self.baseline_pairs)
                mode = "auto"
            except mobilization_mod.BaselineError:
                value, mode = mobilization_mod.DEFAULT_BASELINE, "default"
                log.warning("no eligible matched pairs; using default baseline %.3f", value)
        return {"value": value, "mode": mode, "stat": config.baseline_stat,
                "fallback": mode == "default"}

    @cached_property
    def records(self) -> list[mobilization_mod.MobilizationRecord]:
        return [mobilization_mod.detect(counts, self.baseline["value"]) for counts in self.measured]

    @cached_property
    def mobilized(self) -> list[mobilization_mod.MobilizationRecord]:
        return [r for r in self.records if r.verdict == "mobilization"]

    @cached_property
    def replynet_rows(self) -> list[list]:
        """One REPLYNET_HEADER row per mobilization with both attackers and defenders."""
        return self.replynet(self.mobilized)

    def replynet(self, records: list[mobilization_mod.MobilizationRecord]) -> list[list]:
        """``replynet.replynet_rows`` of the records with the config's
        PageRank settings; the iteration counts go to ``pagerank_iterations``."""
        config = self.config
        rows, iterations = replynet_mod.replynet_rows(
            self.corpus, self.lexicon, records, alpha=config.alpha, tol=config.pagerank_tol,
            max_iter=config.pagerank_max_iter)
        self.pagerank_iterations += iterations
        return rows

    @cached_property
    def embeddings(self) -> tuple[embed_mod.EmbeddingTable, dict]:
        """The user/community table and the word vectors of the bundle;
        ``stage_embed`` sets them to the ones it trained."""
        return embed_mod.load_table(self.out)


def sentiment_rows(run: Run) -> list[dict]:
    """Per cross-link: the sentiment model's label and P(negative), or
    "unlabeled" when the config names no model."""
    if not run.config.sentiment_model:
        return [{"source_post": link.source_post, "label": "unlabeled", "p_negative": None}
                for link in run.links]
    labels = sentiment_mod.predict_sentiment(forest_mod.load_forest(run.config.sentiment_model),
                                             run.links, run.corpus, run.lexicon)
    return [{"source_post": link.source_post, "label": label, "p_negative": p_neg}
            for link, (label, p_neg) in zip(run.links, labels)]


def lstm_dataset(run: Run, table, word_vectors) -> pred_mod.PredictionDataset:
    """Every cross-link labelled by its verdict, split by the "split" substream."""
    labels = {r.id: int(r.verdict == "mobilization") for r in run.records}
    return pred_mod.build_dataset(run.corpus, run.links, labels, table, word_vectors,
                                  seed=substream_seed(run.config.seed, "split"),
                                  max_words=run.config.max_words)


def train_lstm(run: Run, table, word_vectors, model_path):
    """Train the LSTM on ``lstm_dataset`` and save its checkpoint; returns
    the dataset and the training result."""
    config = run.config
    dataset = lstm_dataset(run, table, word_vectors)
    params = lstm_mod.init_params(table.dim, config.hidden_size,
                                  seed=substream_seed(config.seed, "lstm"))
    result = pred_mod.train(dataset, params, lr=config.predict_lr, epochs=config.predict_epochs,
                            seed=substream_seed(config.seed, "train"))
    lstm_mod.save_params(model_path, result.params, seed=config.seed, max_words=config.max_words,
                         log=result.log)
    return dataset, result


def stage_ingest(run: Run) -> dict:
    stats = run.corpus.stats
    write_json(run.out / "ingest.json", dataclasses.asdict(stats))
    return {"posts": stats.posts, "comments": stats.comments}


def stage_crosslinks(run: Run) -> dict:
    write_jsonl(run.out / "crosslinks.jsonl", [link.to_dict() for link in run.links])
    return {"links": len(run.links), **run.crosslink_drops}


def stage_baseline(run: Run) -> dict:
    write_json(run.out / "baseline.json", run.baseline)
    # counted in every baseline mode; a measured baseline's pair counts agree
    no_match = sum(counts.matched_before is None for counts in run.measured)
    return {"value": run.baseline["value"], **run.baseline_pairs, "no_matched_post": no_match}


def stage_detect(run: Run) -> dict:
    rows = [r.to_dict() for r in run.records]
    write_jsonl(run.out / "mobilizations.jsonl", rows)
    return {"records": len(rows), "mobilizations": sum(row["verdict"] == "mobilization" for row in rows)}


def stage_sentiment(run: Run) -> dict:
    write_jsonl(run.out / "sentiment.jsonl", sentiment_rows(run))
    return {"labeled": bool(run.config.sentiment_model)}


def stage_replynet(run: Run) -> dict:
    rows = run.replynet_rows
    write_csv(run.out / "replynet.csv", replynet_mod.REPLYNET_HEADER, rows)
    iterations = run.pagerank_iterations
    return {"rows": len(rows), "skipped": len(run.mobilized) - len(rows),
            "pagerank_iterations_max": max(iterations, default=None),
            "pagerank_iterations_mean": sum(iterations) / len(iterations) if iterations else None}


def stage_impact(run: Run) -> dict:
    rows, series, tests, counts = impact_mod.aggregate(
        run.corpus, run.mobilized, run.replynet_rows, [column for _, column in SERIES],
        seed=substream_seed(run.config.seed, "impact"))
    write_csv(run.out / "impact.csv", impact_mod.IMPACT_HEADER, rows)
    for filename, column in SERIES:
        points, smoothed = series[column]
        write_csv(run.out / filename, ["success_score", column, "smoothed"],
                  [[x, y, int(smoothed)] for x, y in points])
    write_json(run.out / "stat_tests.json", tests)
    return counts


def stage_embed(run: Run) -> dict:
    """User/community vectors and word vectors; ``intercom embed`` is this stage."""
    config, out = run.config, run.out
    seed = substream_seed(config.seed, "embed")
    graph = embed_mod.build_bipartite(run.corpus)
    table = embed_mod.train_embeddings(
        graph, dim=config.embed_dim, negatives=config.embed_negatives,
        epochs=config.embed_epochs, seed=seed,
    )
    embed_mod.save_vectors(out / "users.vec", table.users, table.user_vectors)
    embed_mod.save_vectors(out / "communities.vec", table.communities, table.community_vectors)
    word_graph = embed_mod.build_word_bipartite(run.corpus, max_vocab=config.vocab_size)
    word_table = embed_mod.train_embeddings(
        word_graph, dim=config.embed_dim, negatives=config.embed_negatives,
        epochs=max(1, config.embed_epochs // 2), seed=substream_seed(config.seed, "words"),
    )
    embed_mod.save_vectors(out / "words.vec", word_table.users, word_table.user_vectors)
    # the vectors as load_table reads them back, without reading them
    run.embeddings = (embed_mod.sorted_table(dict(zip(table.users, table.user_vectors)),
                                             dict(zip(table.communities, table.community_vectors))),
                      dict(zip(word_table.users, word_table.user_vectors)))
    summary = {
        "dim": config.embed_dim, "edges": graph.n_edges,
        "users": len(table.users), "communities": len(table.communities),
        "words": len(word_table.users),
        "loss": embed_mod.loss(graph, table, seed=seed, sample_size=min(2000, graph.n_edges)),
    }
    write_json(out / "embed.json", summary)
    return {"edges": graph.n_edges}


def stage_predict(run: Run) -> dict:
    config = run.config
    table, word_vectors = run.embeddings
    dataset, result = train_lstm(run, table, word_vectors, run.out / "lstm_model.json")
    summary = pred_mod.evaluate(run.corpus, run.lexicon, dataset, result,
                                vocab_size=config.vocab_size, trees=config.ensemble_trees,
                                seed=substream_seed(config.seed, "forest"))
    write_json(run.out / "predict.json", summary)
    return {"examples": summary["examples"]}


