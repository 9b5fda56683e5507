"""Pipeline orchestration: configuration, staged execution, report bundle."""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import logging
import math
import platform
import resource
import sys
import time
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from . import embed as embed_mod
from . import impact as impact_mod
from . import predictor as pred_mod
from .corpus import CorpusError, CrossLink, extract_crosslinks, load_events
from .forest import load_forest, train_forest
from .lstm import init_params, mean_hidden, readout, save_params
from .mobilization import (DEFAULT_BASELINE, BaselineError, LinkCounts, MobilizationRecord,
                           baseline_ratio, detect, measure)
from .replynet import ReplyGraph, anger_rate, build_reply_graph, echo_metrics, group_pagerank
from .sentiment import builtin_lexicon, community_tfidf_vectors, load_lexicon, predict_sentiment

log = logging.getLogger(__name__)

SCHEMA_VERSION = 2
# the run record: written next to the manifest, outside its files
RUN_RECORD = "run.json"
# path-valued keys are excluded from the manifest echo so bundles written to
# different directories stay byte-identical; in stage keys the input paths
# stand for the content of the files they name
_PATH_KEYS = {"corpus", "output_dir", "lexicon_dir", "sentiment_model"}


class ConfigError(ValueError):
    pass


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


_TYPE_NAMES = {"int": "an int", "float": "a number", "bool": "a bool", "str": "a string"}


def _has_type(value, kind: str) -> bool:
    """Whether ``value`` fits a Config field declared ``kind``. Python counts
    a bool as an int; here it fits only a bool field."""
    if isinstance(value, bool):
        return kind == "bool"
    return isinstance(value, {"int": int, "float": (int, float), "bool": (), "str": str}[kind])


@dataclass
class Config:
    corpus: str = ""
    output_dir: str = ""
    lexicon_dir: str = ""  # empty: builtin lexicon
    sentiment_model: str = ""  # empty: leave records unlabeled
    host_allowlist: str = ""  # comma separated; empty: any host
    window_hours: float = 12.0
    baseline: str = "auto"  # "auto" or a positive float literal
    baseline_stat: str = "mean"
    alpha: float = 0.25
    pagerank_tol: float = 1e-10
    pagerank_max_iter: int = 10000
    vocab_size: int = 10000
    embed_enabled: bool = False
    embed_dim: int = 32
    embed_epochs: int = 20
    embed_negatives: int = 5
    predict_enabled: bool = False
    hidden_size: int = 64
    predict_epochs: int = 10
    predict_lr: float = 0.01
    max_words: int = 50
    ensemble_trees: int = 100
    seed: int = 0

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _has_type(value, f.type):
                raise ConfigError(f"{f.name} must be {_TYPE_NAMES[f.type]}, got {value!r}")
        numbers = {f.name: getattr(self, f.name) for f in dataclasses.fields(self) if f.type == "float"}
        if self.baseline != "auto":
            try:
                numbers["baseline"] = float(self.baseline)
            except ValueError:
                raise ConfigError("baseline must be 'auto' or a number") from None
        for name, value in numbers.items():
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite")
        checks = [
            (0 < self.window_hours <= 24 * 14, "window_hours must be in (0, 336]"),
            (0 < self.alpha < 1, "alpha must be in (0, 1)"),
            (self.pagerank_tol > 0, "pagerank_tol must be positive"),
            (self.pagerank_max_iter >= 1, "pagerank_max_iter must be >= 1"),
            (self.vocab_size >= 1, "vocab_size must be >= 1"),
            (self.embed_dim >= 1, "embed_dim must be >= 1"),
            (self.embed_epochs >= 1, "embed_epochs must be >= 1"),
            (self.embed_negatives >= 0, "embed_negatives must be >= 0"),
            (self.hidden_size >= 1, "hidden_size must be >= 1"),
            (self.predict_epochs >= 1, "predict_epochs must be >= 1"),
            (self.predict_lr > 0, "predict_lr must be positive"),
            (self.max_words >= 0, "max_words must be >= 0"),
            (self.ensemble_trees >= 1, "ensemble_trees must be >= 1"),
            (self.seed >= 0, "seed must be >= 0"),
            (self.baseline_stat in ("mean", "median"), "baseline_stat must be mean or median"),
            (numbers.get("baseline", 1.0) > 0, "baseline must be positive"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        if self.predict_enabled and not self.embed_enabled:
            raise ConfigError("predict_enabled requires embed_enabled")

    def hosts(self) -> list[str] | None:
        items = [h.strip() for h in self.host_allowlist.split(",") if h.strip()]
        return items or None


def _coerce(kind: str, name: str, raw: str):
    """The value ``raw`` spells for a settings field declared ``kind``; an
    ``int | None`` field takes ``none``."""
    raw = raw.strip()
    if kind == "bool":
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{name}: expected a boolean, got {raw!r}")
    if kind == "int | None" and raw.lower() == "none":
        return None
    try:
        if kind in ("int", "int | None"):
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError:
        raise ConfigError(f"{name}: expected {'an integer' if 'int' in kind else 'a number'}, "
                          f"got {raw!r}") from None
    return raw


def load_config(path, cls=Config):
    """The ``cls`` settings dataclass (Config, SynthSpec) a key-value file
    gives: ``key = value`` lines, # comments, defaults for keys not given."""
    settings = cls()
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{n}: expected 'key = value'")
            key, _, raw = line.partition("=")
            try:
                apply_overrides(settings, {key.strip(): raw})
            except ConfigError as exc:
                raise ConfigError(f"{path}:{n}: {exc}") from None
    return settings


def apply_overrides(settings, overrides: dict[str, str]):
    """Set fields of the settings dataclass ``settings`` from their text
    values; flag overrides win over file values."""
    kinds = {f.name: f.type for f in dataclasses.fields(settings)}
    for key, raw in overrides.items():
        if key not in kinds:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(settings, key, _coerce(kinds[key], key, raw))
    return settings


def substream_seed(root: int, name: str) -> int:
    """Named, reproducible child seed of the root seed."""
    seq = np.random.SeedSequence([root, zlib.crc32(name.encode("utf-8"))])
    return int(seq.generate_state(1)[0])


def _clean(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else repr(v) if isinstance(v, float) else v for v in row])


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class PipelineResult:
    output_dir: Path
    manifest: dict
    cache_hits: list[str] = field(default_factory=list)


class Run:
    """The values the stages share, each computed from the config on first
    use, also when the stage that writes it hit the cache. The CLI commands
    use the same values. Only the embeddings are read from the bundle
    (``embed.load_table``)."""

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
        return load_events(self.config.corpus)

    @cached_property
    def lexicon(self):
        return load_lexicon(self.config.lexicon_dir) if self.config.lexicon_dir else builtin_lexicon()

    @cached_property
    def links(self) -> list[CrossLink]:
        return extract_crosslinks(self.corpus, host_allowlist=self.config.hosts(),
                                  window_hours=self.config.window_hours,
                                  counts=self.crosslink_drops)

    @cached_property
    def measured(self) -> list[LinkCounts]:
        """The null model's window counts of every link, which the baseline
        and the detect records both read."""
        return measure(self.corpus, self.links, window_hours=self.config.window_hours)

    @cached_property
    def baseline(self) -> dict:
        """The null-model rate: fixed by the config, measured on matched
        pairs, or the default when no pair is eligible (``fallback``)."""
        config = self.config
        if config.baseline != "auto":
            value, mode = float(config.baseline), "fixed"
        else:
            try:
                value = baseline_ratio(self.measured, stat=config.baseline_stat,
                                       counts=self.baseline_pairs)
                mode = "auto"
            except BaselineError:
                value, mode = DEFAULT_BASELINE, "default"
                log.warning("no eligible matched pairs; using default baseline %.3f", value)
        return {"value": value, "mode": mode, "stat": config.baseline_stat,
                "fallback": mode == "default"}

    @cached_property
    def records(self) -> list[MobilizationRecord]:
        return [detect(counts, self.baseline["value"]) for counts in self.measured]

    @cached_property
    def mobilized(self) -> list[MobilizationRecord]:
        return [r for r in self.records if r.verdict == "mobilization"]

    @cached_property
    def replynet_rows(self) -> list[list]:
        """One REPLYNET_HEADER row per mobilization with both attackers and defenders."""
        records = [record for record in self.mobilized if record.attackers and record.defenders]
        return self._replynet_rows(records, [self._reply_graph(record) for record in records])

    def replynet(self, record: MobilizationRecord) -> tuple[ReplyGraph, list | None]:
        """The reply graph of the record's target thread, and its
        REPLYNET_HEADER row when it has both attackers and defenders."""
        graph = self._reply_graph(record)
        if not record.attackers or not record.defenders:
            return graph, None
        return graph, self._replynet_rows([record], [graph])[0]

    def _reply_graph(self, record: MobilizationRecord) -> ReplyGraph:
        post = record.crosslink.target_post
        return build_reply_graph(self.corpus.thread_comments.get(post, []), post,
                                 record.attackers, record.defenders)

    def _replynet_rows(self, records: list[MobilizationRecord],
                       graphs: list[ReplyGraph]) -> list[list]:
        """The REPLYNET_HEADER rows of records with both attackers and
        defenders, from their reply graphs: one batched PageRank per
        teleport set."""
        config = self.config
        ranks = [group_pagerank(graphs, group, alpha=config.alpha, tol=config.pagerank_tol,
                                max_iter=config.pagerank_max_iter)
                 for group in ("attackers", "defenders")]
        self.pagerank_iterations += [rank.iterations for batch in ranks for rank in batch]
        rows = []
        for record, graph, a_rank, d_rank in zip(records, graphs, *ranks):
            apr, dpr = a_rank.scores, d_rank.scores
            comments = self.corpus.thread_comments.get(record.crosslink.target_post, [])
            echo = echo_metrics(graph, apr)
            defender_out = sum(w for (i, _j), w in graph.edges.items() if i in record.defenders)
            reply_frac = (echo.defender_attacker_weight / defender_out) if defender_out else 0.0
            mean_dapr = sum(apr[u] for u in sorted(record.defenders)) / len(record.defenders)
            mean_adpr = sum(dpr[u] for u in sorted(record.attackers)) / len(record.attackers)
            rows.append([
                record.id, echo.n_attackers, echo.n_defenders,
                echo.attacker_attacker_weight, echo.attacker_defender_weight,
                echo.defender_defender_weight, echo.defender_attacker_weight,
                _clean(echo.attacker_within_cross_ratio), _clean(echo.defender_within_cross_ratio),
                _clean(echo.cross_group_ratio),
                echo.defender_apr_zero_fraction, echo.defender_apr_tentimes_fraction,
                reply_frac, mean_dapr, mean_adpr,
                anger_rate(comments, self.lexicon, record.attackers, record.defenders),
                anger_rate(comments, self.lexicon, record.defenders, record.attackers),
            ])
        return rows


REPLYNET_HEADER = [
    "mobilization", "n_attackers", "n_defenders",
    "attacker_attacker_weight", "attacker_defender_weight",
    "defender_defender_weight", "defender_attacker_weight",
    "attacker_within_cross_ratio", "defender_within_cross_ratio", "cross_group_ratio",
    "defender_apr_zero_fraction", "defender_apr_tentimes_fraction",
    "defender_reply_fraction_to_attackers", "mean_defender_apr", "mean_attacker_dpr",
    "anger_attacker_to_defender", "anger_defender_to_attacker",
]
SERIES = [
    ("series_reply_fraction.csv", "defender_reply_fraction_to_attackers"),
    ("series_defender_apr.csv", "mean_defender_apr"),
    ("series_attacker_dpr.csv", "mean_attacker_dpr"),
    ("series_defender_anger.csv", "anger_defender_to_attacker"),
]


def sentiment_rows(run: Run) -> list[dict]:
    """Per cross-link: the sentiment model's label and P(negative), or
    "unlabeled" when the config names no model."""
    if not run.config.sentiment_model:
        return [{"source_post": link.source_post, "label": "unlabeled", "p_negative": None}
                for link in run.links]
    model = load_forest(run.config.sentiment_model)
    rows = []
    for link in run.links:
        label, p_neg = predict_sentiment(model, link, run.corpus, run.lexicon)
        rows.append({"source_post": link.source_post, "label": label, "p_negative": p_neg})
    return rows


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
    result = pred_mod.train(
        dataset, init_params(table.dim, config.hidden_size, seed=substream_seed(config.seed, "lstm")),
        lr=config.predict_lr, epochs=config.predict_epochs, seed=substream_seed(config.seed, "train"),
    )
    save_params(model_path, result.params, seed=config.seed, max_words=config.max_words,
                log=result.log)
    return dataset, result


def stage_ingest(run: Run) -> dict:
    stats = run.corpus.stats
    _write_json(run.out / "ingest.json", dataclasses.asdict(stats))
    return {"posts": stats.posts, "comments": stats.comments}


def stage_crosslinks(run: Run) -> dict:
    _write_jsonl(run.out / "crosslinks.jsonl", [dataclasses.asdict(l) for l in run.links])
    return {"links": len(run.links), **run.crosslink_drops}


def stage_baseline(run: Run) -> dict:
    _write_json(run.out / "baseline.json", run.baseline)
    return {"value": run.baseline["value"], **run.baseline_pairs}


def stage_detect(run: Run) -> dict:
    rows = [r.to_dict() for r in run.records]
    alerts = [row for row in rows if row["verdict"] == "mobilization"]
    _write_jsonl(run.out / "mobilizations.jsonl", rows)
    # machine-readable alert feed: just the positive verdicts
    _write_jsonl(run.out / "alerts.jsonl", alerts)
    return {"records": len(rows), "mobilizations": len(alerts),
            "no_matched_thread": sum(1 for r in run.records if r.matched_before is None)}


def stage_sentiment(run: Run) -> dict:
    _write_jsonl(run.out / "sentiment.jsonl", sentiment_rows(run))
    return {"labeled": bool(run.config.sentiment_model)}


def stage_replynet(run: Run) -> dict:
    rows = run.replynet_rows
    _write_csv(run.out / "replynet.csv", REPLYNET_HEADER, rows)
    iterations = run.pagerank_iterations
    return {"rows": len(rows), "skipped": len(run.mobilized) - len(rows),
            "pagerank_iterations_max": max(iterations, default=None),
            "pagerank_iterations_mean": sum(iterations) / len(iterations) if iterations else None}


def stage_impact(run: Run) -> dict:
    impact_seed = substream_seed(run.config.seed, "impact")
    per_id_metrics = {row[0]: dict(zip(REPLYNET_HEADER, row)) for row in run.replynet_rows}

    def mean(xs):
        return sum(xs) / len(xs) if xs else None

    outcomes, rows = [], []
    attacker_deltas, defender_deltas = [], []
    attacker_pairs, defender_pairs = [], []
    counts = {"no_matched_attacker": 0, "no_matched_defender": 0, "low_support": 0}
    for record in run.mobilized:
        impacts = impact_mod.mobilization_impacts(run.corpus, record, seed=impact_seed)
        for i in impacts:
            counts[f"no_matched_{i.role}"] += i.matched_delta is None
            counts["low_support"] += i.low_support
        defenders = [i for i in impacts if i.role == "defender"]
        attackers = [i for i in impacts if i.role == "attacker"]
        attacker_deltas.extend(i.delta for i in attackers)
        defender_deltas.extend(i.delta for i in defenders)
        attacker_pairs.extend((i.delta, i.matched_delta) for i in attackers
                              if i.matched_delta is not None)
        defender_pairs.extend((i.delta, i.matched_delta) for i in defenders
                              if i.matched_delta is not None)
        if not defenders:
            continue
        outcome = impact_mod.defense_success(record, impacts)
        outcomes.append(outcome)
        rows.append([
            record.id, len(attackers), len(defenders),
            mean([i.delta for i in attackers]), mean([i.delta for i in defenders]),
            mean([i.matched_delta for i in attackers if i.matched_delta is not None]),
            mean([i.matched_delta for i in defenders if i.matched_delta is not None]),
            outcome.success_score, None,
        ])
    impact_mod.assign_deciles(outcomes)
    decile_by_id = {o.mobilization_id: o.decile for o in outcomes}
    for row in rows:
        row[-1] = decile_by_id.get(row[0])
    _write_csv(run.out / "impact.csv", [
        "mobilization", "n_attackers", "n_defenders",
        "mean_attacker_delta", "mean_defender_delta",
        "mean_attacker_matched_delta", "mean_defender_matched_delta",
        "success_score", "decile",
    ], rows)

    for filename, column in SERIES:
        def metric(outcome, column=column):
            value = per_id_metrics.get(outcome.mobilization_id, {}).get(column)
            return 0.0 if value is None else float(value)
        series = impact_mod.decile_series(outcomes, metric)
        _write_csv(run.out / filename, ["success_score", column, "smoothed"],
                   [[x, y, int(series.smoothed)] for x, y in series.points])

    tests = {}
    if attacker_deltas and defender_deltas:
        u, p = impact_mod.mann_whitney_u(defender_deltas, attacker_deltas)
        tests["defender_vs_attacker_delta_mwu"] = {"U": u, "p": p}
    for name, pairs in (("attacker_delta_vs_matched_wilcoxon", attacker_pairs),
                        ("defender_delta_vs_matched_wilcoxon", defender_pairs)):
        try:
            w, p = impact_mod.wilcoxon_signed_rank(pairs)
            tests[name] = {"W": w, "p": p}
        except ValueError:
            tests[name] = None
    _write_json(run.out / "stat_tests.json", tests)
    return {"outcomes": len(outcomes), **counts}


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
    summary = {
        "dim": config.embed_dim, "edges": graph.n_edges,
        "users": len(table.users), "communities": len(table.communities),
        "words": len(word_table.users),
        "loss": embed_mod.loss(graph, table, seed=seed, sample_size=min(2000, graph.n_edges)),
    }
    _write_json(out / "embed.json", summary)
    return {"edges": graph.n_edges}


def stage_predict(run: Run) -> dict:
    config, corpus = run.config, run.corpus
    table, word_vectors = embed_mod.load_table(run.out)
    dataset, result = train_lstm(run, table, word_vectors, run.out / "lstm_model.json")

    tfidf_vectors = community_tfidf_vectors(corpus, config.vocab_size)
    link_by_id = {l.source_post: l for l in run.links}
    ys = dataset.labels.tolist()
    test_y = [ys[i] for i in dataset.test_idx]
    feats, hiddens, scores = [], [], []
    for link_id, seq in zip(dataset.link_ids, dataset.sequences):
        hiddens.append(mean_hidden(seq, result.params))
        scores.append(readout(hiddens[-1], result.params))
        feats.append(pred_mod.baseline_features(
            corpus, link_by_id[link_id], run.lexicon, tfidf_vectors=tfidf_vectors))

    def forest_auc(rows):
        train_y = [ys[i] for i in dataset.train_idx]
        if len(set(train_y)) < 2:
            return None
        forest = train_forest([rows[i] for i in dataset.train_idx], train_y,
                              trees=config.ensemble_trees, seed=substream_seed(config.seed, "forest"))
        if len(set(test_y)) < 2:
            return None
        proba = forest.predict_proba([rows[i] for i in dataset.test_idx])[:, forest.classes.index(1)]
        return pred_mod.auc(proba, test_y)

    lstm_auc = (pred_mod.auc([scores[i] for i in dataset.test_idx], test_y)
                if len(set(test_y)) == 2 else None)
    baseline_auc = forest_auc(feats)
    ensemble_rows = [pred_mod.ensemble_features(f, seq[0], seq[1], seq[2], h)
                     for f, seq, h in zip(feats, dataset.sequences, hiddens)]
    _write_json(run.out / "predict.json", {
        "examples": len(ys),
        "train": int(dataset.train_idx.size),
        "val": int(dataset.val_idx.size),
        "test": int(dataset.test_idx.size),
        "backoff_count": dataset.backoff_count,
        "best_val_auc": _clean(result.best_val_auc),
        "lstm_test_auc": _clean(lstm_auc),
        "baseline_test_auc": _clean(baseline_auc),
        "ensemble_test_auc": _clean(forest_auc(ensemble_rows)),
    })
    return {"examples": len(ys)}


@dataclass(frozen=True)
class Stage:
    name: str
    keys: tuple[str, ...]  # Config fields the stage reads
    upstream: tuple[str, ...]  # stages whose values it uses
    outputs: tuple[str, ...]  # bundle files it writes
    fn: Callable[[Run], dict]
    enabled_by: str = ""  # Config flag that switches the stage on; empty: always on
    version: int = 1  # raise when the stage's outputs change for the same inputs


STAGES = {stage.name: stage for stage in [
    # version 2: a line that is not UTF-8, and an id or name that is not a
    # string or an integer, are rejected
    Stage("ingest", ("corpus",), (), ("ingest.json",), stage_ingest, version=2),
    Stage("crosslinks", ("host_allowlist", "window_hours"), ("ingest",),
          ("crosslinks.jsonl",), stage_crosslinks),
    Stage("baseline", ("window_hours", "baseline", "baseline_stat"),
          ("ingest", "crosslinks"), ("baseline.json",), stage_baseline),
    # version 2: the records of mobilizations.jsonl and alerts.jsonl lose
    # their "sentiment" key, which no stage set (sentiment.jsonl has the labels)
    Stage("detect", ("window_hours",), ("ingest", "crosslinks", "baseline"),
          ("mobilizations.jsonl", "alerts.jsonl"), stage_detect, version=2),
    Stage("sentiment", ("lexicon_dir", "sentiment_model"), ("ingest", "crosslinks"),
          ("sentiment.jsonl",), stage_sentiment),
    Stage("replynet", ("lexicon_dir", "alpha", "pagerank_tol", "pagerank_max_iter"),
          ("ingest", "detect"), ("replynet.csv",), stage_replynet),
    Stage("impact", ("seed",), ("ingest", "detect", "replynet"),
          ("impact.csv", "stat_tests.json") + tuple(name for name, _ in SERIES), stage_impact),
    Stage("embed", ("embed_dim", "embed_negatives", "embed_epochs", "vocab_size", "seed"),
          ("ingest",), ("users.vec", "communities.vec", "words.vec", "embed.json"),
          stage_embed, enabled_by="embed_enabled"),
    Stage("predict", ("lexicon_dir", "hidden_size", "predict_epochs", "predict_lr", "max_words",
                      "ensemble_trees", "vocab_size", "seed"),
          ("ingest", "crosslinks", "detect", "embed"), ("predict.json", "lstm_model.json"),
          stage_predict, enabled_by="predict_enabled"),
]}
# the stages in run order; the last, report, writes the manifest
STAGE_ORDER = [*STAGES, "report"]


def _input_digests(run: Run) -> dict[str, str]:
    """Content digests that stand for the input paths in stage keys."""
    config = run.config
    try:
        corpus = _sha256(Path(config.corpus))
    except OSError as exc:
        raise CorpusError(f"cannot read event log {config.corpus}: {exc}") from exc
    words = {category: sorted(ws) for category, ws in run.lexicon.categories.items()}
    lexicon = hashlib.sha256(json.dumps(words, sort_keys=True).encode("utf-8")).hexdigest()
    model = _sha256(Path(config.sentiment_model)) if config.sentiment_model else ""
    return {"corpus": corpus, "lexicon_dir": lexicon, "sentiment_model": model}


def _stage_key(stage: Stage, config: Config, digests: dict, keys: dict) -> str:
    material = {
        "stage": stage.name,
        "version": stage.version,
        "config": {k: digests.get(k, getattr(config, k)) for k in stage.keys},
        "upstream": {name: keys[name] for name in stage.upstream},
    }
    return hashlib.sha256(json.dumps(material, sort_keys=True).encode("utf-8")).hexdigest()


def _previous_manifest(text: str) -> dict:
    """The bundle's previous manifest, or {} when it is missing, of another
    schema or malformed, so that every stage runs."""
    try:
        manifest = json.loads(text)
    except ValueError:
        return {}
    if not isinstance(manifest, dict) or manifest.get("schema_version") != SCHEMA_VERSION:
        return {}
    stages, files = manifest.get("stages"), manifest.get("files")
    if not (isinstance(stages, dict) and isinstance(files, dict)
            and all(isinstance(info, dict) for info in stages.values())):
        return {}
    return manifest


def run_pipeline(config: Config) -> PipelineResult:
    """Run the stages of ``STAGES`` in their order, then write the manifest
    (the report stage).

    A stage's key hashes its name, its version, its config keys (input paths
    by content) and its upstream stages' keys. A stage is reused when its key
    equals the one in the bundle's previous manifest and its outputs still
    have the recorded digests; otherwise it runs. A stage failure halts the pipeline
    with the stage name while earlier outputs stay on disk.
    """
    config.validate()
    if not config.corpus:
        raise ConfigError("config.corpus is required")
    if not config.output_dir:
        raise ConfigError("config.output_dir is required")
    run = Run(config)
    run.out.mkdir(parents=True, exist_ok=True)
    manifest_path = run.out / "manifest.json"
    old_text = manifest_path.read_text(encoding="utf-8") if manifest_path.is_file() else ""
    old = _previous_manifest(old_text)
    old_stages, old_files = old.get("stages", {}), old.get("files", {})
    digests = _input_digests(run)
    keys, stages, files, cache_hits, timings = {}, {}, {}, [], {}
    for stage in STAGES.values():
        name = stage.name
        if stage.enabled_by and not getattr(config, stage.enabled_by):
            continue
        clock = _Clock()
        keys[name] = _stage_key(stage, config, digests, keys)
        previous = old_stages.get(name) or {}
        if previous.get("key") == keys[name] and all(
            (run.out / f).is_file() and _sha256(run.out / f) == old_files.get(f) for f in stage.outputs
        ):
            cache_hits.append(name)
            stages[name] = previous
            files.update({f: old_files[f] for f in stage.outputs})
        else:
            try:
                info = stage.fn(run)
            except Exception as exc:  # noqa: BLE001 - halt with the stage name
                raise StageError(name, exc) from exc
            stages[name] = {"key": keys[name], "outputs": list(stage.outputs), **info}
            files.update({f: _sha256(run.out / f) for f in stage.outputs})
        timings[name] = clock.timing(name in cache_hits)

    clock = _Clock()
    stages["report"] = {"outputs": ["manifest.json"]}
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config": {k: v for k, v in dataclasses.asdict(config).items() if k not in _PATH_KEYS},
        "stages": stages,
        "files": files,
    }
    text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    if text == old_text:
        cache_hits.append("report")
    else:
        manifest_path.write_text(text, encoding="utf-8")
    validate_bundle(run.out)
    timings["report"] = clock.timing("report" in cache_hits)
    _write_json(run.out / RUN_RECORD, _run_record(timings))
    return PipelineResult(output_dir=run.out, manifest=manifest, cache_hits=cache_hits)


class _Clock:
    """Wall and CPU time since it was made."""

    def __init__(self):
        self.wall, self.cpu = time.perf_counter(), time.process_time()

    def timing(self, hit: bool) -> dict:
        return {"hit": hit, "wall_s": time.perf_counter() - self.wall,
                "cpu_s": time.process_time() - self.cpu}


def _run_record(timings: dict) -> dict:
    """The run record: per stage whether it hit the cache and its wall and
    CPU time (``timings``), the process's peak RSS and the versions that
    ran. It changes from run to run, so it stays out of the manifest."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # bytes on macOS, else KiB
    return {
        "stages": timings,
        "peak_rss_mb": peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0),
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "intercom": __version__},
    }


def validate_bundle(output_dir) -> None:
    """Check the report bundle against its schema: manifest shape, files
    present, hashes correct."""
    out = Path(output_dir)
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        raise ValueError("bundle has no manifest.json")
    manifest = json.loads(manifest_path.read_text())
    for key in ("schema_version", "config", "stages", "files"):
        if key not in manifest:
            raise ValueError(f"manifest missing {key!r}")
    if manifest["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {manifest['schema_version']}")
    for name, digest in manifest["files"].items():
        path = out / name
        if not path.exists():
            raise ValueError(f"bundle file missing: {name}")
        if _sha256(path) != digest:
            raise ValueError(f"bundle file hash mismatch: {name}")
