"""Pipeline orchestration: the values the stages share, the stage table, the
report bundle and its writers."""
from __future__ import annotations

import csv
import dataclasses
import gc
import hashlib
import json
import logging
import platform
import resource
import sys
import time
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

from . import __version__
# the stage modules by module, each looked up when a stage needs it, so that
# building STAGES and an all-hit re-run run none of them (intercom.LAZY_MODULES)
from . import corpus as corpus_mod
from . import embed as embed_mod
from . import forest as forest_mod
from . import impact as impact_mod
from . import lstm as lstm_mod
from . import mobilization as mobilization_mod
from . import predictor as pred_mod
from . import replynet as replynet_mod
from . import sentiment as sentiment_mod
from .settings import Config, ConfigError

log = logging.getLogger(__name__)

SCHEMA_VERSION = 2
# the run record: written next to the manifest, outside its files
RUN_RECORD = "run.json"
# path-valued keys are excluded from the manifest echo so bundles written to
# different directories stay byte-identical; in stage keys the input paths
# stand for the content of the files they name
_PATH_KEYS = {"corpus", "output_dir", "lexicon_dir", "sentiment_model"}


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


def substream_seed(root: int, name: str) -> int:
    """Named, reproducible child seed of the root seed."""
    import numpy as np  # here, not at the top: an all-hit re-run needs no numpy

    seq = np.random.SeedSequence([root, zlib.crc32(name.encode("utf-8"))])
    return int(seq.generate_state(1)[0])


def _output(path):
    """``path`` opened for writing, or stdout when it is None."""
    return nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8", newline="")


def write_lines(path, lines) -> None:
    """Each line and a newline to ``path``, or to stdout when it is None.
    The bundle's files and the CLI's outputs are written by these writers."""
    with _output(path) as fh:
        fh.writelines(line + "\n" for line in lines)


def write_json(path, obj) -> None:
    write_lines(path, [json.dumps(obj, sort_keys=True, indent=2)])


def write_jsonl(path, rows) -> None:
    write_lines(path, (json.dumps(row, sort_keys=True) for row in rows))


def write_csv(path, header: list[str], rows) -> None:
    with _output(path) as fh:
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
        return corpus_mod.load_events(self.config.corpus)

    @cached_property
    def lexicon(self):
        if self.config.lexicon_dir:
            return sentiment_mod.load_lexicon(self.config.lexicon_dir)
        return sentiment_mod.builtin_lexicon()

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
    alerts = [row for row in rows if row["verdict"] == "mobilization"]
    write_jsonl(run.out / "mobilizations.jsonl", rows)
    # machine-readable alert feed: just the positive verdicts
    write_jsonl(run.out / "alerts.jsonl", alerts)
    return {"records": len(rows), "mobilizations": len(alerts)}


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
        write_csv(run.out / filename, ["success_score", column, "smoothed"],
                  [[x, y, int(series[column].smoothed)] for x, y in series[column].points])
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
    table, word_vectors = embed_mod.load_table(run.out)
    dataset, result = train_lstm(run, table, word_vectors, run.out / "lstm_model.json")
    summary = pred_mod.evaluate(run.corpus, run.lexicon, dataset, result,
                                vocab_size=config.vocab_size, trees=config.ensemble_trees,
                                seed=substream_seed(config.seed, "forest"))
    write_json(run.out / "predict.json", summary)
    return {"examples": summary["examples"]}


@dataclass(frozen=True)
class Stage:
    name: str
    keys: tuple[str, ...]  # Config fields the stage reads
    upstream: tuple[str, ...]  # stages whose values it uses
    outputs: tuple[str, ...]  # bundle files it writes
    fn: Callable[[Run], dict]
    enabled_by: str = ""  # Config flag that switches the stage on; empty: always on
    version: int = 1  # raise when the stage's outputs change for the same inputs


# the reply-network metrics that the impact stage averages over success
# buckets: file, REPLYNET_HEADER column
SERIES = [
    ("series_reply_fraction.csv", "defender_reply_fraction_to_attackers"),
    ("series_defender_apr.csv", "mean_defender_apr"),
    ("series_attacker_dpr.csv", "mean_attacker_dpr"),
    ("series_defender_anger.csv", "anger_defender_to_attacker"),
]

STAGES = {stage.name: stage for stage in [
    # version 2: a line that is not UTF-8, and an id or name that is not a
    # string or an integer, are rejected; version 3: one input rule
    # (``load_events``), which rejects lone surrogates, non-finite numbers
    # and nesting deeper than corpus.MAX_DEPTH anywhere in a line, and
    # integer ids and names outside [-2**63, 2**64); version 4: a line is
    # stripped of JSON whitespace only, so one padded with other whitespace
    # is rejected
    Stage("ingest", ("corpus",), (), ("ingest.json",), stage_ingest, version=4),
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
    # version 2: a test that cannot run records why, as {"skipped": reason}
    Stage("impact", ("seed",), ("ingest", "detect", "replynet"),
          ("impact.csv", "stat_tests.json") + tuple(name for name, _ in SERIES),
          stage_impact, version=2),
    # version 2: minibatched negative-sampling SGD (embed.EDGE_BATCH edges a step)
    Stage("embed", ("embed_dim", "embed_negatives", "embed_epochs", "vocab_size", "seed"),
          ("ingest",), ("users.vec", "communities.vec", "words.vec", "embed.json"),
          stage_embed, enabled_by="embed_enabled", version=2),
    # version 2: one Adam step per minibatch of predictor.BATCH examples, and
    # batched forwards
    Stage("predict", ("lexicon_dir", "hidden_size", "predict_epochs", "predict_lr", "max_words",
                      "ensemble_trees", "vocab_size", "seed"),
          ("ingest", "crosslinks", "detect", "embed"), ("predict.json", "lstm_model.json"),
          stage_predict, enabled_by="predict_enabled", version=2),
]}
# the stages in run order; the last, report, writes the manifest
STAGE_ORDER = [*STAGES, "report"]


def _input_digests(run: Run) -> dict[str, str]:
    """Content digests that stand for the input paths in stage keys."""
    config = run.config
    try:
        corpus = _sha256(Path(config.corpus))
    except OSError as exc:
        raise corpus_mod.CorpusError(f"cannot read event log {config.corpus}: {exc}") from exc
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
    collections = _collections()
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
    write_json(run.out / RUN_RECORD, _run_record(timings, collections))
    return PipelineResult(output_dir=run.out, manifest=manifest, cache_hits=cache_hits)


class _Clock:
    """Wall and CPU time since it was made."""

    def __init__(self):
        self.wall, self.cpu = time.perf_counter(), time.process_time()

    def timing(self, hit: bool) -> dict:
        return {"hit": hit, "wall_s": time.perf_counter() - self.wall,
                "cpu_s": time.process_time() - self.cpu}


def _collections() -> list[int]:
    """The cyclic collector's passes so far, per generation."""
    return [generation["collections"] for generation in gc.get_stats()]


def _run_record(timings: dict, collections: list[int]) -> dict:
    """The run record: per stage whether it hit the cache and its wall and
    CPU time (``timings``), the collector's passes per generation since
    ``collections`` was taken, the process's peak RSS and the versions that
    ran, numpy's null when the run never imported it. It changes from run
    to run, so it stays out of the manifest."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # bytes on macOS, else KiB
    numpy = sys.modules.get("numpy")
    return {
        "stages": timings,
        "gc": {"collections": [now - then for now, then in zip(_collections(), collections)]},
        "peak_rss_mb": peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0),
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__ if numpy else None, "intercom": __version__},
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
