"""Pipeline orchestration: the stage table, the stage cache, the report
bundle and its writers. This module and those it runs (``settings`` and
``lexicon``) are all that an all-hit re-run runs; the stage functions and
the values they share are in ``intercom.stages``."""
from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
# by module, each looked up when it is needed (intercom.LAZY_MODULES): an
# all-hit re-run runs lexicon, and neither stages nor corpus
from . import corpus as corpus_mod
from . import lexicon as lexicon_mod
from . import stages as stages_mod
from .settings import Config, ConfigError

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
    import csv  # here, not at the top: an all-hit re-run writes no CSV

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


class PipelineResult(NamedTuple):
    output_dir: Path
    manifest: dict
    cache_hits: list[str]


class Stage(NamedTuple):
    name: str
    keys: tuple[str, ...]  # Config fields the stage reads
    upstream: tuple[str, ...]  # stages whose values it uses
    outputs: tuple[str, ...]  # bundle files it writes
    # the stage: a function of intercom.stages, looked up when the stage
    # runs, so that building the table runs none of that module
    fn: Callable[[stages_mod.Run], dict]
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
    Stage("ingest", ("corpus",), (), ("ingest.json",),
          lambda run: stages_mod.stage_ingest(run), version=4),
    Stage("crosslinks", ("host_allowlist", "window_hours"), ("ingest",),
          ("crosslinks.jsonl",), lambda run: stages_mod.stage_crosslinks(run)),
    Stage("baseline", ("window_hours", "baseline", "baseline_stat"),
          ("ingest", "crosslinks"), ("baseline.json",),
          lambda run: stages_mod.stage_baseline(run)),
    # version 2: the records of mobilizations.jsonl and alerts.jsonl lose
    # their "sentiment" key, which no stage set (sentiment.jsonl has the
    # labels); version 3: alerts.jsonl, a copy of the mobilization rows of
    # mobilizations.jsonl, is no longer written
    Stage("detect", ("window_hours",), ("ingest", "crosslinks", "baseline"),
          ("mobilizations.jsonl",), lambda run: stages_mod.stage_detect(run), version=3),
    Stage("sentiment", ("lexicon_dir", "sentiment_model"), ("ingest", "crosslinks"),
          ("sentiment.jsonl",), lambda run: stages_mod.stage_sentiment(run)),
    Stage("replynet", ("lexicon_dir", "alpha", "pagerank_tol", "pagerank_max_iter"),
          ("ingest", "detect"), ("replynet.csv",), lambda run: stages_mod.stage_replynet(run)),
    # version 2: a test that cannot run records why, as {"skipped": reason}
    Stage("impact", ("seed",), ("ingest", "detect", "replynet"),
          ("impact.csv", "stat_tests.json") + tuple(name for name, _ in SERIES),
          lambda run: stages_mod.stage_impact(run), version=2),
    # version 2: minibatched negative-sampling SGD (embed.EDGE_BATCH edges a step)
    Stage("embed", ("embed_dim", "embed_negatives", "embed_epochs", "vocab_size", "seed"),
          ("ingest",), ("users.vec", "communities.vec", "words.vec", "embed.json"),
          lambda run: stages_mod.stage_embed(run), enabled_by="embed_enabled", version=2),
    # version 2: one Adam step per minibatch of predictor.BATCH examples, and
    # batched forwards
    Stage("predict", ("lexicon_dir", "hidden_size", "predict_epochs", "predict_lr", "max_words",
                      "ensemble_trees", "vocab_size", "seed"),
          ("ingest", "crosslinks", "detect", "embed"), ("predict.json", "lstm_model.json"),
          lambda run: stages_mod.stage_predict(run), enabled_by="predict_enabled", version=2),
]}


def _input_digests(config: Config, lexicon: lexicon_mod.Lexicon) -> dict[str, str]:
    """Content digests that stand for the input paths in stage keys; the
    lexicon's is of its words."""
    try:
        corpus = _sha256(Path(config.corpus))
    except OSError as exc:
        raise corpus_mod.CorpusError(f"cannot read event log {config.corpus}: {exc}") from exc
    words = {category: sorted(ws) for category, ws in lexicon.categories.items()}
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
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    old_text = manifest_path.read_text(encoding="utf-8") if manifest_path.is_file() else ""
    old = _previous_manifest(old_text)
    old_stages, old_files = old.get("stages", {}), old.get("files", {})
    lexicon = lexicon_mod.configured(config.lexicon_dir)
    digests = _input_digests(config, lexicon)
    run = None  # the stages' shared values, made when the first stage runs
    keys, stages, files, cache_hits, timings = {}, {}, {}, [], {}
    for stage in STAGES.values():
        name = stage.name
        if stage.enabled_by and not getattr(config, stage.enabled_by):
            continue
        clock = _Clock()
        keys[name] = _stage_key(stage, config, digests, keys)
        previous = old_stages.get(name) or {}
        if previous.get("key") == keys[name] and all(
            (out / f).is_file() and _sha256(out / f) == old_files.get(f) for f in stage.outputs
        ):
            cache_hits.append(name)
            stages[name] = previous
            files.update({f: old_files[f] for f in stage.outputs})
        else:
            if run is None:
                run = stages_mod.Run(config)
                run.lexicon = lexicon
            try:
                info = stage.fn(run)
            except Exception as exc:  # noqa: BLE001 - halt with the stage name
                raise StageError(name, exc) from exc
            stages[name] = {"key": keys[name], "outputs": list(stage.outputs), **info}
            files.update({f: _sha256(out / f) for f in stage.outputs})
        timings[name] = clock.timing(name in cache_hits)

    clock = _Clock()
    stages["report"] = {"outputs": ["manifest.json"]}
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config": {k: v for k, v in config.to_dict().items() if k not in _PATH_KEYS},
        "stages": stages,
        "files": files,
    }
    text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    if text == old_text:
        cache_hits.append("report")
    else:
        manifest_path.write_text(text, encoding="utf-8")
    validate_bundle(out)
    timings["report"] = clock.timing("report" in cache_hits)
    write_json(out / RUN_RECORD, _run_record(timings, collections))
    return PipelineResult(output_dir=out, manifest=manifest, cache_hits=cache_hits)


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


def _peak_rss_mb() -> float:
    """This process's peak resident set size in MB: ``VmHWM`` from
    /proc/self/status where that file exists. Elsewhere ``ru_maxrss``, in
    bytes on macOS, which on Linux would carry the peak of the process that
    spawned this one across ``exec``."""
    try:
        with open("/proc/self/status", "rb") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith(b"VmHWM:")) / 1024.0
    except (OSError, StopIteration):  # no such file, or no such line
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # bytes on macOS, else KiB
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def _numpy_kernels(numpy) -> dict | None:
    """The kernels numpy's floats come from: its BLAS (name and version)
    and the SIMD extensions it found on this CPU, both of which can move a
    learning stage's bytes. None when the run never imported numpy."""
    if numpy is None:
        return None
    try:
        config = numpy.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints its config only
        return {"blas": None, "simd": None}
    blas = config["Build Dependencies"]["blas"]
    return {"blas": {"name": blas["name"], "version": blas["version"]},
            "simd": config["SIMD Extensions"]["found"]}


def _run_record(timings: dict, collections: list[int]) -> dict:
    """The run record: per stage whether it hit the cache and its wall and
    CPU time (``timings``), the collector's passes per generation since
    ``collections`` was taken, the process's peak RSS, the versions that
    ran and numpy's kernels, numpy's version and kernels null when the run
    never imported it. It changes from run to run, so it stays out of the
    manifest."""
    numpy = sys.modules.get("numpy")
    return {
        "stages": timings,
        "gc": {"collections": [now - then for now, then in zip(_collections(), collections)]},
        "peak_rss_mb": _peak_rss_mb(),
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__ if numpy else None, "intercom": __version__},
        "numpy_kernels": _numpy_kernels(numpy),
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
