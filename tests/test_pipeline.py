import ast
import hashlib
import json
import logging
import platform
import random
from pathlib import Path

import numpy as np
import pytest

import intercom
from intercom import embed, lstm, replynet, stages
from intercom.corpus import CrossLink, load_events
from intercom.embed import load_vectors
from intercom.forest import train_forest
from intercom.lexicon import builtin_lexicon
from intercom.pipeline import (
    RUN_RECORD,
    STAGES,
    Config,
    ConfigError,
    StageError,
    run_pipeline,
    validate_bundle,
)
from intercom.sentiment import crosslink_features
from intercom.settings import apply_overrides, load_config
from intercom.stages import Run, substream_seed
from intercom.synth import SynthSpec, generate_corpus

from conftest import BASE, DAY, HOUR, comment, post, run_python, write_canary_pickle, write_events


@pytest.fixture(scope="module")
def synth_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    spec = SynthSpec(n_communities=4, n_crosslinks=8, background_posts_per_community=10,
                     background_comments_per_user=6, seed=1)
    events_path, manifest = generate_corpus(spec, out)
    return events_path, manifest


def bundle_bytes(path: Path) -> dict[str, bytes]:
    """Every file of the bundle directory but the run record, whose timings
    change from run to run."""
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())
            if p.is_file() and p.name != RUN_RECORD}


def test_config_file_and_overrides(tmp_path):
    config_path = tmp_path / "run.conf"
    config_path.write_text(
        "# pipeline settings\n"
        "window_hours = 6\n"
        "baseline = 1.6\n"
        "embed_enabled = true\n"
        "seed = 42\n"
    )
    config = load_config(config_path)
    assert config.window_hours == 6.0
    assert config.baseline == "1.6"
    assert config.embed_enabled is True
    apply_overrides(config, {"window_hours": "12", "embed_enabled": "false"})
    assert config.window_hours == 12.0
    assert config.embed_enabled is False


def test_config_unknown_key_rejected(tmp_path):
    config_path = tmp_path / "bad.conf"
    config_path.write_text("no_such_key = 1\n")
    with pytest.raises(ConfigError):
        load_config(config_path)
    with pytest.raises(ConfigError):
        apply_overrides(Config(), {"nope": "1"})
    with pytest.raises(TypeError):
        Config(nope=1)


def test_config_validation():
    with pytest.raises(ConfigError):
        Config(alpha=1.5).validate()
    with pytest.raises(ConfigError):
        Config(window_hours=0).validate()
    with pytest.raises(ConfigError):
        Config(baseline="-3").validate()
    with pytest.raises(ConfigError):
        Config(baseline="pancake").validate()
    with pytest.raises(ConfigError):
        Config(predict_enabled=True, embed_enabled=False).validate()
    Config(baseline="1.6").validate()


@pytest.mark.parametrize("field, value", [
    ("baseline", "nan"), ("baseline", "inf"), ("baseline", "-inf"),
    ("window_hours", float("nan")), ("alpha", float("nan")),
    ("pagerank_tol", float("inf")), ("pagerank_tol", float("nan")),
    ("predict_lr", float("inf")), ("predict_lr", float("nan")),
])
def test_config_rejects_non_finite_numbers(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        Config(**{field: value}).validate()


def test_substream_seeds_stable_and_distinct():
    a = substream_seed(0, "impact")
    assert a == substream_seed(0, "impact")
    assert a != substream_seed(0, "embed")
    assert a != substream_seed(1, "impact")


def test_substream_seeds_do_not_alias_across_2_32():
    for name in ("impact", "embed"):
        assert substream_seed(0, name) != substream_seed(2**32, name)
        assert substream_seed(7, name) != substream_seed(7 + 2**32, name)


def test_config_rejects_a_negative_seed():
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        Config(seed=-1).validate()


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("ensemble_trees", 2.5), ("hidden_size", 2.5), ("seed", True),
    ("pagerank_max_iter", "10"), ("alpha", True), ("window_hours", "12"),
    ("embed_enabled", "yes"), ("predict_enabled", 1), ("corpus", 3), ("baseline", 1.6),
])
def test_config_rejects_a_value_of_another_type_than_its_field(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be an? "):
        Config(**{field: value}).validate()


def test_config_takes_an_int_for_a_float_field():
    Config(window_hours=12, pagerank_tol=1, predict_lr=1).validate()


def test_a_mistyped_config_fails_before_any_stage_runs(synth_corpus, tmp_path):
    events_path, _ = synth_corpus
    out = tmp_path / "run"
    with pytest.raises(ConfigError, match="seed must be an int"):
        run_pipeline(Config(corpus=str(events_path), output_dir=str(out), seed=1.5))
    assert not out.exists()


def test_pipeline_full_run(synth_corpus, tmp_path):
    events_path, manifest = synth_corpus
    config = Config(corpus=str(events_path), output_dir=str(tmp_path / "run"),
                    embed_enabled=True, predict_enabled=True,
                    embed_dim=8, embed_epochs=4, hidden_size=6, predict_epochs=2,
                    ensemble_trees=10, seed=3)
    result = run_pipeline(config)
    out = result.output_dir
    for name in ("ingest.json", "crosslinks.jsonl", "baseline.json", "mobilizations.jsonl",
                 "sentiment.jsonl", "replynet.csv", "impact.csv",
                 "stat_tests.json", "users.vec", "communities.vec", "words.vec",
                 "predict.json", "lstm_model.json", "manifest.json"):
        assert (out / name).exists(), name
    validate_bundle(out)

    records = [json.loads(line) for line in (out / "mobilizations.jsonl").read_text().splitlines()]
    detected = sum(1 for r in records if r["verdict"] == "mobilization")
    assert detected == manifest["counts"]["mobilizations"]
    assert len(records) == len(manifest["links"])


def test_pipeline_rerun_cache_hits(synth_corpus, tmp_path):
    events_path, _ = synth_corpus
    out = tmp_path / "run"
    config = Config(corpus=str(events_path), output_dir=str(out), seed=3)
    first = run_pipeline(config)
    assert first.cache_hits == []
    before = bundle_bytes(out)
    second = run_pipeline(Config(corpus=str(events_path), output_dir=str(out), seed=3))
    assert set(second.cache_hits) == set(second.manifest["stages"].keys())
    assert bundle_bytes(out) == before


def test_pipeline_reproducible_across_directories(synth_corpus, tmp_path):
    events_path, _ = synth_corpus
    runs = []
    for name in ("one", "two"):
        config = Config(corpus=str(events_path), output_dir=str(tmp_path / name), seed=9)
        run_pipeline(config)
        runs.append(bundle_bytes(tmp_path / name))
    assert runs[0] == runs[1]


# The sha256 of every bundle file, manifest.json included, of the default
# world (SynthSpec seed 1: 12 communities, 60 links) under the default config,
# with embed and predict off. A change that moves one changes the report.
DEFAULT_WORLD_FILES = {
    "baseline.json": "32696941033e8170ee3e1c0bdb02c6f25ed70cd60e49720c1337b428c4079b3e",
    "crosslinks.jsonl": "0770243aa8aba3a6edc44cf9076c74a4a476b0d218c79bd756f3d78478288437",
    "impact.csv": "7cb2bfb480369f9bbb065613095e269c9b86bc2d744d9e06cd43e5f7902a59d9",
    "ingest.json": "106c5e0e9afe36144acc30c38b96c69d093f31cc5e1f867e0da879b6b5d065a2",
    "manifest.json": "6262e1cd568bacb40a958075b7a0ffbbd98bc13a6b9a08f20f6a556796f6ee2f",
    "mobilizations.jsonl": "c6de5a144a501f61d2fab4dc85d03e0db20081a2c3a7dc29747663cc9689f655",
    "replynet.csv": "21237d7d1c44b8c71e9ffd3e8d0fdccbf957faba3d258e0dcceb8ed115d2f917",
    "sentiment.jsonl": "1490bcc4ce822b071e151f89dcc2328023f3c84f342c13e2e0082fe91063207c",
    "series_attacker_dpr.csv": "5c29183635915c3b89fc9c38f37a334fcf0f4abdb42216f9299932fcd9cd58ca",
    "series_defender_anger.csv": "628cbbee9ff95df16d5daeb2240785d8f00a41733aba63f8573b3eafee451353",
    "series_defender_apr.csv": "7c56ee0e7424c036e99a759094a3f33357179cd4f726df82d38793339deea9c2",
    "series_reply_fraction.csv": "f2eafc00e75b61bfb684d3828158c8d9fe7d276c686461b18b5982e630e5a3c6",
    "stat_tests.json": "6af9e534631f9c9287c7135498a4a16cf275dab1433acd903d32b263759ce379",
}


def test_default_world_bundle_matches_its_pinned_digests(tmp_path):
    events_path, _ = generate_corpus(SynthSpec(seed=1), tmp_path / "world")
    run_pipeline(Config(corpus=str(events_path), output_dir=str(tmp_path / "out")))
    digests = {name: hashlib.sha256(data).hexdigest()
               for name, data in bundle_bytes(tmp_path / "out").items()}
    assert digests == DEFAULT_WORLD_FILES


# The sha256 of a 50-tree sentiment forest's checkpoint, trained on the
# default world's planted links (crosslink_features, string labels), and of
# the sentiment.jsonl a report of that world gets from it. No BLAS call
# touches either, so they hold on any machine.
SENTIMENT_FOREST_FILES = {
    "sentiment_model.json": "c32d22e09f3ca9d4671f0ac789359f57ea60254f1bd664fb102e4d18ca290573",
    "sentiment.jsonl": "ea74aa9803fce50a13b56c8c3a07204726944048e016ca1ec2478beab5bccf10",
}


def test_a_trained_sentiment_forest_and_its_labels_match_their_pinned_digests(tmp_path):
    events_path, manifest = generate_corpus(SynthSpec(seed=1), tmp_path / "world")
    corpus, lexicon = load_events(events_path), builtin_lexicon()
    rows = [crosslink_features(corpus, CrossLink(planted["source_post"], planted["target_post"],
                                                 planted["source_community"],
                                                 planted["target_community"], planted["t0"],
                                                 corpus.posts[planted["source_post"]].author),
                               lexicon)
            for planted in manifest["links"]]
    model = tmp_path / "sentiment_model.json"
    train_forest(rows, [planted["sentiment"] for planted in manifest["links"]],
                 trees=50, seed=3).save(model)
    run_pipeline(Config(corpus=str(events_path), output_dir=str(tmp_path / "out"),
                        sentiment_model=str(model)))
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (model, tmp_path / "out" / "sentiment.jsonl")}
    assert digests == SENTIMENT_FOREST_FILES


# The learn path at small settings: embed and predict on, so that the
# embedding SGD, the LSTM and the ensemble forests all run.
LEARN_CONFIG = {"embed_enabled": True, "predict_enabled": True, "embed_dim": 8, "embed_epochs": 4,
                "hidden_size": 6, "predict_epochs": 2, "ensemble_trees": 10, "seed": 3}
# The sha256 of the learn path's files for the default world under
# LEARN_CONFIG. The LSTM's matrix products go through BLAS, so a BLAS that
# rounds them otherwise moves lstm_model.json and predict.json.
LEARN_PATH_FILES = {
    "users.vec": "b1542bddbea762920112208fbd7ab0422538baf03f8342f1c51e1916e5df72a3",
    "communities.vec": "48e5fc2b2e3d5b57d1c6d2bb15399eecc42a61914faac95727bf15a44725a0b5",
    "words.vec": "a1e64181d0367dca6f152cdd1771c84edff01ae04f1fab7425ceda5e226183a7",
    "lstm_model.json": "9206a1438457b16e03f7af622679253190cab3dd9fa1f812299730e846d5a907",
    "predict.json": "c614bf7a9197085b95581c66f72833880e9436c46bb2461078b026adda482611",
}


def test_the_learn_path_files_of_the_default_world_match_their_pinned_digests(tmp_path):
    events_path, _ = generate_corpus(SynthSpec(seed=1), tmp_path / "world")
    run_pipeline(Config(corpus=str(events_path), output_dir=str(tmp_path / "out"), **LEARN_CONFIG))
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
               for name in LEARN_PATH_FILES}
    assert digests == LEARN_PATH_FILES


@pytest.mark.parametrize("settings", [{}, LEARN_CONFIG], ids=["default", "learn path"])
def test_a_shuffled_log_gives_the_same_bundle(tmp_path, settings):
    # a bundle depends on the log's events, not on the order of its lines,
    # when no two lines share an id; only the stage keys differ, as the
    # corpus digest is of the file's bytes
    events_path, _ = generate_corpus(SynthSpec(n_crosslinks=40, seed=5), tmp_path / "world")
    lines = events_path.read_text(encoding="utf-8").splitlines()
    assert len({json.loads(line)["id"] for line in lines}) == len(lines)
    random.Random(17).shuffle(lines)
    shuffled = tmp_path / "shuffled.jsonl"
    shuffled.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    bundles = []
    for name, path in (("ordered", events_path), ("shuffled", shuffled)):
        run_pipeline(Config(corpus=str(path), output_dir=str(tmp_path / name), **settings))
        bundles.append(bundle_bytes(tmp_path / name))
    manifests = [json.loads(bundle.pop("manifest.json")) for bundle in bundles]
    assert bundles[0] == bundles[1]
    assert manifests[0]["files"] == manifests[1]["files"]


def test_predict_reads_the_embeddings_from_the_bundle_only_when_embed_hit_the_cache(
        synth_corpus, tmp_path, monkeypatch):
    events_path, _ = synth_corpus
    loaded = []

    def recording_load_table(directory):
        loaded.append(Path(directory))
        return original_load_table(directory)

    original_load_table = embed.load_table
    monkeypatch.setattr(embed, "load_table", recording_load_table)
    config = {"corpus": str(events_path), **LEARN_CONFIG}
    run_pipeline(Config(output_dir=str(tmp_path / "run"), **config))
    assert loaded == []
    changed = {**config, "predict_epochs": config["predict_epochs"] + 1}
    rerun = run_pipeline(Config(output_dir=str(tmp_path / "run"), **changed))
    assert "embed" in rerun.cache_hits and "predict" not in rerun.cache_hits
    assert loaded == [tmp_path / "run"]
    run_pipeline(Config(output_dir=str(tmp_path / "fresh"), **changed))
    assert loaded == [tmp_path / "run"]
    for name in ("predict.json", "lstm_model.json"):
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()

    # the vectors embed hands to predict are the ones load_table reads back
    run = Run(Config(output_dir=str(tmp_path / "seeded"), **config))
    run.out.mkdir()
    stages.stage_embed(run)
    (table, words), (read_table, read_words) = run.embeddings, original_load_table(run.out)
    assert loaded == [tmp_path / "run"]
    assert (table.users, table.communities, table.dim, table.negatives) == (
        read_table.users, read_table.communities, read_table.dim, read_table.negatives)
    for vectors, read in ((table.user_vectors, read_table.user_vectors),
                          (table.community_vectors, read_table.community_vectors)):
        assert vectors.dtype == read.dtype and vectors.shape == read.shape
        assert vectors.tobytes() == read.tobytes()
    assert list(words) == list(read_words)
    assert all(words[w].dtype == read_words[w].dtype and words[w].tobytes() == read_words[w].tobytes()
               for w in words)


def test_report_writes_a_run_record_outside_the_manifest(synth_corpus, tmp_path):
    events_path, _ = synth_corpus

    def report(name):
        result = run_pipeline(Config(corpus=str(events_path), output_dir=str(tmp_path / name)))
        out = tmp_path / name
        return result, (out / "manifest.json").read_bytes(), json.loads((out / RUN_RECORD).read_text())

    versions = {"python": platform.python_version(), "numpy": np.__version__,
                "intercom": intercom.__version__}
    build = np.show_config(mode="dicts")
    blas = build["Build Dependencies"]["blas"]
    kernels = {"blas": {"name": blas["name"], "version": blas["version"]},
               "simd": build["SIMD Extensions"]["found"]}
    one, two = report("one"), report("two")
    assert one[1] == two[1] and bundle_bytes(tmp_path / "one") == bundle_bytes(tmp_path / "two")
    for result, _manifest, record in (one, two):
        assert RUN_RECORD not in result.manifest["files"]
        assert set(record["stages"]) == set(result.manifest["stages"])
        assert "report" in record["stages"] and "embed" not in record["stages"]
        for timing in record["stages"].values():
            assert timing["hit"] is False
            assert timing["wall_s"] >= 0 and timing["cpu_s"] >= 0
        assert record["peak_rss_mb"] > 1
        assert record["versions"] == versions
        assert record["numpy_kernels"] == kernels
        collections = record["gc"]["collections"]
        assert len(collections) == 3 and all(type(n) is int and n >= 0 for n in collections)
        assert "gc" not in result.manifest["stages"] and "gc" not in result.manifest

    rerun, manifest, record = report("two")
    assert set(rerun.cache_hits) == set(record["stages"]) == set(rerun.manifest["stages"])
    assert all(timing["hit"] for timing in record["stages"].values())
    assert manifest == two[1]
    assert set(record["gc"]) == {"collections"}
    assert record["numpy_kernels"] == kernels

    # an all-hit re-run in a fresh interpreter never imports numpy, and its
    # record says so
    fresh = run_python("""
import sys
from intercom import pipeline
pipeline.run_pipeline(pipeline.Config(corpus=sys.argv[1], output_dir=sys.argv[2]))
""", events_path, tmp_path / "two")
    assert fresh.returncode == 0, fresh.stderr
    record = json.loads((tmp_path / "two" / RUN_RECORD).read_text())
    assert record["versions"] == {**versions, "numpy": None}
    assert record["numpy_kernels"] is None
    assert set(record["stages"]) == set(two[0].manifest["stages"])
    assert all(timing["hit"] for timing in record["stages"].values())
    assert (tmp_path / "two" / "manifest.json").read_bytes() == two[1]


def test_the_run_record_holds_the_peak_rss_of_the_report_not_of_its_parent(synth_corpus, tmp_path):
    # ru_maxrss on Linux keeps, across exec, the peak of the process that
    # spawned the report: here one that holds 256 MB
    events_path, _ = synth_corpus
    spawned = run_python("""
import subprocess, sys
held = b"x" * (256 << 20)
subprocess.run([sys.executable, "-m", "intercom.cli", "report", "--corpus", sys.argv[1],
                "--out", sys.argv[2]], check=True)
""", events_path, tmp_path / "out")
    assert spawned.returncode == 0, spawned.stderr
    assert json.loads((tmp_path / "out" / RUN_RECORD).read_text())["peak_rss_mb"] < 128


def test_run_record_ingest_entry_holds_only_its_timings(tmp_path):
    events = [post("p0", "u", "A", BASE), comment("c0", "v", "A", BASE + 1, "p0")]
    path = write_events(tmp_path / "events.jsonl", events)
    with open(path, "a", encoding="utf-8") as fh:
        # a lone surrogate, which the input rule rejects
        fh.write('{"kind": "post", "id": "p1", "author": "u", "community": "A", '
                 '"timestamp": 1, "body": "\\ud800"}\n')
        fh.write("not json\n")
    config = Config(corpus=str(path), output_dir=str(tmp_path / "out"))

    def report():
        result = run_pipeline(config)
        return result, json.loads((result.output_dir / RUN_RECORD).read_text())

    result, record = report()
    assert set(record["stages"]["ingest"]) == {"hit", "wall_s", "cpu_s"}
    assert json.loads((result.output_dir / "ingest.json").read_text()) == {
        "lines": 4, "posts": 1, "comments": 1, "rejected": 2, "dangling_comments": 0}
    result, record = report()
    assert "ingest" in result.cache_hits
    assert set(record["stages"]["ingest"]) == {"hit", "wall_s", "cpu_s"}


def test_pipeline_empty_corpus(tmp_path, caplog):
    events_path = write_events(tmp_path / "empty.jsonl", [])
    config = Config(corpus=str(events_path), output_dir=str(tmp_path / "run"))
    with caplog.at_level(logging.WARNING, logger="intercom.pipeline"):
        result = run_pipeline(config)
    validate_bundle(result.output_dir)
    baseline = json.loads((result.output_dir / "baseline.json").read_text())
    assert baseline["fallback"] is True
    assert baseline["value"] == 1.6
    assert [(r.name, r.getMessage()) for r in caplog.records if r.name == "intercom.pipeline"] == [
        ("intercom.pipeline", "no eligible matched pairs; using default baseline 1.600")]
    assert (result.output_dir / "mobilizations.jsonl").read_text() == ""


def test_pipeline_requires_paths():
    with pytest.raises(ConfigError):
        run_pipeline(Config())


def test_validate_bundle_detects_tampering(synth_corpus, tmp_path):
    events_path, _ = synth_corpus
    out = tmp_path / "run"
    run_pipeline(Config(corpus=str(events_path), output_dir=str(out), seed=3))
    (out / "baseline.json").write_text("{}")
    with pytest.raises(ValueError, match="hash mismatch"):
        validate_bundle(out)


def test_pipeline_rerun_with_changed_config_reruns_downstream(synth_corpus, tmp_path):
    events_path, _ = synth_corpus
    out = tmp_path / "run"
    run_pipeline(Config(corpus=str(events_path), output_dir=str(out), seed=3))
    changed = dict(corpus=str(events_path), seed=3, window_hours=3.0, baseline="2.5")
    rerun = run_pipeline(Config(output_dir=str(out), **changed))
    # every stage reads the window or sits downstream of crosslinks/baseline
    assert rerun.cache_hits == ["ingest"]
    assert json.loads((out / "baseline.json").read_text())["mode"] == "fixed"
    run_pipeline(Config(output_dir=str(tmp_path / "fresh"), **changed))
    assert bundle_bytes(out) == bundle_bytes(tmp_path / "fresh")


def test_pipeline_rerun_with_changed_corpus_misses_every_stage(synth_corpus, tmp_path):
    events_path, _ = synth_corpus
    corpus = tmp_path / "events.jsonl"
    corpus.write_bytes(Path(events_path).read_bytes())
    out = tmp_path / "run"
    run_pipeline(Config(corpus=str(corpus), output_dir=str(out), seed=3))
    with open(corpus, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"kind": "post", "id": "late", "author": "u_late",
                             "community": "c_late", "timestamp": 2e9, "body": "hi"}) + "\n")
    rerun = run_pipeline(Config(corpus=str(corpus), output_dir=str(out), seed=3))
    assert rerun.cache_hits == []
    run_pipeline(Config(corpus=str(corpus), output_dir=str(tmp_path / "fresh"), seed=3))
    assert bundle_bytes(out) == bundle_bytes(tmp_path / "fresh")


def test_pipeline_rerun_with_changed_lexicon_reruns_its_readers(synth_corpus, tmp_path):
    events_path, _ = synth_corpus
    lexicon = tmp_path / "lexicon"
    lexicon.mkdir()
    for path in (Path(intercom.__file__).parent / "data" / "lexicons").glob("*.txt"):
        (lexicon / path.name).write_bytes(path.read_bytes())
    config = dict(corpus=str(events_path), output_dir=str(tmp_path / "run"),
                  lexicon_dir=str(lexicon), seed=3)
    run_pipeline(Config(**config))
    with open(lexicon / "anger.txt", "a", encoding="utf-8") as fh:
        fh.write("grumpy\n")
    rerun = run_pipeline(Config(**config))
    assert rerun.cache_hits == ["ingest", "crosslinks", "baseline", "detect"]


def test_raised_stage_version_reruns_it_and_downstream(synth_corpus, tmp_path, monkeypatch):
    events_path, _ = synth_corpus
    config = dict(corpus=str(events_path), seed=3)
    out = tmp_path / "run"
    run_pipeline(Config(output_dir=str(out), **config))
    detect = STAGES["detect"]
    monkeypatch.setitem(STAGES, "detect", detect._replace(version=detect.version + 1))
    rerun = run_pipeline(Config(output_dir=str(out), **config))
    # replynet and impact read the records; sentiment does not
    assert rerun.cache_hits == ["ingest", "crosslinks", "baseline", "sentiment"]
    run_pipeline(Config(output_dir=str(tmp_path / "fresh"), **config))
    assert bundle_bytes(out) == bundle_bytes(tmp_path / "fresh")


def test_manifest_hashes_only_declared_outputs(synth_corpus, tmp_path):
    events_path, _ = synth_corpus
    out = tmp_path / "run"
    out.mkdir()
    (out / "notes.txt").write_text("scratch\n")
    result = run_pipeline(Config(corpus=str(events_path), output_dir=str(out), seed=3))
    declared = {f for stage in STAGES.values() if not stage.enabled_by for f in stage.outputs}
    assert set(result.manifest["files"]) == declared
    (out / "notes.txt").write_text("edited\n")
    validate_bundle(out)


def test_no_module_imports_pickle():
    package = Path(intercom.__file__).parent
    importers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "pickle" in names:
                importers.add(path.name)
    assert importers == set()


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports names only to re-export them
    package = Path(intercom.__file__).parent
    unused = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, used = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
        unused.update(f"{path.name}: {name}" for name in imported - used)
    assert unused == set()


def unread_names(sources: dict[str, str]) -> set[str]:
    # every module-level function, class and assignment, and every method
    # but a dunder, must be read by some other statement of the package: a
    # name only the tests read belongs in tests/. Dataclass and NamedTuple
    # fields are left out, since the package reads them by unpacking.
    defined, reads = set(), []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            # (names a statement defines, its nodes); each method is a
            # statement of its own, apart from the rest of its class
            if isinstance(node, ast.ClassDef):
                methods = [sub for sub in node.body if isinstance(sub, ast.FunctionDef)]
                statements = [({node.name}, [sub for sub in node.body if sub not in methods]
                                + node.bases + node.keywords + node.decorator_list)]
                statements += [({method.name}, [method]) for method in methods]
            elif isinstance(node, ast.FunctionDef):
                statements = [({node.name}, [node])]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                statements = [({t.id for t in targets if isinstance(t, ast.Name)}, [node])]
            else:
                statements = [(set(), [node])]
            for names, nodes in statements:
                defined.update((module, name) for name in names
                               if not (name.startswith("__") and name.endswith("__")))
                read = set()
                for sub in (sub for part in nodes for sub in ast.walk(part)):
                    if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
                        read.add(sub.id)
                    elif isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Store):
                        read.add(sub.attr)
                    elif isinstance(sub, ast.ImportFrom):
                        read.update(a.name for a in sub.names)
                reads.append((names, read))
    return {f"{module}: {name}" for module, name in defined
            if not any(name in read and name not in names for names, read in reads)}


def test_no_module_defines_a_name_nothing_reads():
    package = Path(intercom.__file__).parent
    assert unread_names({path.name: path.read_text(encoding="utf-8")
                         for path in package.glob("*.py")}) == set()


def test_the_name_guard_flags_names_only_their_own_statement_reads():
    sources = {
        "a.py": (
            "from dataclasses import dataclass\n"
            "LIMIT = 3\n"
            "UNUSED = 4\n"
            "def helper(n):\n"
            "    return n + LIMIT\n"
            "def recurse(n):\n"
            "    return recurse(n - 1) if n else 0\n"
            "@dataclass\n"
            "class Box:\n"
            "    size: int\n"
            "    def __len__(self):\n"
            "        return self.size\n"
            "    def grow(self):\n"
            "        return Box(helper(self.size))\n"
            "    def spare(self):\n"
            "        return self.spare()\n"
        ),
        "b.py": "from a import Box\nprint(Box(1).grow())\n",
    }
    # a name read only by its own statement, a method read only in its own
    # body and a name nothing reads are flagged; a field and a dunder are not
    assert unread_names(sources) == {"a.py: UNUSED", "a.py: recurse", "a.py: spare"}
    sources["b.py"] += "print(UNUSED, recurse, Box.spare)\n"
    assert unread_names(sources) == set()


def test_pickled_sentiment_model_is_rejected_unread(synth_corpus, tmp_path):
    events_path, _ = synth_corpus
    canary = tmp_path / "canary"
    model = write_canary_pickle(tmp_path / "sentiment_model.pkl", canary)
    with pytest.raises(StageError) as info:
        run_pipeline(Config(corpus=str(events_path), output_dir=str(tmp_path / "run"),
                            sentiment_model=str(model)))
    assert info.value.stage == "sentiment"
    assert isinstance(info.value.cause, ValueError)
    assert not canary.exists()


def test_replynet_runs_two_pageranks_per_mobilization_with_the_config(synth_corpus, tmp_path, monkeypatch):
    events_path, _ = synth_corpus
    calls = []

    def counting(graphs, teleport_set="all", **kwargs):
        calls.append((len(graphs), teleport_set, kwargs))
        return original(graphs, teleport_set, **kwargs)

    original = replynet.group_pagerank
    monkeypatch.setattr(replynet, "group_pagerank", counting)
    config = Config(corpus=str(events_path), output_dir=str(tmp_path), alpha=0.3,
                    pagerank_tol=1e-9, pagerank_max_iter=5000)
    run = Run(config)
    rows = run.replynet_rows
    eligible = [r.id for r in run.mobilized if r.attackers and r.defenders]
    assert rows and [row[0] for row in rows] == eligible
    # one batch per teleport set, each holding every eligible mobilization's graph
    assert calls == [(len(eligible), group, {"alpha": 0.3, "tol": 1e-9, "max_iter": 5000})
                     for group in ("attackers", "defenders")]


def test_a_pagerank_that_cannot_converge_fails_the_replynet_stage(synth_corpus, tmp_path):
    events_path, _ = synth_corpus
    with pytest.raises(StageError) as info:
        run_pipeline(Config(corpus=str(events_path), output_dir=str(tmp_path / "run"),
                            pagerank_max_iter=1))
    assert info.value.stage == "replynet" and "'replynet'" in str(info.value)
    assert isinstance(info.value.cause, replynet.ConvergenceError)
    assert info.value.cause.iterations == 1


@pytest.mark.parametrize("changed, hits", [
    # replynet re-runs and recomputes the cached links, baseline and records
    ({"alpha": 0.3}, ["ingest", "crosslinks", "baseline", "detect", "sentiment"]),
    # impact re-runs and recomputes the cached records and reply-network rows
    ({"seed": 4}, ["ingest", "crosslinks", "baseline", "detect", "sentiment", "replynet"]),
], ids=["alpha", "seed"])
def test_partial_rerun_recomputes_reused_values(synth_corpus, tmp_path, changed, hits):
    events_path, _ = synth_corpus
    out = tmp_path / "run"
    run_pipeline(Config(corpus=str(events_path), output_dir=str(out), seed=3))
    config = {"corpus": str(events_path), "seed": 3, **changed}
    rerun = run_pipeline(Config(output_dir=str(out), **config))
    assert rerun.cache_hits == hits
    run_pipeline(Config(output_dir=str(tmp_path / "fresh"), **config))
    assert bundle_bytes(out) == bundle_bytes(tmp_path / "fresh")


def _fallback_corpus():
    """Three cross-links from community A, one per fallback of the null model.

    * pa1 -> pb1 (B): a mobilization. Its matched post pb2 gives the one
      eligible baseline pair (pre-counts 2 and 0, ratio 1.0). Attackers
      a1..a5 all commented in the thread, so none has a matched user;
      defenders b1, b2 are matched among s1..s6 (B members, not in the
      thread). a1, a2 and b1 comment 5-6 days after t0; the other 4 impact
      records have no comment in the after window (low support).
    * pa2 -> pc1: pc1 is the only post of C, so the link has no matched
      post and no matched thread.
    * pa3 -> pb3, 20 days earlier: s1..s6 make 6 pre-window comments on pb3
      and none on its matched post pb4, so the pair is skipped for its
      pre-count difference.
    """
    t0 = BASE + 50 * DAY + 15 * HOUR
    t3 = t0 - 20 * DAY
    events = [
        post("pa0", "author0", "A", BASE + 10 * DAY),
        post("pb0", "author0", "B", BASE + 10 * DAY + HOUR),
        post("pb1", "target_author", "B", t0 - 14 * HOUR),
        post("pb2", "target_author", "B", t0 - 14 * HOUR + 600),
        post("pa1", "linker", "A", t0, body="r/B/comments/pb1"),
        post("pc1", "c_author", "C", t0 - 10 * HOUR),
        post("pa2", "linker", "A", t0 + 60, body="r/C/comments/pc1"),
        post("pb3", "target_author", "B", t3 - 14 * HOUR),
        post("pb4", "target_author", "B", t3 - 14 * HOUR + 300),
        post("pa3", "linker", "A", t3, body="r/B/comments/pb3"),
    ]
    for i in range(1, 6):
        events.append(comment(f"m{i}", f"a{i}", "A", t0 - 10 * DAY + i, "pa0"))
    for i in (1, 2):
        events.append(comment(f"d{i}", f"b{i}", "B", t0 - 9 * DAY + i, "pb0"))
    events.append(comment("pre1", "a1", "B", t0 - 2 * HOUR, "pb1"))
    events.append(comment("pre2", "a2", "B", t0 - 1 * HOUR, "pb1"))
    for k in range(9):
        events.append(comment(f"aft{k}", f"a{1 + k % 5}", "B", t0 + 600 + k * 60, "pb1"))
    events.append(comment("def1", "b1", "B", t0 + 3600, "pb1", parent_id="aft0"))
    events.append(comment("def2", "b2", "B", t0 + 4000, "pb1"))
    for user, days in (("a1", 5), ("a2", 5), ("b1", 6)):
        events.append(comment(f"late_{user}", user, "B", t0 + days * DAY, "pb0"))
    for i in range(1, 7):
        events.append(comment(f"s_home{i}", f"s{i}", "A", BASE + 15 * DAY + i, "pa0"))
        events.append(comment(f"s_pre{i}", f"s{i}", "B", t3 - HOUR + i, "pb3"))
    return events


def test_stage_info_counts_every_fallback(tmp_path):
    events_path = write_events(tmp_path / "events.jsonl", _fallback_corpus())
    result = run_pipeline(Config(corpus=str(events_path), output_dir=str(tmp_path / "run")))
    stages = result.manifest["stages"]
    assert stages["crosslinks"]["links"] == 3
    assert {k: stages["baseline"][k] for k in
            ("value", "eligible_pairs", "no_matched_post", "precount_skipped")} == {
        "value": 1.0, "eligible_pairs": 1, "no_matched_post": 1, "precount_skipped": 1}
    assert {k: v for k, v in stages["detect"].items() if k not in ("key", "outputs")} == {
        "records": 3, "mobilizations": 1}
    assert {k: stages["impact"][k] for k in
            ("outcomes", "no_matched_attacker", "no_matched_defender", "low_support")} == {
        "outcomes": 1, "no_matched_attacker": 5, "no_matched_defender": 0, "low_support": 4}


def test_replynet_stage_counts_pagerank_iterations(synth_corpus, tmp_path):
    events_path, _ = synth_corpus
    config = Config(corpus=str(events_path), output_dir=str(tmp_path / "run"))
    info = run_pipeline(config).manifest["stages"]["replynet"]
    run, iterations = Run(config), []
    for record in run.mobilized:
        if record.attackers and record.defenders:
            graph = replynet.thread_graph(run.corpus, record)
            iterations += [replynet.group_pagerank([graph], group, alpha=config.alpha,
                                                   tol=config.pagerank_tol,
                                                   max_iter=config.pagerank_max_iter)[0].iterations
                           for group in ("attackers", "defenders")]
    assert len(iterations) == 2 * info["rows"] > 0
    assert info["pagerank_iterations_max"] == max(iterations)
    assert info["pagerank_iterations_mean"] == sum(iterations) / len(iterations)

    none_ran = run_pipeline(Config(corpus=str(events_path), output_dir=str(tmp_path / "none"),
                                   baseline="1000")).manifest["stages"]["replynet"]
    assert none_ran["rows"] == 0
    assert none_ran["pagerank_iterations_max"] is None
    assert none_ran["pagerank_iterations_mean"] is None


def test_every_mobilized_records_reply_graph_groups_are_its_sets(tmp_path):
    """The groups every replynet column reads are the attackers and defenders
    the anger rates and the impact stage read."""
    events_path, _ = generate_corpus(SynthSpec(), tmp_path / "world")  # 60 links
    run = Run(Config(corpus=str(events_path), output_dir=str(tmp_path / "run")))
    assert len(run.mobilized) > 10
    for record in run.mobilized:
        graph = replynet.thread_graph(run.corpus, record)
        assert graph.users_in_group("attacker") == record.attackers
        assert graph.users_in_group("defender") == record.defenders


def test_a_name_with_whitespace_is_rejected_and_embed_and_predict_run(synth_corpus, tmp_path):
    events_path, _ = synth_corpus
    records = [json.loads(line) for line in Path(events_path).read_text().splitlines()]
    renamed = next(r for r in records if r["kind"] == "post")
    renamed["author"] = "a b"
    path = tmp_path / "events.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "run"
    run_pipeline(Config(corpus=str(path), output_dir=str(out), embed_enabled=True,
                        predict_enabled=True, embed_dim=8, embed_epochs=2, hidden_size=4,
                        predict_epochs=1, ensemble_trees=5, seed=3))
    assert json.loads((out / "ingest.json").read_text())["rejected"] == 1
    users = load_vectors(out / "users.vec")
    assert "a b" not in users and "a" not in users
    assert json.loads((out / "predict.json").read_text())["examples"] > 0


def test_fixed_baseline_has_no_pair_counts(synth_corpus, tmp_path):
    events_path, _ = synth_corpus
    config = Config(corpus=str(events_path), output_dir=str(tmp_path / "run"), baseline="1.6")
    result = run_pipeline(config)
    info = result.manifest["stages"]["baseline"]
    # the links without a matched post are counted whatever the baseline mode
    assert set(info) == {"key", "outputs", "value", "no_matched_post"}
    assert info["no_matched_post"] == sum(m.matched_before is None for m in Run(config).measured)


def test_predict_stage_runs_one_lstm_forward_per_link(synth_corpus, tmp_path, monkeypatch):
    """After training, every link's sequence enters exactly one batched
    forward (one column of one ``lstm.forward_padded`` call)."""
    events_path, _ = synth_corpus
    config = Config(corpus=str(events_path), output_dir=str(tmp_path), embed_enabled=True,
                    predict_enabled=True, embed_dim=8, embed_epochs=2, hidden_size=6,
                    predict_epochs=1, ensemble_trees=5, seed=3)
    run = Run(config)
    stages.stage_embed(run)
    padded, forwards, datasets = [], [], []

    def recording_pad(seqs, input_dim):
        padded.append([id(seq) for seq in seqs])
        return original_pad(seqs, input_dim)

    def counting_forward(X, params):
        forwards.append(X.shape[1])
        return original_forward(X, params)

    def train_then_count(*args, **kwargs):
        dataset, result = original_train(*args, **kwargs)
        datasets.append(dataset)
        padded.clear()  # count only the forwards after training
        forwards.clear()
        return dataset, result

    original_pad, original_forward, original_train = lstm.pad, lstm.forward_padded, stages.train_lstm
    monkeypatch.setattr(lstm, "pad", recording_pad)
    monkeypatch.setattr(lstm, "forward_padded", counting_forward)
    monkeypatch.setattr(stages, "train_lstm", train_then_count)
    stages.stage_predict(run)
    assert forwards == [len(ids) for ids in padded]
    entered = sorted(i for ids in padded for i in ids)
    assert entered == sorted(id(seq) for seq in datasets[0].sequences)
    assert len(entered) == len(datasets[0].links) > 0
