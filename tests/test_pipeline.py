import ast
import json
from pathlib import Path

import pytest

import intercom
from intercom import pipeline, replynet
from intercom.pipeline import (
    STAGES,
    Config,
    ConfigError,
    Run,
    StageError,
    apply_overrides,
    load_config,
    run_pipeline,
    substream_seed,
    validate_bundle,
)
from intercom.synth import SynthSpec, generate_corpus

from conftest import write_canary_pickle, write_events


@pytest.fixture(scope="module")
def synth_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    spec = SynthSpec(n_communities=4, n_crosslinks=8, background_posts_per_community=10,
                     background_comments_per_user=6, seed=1)
    events_path, manifest = generate_corpus(spec, out)
    return events_path, manifest


def bundle_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


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


def test_substream_seeds_stable_and_distinct():
    a = substream_seed(0, "impact")
    assert a == substream_seed(0, "impact")
    assert a != substream_seed(0, "embed")
    assert a != substream_seed(1, "impact")


def test_pipeline_full_run(synth_corpus, tmp_path):
    events_path, manifest = synth_corpus
    config = Config(corpus=str(events_path), output_dir=str(tmp_path / "run"),
                    embed_enabled=True, predict_enabled=True,
                    embed_dim=8, embed_epochs=4, hidden_size=6, predict_epochs=2,
                    ensemble_trees=10, seed=3)
    result = run_pipeline(config)
    out = result.output_dir
    for name in ("ingest.json", "crosslinks.jsonl", "baseline.json", "mobilizations.jsonl",
                 "alerts.jsonl", "sentiment.jsonl", "replynet.csv", "impact.csv",
                 "stat_tests.json", "users.vec", "communities.vec", "words.vec",
                 "predict.json", "lstm_model.json", "manifest.json"):
        assert (out / name).exists(), name
    validate_bundle(out)

    records = [json.loads(line) for line in (out / "mobilizations.jsonl").read_text().splitlines()]
    detected = sum(1 for r in records if r["verdict"] == "mobilization")
    assert detected == manifest["counts"]["mobilizations"]
    assert len(records) == len(manifest["links"])
    alerts = [json.loads(line) for line in (out / "alerts.jsonl").read_text().splitlines()]
    assert len(alerts) == detected
    assert all(a["verdict"] == "mobilization" for a in alerts)


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


def test_pipeline_empty_corpus(tmp_path):
    events_path = write_events(tmp_path / "empty.jsonl", [])
    config = Config(corpus=str(events_path), output_dir=str(tmp_path / "run"))
    result = run_pipeline(config)
    validate_bundle(result.output_dir)
    baseline = json.loads((result.output_dir / "baseline.json").read_text())
    assert baseline["fallback"] is True
    assert baseline["value"] == 1.6
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

    def counting(graph, teleport_set="all", **kwargs):
        calls.append(kwargs)
        return original(graph, teleport_set, **kwargs)

    original = replynet.group_pagerank
    monkeypatch.setattr(replynet, "group_pagerank", counting)
    monkeypatch.setattr(pipeline, "group_pagerank", counting)
    config = Config(corpus=str(events_path), output_dir=str(tmp_path), alpha=0.3,
                    pagerank_tol=1e-9, pagerank_max_iter=5000)
    rows = Run(config).replynet_rows
    assert rows and len(calls) == 2 * len(rows)
    assert all(kw == {"alpha": 0.3, "tol": 1e-9, "max_iter": 5000} for kw in calls)
