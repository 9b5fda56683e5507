import json

import pytest

from intercom.cli import main
from intercom.synth import SynthSpec, generate_corpus

from conftest import write_canary_pickle


@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_synth")
    spec = SynthSpec(n_communities=4, n_crosslinks=8, background_posts_per_community=10,
                     background_comments_per_user=6, seed=2)
    events_path, manifest = generate_corpus(spec, out)
    return str(events_path), manifest


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["detect"])  # missing --corpus
    assert exit_info.value.code == 1


def test_data_error_exit_code(capsys):
    assert main(["crosslinks", "--corpus", "/nonexistent/events.jsonl"]) == 2


def test_synth_command(tmp_path, capsys):
    code = main(["synth", "--out", str(tmp_path / "s"), "--n-communities", "4",
                 "--n-crosslinks", "4", "--seed", "1"])
    assert code == 0
    assert (tmp_path / "s/events.jsonl").exists()
    assert (tmp_path / "s/manifest.json").exists()


def test_ingest_and_crosslinks(synth, tmp_path, capsys):
    events_path, manifest = synth
    index = tmp_path / "index"
    assert main(["ingest", events_path, "--index-out", str(index)]) == 0
    out = capsys.readouterr().out
    assert "rejected=0" in out
    assert (index / "stats.json").exists()

    links_file = tmp_path / "links.jsonl"
    assert main(["crosslinks", "--corpus", events_path, "--out", str(links_file)]) == 0
    links = [json.loads(line) for line in links_file.read_text().splitlines()]
    assert {l["source_post"] for l in links} == {m["source_post"] for m in manifest["links"]}


def test_detect_command(synth, tmp_path, capsys):
    events_path, manifest = synth
    out_file = tmp_path / "mob.jsonl"
    assert main(["detect", "--corpus", events_path, "--baseline", "auto",
                 "--out", str(out_file)]) == 0
    records = [json.loads(line) for line in out_file.read_text().splitlines()]
    detected = sum(1 for r in records if r["verdict"] == "mobilization")
    assert detected == manifest["counts"]["mobilizations"]


def test_match_command(synth, capsys):
    events_path, manifest = synth
    target = manifest["links"][0]["target_post"]
    assert main(["match", "--corpus", events_path, "--post", target]) == 0
    pair = json.loads(capsys.readouterr().out)
    assert pair["subject_id"] == target
    assert pair["match_id"] == manifest["links"][0]["matched_post"]


def test_replynet_command(synth, tmp_path, capsys):
    events_path, manifest = synth
    hot = next(m for m in manifest["links"] if m["mobilization"])
    edges_file = tmp_path / "edges.txt"
    assert main(["replynet", "--corpus", events_path, "--mobilization", hot["source_post"],
                 "--out", str(edges_file)]) == 0
    lines = edges_file.read_text().splitlines()
    assert lines
    parts = lines[0].split()
    assert len(parts) == 5
    assert parts[3] in ("attacker", "defender", "other")


def test_sentiment_train_and_predict(synth, tmp_path, capsys):
    events_path, manifest = synth
    labels_file = tmp_path / "labels.csv"
    with open(labels_file, "w") as fh:
        for m in manifest["links"]:
            fh.write(f"{m['source_post']},{m['sentiment']}\n")
    model_file = tmp_path / "model.bin"
    assert main(["sentiment", "train", "--corpus", events_path, "--labels", str(labels_file),
                 "--model", str(model_file), "--trees", "20"]) == 0
    assert model_file.exists()

    out_file = tmp_path / "sentiment.jsonl"
    assert main(["sentiment", "predict", "--corpus", events_path,
                 "--model", str(model_file), "--out", str(out_file)]) == 0
    rows = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert len(rows) == len(manifest["links"])
    by_source = {m["source_post"]: m["sentiment"] for m in manifest["links"]}
    agreement = sum(1 for r in rows if r["label"] == by_source[r["source_post"]])
    assert agreement / len(rows) >= 0.75  # lexicon-separable bodies


def test_sentiment_predict_rejects_a_pickled_model_unread(synth, tmp_path, capsys):
    events_path, _ = synth
    canary = tmp_path / "canary"
    model = write_canary_pickle(tmp_path / "model.pkl", canary)
    assert main(["sentiment", "predict", "--corpus", events_path, "--model", str(model),
                 "--out", str(tmp_path / "sentiment.jsonl")]) == 2
    assert not canary.exists()


def test_embed_and_predict_commands(synth, tmp_path, capsys):
    events_path, _ = synth
    emb_dir = tmp_path / "emb"
    assert main(["embed", "--corpus", events_path, "--out", str(emb_dir),
                 "--dim", "8", "--epochs", "3"]) == 0
    for name in ("users.vec", "communities.vec", "words.vec"):
        assert (emb_dir / name).exists()

    model_file = tmp_path / "lstm.pkl"
    assert main(["predict", "train", "--corpus", events_path, "--embeddings", str(emb_dir),
                 "--model", str(model_file), "--hidden", "4",
                 "--epochs", "2"]) == 0
    assert model_file.exists()

    scores_file = tmp_path / "scores.jsonl"
    assert main(["predict", "score", "--corpus", events_path, "--embeddings", str(emb_dir),
                 "--model", str(model_file), "--out", str(scores_file)]) == 0
    rows = [json.loads(line) for line in scores_file.read_text().splitlines()]
    assert rows and all(0.0 < r["p_mobilization"] < 1.0 for r in rows)


def test_report_command(synth, tmp_path, capsys):
    events_path, _ = synth
    config_file = tmp_path / "run.conf"
    config_file.write_text("seed = 4\n")
    out_dir = tmp_path / "bundle"
    assert main(["report", "--config", str(config_file), "--corpus", events_path,
                 "--out", str(out_dir)]) == 0
    assert (out_dir / "manifest.json").exists()


def test_impact_command(synth, tmp_path):
    events_path, _ = synth
    out_dir = tmp_path / "impact"
    assert main(["impact", "--corpus", events_path, "--out", str(out_dir)]) == 0
    assert (out_dir / "impact.csv").exists()
    assert (out_dir / "stat_tests.json").exists()


def test_cli_embed_and_predict_match_report(tmp_path, capsys):
    spec = SynthSpec(n_communities=4, n_crosslinks=80, background_posts_per_community=10,
                     background_comments_per_user=6, seed=2)
    events_path, _ = generate_corpus(spec, tmp_path / "synth")
    events_path = str(events_path)
    bundle = tmp_path / "bundle"
    settings = ["embed_enabled=true", "predict_enabled=true", "embed_dim=8", "embed_epochs=3",
                "embed_negatives=3", "hidden_size=4", "predict_epochs=2", "predict_lr=0.02",
                "ensemble_trees=5", "seed=5"]
    assert main(["report", "--corpus", events_path, "--out", str(bundle)]
                + [arg for kv in settings for arg in ("--set", kv)]) == 0

    emb_dir = tmp_path / "emb"
    assert main(["embed", "--corpus", events_path, "--out", str(emb_dir), "--dim", "8",
                 "--epochs", "3", "--negatives", "3", "--seed", "5"]) == 0
    for name in ("users.vec", "communities.vec", "words.vec"):
        assert (emb_dir / name).read_bytes() == (bundle / name).read_bytes(), name
    model_file = tmp_path / "lstm.json"
    assert main(["predict", "train", "--corpus", events_path, "--embeddings", str(emb_dir),
                 "--model", str(model_file), "--hidden", "4", "--epochs", "2", "--lr", "0.02",
                 "--seed", "5"]) == 0
    assert model_file.read_bytes() == (bundle / "lstm_model.json").read_bytes()

    capsys.readouterr()
    assert main(["predict", "eval", "--corpus", events_path, "--embeddings", str(bundle),
                 "--model", str(bundle / "lstm_model.json")]) == 0
    predict = json.loads((bundle / "predict.json").read_text())
    assert capsys.readouterr().out == (
        f"test AUC = {predict['lstm_test_auc']:.4f} on {predict['test']} examples\n")
