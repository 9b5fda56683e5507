import argparse
import csv
import dataclasses
import json
from pathlib import Path

import pytest

from intercom import embed as embed_mod
from intercom.cli import build_parser, main
from intercom.pipeline import (REPLYNET_HEADER, RUN_RECORD, STAGE_ORDER, Config, Run, substream_seed,
                               train_lstm)
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


def test_set_without_equals_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["report", "--set", "seed"])
    assert exit_info.value.code == 1
    assert "argument --set: expected KEY=VALUE, got 'seed'" in capsys.readouterr().err


def test_no_analysis_command_declares_a_config_field_flag():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert "impact" not in sub.choices
    fields = {f.name for f in dataclasses.fields(Config)} - {"corpus", "output_dir"}
    for name, p in sub.choices.items():
        if name == "synth":  # its flags set SynthSpec fields
            continue
        assert not {action.dest for action in p._actions} & fields, name


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
    assert main(["detect", "--corpus", events_path, "--set", "baseline=auto",
                 "--out", str(out_file)]) == 0
    records = [json.loads(line) for line in out_file.read_text().splitlines()]
    detected = sum(1 for r in records if r["verdict"] == "mobilization")
    assert detected == manifest["counts"]["mobilizations"]


def test_detect_takes_a_fixed_baseline_from_set(synth, capsys):
    events_path, _ = synth
    assert main(["detect", "--corpus", events_path, "--set", "baseline=2.5"]) == 0
    assert "baseline=2.5000 (fixed)" in capsys.readouterr().err


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


def test_replynet_row_matches_the_report_bundle(synth, tmp_path, capsys):
    events_path, _ = synth
    bundle = tmp_path / "bundle"
    assert main(["report", "--corpus", events_path, "--out", str(bundle),
                 "--set", "alpha=0.5"]) == 0
    with open(bundle / "replynet.csv", newline="") as fh:
        header, first, *_ = csv.reader(fh)
    assert header == REPLYNET_HEADER
    expected = dict(zip(header, [first[0], *(None if v == "" else float(v) for v in first[1:])]))
    capsys.readouterr()

    def replynet_row(*sets):
        assert main(["replynet", "--corpus", events_path, "--mobilization", first[0],
                     "--out", str(tmp_path / "edges.txt"), *sets]) == 0
        return json.loads(capsys.readouterr().err)

    assert replynet_row("--set", "alpha=0.5") == expected
    assert replynet_row()["mean_defender_apr"] != expected["mean_defender_apr"]


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
                 "--set", "embed_dim=8", "--set", "embed_epochs=3"]) == 0
    for name in ("users.vec", "communities.vec", "words.vec"):
        assert (emb_dir / name).exists()

    model_file = tmp_path / "lstm.pkl"
    assert main(["predict", "train", "--corpus", events_path, "--embeddings", str(emb_dir),
                 "--model", str(model_file), "--set", "hidden_size=4",
                 "--set", "predict_epochs=2"]) == 0
    assert model_file.exists()

    scores_file = tmp_path / "scores.jsonl"
    assert main(["predict", "score", "--corpus", events_path, "--embeddings", str(emb_dir),
                 "--model", str(model_file), "--out", str(scores_file)]) == 0
    rows = [json.loads(line) for line in scores_file.read_text().splitlines()]
    assert rows and all(0.0 < r["p_mobilization"] < 1.0 for r in rows)


def test_predict_score_backs_off_for_an_author_without_a_vector(synth, tmp_path, caplog):
    events_path, _ = synth
    emb_dir, model_file = tmp_path / "emb", tmp_path / "lstm.json"
    sets = ["--set", "embed_dim=4", "--set", "embed_epochs=2", "--set", "hidden_size=4",
            "--set", "predict_epochs=1"]
    assert main(["embed", "--corpus", events_path, "--out", str(emb_dir)] + sets) == 0
    assert main(["predict", "train", "--corpus", events_path, "--embeddings", str(emb_dir),
                 "--model", str(model_file)] + sets) == 0
    links_file = tmp_path / "links.jsonl"
    assert main(["crosslinks", "--corpus", events_path, "--out", str(links_file)]) == 0
    links = [json.loads(line) for line in links_file.read_text().splitlines()]
    author = links[0]["author"]
    header, *rows = (emb_dir / "users.vec").read_text().splitlines()
    kept = [row for row in rows if row.split()[0] != author]
    count, dim = header.split()
    (emb_dir / "users.vec").write_text("\n".join([f"{int(count) - 1} {dim}", *kept]) + "\n")

    scores_file = tmp_path / "scores.jsonl"
    caplog.clear()
    assert main(["predict", "score", "--corpus", events_path, "--embeddings", str(emb_dir),
                 "--model", str(model_file), "--out", str(scores_file)]) == 0
    rows = [json.loads(line) for line in scores_file.read_text().splitlines()]
    assert [r["source_post"] for r in rows] == [l["source_post"] for l in links]
    n_backoff = sum(1 for l in links if l["author"] == author)
    assert f"{n_backoff} links used the mean user vector" in caplog.text


def test_report_command(synth, tmp_path, capsys):
    events_path, _ = synth
    config_file = tmp_path / "run.conf"
    config_file.write_text("seed = 4\n")
    out_dir = tmp_path / "bundle"
    assert main(["report", "--config", str(config_file), "--corpus", events_path,
                 "--out", str(out_dir)]) == 0
    assert (out_dir / "manifest.json").exists()


def test_report_verbose_prints_one_line_per_stage(synth, tmp_path, capsys):
    events_path, _ = synth
    quiet, loud = tmp_path / "quiet", tmp_path / "loud"
    assert main(["report", "--corpus", events_path, "--out", str(quiet)]) == 0
    quiet_out = capsys.readouterr().out
    assert main(["report", "-v", "--corpus", events_path, "--out", str(loud)]) == 0
    captured = capsys.readouterr()
    assert captured.out == quiet_out.replace(str(quiet), str(loud))
    assert {p.name: p.read_bytes() for p in quiet.iterdir() if p.name != RUN_RECORD} == \
        {p.name: p.read_bytes() for p in loud.iterdir() if p.name != RUN_RECORD}

    stages = json.loads((loud / "manifest.json").read_text())["stages"]
    lines = [line for line in captured.err.splitlines() if line.startswith("stage ")]
    assert [line.split(":")[0] for line in lines] == \
        [f"stage {name}" for name in STAGE_ORDER if name in stages]
    assert all(line.split(": ")[1].startswith("ran") for line in lines)
    by_stage = {line.split(":")[0][len("stage "):]: line for line in lines}
    baseline = stages["baseline"]
    assert by_stage["baseline"] == (
        f"stage baseline: ran eligible_pairs={baseline['eligible_pairs']} "
        f"no_matched_post={baseline['no_matched_post']} "
        f"precount_skipped={baseline['precount_skipped']} value={baseline['value']}")
    crosslinks = stages["crosslinks"]
    assert by_stage["crosslinks"] == (
        f"stage crosslinks: ran links={crosslinks['links']} "
        f"overlap_removed={crosslinks['overlap_removed']} "
        f"unknown_target={crosslinks['unknown_target']}")
    assert f"no_matched_thread={stages['detect']['no_matched_thread']}" in by_stage["detect"]
    assert f"low_support={stages['impact']['low_support']}" in by_stage["impact"]
    assert by_stage["report"] == "stage report: ran"

    # the flag also works before the command; a re-run hits every stage
    assert main(["-v", "report", "--corpus", events_path, "--out", str(loud)]) == 0
    lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("stage ")]
    assert len(lines) == len(stages)
    assert all(line.split(": ")[1].startswith("hit") for line in lines)


@pytest.mark.parametrize("setting", ["baseline=nan", "baseline=inf", "pagerank_tol=inf"])
def test_report_rejects_a_non_finite_number(synth, tmp_path, capsys, setting):
    events_path, _ = synth
    out_dir = tmp_path / "bundle"
    assert main(["report", "--corpus", events_path, "--out", str(out_dir),
                 "--set", setting]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out_dir.exists()


def test_report_rejects_a_negative_seed(synth, tmp_path, capsys):
    events_path, _ = synth
    out_dir = tmp_path / "bundle"
    assert main(["report", "--corpus", events_path, "--out", str(out_dir),
                 "--set", "seed=-1"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("malformed", [{"stages": []}, {"files": []}, {"stages": {"ingest": "x"}}])
def test_report_reruns_every_stage_over_a_malformed_manifest(synth, tmp_path, capsys, malformed):
    events_path, _ = synth
    fresh, out_dir = tmp_path / "fresh", tmp_path / "bundle"
    assert main(["report", "--corpus", events_path, "--out", str(fresh)]) == 0
    assert main(["report", "--corpus", events_path, "--out", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    (out_dir / "manifest.json").write_text(json.dumps({**manifest, **malformed}), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--corpus", events_path, "--out", str(out_dir)]) == 0
    assert "cache hits" not in capsys.readouterr().out
    assert ({p.name: p.read_bytes() for p in out_dir.iterdir() if p.name != RUN_RECORD}
            == {p.name: p.read_bytes() for p in fresh.iterdir() if p.name != RUN_RECORD})


def test_readme_cli_lines_parse():
    # every command line of the README's CLI block names real commands and flags
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    lines = [words for words in lines if words and words[0] == "intercom"]
    assert len(lines) >= 14
    parser = build_parser()
    fields = {f.name for f in dataclasses.fields(Config)}
    for words in lines:
        args = parser.parse_args(words[1:])
        assert callable(args.fn), words
        assert {key for key, _ in getattr(args, "set", [])} <= fields, words


def test_impact_command(synth, tmp_path):
    events_path, _ = synth
    out_dir = tmp_path / "impact"
    assert main(["report", "--corpus", events_path, "--out", str(out_dir)]) == 0
    assert (out_dir / "impact.csv").exists()
    assert (out_dir / "stat_tests.json").exists()


def test_report_verbose_prints_the_embed_loss_and_the_lstm_log(tmp_path, capsys):
    spec = SynthSpec(n_communities=4, n_crosslinks=40, background_posts_per_community=10,
                     background_comments_per_user=6, seed=2)
    events_path, _ = generate_corpus(spec, tmp_path / "synth")
    out = tmp_path / "bundle"
    settings = {"embed_enabled": True, "predict_enabled": True, "embed_dim": 8, "embed_epochs": 3,
                "embed_negatives": 3, "hidden_size": 4, "predict_epochs": 3, "seed": 5}
    sets = [arg for k, v in settings.items() for arg in ("--set", f"{k}={v}")]
    assert main(["report", "-v", "--corpus", str(events_path), "--out", str(out)] + sets) == 0
    learned = [line for line in capsys.readouterr().err.splitlines()
               if line.startswith(("embed ", "lstm "))]

    run = Run(Config(corpus=str(events_path), output_dir=str(tmp_path / "direct"), **settings))
    graph, seed = embed_mod.build_bipartite(run.corpus), substream_seed(5, "embed")
    table = embed_mod.train_embeddings(graph, dim=8, negatives=3, epochs=3, seed=seed)
    loss = embed_mod.loss(graph, table, seed=seed, sample_size=min(2000, graph.n_edges))
    _, result = train_lstm(run, *embed_mod.load_table(out), tmp_path / "lstm.json")
    assert len(result.log) == 3 and any(entry["val_auc"] is not None for entry in result.log)
    assert learned == [f"embed loss={loss}"] + [
        f"lstm epoch {entry['epoch']}: train_loss={entry['train_loss']} val_auc={entry['val_auc']}"
        for entry in result.log]

    # a re-run reuses every stage and reads the same values back from the bundle
    assert main(["report", "-v", "--corpus", str(events_path), "--out", str(out)] + sets) == 0
    err = capsys.readouterr().err.splitlines()
    assert all(line.split(": ")[1].startswith("hit") for line in err if line.startswith("stage "))
    assert [line for line in err if line.startswith(("embed ", "lstm "))] == learned


def test_cli_embed_and_predict_match_report(tmp_path, capsys):
    spec = SynthSpec(n_communities=4, n_crosslinks=80, background_posts_per_community=10,
                     background_comments_per_user=6, seed=2)
    events_path, _ = generate_corpus(spec, tmp_path / "synth")
    events_path = str(events_path)
    bundle = tmp_path / "bundle"
    settings = ["embed_enabled=true", "predict_enabled=true", "embed_dim=8", "embed_epochs=3",
                "embed_negatives=3", "hidden_size=4", "predict_epochs=2", "predict_lr=0.02",
                "ensemble_trees=5", "seed=5"]
    sets = [arg for kv in settings for arg in ("--set", kv)]
    assert main(["report", "--corpus", events_path, "--out", str(bundle)] + sets) == 0

    emb_dir = tmp_path / "emb"
    assert main(["embed", "--corpus", events_path, "--out", str(emb_dir)] + sets) == 0
    for name in ("users.vec", "communities.vec", "words.vec"):
        assert (emb_dir / name).read_bytes() == (bundle / name).read_bytes(), name
    model_file = tmp_path / "lstm.json"
    assert main(["predict", "train", "--corpus", events_path, "--embeddings", str(emb_dir),
                 "--model", str(model_file)] + sets) == 0
    assert model_file.read_bytes() == (bundle / "lstm_model.json").read_bytes()

    capsys.readouterr()
    assert main(["predict", "eval", "--corpus", events_path, "--embeddings", str(bundle),
                 "--model", str(bundle / "lstm_model.json")]) == 0
    predict = json.loads((bundle / "predict.json").read_text())
    assert capsys.readouterr().out == (
        f"test AUC = {predict['lstm_test_auc']:.4f} on {predict['test']} examples\n")
