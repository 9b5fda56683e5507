import argparse
import csv
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import intercom
from intercom import embed as embed_mod
from intercom.cli import build_parser, main
from intercom.pipeline import RUN_RECORD, STAGES, Config
from intercom.replynet import REPLYNET_HEADER
from intercom.stages import Run, substream_seed, train_lstm
from intercom.synth import SynthSpec, generate_corpus

from conftest import run_python, write_canary_pickle


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
    # no command, synth included, declares a flag for a Config or SynthSpec
    # field: settings come from --config and --set, bar the path flags
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert "impact" not in sub.choices
    fields = {name for cls in (Config, SynthSpec) for name in cls.__annotations__}
    fields -= {"corpus", "output_dir"}
    for name, p in sub.choices.items():
        assert not {action.dest for action in p._actions} & fields, name


def test_data_error_exit_code(capsys):
    assert main(["crosslinks", "--corpus", "/nonexistent/events.jsonl"]) == 2


def test_an_output_path_that_is_a_file_is_a_data_error(synth, tmp_path, capsys):
    events_path, _ = synth
    occupied = tmp_path / "occupied"
    occupied.write_text("not a directory\n")
    assert main(["report", "--corpus", events_path, "--out", str(occupied)]) == 2
    assert "internal error" not in capsys.readouterr().err


def test_synth_command(tmp_path, capsys):
    code = main(["synth", "--out", str(tmp_path / "s"), "--set", "n_communities=4",
                 "--set", "n_crosslinks=4", "--set", "seed=1"])
    assert code == 0
    expected = tmp_path / "expected"
    generate_corpus(SynthSpec(n_communities=4, n_crosslinks=4, seed=1), expected)
    for name in ("events.jsonl", "manifest.json"):
        assert (tmp_path / "s" / name).read_bytes() == (expected / name).read_bytes()


MALFORMED_SETTINGS = {
    "nope=1": "unknown config key 'nope'",
    "n_crosslinks=x": "n_crosslinks: expected an integer, got 'x'",
    "seed=true": "seed: expected an integer, got 'true'",
    "users_per_community=2.5": "users_per_community: expected an integer, got '2.5'",
}


@pytest.mark.parametrize("setting", MALFORMED_SETTINGS)
@pytest.mark.parametrize("source", ["set", "config"])
def test_synth_rejects_a_malformed_setting(tmp_path, capsys, setting, source):
    message = MALFORMED_SETTINGS[setting]
    if source == "set":
        args = ["--set", setting]
    else:
        path = tmp_path / "synth.conf"
        path.write_text(f"n_communities = 4\n{setting.replace('=', ' = ')}\n", encoding="utf-8")
        args = ["--config", str(path)]
        message = f"{path}:2: {message}"
    assert main(["synth", "--out", str(tmp_path / "s"), *args]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("field, value, message", [
    ("negative_fraction", 5, "negative_fraction must be in [0, 1]"),
    ("days", -5, "days must be >= 1"),
    ("first_link_day", -100, "first_link_day must be >= 0"),
    ("users_per_community", 3, "users_per_community=3 too small"),
    ("burst_ratio", "inf", "burst_ratio must be finite"),
    ("matched_ratio", "nan", "matched_ratio must be finite"),
])
def test_synth_rejects_a_spec_field_out_of_range(tmp_path, capsys, field, value, message):
    assert main(["synth", "--out", str(tmp_path / "s"), "--set", "n_communities=4",
                 "--set", "n_crosslinks=4", "--set", f"{field}={value}"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_importing_the_cli_does_not_import_the_synth():
    # only ``intercom synth`` needs the generator; every other command skips it
    src = str(Path(intercom.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, intercom.cli; print('intercom.synth' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "False"


def test_the_console_script_exits_with_mains_status_and_output(synth, tmp_path, capsys):
    # the console script freezes the collector's objects on its way out, so
    # that shutdown skips collecting them; status and output stay main's
    events_path, _ = synth
    assert main(["ingest", "--corpus", events_path]) == 0
    expected = capsys.readouterr().out
    script = "import sys; from intercom.cli import console_main; sys.exit(console_main())"
    done = run_python(script, "ingest", "--corpus", events_path)
    assert (done.returncode, done.stdout) == (0, expected)
    missing = run_python(script, "ingest", "--corpus", tmp_path / "missing.jsonl")
    assert (missing.returncode, missing.stdout) == (2, "")
    assert missing.stderr.startswith("error: cannot read event log")
    assert run_python(script).returncode == 1  # no command: a usage error
    frozen = run_python("import gc; from intercom.cli import console_main; console_main(); "
                        "print(gc.get_freeze_count() > 0)",
                        "ingest", "--corpus", events_path, "--out", tmp_path / "ingest.json")
    assert frozen.stdout == "True\n"


def test_synth_reads_a_spec_file(tmp_path, capsys):
    # every field, users_per_community spelled none and an int for a float one
    spec = {**dataclasses.asdict(SynthSpec(n_communities=4, n_crosslinks=4)), "burst_ratio": 3}
    assert spec["users_per_community"] is None
    path = tmp_path / "synth.conf"
    path.write_text("".join(f"{key} = {'none' if value is None else value}\n"
                            for key, value in spec.items()), encoding="utf-8")
    assert main(["synth", "--out", str(tmp_path / "s"), "--config", str(path)]) == 0
    manifest = json.loads((tmp_path / "s/manifest.json").read_text(encoding="utf-8"))
    assert manifest["spec"] == spec


def test_ingest_and_crosslinks(synth, tmp_path, capsys):
    events_path, manifest = synth
    stats = tmp_path / "ingest.json"
    assert main(["ingest", "--corpus", events_path, "--out", str(stats)]) == 0
    captured = capsys.readouterr()
    assert "rejected=0" in captured.err and captured.out == ""
    assert main(["ingest", "--corpus", events_path]) == 0
    assert capsys.readouterr().out == stats.read_text(encoding="utf-8")
    assert main(["report", "--corpus", events_path, "--out", str(tmp_path / "bundle")]) == 0
    assert stats.read_bytes() == (tmp_path / "bundle/ingest.json").read_bytes()

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


def test_sentiment_train_without_labels_is_a_usage_error(synth, tmp_path, capsys):
    events_path, _ = synth
    model = tmp_path / "model.json"
    with pytest.raises(SystemExit) as exit_info:
        main(["sentiment", "train", "--corpus", events_path, "--model", str(model)])
    assert exit_info.value.code == 1
    assert "--labels" in capsys.readouterr().err
    assert not model.exists()


def test_sentiment_train_rejects_a_labels_line_without_a_label(synth, tmp_path, capsys):
    events_path, manifest = synth
    labels_file = tmp_path / "labels.csv"
    lines = [f"{m['source_post']},{m['sentiment']}" for m in manifest["links"][:3]]
    lines.insert(1, manifest["links"][3]["source_post"])
    labels_file.write_text("\n".join(lines) + "\n")
    model_file = tmp_path / "model.json"
    assert main(["sentiment", "train", "--corpus", events_path, "--labels", str(labels_file),
                 "--model", str(model_file), "--trees", "5"]) == 2
    assert f"{labels_file}:2:" in capsys.readouterr().err
    assert not model_file.exists()


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


@pytest.fixture(scope="module")
def models(synth, tmp_path_factory):
    """Small embeddings (emb/), an LSTM checkpoint (lstm.json) and a sentiment
    forest (sentiment.json) trained on the synth corpus by the CLI."""
    events_path, manifest = synth
    out = tmp_path_factory.mktemp("cli_models")
    sets = ["--set", "embed_dim=4", "--set", "embed_epochs=2", "--set", "hidden_size=4",
            "--set", "predict_epochs=1"]
    assert main(["embed", "--corpus", events_path, "--out", str(out / "emb")] + sets) == 0
    assert main(["predict", "train", "--corpus", events_path, "--embeddings", str(out / "emb"),
                 "--model", str(out / "lstm.json")] + sets) == 0
    labels = out / "labels.csv"
    labels.write_text("".join(f"{m['source_post']},{m['sentiment']}\n" for m in manifest["links"]))
    assert main(["sentiment", "train", "--corpus", events_path, "--labels", str(labels),
                 "--model", str(out / "sentiment.json"), "--trees", "5"]) == 0
    return out


def _edited_copy(models, tmp_path, name, edit):
    """A copy of the trained models with file ``name`` replaced by ``edit`` of
    its text; returns the copy's directory."""
    copy = tmp_path / "models"
    shutil.copytree(models, copy)
    path = copy / name
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    return copy


def _first_vector_line(edit):
    """An edit of a .vec file that replaces its first vector line by ``edit``
    of the line's fields."""
    def apply(text):
        header, first, *rest = text.splitlines()
        return "\n".join([header, edit(first.split()), *rest]) + "\n"
    return apply


@pytest.mark.parametrize("name, edit, message", [
    ("emb/users.vec", _first_vector_line(lambda parts: parts[0]), "expected a name"),
    ("emb/words.vec", _first_vector_line(lambda parts: " ".join(parts[:2] + ["nan"] + parts[3:])),
     "is not a finite number"),
], ids=["name-only-line", "nan-coordinate"])
def test_predict_score_rejects_a_malformed_vector_line(synth, models, tmp_path, capsys, name, edit,
                                                       message):
    events_path, _ = synth
    copy = _edited_copy(models, tmp_path, name, edit)
    assert main(["predict", "score", "--corpus", events_path, "--embeddings", str(copy / "emb"),
                 "--model", str(copy / "lstm.json"), "--out", str(tmp_path / "scores.jsonl")]) == 2
    err = capsys.readouterr().err
    assert f"{copy / name}:2: " in err and message in err
    assert not (tmp_path / "scores.jsonl").exists()


def _set_at(keys, value):
    """An edit of a JSON checkpoint that sets the entry at ``keys`` to ``value``."""
    def apply(text):
        checkpoint = json.loads(text)
        node = checkpoint
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        return json.dumps(checkpoint)
    return apply


def test_predict_score_rejects_a_non_finite_lstm_weight(synth, models, tmp_path, capsys):
    events_path, _ = synth
    copy = _edited_copy(models, tmp_path, "lstm.json",
                        _set_at(["weights", "theta", 0], float("nan")))
    assert main(["predict", "score", "--corpus", events_path, "--embeddings", str(copy / "emb"),
                 "--model", str(copy / "lstm.json"), "--out", str(tmp_path / "scores.jsonl")]) == 2
    assert "not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "scores.jsonl").exists()


def _header(edit):
    """An edit of a .vec file that replaces its header by ``edit`` of the
    header's fields."""
    def apply(text):
        header, *rest = text.splitlines()
        return "\n".join([edit(header.split()), *rest]) + "\n"
    return apply


def _repeat_first_name(text):
    """A .vec file with one more line, which repeats the first line's name,
    and the header count it had."""
    header, first, *rest = text.splitlines()
    name, dim, *coords = first.split()
    return "\n".join([header, first, *rest, " ".join([name, dim] + ["0.5"] * len(coords))]) + "\n"


@pytest.mark.parametrize("name, edit, message", [
    ("emb/users.vec", _first_vector_line(lambda parts: " ".join(parts[:-1] + ["abc"])),
     ":2: a coordinate of"),
    ("emb/communities.vec", _first_vector_line(lambda parts: " ".join([parts[0], "x"] + parts[2:])),
     ":2: expected a name"),
    ("emb/words.vec", _header(lambda fields: f"{fields[0]}.5 {fields[1]}"),
     ": malformed vector file header"),
    ("emb/users.vec", _repeat_first_name, r":\d+: a second vector for"),
], ids=["non-number-coordinate", "non-integer-dimension", "non-integer-header", "repeated-name"])
def test_predict_score_names_the_vector_file_of_a_malformed_field(synth, models, tmp_path, capsys,
                                                                   name, edit, message):
    events_path, _ = synth
    copy = _edited_copy(models, tmp_path, name, edit)
    assert main(["predict", "score", "--corpus", events_path, "--embeddings", str(copy / "emb"),
                 "--model", str(copy / "lstm.json"), "--out", str(tmp_path / "scores.jsonl")]) == 2
    err = capsys.readouterr().err
    assert re.match(f"error: {re.escape(str(copy / name))}{message}", err)
    assert not (tmp_path / "scores.jsonl").exists()


@pytest.mark.parametrize("keys, value", [
    (["weights", "theta"], [1.0, [2.0]]),
    (["weights", "theta"], ["x", 1.0]),
    (["weights", "b"], {"0": 1.0}),
], ids=["ragged-weight", "string-weight", "dict-weight"])
def test_predict_score_names_the_checkpoint_of_a_weight_that_is_no_array(synth, models, tmp_path,
                                                                         capsys, keys, value):
    events_path, _ = synth
    copy = _edited_copy(models, tmp_path, "lstm.json", _set_at(keys, value))
    assert main(["predict", "score", "--corpus", events_path, "--embeddings", str(copy / "emb"),
                 "--model", str(copy / "lstm.json"), "--out", str(tmp_path / "scores.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {copy / 'lstm.json'}: malformed LSTM checkpoint")
    assert not (tmp_path / "scores.jsonl").exists()


def test_sentiment_predict_rejects_a_non_finite_leaf_value(synth, models, tmp_path, capsys):
    events_path, _ = synth
    copy = _edited_copy(models, tmp_path, "sentiment.json", _set_at(["value", -1, 0], float("nan")))
    assert main(["sentiment", "predict", "--corpus", events_path, "--model",
                 str(copy / "sentiment.json"), "--out", str(tmp_path / "sentiment.jsonl")]) == 2
    assert "not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "sentiment.jsonl").exists()


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
        [f"stage {name}" for name in [*STAGES, "report"] if name in stages]
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
    assert by_stage["detect"] == (f"stage detect: ran mobilizations={stages['detect']['mobilizations']} "
                                  f"records={stages['detect']['records']}")
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
    for words in lines:
        args = parser.parse_args(words[1:])
        assert callable(args.fn), words
        settings = SynthSpec if words[1] == "synth" else Config
        assert {key for key, _ in args.set} <= set(settings.__annotations__), words


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

    # a baseline no link reaches labels every link 0, so the test split has one class
    assert main(["predict", "eval", "--corpus", events_path, "--embeddings", str(bundle),
                 "--model", str(bundle / "lstm_model.json"), "--set", "baseline=1000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "single class" in captured.err
