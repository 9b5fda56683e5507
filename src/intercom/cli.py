"""Command-line interface. Exit codes: 0 ok, 1 usage, 2 data error, 3 internal."""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from . import embed as embed_mod
from . import predictor as pred_mod
from .corpus import CorpusError, load_events
from .forest import train_forest
from .lstm import load_params
from .matching import NoMatchError, matched_post
from .mobilization import BaselineError, detect
from .pipeline import (
    Config,
    ConfigError,
    Run,
    StageError,
    apply_overrides,
    load_config,
    lstm_dataset,
    run_pipeline,
    sentiment_rows,
    stage_embed,
    train_lstm,
)
from .replynet import build_reply_graph, echo_metrics
from .sentiment import crosslink_features
from .synth import SynthError, SynthSpec, generate_corpus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

DATA_ERRORS = (
    CorpusError, BaselineError, NoMatchError, ConfigError, SynthError,
    FileNotFoundError, IsADirectoryError, KeyError, ValueError, json.JSONDecodeError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _run(args, **fields) -> Run:
    """The pipeline's values for the corpus options, plus ``fields``."""
    if hasattr(args, "baseline"):
        fields.update(baseline=args.baseline, baseline_stat=args.stat)
    config = Config(corpus=args.corpus, host_allowlist=args.hosts,
                    window_hours=args.window_hours, **fields)
    config.validate()
    return Run(config)


def _emit(path: str | None, lines) -> None:
    """Write lines to ``path``, or to stdout without one."""
    stream = open(path, "w", encoding="utf-8") if path else sys.stdout
    try:
        for line in lines:
            stream.write(line + "\n")
    finally:
        if stream is not sys.stdout:
            stream.close()


def _jsonl(rows) -> list[str]:
    return [json.dumps(row, sort_keys=True) for row in rows]


def cmd_ingest(args) -> int:
    stats = load_events(args.path).stats
    out = Path(args.index_out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "stats.json", "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(stats), fh, sort_keys=True, indent=2)
    print(f"lines={stats.lines} posts={stats.posts} comments={stats.comments} "
          f"rejected={stats.rejected} dangling={stats.dangling_comments}")
    return EXIT_OK


def cmd_crosslinks(args) -> int:
    links = _run(args).links
    _emit(args.out, _jsonl(dataclasses.asdict(link) for link in links))
    print(f"extracted {len(links)} cross-links", file=sys.stderr)
    return EXIT_OK


def cmd_detect(args) -> int:
    run = _run(args)
    rows = [record.to_dict() for record in run.records]
    _emit(args.out, _jsonl(rows))
    n_mob = sum(1 for row in rows if row["verdict"] == "mobilization")
    print(f"baseline={run.baseline['value']:.4f} ({run.baseline['mode']}) "
          f"mobilizations={n_mob}/{len(rows)}", file=sys.stderr)
    return EXIT_OK


def cmd_match(args) -> int:
    run = _run(args)
    pair = matched_post(run.corpus, run.links, args.post)
    print(json.dumps(dataclasses.asdict(pair), sort_keys=True, indent=2))
    return EXIT_OK


def cmd_sentiment(args) -> int:
    run = _run(args, lexicon_dir=args.lexicon_dir or "", sentiment_model=args.model)
    if args.action == "predict":
        _emit(args.out, _jsonl(sentiment_rows(run)))
        return EXIT_OK
    labels = {}
    with open(args.labels, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            post_id, _, label = line.partition(",")
            labels[post_id.strip()] = label.strip()
    X, y = [], []
    for link in run.links:
        if link.source_post in labels:
            X.append(crosslink_features(run.corpus, link, run.lexicon))
            y.append(labels[link.source_post])
    if not X:
        raise ValueError("no labeled cross-links found")
    forest = train_forest(X, y, trees=args.trees, seed=args.seed)
    forest.save(args.model)
    print(f"trained on {len(X)} examples, oob_accuracy={forest.oob_accuracy}")
    return EXIT_OK


def cmd_replynet(args) -> int:
    run = _run(args)
    by_id = {l.source_post: l for l in run.links}
    if args.mobilization not in by_id:
        raise KeyError(f"no cross-link with source post {args.mobilization!r}")
    link = by_id[args.mobilization]
    record = detect(run.corpus, link, run.baseline["value"], window_hours=args.window_hours)
    comments = run.corpus.thread_comments.get(link.target_post, [])
    graph = build_reply_graph(comments, link.target_post, record.attackers, record.defenders)
    _emit(args.out, [f"{src} {dst} {weight} {graph.nodes[src]} {graph.nodes[dst]}"
                     for (src, dst), weight in sorted(graph.edges.items())])
    if record.attackers and record.defenders:
        echo = echo_metrics(graph)
        print(json.dumps(dataclasses.asdict(echo), sort_keys=True, indent=2, default=str),
              file=sys.stderr)
    else:
        print("verdict is not a two-sided mobilization; no echo metrics", file=sys.stderr)
    return EXIT_OK


def cmd_impact(args) -> int:
    config = Config(corpus=args.corpus, output_dir=args.out, seed=args.seed,
                    baseline=args.baseline, window_hours=args.window_hours)
    result = run_pipeline(config)
    print(f"impact outputs in {result.output_dir}")
    return EXIT_OK


def cmd_embed(args) -> int:
    config = Config(corpus=args.corpus, output_dir=args.out, embed_dim=args.dim,
                    embed_epochs=args.epochs, embed_negatives=args.negatives,
                    vocab_size=args.vocab_size, seed=args.seed)
    config.validate()
    run = Run(config)
    run.out.mkdir(parents=True, exist_ok=True)
    stage_embed(run)
    print((run.out / "embed.json").read_text(encoding="utf-8"), end="")
    return EXIT_OK


def cmd_predict(args) -> int:
    table, word_vectors = embed_mod.load_table(args.embeddings)
    if args.action == "train":
        run = _run(args, hidden_size=args.hidden, predict_epochs=args.epochs,
                   predict_lr=args.lr, max_words=args.max_words, seed=args.seed)
        _, result = train_lstm(run, table, word_vectors, args.model)
        print(f"trained; best val AUC = {result.best_val_auc}")
        return EXIT_OK

    params, checkpoint = load_params(args.model)
    run = _run(args, max_words=checkpoint["max_words"], seed=checkpoint["seed"])
    if args.action == "score":
        rows = []
        for link in run.links:
            try:
                seq = pred_mod.assemble_sequence(link, run.corpus, table, word_vectors,
                                                 max_words=run.config.max_words)
            except pred_mod.MissingEmbeddingError:
                continue
            rows.append({"source_post": link.source_post,
                         "p_mobilization": pred_mod.predict_prob(seq, params)})
        _emit(args.out, _jsonl(rows))
        return EXIT_OK

    # eval: rebuild the training run's dataset and split and report test AUC
    dataset = lstm_dataset(run, table, word_vectors)
    scores = [pred_mod.predict_prob(dataset.sequences[i], params) for i in dataset.test_idx]
    test_labels = [int(dataset.labels[i]) for i in dataset.test_idx]
    if len(set(test_labels)) < 2:
        raise ValueError("test split has a single class; cannot compute AUC")
    print(f"test AUC = {pred_mod.auc(scores, test_labels):.4f} on {len(test_labels)} examples")
    return EXIT_OK


def cmd_synth(args) -> int:
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = SynthSpec(**json.load(fh))
    else:
        spec = SynthSpec()
    for name in ("n_communities", "n_crosslinks", "seed", "days",
                 "mobilization_fraction", "burst_ratio", "quiet_ratio", "matched_ratio"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(spec, name, value)
    events_path, manifest = generate_corpus(spec, args.out)
    print(f"wrote {manifest['counts']['events']} events to {events_path} "
          f"({manifest['counts']['mobilizations']} planted mobilizations)")
    return EXIT_OK


def cmd_report(args) -> int:
    config = load_config(args.config) if args.config else Config()
    overrides = dict(kv.split("=", 1) for kv in args.set)
    if args.corpus:
        overrides["corpus"] = args.corpus
    if args.out:
        overrides["output_dir"] = args.out
    apply_overrides(config, overrides)
    result = run_pipeline(config)
    if args.verbose:
        for name, info in result.manifest["stages"].items():
            counters = " ".join(f"{key}={value}" for key, value in sorted(info.items())
                                if key not in ("key", "outputs"))
            state = "hit" if name in result.cache_hits else "ran"
            print(f"stage {name}: {state} {counters}".rstrip(), file=sys.stderr)
    cached = f" (cache hits: {', '.join(result.cache_hits)})" if result.cache_hits else ""
    print(f"report bundle in {result.output_dir}{cached}")
    return EXIT_OK


def _add_corpus_opts(p, baseline: bool = False):
    p.add_argument("--corpus", required=True, help="event log .jsonl")
    p.add_argument("--hosts", default="", help="comma-separated cross-link host allowlist")
    p.add_argument("--window-hours", type=float, default=12.0, dest="window_hours")
    if baseline:
        p.add_argument("--baseline", default="auto", help="'auto' or a positive number")
        p.add_argument("--stat", choices=("mean", "median"), default="mean")


def build_parser() -> _Parser:
    parser = _Parser(prog="intercom",
                     description="Intercommunity mobilization detection and prediction toolkit")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse an event log and write its load statistics")
    p.add_argument("path")
    p.add_argument("--index-out", required=True, dest="index_out")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("crosslinks", help="extract cross-community links")
    _add_corpus_opts(p)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_crosslinks)

    p = sub.add_parser("detect", help="classify cross-links against the null model")
    _add_corpus_opts(p, baseline=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("match", help="debug: nearest cross-link-free post")
    _add_corpus_opts(p)
    p.add_argument("--post", required=True)
    p.set_defaults(fn=cmd_match)

    p = sub.add_parser("sentiment", help="train or apply the sentiment classifier")
    p.add_argument("action", choices=("train", "predict"))
    _add_corpus_opts(p)
    p.add_argument("--model", required=True)
    p.add_argument("--labels", help="CSV of source_post,label (train)")
    p.add_argument("--lexicon-dir", dest="lexicon_dir")
    p.add_argument("--trees", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_sentiment)

    p = sub.add_parser("replynet", help="reply graph and echo metrics for one mobilization")
    _add_corpus_opts(p, baseline=True)
    p.add_argument("--mobilization", required=True, help="source post id of the cross-link")
    p.add_argument("--out", help="edge list output (src dst weight groups)")
    p.set_defaults(fn=cmd_replynet)

    p = sub.add_parser("impact", help="activity deltas, defense success, series")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--baseline", default="auto")
    p.add_argument("--window-hours", type=float, default=12.0, dest="window_hours")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_impact)

    p = sub.add_parser("embed", help="train user, community and word embeddings")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--negatives", type=int, default=5)
    p.add_argument("--vocab-size", type=int, default=10000, dest="vocab_size")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("predict", help="train/eval/score the mobilization predictor")
    p.add_argument("action", choices=("train", "eval", "score"))
    _add_corpus_opts(p, baseline=True)
    p.add_argument("--embeddings", required=True, help="dir with users/communities/words .vec")
    p.add_argument("--model", required=True)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--max-words", type=int, default=50, dest="max_words")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("synth", help="generate a synthetic corpus with planted mobilizations")
    p.add_argument("--out", required=True)
    p.add_argument("--spec", help="JSON file of SynthSpec fields")
    p.add_argument("--n-communities", type=int, dest="n_communities")
    p.add_argument("--n-crosslinks", type=int, dest="n_crosslinks")
    p.add_argument("--days", type=int)
    p.add_argument("--mobilization-fraction", type=float, dest="mobilization_fraction")
    p.add_argument("--burst-ratio", type=float, dest="burst_ratio")
    p.add_argument("--quiet-ratio", type=float, dest="quiet_ratio")
    p.add_argument("--matched-ratio", type=float, dest="matched_ratio")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("report", help="run the full pipeline and emit the report bundle")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--corpus")
    p.add_argument("--out")
    p.add_argument("-v", "--verbose", action="store_true", default=argparse.SUPPRESS,
                   help="also print one line per stage to stderr: hit or ran, and its counters")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.fn(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA if isinstance(exc.cause, DATA_ERRORS) else EXIT_INTERNAL
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
