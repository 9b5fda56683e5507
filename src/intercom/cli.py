"""Command-line interface. Exit codes: 0 ok, 1 usage, 2 data error, 3 internal."""
from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import logging
import sys

# the analysis modules by module, each looked up when a command needs it, so
# that a command runs only the modules it uses (intercom.LAZY_MODULES)
from . import corpus as corpus_mod
from . import embed as embed_mod
from . import forest as forest_mod
from . import lstm as lstm_mod
from . import matching as matching_mod
from . import mobilization as mobilization_mod
from . import pipeline
from . import predictor as pred_mod
from . import replynet as replynet_mod
from . import sentiment as sentiment_mod
from . import stages
from .settings import Config, ConfigError, apply_overrides, load_config

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


def _data_errors() -> tuple[type[Exception], ...]:
    """The errors that exit with EXIT_DATA, looked up only when an error is
    handled: importing the CLI runs none of corpus, matching and
    mobilization."""
    return (corpus_mod.CorpusError, mobilization_mod.BaselineError, matching_mod.NoMatchError,
            ConfigError, OSError, KeyError, ValueError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


class UsageError(Exception):
    pass


def _setting(text: str) -> tuple[str, str]:
    key, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    return key, value


def _config(args, **fixed) -> Config:
    """The config file, then ``--set``, then the path flags, then ``fixed``."""
    config = load_config(args.config) if args.config else Config()
    overrides = dict(args.set)
    for key in ("corpus", "output_dir"):
        if getattr(args, key, None):
            overrides[key] = getattr(args, key)
    apply_overrides(config, overrides)
    for key, value in fixed.items():
        setattr(config, key, value)
    config.validate()
    if not config.corpus:
        raise UsageError("no corpus: pass --corpus, or set corpus in --config or --set")
    return config


def cmd_ingest(args) -> int:
    stats = stages.Run(_config(args)).corpus.stats
    # the bytes of the report bundle's ingest.json
    pipeline.write_json(args.out, dataclasses.asdict(stats))
    print(f"lines={stats.lines} posts={stats.posts} comments={stats.comments} "
          f"rejected={stats.rejected} dangling={stats.dangling_comments}", file=sys.stderr)
    return EXIT_OK


def cmd_crosslinks(args) -> int:
    links = stages.Run(_config(args)).links
    pipeline.write_jsonl(args.out, (link.to_dict() for link in links))
    print(f"extracted {len(links)} cross-links", file=sys.stderr)
    return EXIT_OK


def cmd_detect(args) -> int:
    run = stages.Run(_config(args))
    pipeline.write_jsonl(args.out, (record.to_dict() for record in run.records))
    print(f"baseline={run.baseline['value']:.4f} ({run.baseline['mode']}) "
          f"mobilizations={len(run.mobilized)}/{len(run.records)}", file=sys.stderr)
    return EXIT_OK


def cmd_match(args) -> int:
    run = stages.Run(_config(args))
    pair = matching_mod.matched_post(run.corpus, args.post,
                                     matching_mod.crosslink_involved_posts(run.links))
    pipeline.write_json(None, dataclasses.asdict(pair))
    return EXIT_OK


def cmd_sentiment(args) -> int:
    if args.action == "train" and not args.labels:
        raise UsageError("sentiment train needs --labels")
    run = stages.Run(_config(args, sentiment_model=args.model))
    if args.action == "predict":
        pipeline.write_jsonl(args.out, stages.sentiment_rows(run))
        return EXIT_OK
    labels = {}
    with open(args.labels, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            post_id, _, label = (part.strip() for part in line.partition(","))
            if not post_id or not label:
                raise ValueError(f"{args.labels}:{number}: expected source_post,label, "
                                 f"got {line!r}")
            labels[post_id] = label
    X, y = [], []
    for link in run.links:
        if link.source_post in labels:
            X.append(sentiment_mod.crosslink_features(run.corpus, link, run.lexicon))
            y.append(labels[link.source_post])
    if not X:
        raise ValueError("no labeled cross-links found")
    forest = forest_mod.train_forest(X, y, trees=args.trees, seed=run.config.seed)
    forest.save(args.model)
    print(f"trained on {len(X)} examples, oob_accuracy={forest.oob_accuracy}")
    return EXIT_OK


def cmd_replynet(args) -> int:
    run = stages.Run(_config(args))
    record = next((record for record in run.records if record.id == args.mobilization), None)
    if record is None:
        raise KeyError(f"no cross-link with source post {args.mobilization!r}")
    graph, rows = replynet_mod.thread_graph(run.corpus, record), run.replynet([record])
    pipeline.write_lines(args.out, (f"{src} {dst} {weight} {graph.nodes[src]} {graph.nodes[dst]}"
                                    for (src, dst), weight in sorted(graph.edges.items())))
    if not rows:
        print("no attackers or no defenders; no reply-network row", file=sys.stderr)
    else:
        row = dict(zip(replynet_mod.REPLYNET_HEADER, rows[0]))
        print(json.dumps(row, sort_keys=True, indent=2), file=sys.stderr)
    return EXIT_OK


def cmd_embed(args) -> int:
    run = stages.Run(_config(args))
    run.out.mkdir(parents=True, exist_ok=True)
    stages.stage_embed(run)
    print((run.out / "embed.json").read_text(encoding="utf-8"), end="")
    return EXIT_OK


def cmd_predict(args) -> int:
    table, word_vectors = embed_mod.load_table(args.embeddings)
    if args.action == "train":
        run = stages.Run(_config(args))
        _, result = stages.train_lstm(run, table, word_vectors, args.model)
        print(f"trained; best val AUC = {result.best_val_auc}")
        return EXIT_OK

    params, checkpoint = lstm_mod.load_params(args.model)
    run = stages.Run(_config(args, max_words=checkpoint["max_words"], seed=checkpoint["seed"]))
    if args.action == "score":
        sequences, _ = pred_mod.assemble_sequences(run.corpus, run.links, table, word_vectors,
                                                   max_words=run.config.max_words)
        probs = pred_mod.predict_prob(sequences, params).tolist()
        pipeline.write_jsonl(args.out, ({"source_post": link.source_post, "p_mobilization": p}
                                        for link, p in zip(run.links, probs)))
        return EXIT_OK

    # eval: rebuild the training run's dataset and split and report test AUC;
    # every link is scored, as the report scores them, so that each test
    # link shares its forward's batch with the same links as in the report
    dataset = stages.lstm_dataset(run, table, word_vectors)
    test_auc = pred_mod.auc_or_none(dataset.labels[dataset.test_idx], lambda: pred_mod.predict_prob(
        dataset.sequences, params)[dataset.test_idx])
    if test_auc is None:
        raise ValueError("test split has a single class; cannot compute AUC")
    print(f"test AUC = {test_auc:.4f} on {dataset.test_idx.size} examples")
    return EXIT_OK


def cmd_synth(args) -> int:
    from .synth import SynthSpec, generate_corpus

    spec = load_config(args.config, SynthSpec) if args.config else SynthSpec()
    events_path, manifest = generate_corpus(apply_overrides(spec, dict(args.set)), args.out)
    print(f"wrote {manifest['counts']['events']} events to {events_path} "
          f"({manifest['counts']['mobilizations']} planted mobilizations)")
    return EXIT_OK


def cmd_report(args) -> int:
    result = pipeline.run_pipeline(_config(args))
    if args.verbose:
        for name, info in result.manifest["stages"].items():
            counters = " ".join(f"{key}={value}" for key, value in sorted(info.items())
                                if key not in ("key", "outputs"))
            state = "hit" if name in result.cache_hits else "ran"
            print(f"stage {name}: {state} {counters}".rstrip(), file=sys.stderr)
        # the learning stages' convergence, read back from their bundle files
        if "embed" in result.manifest["stages"]:
            summary = json.loads((result.output_dir / "embed.json").read_text(encoding="utf-8"))
            print(f"embed loss={summary['loss']}", file=sys.stderr)
        if "predict" in result.manifest["stages"]:
            _, checkpoint = lstm_mod.load_params(result.output_dir / "lstm_model.json")
            for entry in checkpoint["log"]:
                print(f"lstm epoch {entry['epoch']}: train_loss={entry['train_loss']} "
                      f"val_auc={entry['val_auc']}", file=sys.stderr)
    cached = f" (cache hits: {', '.join(result.cache_hits)})" if result.cache_hits else ""
    print(f"report bundle in {result.output_dir}{cached}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="intercom",
                     description="Intercommunity mobilization detection and prediction toolkit")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    # every command reads its settings dataclass the same way: synth its
    # SynthSpec, the analysis commands their Config (``_config``)
    settings = argparse.ArgumentParser(add_help=False)
    settings.add_argument("--config", help="key = value settings file")
    settings.add_argument("--set", action="append", default=[], type=_setting, metavar="KEY=VALUE",
                          help="setting; wins over the file (repeatable)")
    shared = argparse.ArgumentParser(add_help=False, parents=[settings])
    shared.add_argument("--corpus", help="event log .jsonl; wins over the config's corpus")

    def analysis(name, fn, help):
        p = sub.add_parser(name, help=help, parents=[shared])
        p.set_defaults(fn=fn)
        return p

    p = analysis("ingest", cmd_ingest, "parse an event log and write its load statistics")
    p.add_argument("--out", help="the bundle's ingest.json (default: stdout)")

    p = analysis("crosslinks", cmd_crosslinks, "extract cross-community links")
    p.add_argument("--out")

    p = analysis("detect", cmd_detect, "classify cross-links against the null model")
    p.add_argument("--out")

    p = analysis("match", cmd_match, "debug: nearest cross-link-free post")
    p.add_argument("--post", required=True)

    p = analysis("sentiment", cmd_sentiment, "train or apply the sentiment classifier")
    p.add_argument("action", choices=("train", "predict"))
    p.add_argument("--model", required=True)
    p.add_argument("--labels", help="CSV of source_post,label (train)")
    p.add_argument("--trees", type=int, default=400)
    p.add_argument("--out")

    p = analysis("replynet", cmd_replynet, "reply graph and echo metrics for one mobilization")
    p.add_argument("--mobilization", required=True, help="source post id of the cross-link")
    p.add_argument("--out", help="edge list output (src dst weight groups)")

    p = analysis("embed", cmd_embed, "train user, community and word embeddings")
    p.add_argument("--out", required=True, dest="output_dir")

    p = analysis("predict", cmd_predict, "train/eval/score the mobilization predictor")
    p.add_argument("action", choices=("train", "eval", "score"))
    p.add_argument("--embeddings", required=True, help="dir with users/communities/words .vec")
    p.add_argument("--model", required=True)
    p.add_argument("--out")

    p = sub.add_parser("synth", help="generate a synthetic corpus with planted mobilizations",
                       parents=[settings])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth)

    p = analysis("report", cmd_report, "run the full pipeline and emit the report bundle")
    p.add_argument("--out", dest="output_dir")
    p.add_argument("-v", "--verbose", action="store_true", default=argparse.SUPPRESS,
                   help="also print to stderr one line per stage (hit or ran, and its counters), "
                        "the embed loss and the LSTM's per-epoch log")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.fn(args)
    except UsageError as exc:
        parser.error(str(exc))
    except pipeline.StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA if isinstance(exc.cause, _data_errors()) else EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001
        if isinstance(exc, _data_errors()):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DATA
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> int:
    """The ``intercom`` console script: ``main`` on the command line. The
    process exits when it returns, so the objects still alive are frozen
    first and the interpreter's shutdown collections skip them. ``main``,
    which also runs in-process, leaves the collector alone."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(console_main())
