"""Span tracing of intercom's layers from outside the program.

``Tracer.install`` wraps the public functions listed in ``TARGETS``. Modules
bind functions by name (``from .corpus import members``), so a wrapper
replaces the original in every ``intercom`` module that holds it, and
``Forest.predict_proba`` is wrapped on the class. Per-edge and per-step
helpers (``embed._sigmoid`` runs ~10^6 times per report) are never wrapped.

A span is ``[name, start, end, parent index, error type, work]``; spans stay
in memory and the child process writes them out when its report ends.
``layer_metrics`` turns span lists into the per-layer metrics.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

ALL = ("links-440", "learn-220")
LINKS, LEARN = ALL


def _events(args, result):
    return result.stats.lines


def _edge_steps(args, result):
    return args["graph"].n_edges * args["epochs"]


def _trees(args, result):
    return args["trees"]


def _rows(args, result):
    return result.shape[0]


# (module, attribute, workloads on which the span must record a call,
#  work counter or None)
TARGETS = [
    ("corpus", "load_events", ALL, _events),
    ("corpus", "members", ALL, None),
    ("corpus", "extract_crosslinks", ALL, None),
    ("matching", "matched_post", ALL, None),
    ("matching", "matched_user", ALL, None),
    ("mobilization", "baseline_ratio", ALL, None),
    ("mobilization", "detect", ALL, None),
    ("sentiment", "predict_sentiment", (LEARN,), None),
    ("sentiment", "community_tfidf_vectors", (LEARN,), None),
    ("forest", "Forest.predict_proba", (LEARN,), _rows),
    ("forest", "train_forest", (LEARN,), _trees),
    ("replynet", "build_reply_graph", ALL, None),
    ("replynet", "group_pagerank", ALL, None),
    ("replynet", "echo_metrics", ALL, None),
    ("replynet", "anger_rate", ALL, None),
    ("impact", "mobilization_impacts", ALL, None),
    ("impact", "activity_delta", ALL, None),
    ("impact", "mann_whitney_u", ALL, None),
    ("impact", "wilcoxon_signed_rank", ALL, None),
    ("embed", "build_bipartite", (LEARN,), None),
    ("embed", "build_word_bipartite", (LEARN,), None),
    ("embed", "train_embeddings", (LEARN,), _edge_steps),
    ("embed", "loss", (LEARN,), None),
    ("lstm", "bptt", (LEARN,), None),
    ("lstm", "mean_hidden", (LEARN,), None),
    ("lstm", "predict_prob", (LEARN,), None),
    ("predictor", "build_dataset", (LEARN,), None),
    ("predictor", "train", (LEARN,), None),
    ("predictor", "baseline_features", (LEARN,), None),
    ("pipeline", "run_pipeline", ALL, None),
    ("pipeline", "validate_bundle", ALL, None),
]


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, work=None):
        signature = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, None, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if work:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = work(bound.arguments, result)
            return result

        return traced

    def install(self) -> "Tracer":
        """Wrap every target; call once, before the traced work starts."""
        importlib.import_module("intercom")
        loaded = [m for n, m in sys.modules.items() if n == "intercom" or n.startswith("intercom.")]
        for module, attr, _workloads, work in TARGETS:
            owner = importlib.import_module(f"intercom.{module}")
            name = span_name(module, attr)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method), work))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(name, original, work)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
        return self


def wrapper_cost_s(calls: int = 20000) -> float:
    """Seconds one traced call adds, timed on a no-op."""
    noop = Tracer().wrap("noop", lambda: None)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    return (time.perf_counter() - start) / calls


class SpanStats:
    def __init__(self):
        self.calls = 0
        self.busy = 0.0  # outermost spans of this name only, so recursion counts once
        self.self_time = 0.0
        self.work = 0
        self.errors: dict[str, int] = defaultdict(int)


def span_stats(span_lists) -> dict[str, SpanStats]:
    """Calls, busy time, self time, work and raised errors per span name."""
    stats: dict[str, SpanStats] = defaultdict(SpanStats)
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _err, _work in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, err, work) in enumerate(spans):
            st = stats[name]
            st.calls += 1
            st.work += work
            st.self_time += (end - start) - child_time[i]
            if err:
                st.errors[err] += 1
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                st.busy += end - start
    return stats


def coverage_failures(stats: dict[str, SpanStats], workload: str) -> list[str]:
    """Spans that should have recorded a call on this workload but did not."""
    return [span_name(m, a) for m, a, workloads, _ in TARGETS
            if workload in workloads and stats[span_name(m, a)].calls == 0]


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(stats: dict[str, SpanStats], cache_hits: int, overhead_frac: float) -> dict:
    """Per-layer metrics as ``{name: (value, unit)}``."""
    m = {}  # stats is a defaultdict: spans that never ran read as zero

    def calls(name):
        m[f"{name}.calls"] = (stats[name].calls, "count")

    def busy(name):
        m[f"{name}.s"] = (stats[name].busy, "s")

    def self_s(name):
        m[f"{name}.self_s"] = (stats[name].self_time, "s")

    busy("corpus.load_events")
    m["corpus.load_events.events_per_s"] = (
        _rate(stats["corpus.load_events"].work, stats["corpus.load_events"].busy), "1/s")
    calls("corpus.members")
    busy("corpus.members")
    busy("corpus.extract_crosslinks")

    for name in ("matching.matched_post", "matching.matched_user"):
        calls(name)
        busy(name)
    m["matching.no_match"] = (stats["matching.matched_post"].errors["NoMatchError"]
                              + stats["matching.matched_user"].errors["NoMatchError"], "count")

    busy("mobilization.baseline_ratio")
    calls("mobilization.detect")
    self_s("mobilization.detect")

    calls("sentiment.predict_sentiment")
    busy("sentiment.predict_sentiment")
    busy("sentiment.community_tfidf_vectors")

    calls("forest.predict_proba")
    m["forest.predict_proba.rows"] = (stats["forest.predict_proba"].work, "count")
    busy("forest.predict_proba")
    m["forest.train_forest.trees"] = (stats["forest.train_forest"].work, "count")
    busy("forest.train_forest")
    m["forest.trees_per_s"] = (_rate(stats["forest.train_forest"].work, stats["forest.train_forest"].busy), "1/s")

    busy("replynet.build_reply_graph")
    calls("replynet.group_pagerank")
    busy("replynet.group_pagerank")
    self_s("replynet.echo_metrics")
    busy("replynet.anger_rate")

    calls("impact.mobilization_impacts")
    self_s("impact.mobilization_impacts")
    calls("impact.activity_delta")
    busy("impact.activity_delta")
    m["impact.stat_tests.s"] = (stats["impact.mann_whitney_u"].busy
                                + stats["impact.wilcoxon_signed_rank"].busy, "s")

    busy("embed.build_bipartite")
    busy("embed.build_word_bipartite")
    busy("embed.train_embeddings")
    m["embed.edge_steps_per_s"] = (
        _rate(stats["embed.train_embeddings"].work, stats["embed.train_embeddings"].busy), "1/s")
    busy("embed.loss")

    calls("lstm.bptt")
    busy("lstm.bptt")
    m["lstm.examples_per_s"] = (_rate(stats["lstm.bptt"].calls, stats["lstm.bptt"].busy), "1/s")
    busy("lstm.mean_hidden")
    calls("lstm.predict_prob")

    busy("predictor.build_dataset")
    self_s("predictor.train")
    busy("predictor.baseline_features")

    busy("pipeline.run_pipeline")
    m["pipeline.self_s"] = (stats["pipeline.run_pipeline"].self_time, "s")
    busy("pipeline.validate_bundle")
    m["pipeline.cache_hits"] = (cache_hits, "count")

    m["trace.overhead_frac"] = (overhead_frac, "fraction")
    return m
