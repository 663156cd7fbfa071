"""Benchmark-side tracer: wraps the public functions of each lingalloc layer.

Nothing inside ``src/`` is instrumented. `Tracer.install` replaces every
binding of a traced function in the loaded ``lingalloc`` modules (the
defining module and each ``from .x import y`` copy) and every traced method
on its class, so calls the program makes to itself go through the wrappers.

Each wrapped call pushes a frame on a per-process stack. When it returns,
its duration is charged to its name and, if its caller belongs to another
layer, to its layer. Self time is duration minus the time of wrapped calls
made inside it (for a name) or of calls into other layers (for a layer).
Busy time counts only the outermost active call of a name or layer, so
recursion and nesting are not counted twice.

Calls that happen hundreds of thousands of times (featurization, objective
evaluations, predictions, metric functions) are aggregated in place; every
other call also records a span ``(pid, id, parent id, name, start, end)`` in
memory. ``hash_features`` only counts calls and keys, because timing it
would cost as much as the call itself.

`run_cell` executes in ``--jobs`` worker processes. The pool forks them
from the benchmark process, so they inherit the wrappers; the wrapper of
`run_cell` resets the inherited state on entry and, on exit, pickles the
worker's spans and aggregates into the benchmark's work directory, where
`Tracer.collect_workers` merges them. A worker started by ``spawn`` would
import an unwrapped program and send nothing; `collect_workers` returns the
number of cells gathered so that the caller can tell.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("synth", "corpus", "models", "graph", "acquisition", "experiment", "tasks", "cli")

# (module, attribute or Class.method, span name, aggregated). The span
# name's first component is the layer.
TARGETS = (
    ("synth", "synth_dataset", "synth.synth_dataset", False),
    ("corpus", "ingest_tsv_classification", "corpus.ingest", False),
    ("corpus", "ingest_conll_ner", "corpus.ingest", False),
    ("corpus", "ingest_conllu", "corpus.ingest", False),
    ("corpus", "write_tsv_classification", "corpus.write", False),
    ("corpus", "write_conll_ner", "corpus.write", False),
    ("corpus", "write_conllu", "corpus.write", False),
    ("corpus", "dedup", "corpus.dedup", False),
    ("corpus", "length_filter", "corpus.length_filter", False),
    ("corpus", "sample_splits", "corpus.sample_splits", False),
    ("models", "featurize_text", "models.featurize", True),
    ("models", "featurize_tokens", "models.featurize", True),
    ("models", "featurize_arc", "models.featurize", True),
    ("models", "class_objective", "models.objective", True),
    ("models", "parser_objective", "models.objective", True),
    ("models", "TextClassifier.fit", "models.fit", False),
    ("models", "SequenceTagger.fit", "models.fit", False),
    ("models", "DependencyParser.fit", "models.fit", False),
    ("models", "TextClassifier.predict_proba", "models.predict", True),
    ("models", "TextClassifier.predict", "models.predict", True),
    ("models", "SequenceTagger.predict_tag_probas", "models.predict", True),
    ("models", "SequenceTagger.predict_tags", "models.predict", True),
    ("models", "DependencyParser.predict_arc_probas", "models.predict", True),
    ("models", "DependencyParser.decode_tree", "models.predict", True),
    ("graph", "chu_liu_edmonds", "graph.chu_liu_edmonds", True),
    ("graph", "log_partition", "graph.log_partition", True),
    ("graph", "tree_log_prob", "graph.tree_log_prob", True),
    ("acquisition", "lc_score", "acquisition.score", True),
    ("acquisition", "mnlp_score", "acquisition.score", True),
    ("acquisition", "nlpdt_score", "acquisition.score", True),
    ("acquisition", "random_scores", "acquisition.score", True),
    ("acquisition", "select_batch", "acquisition.select_batch", False),
    ("experiment", "run_rounds", "experiment.run_rounds", False),
    ("experiment", "allocate", "experiment.allocate", False),
    ("experiment", "initial_composition", "experiment.initial_composition", False),
    ("experiment", "curriculum", "experiment.curriculum", False),
    ("experiment", "aggregate", "experiment.aggregate", True),
    ("tasks", "accuracy", "tasks.metrics", True),
    ("tasks", "span_f1", "tasks.metrics", True),
    ("tasks", "attachment_scores", "tasks.metrics", True),
    ("cli", "main", "cli.main", False),
    ("cli", "validate_config", "cli.validate_config", False),
    ("cli", "load_data", "cli.load_data", False),
    ("cli", "run_cell", "cli.run_cell", False),
    ("cli", "write_summary", "cli.write_report", False),
    ("cli", "write_plot_data", "cli.write_report", False),
    ("cli", "write_curriculum_csv", "cli.write_report", False),
)

# Per-layer metrics, in report order: (name, unit, better).
PER_LAYER = [
    ("models.featurize.calls", "count", "lower"),
    ("models.featurize.busy_s", "s", "lower"),
    ("models.hash_features.keys", "count", "lower"),
    ("models.featurize.distinct_ratio", "ratio", "higher"),
    ("models.fit.calls", "count", "lower"),
    ("models.fit.busy_s", "s", "lower"),
    ("models.fit.self_s", "s", "lower"),
    ("models.objective.calls", "count", "lower"),
    ("models.objective.busy_s", "s", "lower"),
    ("models.objective.examples", "count", "lower"),
    ("models.predict.calls", "count", "lower"),
    ("models.predict.busy_s", "s", "lower"),
    ("graph.chu_liu_edmonds.calls", "count", "lower"),
    ("graph.chu_liu_edmonds.busy_s", "s", "lower"),
    ("graph.chu_liu_edmonds.p50_ms", "ms", "lower"),
    ("graph.chu_liu_edmonds.p99_ms", "ms", "lower"),
    ("graph.chu_liu_edmonds.max_ms", "ms", "lower"),
    ("graph.chu_liu_edmonds.greedy_multi_root", "count", "lower"),
    ("graph.log_partition.calls", "count", "lower"),
    ("graph.log_partition.busy_s", "s", "lower"),
    ("acquisition.score.calls", "count", "lower"),
    ("acquisition.score.busy_s", "s", "lower"),
    ("acquisition.select_batch.calls", "count", "lower"),
    ("acquisition.select_batch.busy_s", "s", "lower"),
    ("acquisition.acquired_ratio", "ratio", "higher"),
    ("corpus.sample_splits.busy_s", "s", "lower"),
    ("corpus.ingest.calls", "count", "lower"),
    ("corpus.ingest.busy_s", "s", "lower"),
    ("corpus.ingest.reuse_ratio", "ratio", "higher"),
    ("cli.run_cell.busy_s", "s", "lower"),
    ("cli.load_data.busy_s", "s", "lower"),
    ("cli.report.busy_s", "s", "lower"),
    ("cli.pool.utilization", "ratio", "higher"),
    ("cli.pool.idle_s", "s", "lower"),
    ("experiment.run_rounds.self_s", "s", "lower"),
    ("tasks.metrics.busy_s", "s", "lower"),
]
for _layer in LAYERS:
    PER_LAYER += [
        (f"{_layer}.calls", "count", "lower"),
        (f"{_layer}.busy_s", "s", "lower"),
        (f"{_layer}.self_s", "s", "lower"),
        (f"{_layer}.errors", "count", "lower"),
    ]
PER_LAYER.append(("trace.overhead_s", "s", "lower"))


class _Stat:
    __slots__ = ("calls", "busy", "self_time")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0

    def add(self, other: "_Stat", scale: float = 1.0) -> None:
        self.calls += other.calls * scale
        self.busy += other.busy * scale
        self.self_time += other.self_time * scale


class Aggregate:
    """Picklable totals of one traced stretch of work, in one or more processes."""

    def __init__(self):
        self.names = defaultdict(_Stat)
        self.layers = defaultdict(_Stat)
        self.counters = defaultdict(float)
        self.samples = defaultdict(list)  # decoder latencies (s), ingested paths
        self.spans: list[tuple] = []

    def merge(self, other: "Aggregate", scale: float = 1.0) -> None:
        for key, stat in other.names.items():
            self.names[key].add(stat, scale)
        for key, stat in other.layers.items():
            self.layers[key].add(stat, scale)
        for key, value in other.counters.items():
            self.counters[key] += value * scale
        for key, values in other.samples.items():
            self.samples[key].extend(values)
        self.spans.extend(other.spans)


def _arc_key(args):
    tokens, _upos, head, dep = args[:4]
    return (tokens, head, dep)


_DISTINCT_KEY = {
    "featurize_text": lambda args: args[0],
    "featurize_tokens": lambda args: tuple(args[0]),
    "featurize_arc": _arc_key,
}


def _named_like(wrapper, fn):
    """Give `wrapper` the identity of `fn`, so pickle sends it by the same name."""
    for key in ("__module__", "__name__", "__qualname__", "__doc__"):
        setattr(wrapper, key, getattr(fn, key))
    wrapper.__wrapped__ = fn
    return wrapper


def _greedy_root_count(arc_scores) -> int:
    """Tokens whose best head, ignoring self-loops, is ROOT."""
    scores = np.array(arc_scores.scores)
    n = scores.shape[1]
    scores[np.arange(1, n + 1), np.arange(n)] = -np.inf
    return int((scores.argmax(axis=0) == 0).sum())


class Tracer:
    def __init__(self, work_dir: Path):
        self.work_dir = Path(work_dir)
        self.pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        self.agg = Aggregate()
        self.stack: list[list] = []
        self.active_names: dict[str, int] = defaultdict(int)
        self.active_layers: dict[str, int] = defaultdict(int)
        self.distinct: set = set()
        self.next_span = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "lingalloc" or n.startswith("lingalloc."))]
        for module_name, attr, span_name, aggregated in TARGETS:
            module = sys.modules[f"lingalloc.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self._wrap(cls.__dict__[method], span_name, aggregated))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, span_name, aggregated)
            if attr == "run_cell":
                wrapper = self._worker_aware(wrapper)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        models = sys.modules["lingalloc.models"]
        hash_original = models.hash_features
        tracer = self

        def hash_features(keys, dim):
            counters = tracer.agg.counters
            counters["models.hash_features.calls"] += 1
            counters["models.hash_features.keys"] += len(keys)
            return hash_original(keys, dim)

        models.hash_features = _named_like(hash_features, hash_original)

    def _wrap(self, fn, span_name: str, aggregated: bool):
        layer = span_name.split(".", 1)[0]
        tracer = self
        attr = fn.__name__
        distinct_key = _DISTINCT_KEY.get(attr)

        def wrapper(*args, **kwargs):
            name = span_name
            if attr == "main":
                argv = args[0] if args else kwargs.get("argv")
                name = f"cli.main.{argv[0]}" if argv else "cli.main"
            stack = tracer.stack
            parent = stack[-1] if stack else None
            if aggregated:
                span_id = None
            else:
                span_id = tracer.next_span
                tracer.next_span += 1
            span_parent = None if parent is None else (
                parent[5] if parent[5] is not None else parent[6])
            frame = [name, layer, 0.0, 0.0, 0.0, span_id, span_parent]
            tracer.active_names[name] += 1
            tracer.active_layers[layer] += 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                counted = exc.__dict__.setdefault("_perfbench_layers", set())
                if layer not in counted:
                    counted.add(layer)
                    tracer.agg.counters[f"{layer}.errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._close(frame, parent, start, end)
            tracer._count(attr, name, args, result, distinct_key)
            return result

        return _named_like(wrapper, fn)

    def _worker_aware(self, wrapper):
        """Wrap `run_cell` so that a pool worker traces each cell on its own.

        The parent's state, copied into the worker by fork, is dropped on
        entry; on exit the cell's totals and spans are pickled into the work
        directory for `collect_workers`.
        """
        tracer = self

        def run_cell(*args, **kwargs):
            if os.getpid() == tracer.pid:
                return wrapper(*args, **kwargs)
            tracer.reset()
            try:
                return wrapper(*args, **kwargs)
            finally:
                part = tracer.export()
                path = tracer.work_dir / f"trace-{os.getpid()}-{args[1]['key']}.pkl"
                with open(path, "wb") as handle:
                    pickle.dump(part, handle)

        return _named_like(run_cell, wrapper)

    def _close(self, frame, parent, start: float, end: float) -> None:
        name, layer, _, child_total, child_other, span_id, span_parent = frame
        duration = end - start
        agg = self.agg
        self.active_names[name] -= 1
        self.active_layers[layer] -= 1
        stat = agg.names[name]
        stat.calls += 1
        stat.self_time += duration - child_total
        if not self.active_names[name]:
            stat.busy += duration
        if parent is None or parent[1] != layer:
            lstat = agg.layers[layer]
            lstat.calls += 1
            lstat.self_time += duration - child_other
            if not self.active_layers[layer]:
                lstat.busy += duration
        if parent is not None:
            parent[3] += duration
            parent[4] += child_other if parent[1] == layer else duration
        if span_id is not None:
            agg.spans.append((os.getpid(), span_id, span_parent, name, start, end))
        if name == "graph.chu_liu_edmonds":
            agg.samples[name].append(duration)

    def _count(self, attr, name, args, result, distinct_key) -> None:
        counters = self.agg.counters
        if distinct_key is not None:
            self.distinct.add(distinct_key(args))
        elif name == "models.objective":
            # class_objective(weights, examples, l2); parser_objective(arc_w, label_w, sentences, l2)
            counters["models.objective.examples"] += len(args[2 if attr == "parser_objective" else 1])
        elif name == "graph.chu_liu_edmonds":
            if _greedy_root_count(args[0]) > 1:
                counters["graph.chu_liu_edmonds.greedy_multi_root"] += 1
        elif name == "acquisition.select_batch":
            counters["acquisition.scored"] += len(args[0])
            counters["acquisition.acquired"] += len(result[0])
        elif name == "corpus.ingest":
            self.agg.samples["corpus.ingest.paths"].append(str(args[0]))

    # -- worker processes ---------------------------------------------------

    def collect_workers(self) -> int:
        """Merge and delete the parts written by pool workers; return the count."""
        count = 0
        for path in sorted(self.work_dir.glob("trace-*.pkl")):
            with open(path, "rb") as handle:
                part = pickle.load(handle)
            path.unlink()
            self.agg.merge(part)
            count += 1
        return count

    # -- results --------------------------------------------------------------

    def end_run(self) -> tuple[Aggregate, int]:
        """Totals of the run (or set-up) just finished, workers' cells included.

        Returns them with the number of worker cells gathered. Files read by
        several cells of one run count once towards ``corpus.ingest.distinct``.
        """
        cells = self.collect_workers()
        part = self.export()
        paths = part.samples.pop("corpus.ingest.paths", [])
        part.counters["corpus.ingest.distinct"] += len(set(paths))
        return part, cells

    def export(self) -> Aggregate:
        """Return the totals so far and start afresh (distinct sets included)."""
        self.agg.counters["models.featurize.distinct"] += len(self.distinct)
        out = self.agg
        self.reset()
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile_ms(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(np.ceil(q * len(ordered))) - 1))
    return ordered[rank] * 1e3


def per_layer_metrics(setup: Aggregate, runs: Aggregate, n_runs: int, jobs: int,
                      overhead_s: float) -> dict[str, float]:
    """Per-layer values for one set-up plus one measured run (mean of `n_runs`)."""
    total = Aggregate()
    total.merge(setup)
    total.merge(runs, 1.0 / n_runs)
    names, layers, counters = total.names, total.layers, total.counters
    # latencies keep every sample; set-up never decodes trees
    cle = runs.samples.get("graph.chu_liu_edmonds", [])
    run_wall = sum(end - start for _, _, _, name, start, end in runs.spans
                   if name == "cli.main.run") / n_runs
    cell_busy = names["cli.run_cell"].busy
    values = {
        "models.featurize.calls": names["models.featurize"].calls,
        "models.featurize.busy_s": names["models.featurize"].busy,
        "models.hash_features.keys": counters["models.hash_features.keys"],
        "models.featurize.distinct_ratio": _ratio(
            counters["models.featurize.distinct"], names["models.featurize"].calls),
        "models.fit.calls": names["models.fit"].calls,
        "models.fit.busy_s": names["models.fit"].busy,
        "models.fit.self_s": names["models.fit"].self_time,
        "models.objective.calls": names["models.objective"].calls,
        "models.objective.busy_s": names["models.objective"].busy,
        "models.objective.examples": counters["models.objective.examples"],
        "models.predict.calls": names["models.predict"].calls,
        "models.predict.busy_s": names["models.predict"].busy,
        "graph.chu_liu_edmonds.calls": names["graph.chu_liu_edmonds"].calls,
        "graph.chu_liu_edmonds.busy_s": names["graph.chu_liu_edmonds"].busy,
        "graph.chu_liu_edmonds.p50_ms": _percentile_ms(cle, 0.50),
        "graph.chu_liu_edmonds.p99_ms": _percentile_ms(cle, 0.99),
        "graph.chu_liu_edmonds.max_ms": max(cle) * 1e3 if cle else 0.0,
        "graph.chu_liu_edmonds.greedy_multi_root":
            counters["graph.chu_liu_edmonds.greedy_multi_root"],
        "graph.log_partition.calls": names["graph.log_partition"].calls,
        "graph.log_partition.busy_s": names["graph.log_partition"].busy,
        "acquisition.score.calls": names["acquisition.score"].calls,
        "acquisition.score.busy_s": names["acquisition.score"].busy,
        "acquisition.select_batch.calls": names["acquisition.select_batch"].calls,
        "acquisition.select_batch.busy_s": names["acquisition.select_batch"].busy,
        "acquisition.acquired_ratio": _ratio(
            counters["acquisition.acquired"], counters["acquisition.scored"]),
        "corpus.sample_splits.busy_s": names["corpus.sample_splits"].busy,
        "corpus.ingest.calls": names["corpus.ingest"].calls,
        "corpus.ingest.busy_s": names["corpus.ingest"].busy,
        "corpus.ingest.reuse_ratio": _ratio(
            counters["corpus.ingest.distinct"], names["corpus.ingest"].calls),
        "cli.run_cell.busy_s": cell_busy,
        "cli.load_data.busy_s": names["cli.load_data"].busy,
        "cli.report.busy_s": names["cli.main.report"].busy,
        "cli.pool.utilization": _ratio(cell_busy, jobs * run_wall),
        "cli.pool.idle_s": max(0.0, jobs * run_wall - cell_busy) if run_wall else 0.0,
        "experiment.run_rounds.self_s": names["experiment.run_rounds"].self_time,
        "tasks.metrics.busy_s": names["tasks.metrics"].busy,
    }
    for layer in LAYERS:
        values[f"{layer}.calls"] = layers[layer].calls
        values[f"{layer}.busy_s"] = layers[layer].busy
        values[f"{layer}.self_s"] = layers[layer].self_time
        values[f"{layer}.errors"] = counters[f"{layer}.errors"]
    values["trace.overhead_s"] = overhead_s
    return {name: values[name] for name, _, _ in PER_LAYER}
