"""Spans around tempolink's public functions, recorded from outside the package.

`Tracer.install` replaces each traced name where its caller looks it up
(a module attribute or a class method) with a wrapper that records a
span: name, start, end, parent span and work counters. Spans stay in
memory until `write_spans`. A layer's self time is its span's duration
minus the time its child spans cover.
"""

import contextlib
import json
import statistics
import time
from collections import defaultdict

from tempolink import data, dataset, evaluate, kernels, model, optim, store, trainer
from tempolink.autodiff import Tensor


def _rows(n_arg):
    """Counter: the length of positional argument `n_arg`."""
    return lambda args, kwargs, out: len(args[n_arg])


def _assemble_counts(args, kwargs, out):
    rows = len(args[1])
    return {"rows": rows, "cold": rows if out is None else out.skipped_cold}


def _score_name(args, kwargs):
    training = kwargs.get("training", args[2] if len(args) > 2 else False)
    return "model.score_train" if training else "model.score_eval"


# (owner, attribute, span name or name function, counter function or None).
# Each owner is where the caller looks the name up at call time.
TARGETS = [
    (dataset, "ingest", "dataset.ingest", None),
    (dataset, "load_bundle", "dataset.load_bundle", None),
    (store, "build_index", "store.build_index", None),
    (data, "eval_negatives", "data.eval_negatives", None),
    (store.NeighborIndex, "recent_neighbors_batch", "store.recent_neighbors", _rows(1)),
    (store.NeighborIndex, "last_activity_batch", "store.last_activity", _rows(1)),
    (store.NeighborIndex, "repeat_count_batch", "store.repeat_count", _rows(1)),
    (trainer, "assemble_batch", "data.assemble_batch", _assemble_counts),
    (evaluate, "assemble_batch", "data.assemble_batch", _assemble_counts),
    (trainer, "train_negatives", "data.train_negatives", None),
    (model.Model, "score", _score_name,
     lambda args, kwargs, out: out.data.size),
    (Tensor, "backward", "autodiff.backward", None),
    (kernels, "scatter_add", "kernels.scatter_add", _rows(1)),
    (optim.Adam, "step", "optim.step", lambda args, kwargs, out: 1),
    (trainer, "train", "trainer.train", None),
    (trainer, "train_epoch", "trainer.train_pass", None),
    (trainer, "evaluate", "trainer.validation", None),
    (trainer, "save_checkpoint", "trainer.save_checkpoint", None),
    (trainer, "load_checkpoint", "trainer.load_checkpoint", None),
    (evaluate, "evaluate", "evaluate.rank", None),
    (evaluate, "evaluate_edgebank", "evaluate.edgebank", None),
]

# per-layer metric -> (span name or names, None for self time or a counter
# key). A counter function returning one number stores it under "n".
LAYER_METRICS = {
    "dataset.ingest_s": ("dataset.ingest", None),
    "dataset.load_bundle_s": ("dataset.load_bundle", None),
    "store.build_index_s": ("store.build_index", None),
    "data.eval_negatives_s": ("data.eval_negatives", None),
    "store.recent_neighbors_s": ("store.recent_neighbors", None),
    "store.recent_neighbors_queries": ("store.recent_neighbors", "n"),
    "store.last_activity_s": ("store.last_activity", None),
    "store.last_activity_lookups": ("store.last_activity", "n"),
    "store.repeat_count_s": ("store.repeat_count", None),
    "store.repeat_count_lookups": ("store.repeat_count", "n"),
    "data.assemble_batch_s": ("data.assemble_batch", None),
    "data.assemble_rows": ("data.assemble_batch", "rows"),
    "data.cold_rows_skipped": ("data.assemble_batch", "cold"),
    "data.train_negatives_s": ("data.train_negatives", None),
    "model.score_train_s": ("model.score_train", None),
    "model.score_eval_s": ("model.score_eval", None),
    "model.candidates_scored": (("model.score_train", "model.score_eval"), "n"),
    "autodiff.backward_s": ("autodiff.backward", None),
    "kernels.scatter_add_s": ("kernels.scatter_add", None),
    "kernels.scatter_add_rows": ("kernels.scatter_add", "n"),
    "optim.step_s": ("optim.step", None),
    "optim.steps": ("optim.step", "n"),
    "trainer.train_pass_s": ("trainer.train_pass", None),
    "trainer.validation_s": ("trainer.validation", None),
    "evaluate.rank_s": ("evaluate.rank", None),
    "evaluate.edgebank_s": ("evaluate.edgebank", None),
}

# the layers whose work happens during set-up; all others during rounds
SETUP_SPANS = {"dataset.ingest", "dataset.load_bundle", "store.build_index",
               "data.eval_negatives"}


class Tracer:
    def __init__(self):
        self.spans = []   # [id, parent, name, start_ns, end_ns, counters]
        self._open = []   # ids of the spans enclosing the current call
        self._saved = []  # (owner, attribute, original) to restore

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around a block, for the benchmark's own phases."""
        sid = self._start(name)
        try:
            yield
        finally:
            self._end(sid)

    def _start(self, name):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([sid, parent, name, time.perf_counter_ns(), None, None])
        self._open.append(sid)
        return sid

    def _end(self, sid, counters=None):
        self._open.pop()
        rec = self.spans[sid]
        rec[4] = time.perf_counter_ns()
        rec[5] = counters

    def _wrap(self, fn, name, count):
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._start(name if isinstance(name, str) else name(args, kwargs))
            counters = None
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    counters = count(args, kwargs, out)
                    if isinstance(counters, int):
                        counters = {"n": counters}
                return out
            finally:
                tracer._end(sid, counters)

        return traced

    def install(self):
        for owner, attr, name, count in TARGETS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, count))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write_spans(self, path):
        with open(path, "w") as f:
            for sid, parent, name, start, end, counters in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                    "start_ns": start, "end_ns": end,
                                    "counters": counters}) + "\n")

    def phase_totals(self):
        """[(phase name, {span name: totals})] for each span without a parent.

        Totals are summed over the phase's descendants: "self_ns" (duration
        minus the direct children's; calls are sequential, so children never
        overlap), "total_ns", and each counter.
        """
        child_ns = defaultdict(int)
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        phase_of, phases = {}, []
        for sid, parent, name, start, end, counters in self.spans:
            if parent is None:
                phase_of[sid] = defaultdict(lambda: defaultdict(int))
                phases.append((name, phase_of[sid]))
            else:
                phase_of[sid] = phase_of[parent]
            acc = phase_of[sid][name]
            acc["self_ns"] += end - start - child_ns[sid]
            acc["total_ns"] += end - start
            for key, val in (counters or {}).items():
                acc[key] += val
        return phases


class NullTracer:
    """Stands in for a Tracer when tracing is off: phases record nothing."""

    def span(self, name):
        return contextlib.nullcontext()


def layer_metrics(tracer):
    """Per-layer metrics as rows of (metric, value, inclusive seconds or None).

    Set-up layers give the median over "bench.setup" phases; all other
    layers the median over "bench.round" phases.
    """
    phases = tracer.phase_totals()
    table = []
    for metric, (names, key) in LAYER_METRICS.items():
        names = names if isinstance(names, tuple) else (names,)
        setup = names[0] in SETUP_SPANS
        group = [p for name, p in phases if name == ("bench.setup" if setup
                                                     else "bench.round")]
        scale = 1e9 if key is None else 1

        def median_sum(field):
            return statistics.median(
                sum(p[n][field] for n in names if n in p) for p in group) / scale

        table.append((metric, median_sum(key or "self_ns"),
                      median_sum("total_ns") if key is None else None))
    return table
