"""Outside-in tracing of relgen's layers.

The tracer wraps public functions of each relgen module and records one
span per call: (name, start, end, parent span, pass id, work). A module that
imported a function by name holds its own binding, so every binding to the
same function object, in every relgen module, is replaced by the wrapper;
patching the defining module alone would miss, for example, the relation
net's calls into ``nn.forward`` made through ``relgen.relations``.

``nn.forward``/``nn.backward`` calls are split by the network's first
activation: relu is the feature extractor, identity an output head, and tanh
the relation-net embedding. Spans stay in memory in flat arrays and are
written out once, when the run ends. A wrapper only times and forwards the
call, so traced runs reproduce untraced outputs bit for bit. Calls named in
PEAK_ALLOC also run under ``tracemalloc``, which records the peak memory
(numpy buffers included) allocated while the call was running.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from array import array

import numpy as np

# span name -> (defining module, attribute); "Class.method" patches the class
FUNCTIONS = {
    "nn.adam_step": ("relgen.nn", "adam_step"),
    "nn.loss_ce_batch": ("relgen.nn", "loss_ce_batch"),
    "nn.loss_mse": ("relgen.nn", "loss_mse"),
    "relations.learned_matrix": ("relgen.relations", "learned_matrix"),
    "relations.learned_matrix_backward": ("relgen.relations", "learned_matrix_backward"),
    "relations.relation_row": ("relgen.relations", "relation_row"),
    "model.total_loss_and_grads": ("relgen.model", "total_loss_and_grads"),
    "model.train": ("relgen.model", "train"),
    "model.train_erm": ("relgen.model", "train_erm"),
    "model.evaluate": ("relgen.model", "evaluate"),
    "model.combine_heads": ("relgen.model", "combine_heads"),
    "model.rw_finetune": ("relgen.model", "rw_finetune"),
    "model.save_checkpoint": ("relgen.model", "save_checkpoint"),
    "model.load_checkpoint": ("relgen.model", "load_checkpoint"),
    "data.save_dataset": ("relgen.data", "save_dataset"),
    "data.load_dataset_dir": ("relgen.data", "load_dataset_dir"),
    "data.arrays_for": ("relgen.data", "DomainDataset.arrays_for"),
    "data.domain_arrays": ("relgen.data", "DomainDataset.domain_arrays"),
    "data.fixed_between": ("relgen.data", "DomainDataset.fixed_between"),
    "theory.sample_world": ("relgen.theory", "sample_world"),
    "theory.excess_risk": ("relgen.theory", "excess_risk"),
    "theory.fit_heads": ("relgen.theory", "fit_heads"),
    "theory.calibrate_bandwidth": ("relgen.theory", "calibrate_bandwidth"),
    "theory.averaging_oracle": ("relgen.theory", "averaging_oracle"),
    "cli.main": ("relgen.cli", "main"),
    "fileio.atomic_write_text": ("relgen.fileio", "atomic_write_text"),
}

# nn.forward / nn.backward, named by the first layer's activation
NETWORK_ROLES = {"relu": "extractor", "identity": "head", "tanh": "relnet"}
NETWORK_FUNCTIONS = ("forward", "backward")


def _adam_arrays(args, kwargs):
    return len(args[0] if args else kwargs["params"])


WORK = {"nn.adam_step": _adam_arrays}
# spans whose work entry is the peak bytes allocated during the call
PEAK_ALLOC = {"theory.averaging_oracle"}

PER_CALL = ("calls", "self_s")
LAYER_METRICS = (
    [f"nn.{fn}.{role}.{m}" for fn in NETWORK_FUNCTIONS for role in NETWORK_ROLES.values()
     for m in PER_CALL]
    + [f"nn.adam_step.{m}" for m in ("calls", "self_s", "p50_us", "p99_us", "arrays_per_call")]
    + [f"nn.{fn}.{m}" for fn in ("loss_ce_batch", "loss_mse") for m in PER_CALL]
    + [f"relations.{fn}.{m}" for fn in ("learned_matrix", "learned_matrix_backward", "relation_row")
       for m in PER_CALL]
    + [f"model.total_loss_and_grads.{m}" for m in ("calls", "self_s", "p50_us", "p99_us")]
    + ["model.train.self_s", "model.train_erm.self_s"]
    + [f"model.{fn}.{m}" for fn in ("evaluate", "combine_heads", "rw_finetune", "save_checkpoint",
                                    "load_checkpoint") for m in PER_CALL]
    + [f"data.{fn}.{m}" for fn in ("save_dataset", "load_dataset_dir", "arrays_for",
                                   "domain_arrays", "fixed_between") for m in PER_CALL]
    + [f"theory.{fn}.{m}" for fn in ("sample_world", "excess_risk") for m in PER_CALL]
    + [f"theory.{fn}.self_s" for fn in ("fit_heads", "calibrate_bandwidth", "averaging_oracle")]
    + ["theory.averaging_oracle.peak_alloc_bytes"]
    + [f"cli.main.{m}" for m in PER_CALL]
    + [f"fileio.atomic_write_text.{m}" for m in PER_CALL]
    + ["trace.unattributed_s", "trace.overhead_s"]
)

UNITS = {
    "calls": "count",
    "self_s": "s",
    "p50_us": "us",
    "p99_us": "us",
    "arrays_per_call": "count",
    "peak_alloc_bytes": "B",
    "unattributed_s": "s",
    "overhead_s": "s",
}


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]


class Tracer:
    """Span recorder; install() patches relgen, uninstall() restores it."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.pass_id = array("i")
        self.work = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_pass = 0
        self._patched: list = []  # (owner, attribute, original)

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def wrap(self, fn, name_of, work_of=None, peak_alloc=False):
        """Return fn wrapped to record a span; name_of maps the call's args to a span id.

        work_of maps the call's arguments to the span's work count; with
        peak_alloc the work is instead the peak of tracemalloc during the call.
        """
        span_name, parent, pass_id, work = self.span_name, self.parent, self.pass_id, self.work
        start, end, stack, clock = self.start, self.end, self.stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(name_of(args))
            parent.append(stack[-1])
            pass_id.append(tracer.current_pass)
            work.append(work_of(args, kwargs) if work_of else 0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        @functools.wraps(fn)
        def traced_alloc(*args, **kwargs):
            idx = len(work)
            tracemalloc.start()
            try:
                return traced(*args, **kwargs)
            finally:
                work[idx] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

        return traced_alloc if peak_alloc else traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "relgen" or k.startswith("relgen.")]
        for name, (module, attr) in FUNCTIONS.items():
            owner = sys.modules[module]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
                owners = [owner]
            else:
                owners = modules
            self._patch(owners, getattr(owner, attr), self._fixed(name), WORK.get(name),
                        name in PEAK_ALLOC)
        nn = sys.modules["relgen.nn"]
        for fn in NETWORK_FUNCTIONS:
            ids = {act: self._id(f"nn.{fn}.{role}") for act, role in NETWORK_ROLES.items()}
            self._patch(modules, getattr(nn, fn), lambda args, ids=ids: ids[args[0].layers[0].act])

    def _fixed(self, name: str):
        i = self._id(name)
        return lambda args: i

    def _patch(self, owners, original, name_of, work_of=None, peak_alloc=False) -> None:
        wrapper = self.wrap(original, name_of, work_of, peak_alloc)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, wrapper)
                    self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "pass": np.frombuffer(self.pass_id, dtype=np.int32),
            "work": np.frombuffer(self.work, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def span_cost_s(calls: int = 20_000) -> float:
    """Time a span adds to one call: wrapped minus bare no-op, best of three."""

    def noop():
        return None

    probe = Tracer()
    traced = probe.wrap(noop, lambda args: 0)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)


def layer_metrics(tracer: Tracer, passes: dict, span_cost: float) -> dict:
    """Per-layer metrics for one set-up pass plus one workload iteration.

    passes maps each pass id, 0 .. len(passes)-1, to (phase, wall seconds)
    with phase "setup" or "iteration". Counts and times are summed per pass,
    the median is taken over the passes of each phase, and the two phases
    are added, so a count is exact whenever every pass of a phase does the
    same work. Latency percentiles and peak allocations are taken over the
    spans of every pass.
    """
    a = tracer.arrays()
    n_names = len(tracer.names)
    dur = a["end"] - a["start"]
    child = np.zeros(len(dur))
    nested = a["parent"] >= 0
    np.add.at(child, a["parent"][nested], dur[nested])
    self_t = dur - child

    phases = [passes[p][0] for p in range(len(passes))]
    cell = a["pass"] * n_names + a["name"]
    shape = (len(passes), n_names)

    def per_pass(weights=None):
        return np.bincount(cell, weights=weights, minlength=shape[0] * shape[1]).reshape(shape)

    def by_phase(table):
        """Median over the passes of each phase, summed over the phases."""
        total = np.zeros(table.shape[1:])
        for phase in ("setup", "iteration"):
            rows = [k for k, ph in enumerate(phases) if ph == phase]
            if rows:
                total = total + np.median(table[rows], axis=0)
        return total

    calls = by_phase(per_pass())
    self_s = by_phase(per_pass(self_t))
    work = by_phase(per_pass(a["work"].astype(np.float64)))
    roots = np.bincount(a["pass"][~nested], weights=dur[~nested], minlength=shape[0])
    spans = np.bincount(a["pass"], minlength=shape[0]).astype(np.float64)
    walls = np.array([passes[p][1] for p in range(len(passes))])

    out = {}
    for metric in LAYER_METRICS:
        name, kind = metric.rsplit(".", 1)
        i = tracer.name_id.get(name)
        if kind == "unattributed_s":
            out[metric] = float(by_phase(walls - roots))
        elif kind == "overhead_s":
            out[metric] = float(by_phase(spans * span_cost))
        elif i is None:
            out[metric] = 0.0
        elif kind == "calls":
            out[metric] = int(round(calls[i]))
        elif kind == "self_s":
            out[metric] = float(self_s[i])
        elif kind in ("p50_us", "p99_us"):
            d = dur[a["name"] == i]
            q = 50 if kind == "p50_us" else 99
            out[metric] = float(np.percentile(d, q) * 1e6) if d.size else 0.0
        elif kind == "arrays_per_call":
            out[metric] = float(work[i] / calls[i]) if calls[i] else 0.0
        elif kind == "peak_alloc_bytes":
            out[metric] = int(a["work"][a["name"] == i].max(initial=0))
    return out
