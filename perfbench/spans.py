"""Span tracing of the package's layers from outside the package.

``Tracer.install`` replaces every public function of a ``minimaxclf``
module, in every module namespace that refers to it, with a wrapper that
records a span (name, start, end, parent). Patching each namespace is what
catches calls between modules: ``model.py`` imports ``batch_loss`` by name,
so the wrapper has to sit at ``minimaxclf.model.batch_loss``. A span is
named ``<defining module>.<function>``; the module is the layer.

A few boundaries also count work as it happens (FLOPs, density rows, MC
trials, bytes written, repeated evaluations). These counters run in spans
of their own under the ``trace`` layer, so their cost stays out of every
layer's self time. Spans live in memory until ``save`` writes them.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import math
import os
import sys
from array import array
from time import perf_counter_ns

import numpy as np

LAYERS = (
    "config", "data", "model", "losses", "ascent", "minimax", "metrics",
    "oracle", "priors", "mc", "theory", "reports", "cli",
)
# functions reported on their own, by metric prefix
FUNCTIONS = {
    "model.forward": "model.forward_logits",
    "model.backward": "model.backward",
    "model.sgd_step": "model.sgd_step",
    "model.predict": "model.predict",
    "oracle.log_density": "oracle.class_log_densities",
    "priors.project": "priors.project_to_simplex",
}
PACKAGE = "minimaxclf"
HOOK = "trace.counters"


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.shape).encode())
        h.update(a)
    return h.digest()


def _data_key(a: np.ndarray) -> tuple:
    """Identity of a long-lived array: its buffer address and shape."""
    return a.__array_interface__["data"][0], a.shape


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = []
        self.counters = {
            "model.step_flops": 0,
            "oracle.log_density.rows": 0,
            "oracle.log_density.bytes": 0,
            "mc.trials": 0,
            "mc.chunks": 0,
            "reports.bytes_written": 0,
        }
        # distinct inputs seen per repeat-prone evaluation, and its attempts
        self.seen = {"eval_predict": set(), "risk_eval": set(), "density": set()}
        self.attempts = {"eval_predict": 0, "risk_eval": 0, "density": 0}
        # counters run before the call (on its arguments) or after it
        self._before = {
            "model.backward": self._count_flops,
            "model.predict": self._count_eval_predict,
            "ascent.estimate_class_risks": self._count_risk_eval,
            "oracle.class_log_densities": self._count_density,
            "mc.mc_worst_class_failure": self._count_mc,
            "mc.mc_ega_mse": self._count_mc,
        }
        self._after = {
            "reports.write_csv": self._count_bytes,
            "reports.write_json": self._count_bytes,
        }

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(0)
        self.end.append(0)
        self.stack.append(i)
        self.start[i] = perf_counter_ns()
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self.stack.pop()

    def _wrap(self, fn, qualname: str):
        nid = self._id(qualname)
        hid = self._id(HOOK)
        before = self._before.get(qualname)
        after = self._after.get(qualname)
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            if before is not None:
                caller = self.names[self.name[self.stack[-1]]] if self.stack else ""
                h = self._open(hid)
                before(caller, signature.bind(*args, **kwargs).arguments)
                self._close(h)
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)
                if after is not None:
                    h = self._open(hid)
                    after(signature.bind(*args, **kwargs).arguments)
                    self._close(h)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module in place."""
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(PACKAGE + "."):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrappers[obj] = self._wrap(obj, f"{layer}.{obj.__name__}")
                setattr(module, attr, wrappers[obj])

    # -- counters at boundaries ----------------------------------------------

    def _count_flops(self, caller, a) -> None:
        """Matmul FLOPs of one training step from the tensor shapes: the
        forward pass, every weight gradient, and the input gradient of every
        layer but the first."""
        if caller != "model.train_epoch":
            return
        rows = np.shape(a["instances"])[0]
        macs = [w.shape[0] * w.shape[1] for w in a["params"].weights]
        self.counters["model.step_flops"] += 2 * rows * (2 * sum(macs) + sum(macs[1:]))

    def _params_key(self, params) -> bytes:
        return _digest(*[t for _, t in params.tensors()])

    def _count_eval_predict(self, caller, a) -> None:
        if not caller.startswith("metrics."):
            return
        self.attempts["eval_predict"] += 1
        self.seen["eval_predict"].add((self._params_key(a["params"]), _data_key(a["instances"])))

    def _count_risk_eval(self, caller, a) -> None:
        self.attempts["risk_eval"] += 1
        self.seen["risk_eval"].add((self._params_key(a["params"]), _data_key(a["dataset"].instances)))

    def _count_density(self, caller, a) -> None:
        spec, x = a["spec"], np.atleast_2d(np.asarray(a["x"], dtype=np.float64))
        self.counters["oracle.log_density.rows"] += x.shape[0]
        self.counters["oracle.log_density.bytes"] += 8 * x.shape[0] * spec.class_count
        self.attempts["density"] += 1
        self.seen["density"].add(_digest(spec.means, spec.covariances, x))

    def _count_mc(self, caller, a) -> None:
        self.counters["mc.trials"] += a["trials"]
        self.counters["mc.chunks"] += math.ceil(a["trials"] / sys.modules[f"{PACKAGE}.mc"]._CHUNK)

    def _count_bytes(self, a) -> None:
        self.counters["reports.bytes_written"] += os.path.getsize(a["path"])

    # -- output ----------------------------------------------------------------

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
        )

    def metrics(self) -> dict:
        """Per-layer metrics from the spans and counters; ``run.py`` holds
        their units. A layer or function that did not run reads 0."""
        names = np.array(self.names)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)) / 1e9
        has_parent = parent >= 0
        covered = np.zeros(dur.size)
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_s = dur - covered
        span_name = names[name]
        layer = np.array([n.split(".", 1)[0] for n in self.names])[name]

        out = {}
        for prefix, sel in [(lay, layer == lay) for lay in LAYERS] + [
            (key, span_name == qualname) for key, qualname in FUNCTIONS.items()
        ]:
            out[f"{prefix}.calls"] = int(sel.sum())
            out[f"{prefix}.self_s"] = float(self_s[sel].sum())

        # a training step is everything train_epoch calls per batch
        in_step = has_parent & (span_name[np.where(has_parent, parent, 0)] == "model.train_epoch")
        steps = int((in_step & (span_name == "model.sgd_step")).sum())
        step_s = float(dur[in_step].sum())
        flops = self.counters["model.step_flops"]
        out["model.steps"] = steps
        out["model.step_us"] = 1e6 * step_s / steps if steps else 0.0
        out["model.flops_per_step"] = flops / steps if steps else 0.0
        out["model.step_gflops"] = flops / step_s / 1e9 if steps else 0.0

        def ratio(kind):
            n = self.attempts[kind]
            return len(self.seen[kind]) / n if n else 0.0

        out["metrics.eval_predict_useful_ratio"] = ratio("eval_predict")
        out["ascent.risk_evals"] = self.attempts["risk_eval"]
        out["ascent.risk_eval_useful_ratio"] = ratio("risk_eval")
        out["oracle.log_density.rows"] = self.counters["oracle.log_density.rows"]
        out["oracle.log_density.mb_computed"] = self.counters["oracle.log_density.bytes"] / 1e6
        out["oracle.density_useful_ratio"] = ratio("density")
        out["mc.trials"] = self.counters["mc.trials"]
        out["mc.chunks"] = self.counters["mc.chunks"]
        out["reports.bytes_written"] = self.counters["reports.bytes_written"]
        out["trace.spans"] = int(dur.size)
        out["trace.counters_s"] = float(dur[layer == "trace"].sum())
        return out
