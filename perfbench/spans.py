"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: the public functions of the
regsys layers and a handful of numpy/scipy kernels are replaced, in every
module namespace that binds them, by wrappers that record (name, parent,
start, end). Nothing inside src/regsys changes. Spans stay in memory and
are written out once, when the round ends.

A layer's self time is its span's duration minus the durations of its
direct children, so the self times of all spans opened inside one root
span add up to that root span's duration.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("node", "feedback", "gramian", "sampling", "boundary", "beam", "cli")

# kernel name -> (module path, attribute) pairs where the kernel is bound.
# numpy.linalg.norm(x, 2) reaches svd through numpy.linalg._linalg, so that
# binding is wrapped as well; kernel.lu counts every LU-based dense solve.
KERNELS = {
    "expm": (("scipy.linalg", "expm"), ("regsys.beam", "expm")),
    "svd": (("numpy.linalg", "svd"), ("numpy.linalg._linalg", "svd")),
    "eigh": (("scipy.linalg", "eigh"), ("regsys.beam", "eigh")),
    "eigvals": (("numpy.linalg", "eigvals"),),
    "lu": (("scipy.linalg", "lu_factor"), ("scipy.linalg", "lu_solve"),
           ("regsys.boundary", "lu_factor"), ("regsys.boundary", "lu_solve"),
           ("numpy.linalg", "solve")),
}


class Tracer:
    """In-memory span recorder; records only while `active` is true."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.stack: list[int] = []
        self.active = False
        self.expm_n3 = 0

    def _open(self, name: str) -> list:
        rec = [name, self.stack[-1] if self.stack else -1, 0.0, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        traced.__wrapped__ = fn
        return traced

    def wrap_simulate(self, fn):
        """beam.simulate split by path: forced when an input signal is given."""
        def traced(model, g, u=None, state0=None):
            if not self.active:
                return fn(model, g, u, state0)
            rec = self._open("beam.simulate_free" if u is None else "beam.simulate_forced")
            try:
                return fn(model, g, u, state0)
            finally:
                self._close(rec)

        traced.__wrapped__ = fn
        return traced

    def wrap_expm(self, fn):
        def traced(a, *args, **kwargs):
            if self.active:
                shape = getattr(a, "shape", ())
                if len(shape) >= 2:
                    self.expm_n3 += int(shape[-1]) ** 3
            return fn(a, *args, **kwargs)

        traced.__wrapped__ = fn
        return self.wrap("kernel.expm", traced)

    def summary(self) -> dict:
        """{name: [calls, self_s]} over all recorded spans."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, _parent, start, end) in enumerate(self.spans):
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child_time[i]
        return out

    def write(self, path: Path) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        doc = {
            "columns": ["name", "parent", "start_s", "end_s"],
            "expm_n3": self.expm_n3,
            "spans": [[n, p, round(s - t0, 9), round(e - t0, 9)] for n, p, s, e in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every public function of the regsys layers wherever a regsys
    module binds it, BeamModel.modal_basis, and the kernels in KERNELS."""
    import regsys.beam

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "regsys" or name.startswith("regsys.")]
    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules[f"regsys.{layer}"]
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if (layer, name) == ("beam", "simulate"):
                wrapped[id(obj)] = tracer.wrap_simulate(obj)
            else:
                wrapped[id(obj)] = tracer.wrap(f"{layer}.{name}", obj)
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and id(obj) in wrapped:
                setattr(mod, name, wrapped[id(obj)])

    model_cls = regsys.beam.BeamModel
    model_cls.modal_basis = tracer.wrap("beam.modal_basis", model_cls.modal_basis)

    for kernel, bindings in KERNELS.items():
        done = {}
        for mod_name, attr in bindings:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            if id(original) not in done:
                done[id(original)] = (tracer.wrap_expm(original) if kernel == "expm"
                                      else tracer.wrap(f"kernel.{kernel}", original))
            setattr(mod, attr, done[id(original)])
