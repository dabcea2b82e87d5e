"""Spans around the library's public functions, recorded from outside.

`cli`, `sobolev` and `electrostatics` bind these functions with
`from ... import`, so each wrapper replaces the function at every module
attribute that holds it, not only in the defining module.  Spans stay in
memory; `write_jsonl` writes them out once the pass is over.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import mpmath

# (metric prefix, defining module, attribute, timed).  The metric prefix is
# the per-layer name in BENCHMARK.json.  A timed target records a span per
# call; the others are called thousands of times per op from inside a timed
# target and only count their calls, so their time stays in the caller's
# self time.
TARGETS = (
    ("numkernel.sym_eigen", "jacobisobolev.numkernel", "sym_eigen", True),
    ("numkernel.poly_roots", "jacobisobolev.numkernel", "poly_roots", True),
    ("numkernel.solve_dense", "jacobisobolev.numkernel", "solve_dense", True),
    ("numkernel.cholesky_pd", "jacobisobolev.numkernel", "cholesky_pd", True),
    ("mpmath.eigsy", "mpmath", "eigsy", True),
    ("jacobi.build_jacobi", "jacobisobolev.jacobi", "build_jacobi", True),
    ("sobolev.build_family", "jacobisobolev.sobolev", "build_family", True),
    ("sobolev.kernel_dk", "jacobisobolev.sobolev", "kernel_dk", False),
    ("sobolev.kernel_poly_dk", "jacobisobolev.sobolev", "kernel_poly_dk", False),
    ("sobolev.inner_sobolev", "jacobisobolev.sobolev", "inner_sobolev", False),
    ("sobolev.zeros_of", "jacobisobolev.sobolev", "zeros_of", True),
    ("sobolev.is_sequentially_ordered", "jacobisobolev.sobolev", "is_sequentially_ordered", True),
    ("ladder.build_ladder", "jacobisobolev.ladder", "build_ladder", True),
    ("ladder.ode_residual", "jacobisobolev.ladder", "ode_residual", True),
    ("ladder.recurrence_residual", "jacobisobolev.ladder", "recurrence_residual", True),
    ("electrostatics.decompose_field", "jacobisobolev.electrostatics", "decompose_field", True),
    ("electrostatics.classify", "jacobisobolev.electrostatics", "classify", True),
    ("electrostatics.hessian", "jacobisobolev.electrostatics", "hessian", True),
    ("electrostatics.gradient", "jacobisobolev.electrostatics", "gradient", True),
    ("cli.load_config", "jacobisobolev.cli", "load_config", True),
    ("cli.render_report", "jacobisobolev.cli", "render_report", True),
)

# How a call's work item is identified for the distinct-per-call ratios.
DISTINCT_KEYS = {
    "numkernel.poly_roots": lambda args: args[0].coeffs,
    "ladder.build_ladder": lambda args: (id(args[0]), args[1]),
}

OP_SPAN = "cli.main"


class Tracer:
    """Records one span per timed call, (name, start, end, parent, op), and
    counts every call."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, op id]
        self.self_s = {}
        self.calls = {}
        self.distinct = {name: set() for name in DISTINCT_KEYS}
        self.op_id = None
        self._stack = []  # [span index, time covered by child spans]
        self._restore = []

    def count(self, name, fn, args, kwargs):
        key = DISTINCT_KEYS.get(name)
        if key is not None:
            self.distinct[name].add((self.op_id, key(args)))
        self.calls[name] = self.calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    def call(self, name, fn, args, kwargs):
        """`count`, inside a span."""
        parent = self._stack[-1][0] if self._stack else None
        span = [name, 0.0, 0.0, parent, self.op_id]
        frame = [len(self.spans), 0.0]
        self.spans.append(span)
        self._stack.append(frame)
        span[1] = start = time.perf_counter()
        try:
            return self.count(name, fn, args, kwargs)
        finally:
            span[2] = end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[1]

    def wrap(self, name, fn, timed):
        record = self.call if timed else self.count

        def traced(*args, **kwargs):
            return record(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every target at each module attribute that holds it."""
        import jacobisobolev  # noqa: F401  (loads every submodule)

        for name, module_name, attr, timed in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(name, original, timed)
            for module in list(sys.modules.values()):
                if module is mpmath or getattr(module, "__name__", "").startswith("jacobisobolev"):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._restore.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def distinct_ratio(self, name) -> float:
        calls = self.calls.get(name, 0)
        return len(self.distinct[name]) / calls if calls else 0.0

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}))
                fh.write("\n")
