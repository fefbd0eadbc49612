"""Per-layer spans recorded from outside the slicerank package.

`Tracer.install()` replaces every public function of the package's
modules with a wrapper that records a span, and rebinds every
module-level name that refers to one: `from .x import f` copies as
well as the package's re-exports.  `uninstall()` puts the originals
back.  Spans stay in memory; `summary()` turns them into per-pass
counts and self times, and `dump()` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types

PACKAGE = "slicerank"
MODULES = ("cli", "tensor_core", "rank_tools", "degeneration", "optimizer",
           "bound_engines")

# Functions with a span of their own; every other public function of a
# module is recorded under the module's name.  In `cli` only `main` is
# wrapped, so argument parsing, file reads, golden comparison and
# formatting are cli.main's self time.
NAMED = {
    "cli": {"main": "cli.main"},
    "tensor_core": {
        "parse_tensor": "tensor_core.parse", "parse_partition": "tensor_core.parse",
        "blocks": "tensor_core.blocks", "split_by_blocks": "tensor_core.blocks",
        "is_variable_symmetric": "tensor_core.symmetry",
        "is_t_symmetric_partition": "tensor_core.symmetry",
        "symmetric_cube": "tensor_core.symmetric_cube",
    },
    "rank_tools": {"flattening_rank": "rank_tools.flattening_rank",
                   "recognize_matmul": "rank_tools.recognize_matmul"},
    "degeneration": {"verify_degeneration": "degeneration.verify_degeneration"},
    "optimizer": {name: f"optimizer.{name}" for name in (
        "maximize_symmetric", "maximize_minmax", "maximize_product", "maximize_1d")},
    "bound_engines": {"laser_readiness": "bound_engines.laser_readiness"},
}

SPANS = ["cli.main", "tensor_core.parse", "tensor_core.blocks", "tensor_core.symmetry",
         "tensor_core.symmetric_cube", "tensor_core", "rank_tools.flattening_rank",
         "rank_tools.recognize_matmul", "rank_tools", "optimizer.maximize_symmetric",
         "optimizer.maximize_minmax", "optimizer.maximize_product", "optimizer.maximize_1d",
         "optimizer", "bound_engines.laser_readiness", "bound_engines",
         "degeneration.verify_degeneration", "degeneration"]

SOLVERS = ("optimizer.maximize_symmetric", "optimizer.maximize_minmax",
           "optimizer.maximize_product")

# flattening axis -> positions of the two column indices
_COLUMNS = {"x": (1, 2), "y": (2, 0), "z": (0, 1)}


class Tracer:
    def __init__(self):
        self.spans = []        # (name, start, end, parent index, pass id, raised)
        self.observed = []     # (span index, name, args, kwargs, result) for counters
        self.pass_id = -1
        self._stack = []
        self._saved = []
        self.wrappers = {}     # original function -> wrapper
        self.span_of = {}      # original function -> span name
        for mod_name in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for name, obj in vars(mod).items():
                if (not isinstance(obj, types.FunctionType) or name.startswith("_")
                        or obj.__module__ != mod.__name__):
                    continue
                span = NAMED[mod_name].get(name, None if mod_name == "cli" else mod_name)
                if span is not None:
                    self.wrappers[obj] = self._wrap(obj, span)
                    self.span_of[obj] = span

    def _wrap(self, fn, span):
        observe = span in SOLVERS or span == "rank_tools.flattening_rank"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            raised = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (span, start, end, parent, self.pass_id, raised)
            if observe:
                self.observed.append((idx, span, args, kwargs, result))
            return result

        return wrapper

    def install(self):
        for mod in [m for n, m in list(sys.modules.items())
                    if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in self.wrappers:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, self.wrappers[obj])

    def uninstall(self):
        for mod, name, obj in self._saved:
            setattr(mod, name, obj)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self, passes: int) -> dict:
        """Per-pass means of calls, self time and errors, plus counters."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for span in SPANS:
            out[f"{span}.calls"] = 0
            out[f"{span}.self_s"] = 0.0
            out[f"{span}.errors"] = 0
        for idx, (name, start, end, _, _, raised) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - covered[idx]
            out[f"{name}.errors"] += raised
        out = {k: v / passes for k, v in out.items()}

        nonzero = dense = 0
        iterations = 0
        kkt_max = 0.0
        solves = 0
        distinct = set()
        for idx, span, args, kwargs, result in self.observed:
            if span == "rank_tools.flattening_rank":
                call = dict(zip(("t", "axis"), args), **kwargs)
                t, axis = call["t"], call["axis"]
                c1, c2 = _COLUMNS[axis]
                nonzero += len({(k[c1], k[c2]) for k in t.entries})
                dense += t.shape[c1] * t.shape[c2]
            else:
                bs = args[0] if args else kwargs["block_set"]
                solves += 1
                iterations += result.iterations
                kkt_max = max(kkt_max, result.kkt_residual)
                distinct.add((self.spans[idx][4], span, _fingerprint(bs)))
        out["rank_tools.flattening_density"] = nonzero / dense if dense else 0.0
        out["optimizer.iterations"] = iterations / passes
        out["optimizer.kkt_residual_max"] = kkt_max
        out["optimizer.unique_solve_ratio"] = len(distinct) / solves if solves else 0.0
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pass", "raised"],
                       "spans": self.spans}, fh)


def _fingerprint(bs):
    """Content of a block set: part sizes and every block's entries."""
    sizes = tuple(tuple(bs.part_sizes(ax)) for ax in "xyz")
    return sizes, tuple((key, tuple(sorted(bs[key].entries.items())))
                        for key in bs.keys())


def reference_counts(tracer: Tracer, run):
    """Count real calls of every wrapped function while `run()` executes.

    Uses the interpreter's profile hook on the original code objects, so
    a call that reaches a function through a binding the tracer missed
    still counts.  Returns {span: calls}.
    """
    span_of = {fn.__code__: span for fn, span in tracer.span_of.items()}
    counts = {}

    def hook(frame, event, arg):
        if event == "call":
            span = span_of.get(frame.f_code)
            if span is not None:
                counts[span] = counts.get(span, 0) + 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts

