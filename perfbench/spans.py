"""Span tracing of the sinkdiv modules, installed from outside the package.

`Tracer.install` replaces the public calls listed in FUNCTIONS and METHODS
with wrappers that record one span per call: name, start, end, parent span,
command id and a few counts read from the arguments and the return value.
A module that did `from .sinkhorn import solve` holds its own binding, so a
function is replaced at every binding in every loaded sinkdiv module and in
the package namespace. Private helpers are never wrapped, so rewriting them
cannot break the trace.

`layer_metrics` turns the spans into the per-layer metrics. A span's self
time is its duration minus the durations of its direct child spans; nested
calls of one family (NegatedKernel.gram calling the base kernel's gram) are
counted once, at the outermost span.
"""
from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np


def _solve_counts(args, kwargs, result):
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    mu, nu = args[1], args[2]
    return {
        "n": len(mu),
        "m": len(nu),
        "iterations": result.iterations,
        "converged": result.converged,
        "maxiter_hit": (not result.converged) and result.iterations >= cfg.max_iter,
        # a solve of a measure against itself; the dither energy's cross term
        # is the one solve per evaluation that is not
        "self": mu is nu,
    }


def _cells(args, kwargs, result):
    return {"cells": int(np.size(result))}


def _vars(args, kwargs, result):
    return {"vars": len(args[1]) * len(args[2])}


def _dither_counts(args, kwargs, result):
    return {"outer_steps": len(result.trace) - 1}


def _bytes(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes": len(text.encode("utf-8"))}


# (module, public function, span name, counts read from args and result)
FUNCTIONS = [
    ("sinkdiv.sinkhorn", "solve", "sinkhorn.solve", _solve_counts),
    ("sinkdiv.sinkhorn", "softmin", "sinkhorn.softmin", None),
    ("sinkdiv.sinkhorn", "extend_potentials", "sinkhorn.extend_potentials", None),
    ("sinkdiv.sinkhorn", "ot_infinity", "sinkhorn.ot_infinity", None),
    ("sinkdiv.kernels", "pairwise_distances", "kernels.pairwise_distances", _cells),
    ("sinkdiv.divergence", "sinkhorn_divergence", "divergence.sinkhorn_divergence", None),
    ("sinkdiv.divergence", "epsilon_sweep", "divergence.epsilon_sweep", None),
    ("sinkdiv.divergence", "witness_from_limits", "divergence.witness_from_limits", None),
    ("sinkdiv.discrepancy", "discrepancy", "discrepancy.discrepancy", None),
    ("sinkdiv.discrepancy", "halftoning_energy", "discrepancy.halftoning_energy", None),
    ("sinkdiv.exact_ot", "exact_ot", "exact_ot.exact_ot", _vars),
    ("sinkdiv.dither", "dither", "dither.dither", _dither_counts),
    ("sinkdiv.measures", "load_measure", "measures.load_measure", None),
    ("sinkdiv.measures", "save_potential", "measures.save_potential", None),
    ("sinkdiv.fileio", "atomic_write_text", "fileio.atomic_write_text", _bytes),
    ("sinkdiv.cli", "main", "cli.main", None),
]

# (module, class, method, span name, counts); overrides are wrapped where the
# subclass defines them, so every kernel and cost variant is covered
METHODS = [
    ("sinkdiv.kernels", "_RadialFunction", "gram", "kernels.gram", None),
    ("sinkdiv.kernels", "NegatedKernel", "gram", "kernels.gram", None),
    ("sinkdiv.kernels", "CpdShifted", "gram", "kernels.gram", None),
    ("sinkdiv.kernels", "_RadialFunction", "pairwise_grad_y", "kernels.pairwise_grad_y", _cells),
    ("sinkdiv.kernels", "NegatedKernel", "pairwise_grad_y", "kernels.pairwise_grad_y", _cells),
    ("sinkdiv.kernels", "CpdShifted", "pairwise_grad_y", "kernels.pairwise_grad_y", _cells),
    ("sinkdiv.kernels", "Cost", "matrix", "kernels.matrix", None),
]


class Tracer:
    """In-memory span recorder; spans are lists [name, start, end, parent, command, counts]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.command = -1

    def wrap(self, name, func, counts):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counts is not None:
                span[5] = counts(args, kwargs, result)
            return result

        return traced

    def install(self) -> int:
        """Wrap every listed call at every binding; returns the number of bindings replaced."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "sinkdiv" or key.startswith("sinkdiv."))]
        replaced = 0
        for module_name, attr, name, counts in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(name, original, counts)
            bound = 0
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"{module_name}.{attr} has no binding to wrap")
            replaced += bound
        for module_name, cls_name, attr, name, counts in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            if attr not in vars(cls):
                raise RuntimeError(f"{cls_name}.{attr} is not defined where the trace expects it")
            setattr(cls, attr, self.wrap(name, vars(cls)[attr], counts))
            replaced += 1
        return replaced

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, command, counts in self.spans:
                record = {"name": name, "start": start, "end": end,
                          "parent": parent, "command": command}
                if counts:
                    record.update(counts)
                handle.write(json.dumps(record, sort_keys=True) + "\n")


# per-layer metric name -> unit, in the order they are printed
LAYER_UNITS = {
    "sinkhorn.solves": "count",
    "sinkhorn.iterations": "count",
    "sinkhorn.iters_per_solve": "count",
    "sinkhorn.maxiter_hits": "count",
    "sinkhorn.solve_self_s": "s",
    "sinkhorn.ns_per_cell_iter": "ns",
    "sinkhorn.softmin_calls": "count",
    "sinkhorn.softmin_s": "s",
    "sinkhorn.limits_s": "s",
    "kernels.dist_calls": "count",
    "kernels.cells": "count",
    "kernels.dist_s": "s",
    "kernels.matrix_s": "s",
    "kernels.gram_s": "s",
    "kernels.grad_calls": "count",
    "kernels.grad_cells": "count",
    "kernels.grad_s": "s",
    "divergence.calls": "count",
    "divergence.self_s": "s",
    "discrepancy.calls": "count",
    "discrepancy.self_s": "s",
    "exact_ot.calls": "count",
    "exact_ot.vars": "count",
    "exact_ot.s": "s",
    "dither.outer_steps": "count",
    "dither.energy_evals": "count",
    "dither.accept_ratio": "ratio",
    "dither.self_s": "s",
    "measures.load_calls": "count",
    "measures.load_s": "s",
    "measures.save_calls": "count",
    "measures.save_s": "s",
    "fileio.write_calls": "count",
    "fileio.bytes": "bytes",
    "fileio.write_s": "s",
    "cli.self_s": "s",
}


def layer_metrics(spans) -> dict:
    """Aggregate spans into the LAYER_UNITS metrics (values only)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def self_time(i):
        return spans[i][2] - spans[i][1] - child_time[i]

    def inclusive(i):
        return spans[i][2] - spans[i][1]

    def family(i):
        return spans[i][0]

    def outermost(i):
        parent = spans[i][3]
        return parent < 0 or family(parent) != family(i)

    def under(i, name):
        parent = spans[i][3]
        while parent >= 0:
            if family(parent) == name:
                return True
            parent = spans[parent][3]
        return False

    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def total(indices, fn):
        return float(sum(fn(i) for i in indices))

    solves = idx("sinkhorn.solve")
    solve_counts = [spans[i][5] for i in solves]
    iterations = sum(c["iterations"] for c in solve_counts)
    cell_iters = sum(c["iterations"] * c["n"] * c["m"] for c in solve_counts)
    # solve self time excludes its child spans, which are the cost-matrix builds
    solve_self = total(solves, self_time)
    softmin_spans = idx("sinkhorn.softmin") + idx("sinkhorn.extend_potentials")
    dists = idx("kernels.pairwise_distances")
    grams = [i for i in idx("kernels.gram") if outermost(i) and not under(i, "kernels.matrix")]
    grads = [i for i in idx("kernels.pairwise_grad_y") if outermost(i)]
    divergence = (idx("divergence.sinkhorn_divergence") + idx("divergence.epsilon_sweep")
                  + idx("divergence.witness_from_limits"))
    discrepancy = idx("discrepancy.discrepancy") + idx("discrepancy.halftoning_energy")
    dithers = idx("dither.dither")
    outer_steps = sum(spans[i][5]["outer_steps"] for i in dithers)
    # one energy evaluation is one cross solve (finite epsilon) or one
    # halftoning energy (infinite epsilon) made inside a dither call
    energy_evals = sum(
        1 for i in solves if not spans[i][5]["self"] and under(i, "dither.dither")
    ) + sum(1 for i in idx("discrepancy.halftoning_energy") if under(i, "dither.dither"))
    writes = idx("fileio.atomic_write_text")

    return {
        "sinkhorn.solves": len(solves),
        "sinkhorn.iterations": iterations,
        "sinkhorn.iters_per_solve": iterations / len(solves) if solves else 0.0,
        "sinkhorn.maxiter_hits": sum(1 for c in solve_counts if c["maxiter_hit"]),
        "sinkhorn.solve_self_s": solve_self,
        "sinkhorn.ns_per_cell_iter": 1e9 * solve_self / cell_iters if cell_iters else 0.0,
        "sinkhorn.softmin_calls": len(idx("sinkhorn.softmin")),
        "sinkhorn.softmin_s": total(softmin_spans, self_time),
        "sinkhorn.limits_s": total(idx("sinkhorn.ot_infinity"), self_time),
        "kernels.dist_calls": len(dists),
        "kernels.cells": sum(spans[i][5]["cells"] for i in dists),
        "kernels.dist_s": total(dists, inclusive),
        "kernels.matrix_s": total(idx("kernels.matrix"), inclusive),
        "kernels.gram_s": total(grams, inclusive),
        "kernels.grad_calls": len(grads),
        "kernels.grad_cells": sum(spans[i][5]["cells"] for i in grads),
        "kernels.grad_s": total(grads, inclusive),
        "divergence.calls": len(divergence),
        "divergence.self_s": total(divergence, self_time),
        "discrepancy.calls": len(discrepancy),
        "discrepancy.self_s": total(discrepancy, self_time),
        "exact_ot.calls": len(idx("exact_ot.exact_ot")),
        "exact_ot.vars": sum(spans[i][5]["vars"] for i in idx("exact_ot.exact_ot")),
        "exact_ot.s": total(idx("exact_ot.exact_ot"), self_time),
        "dither.outer_steps": outer_steps,
        "dither.energy_evals": energy_evals,
        "dither.accept_ratio": outer_steps / energy_evals if energy_evals else 0.0,
        "dither.self_s": total(dithers, self_time),
        "measures.load_calls": len(idx("measures.load_measure")),
        "measures.load_s": total(idx("measures.load_measure"), self_time),
        "measures.save_calls": len(idx("measures.save_potential")),
        "measures.save_s": total(idx("measures.save_potential"), self_time),
        "fileio.write_calls": len(writes),
        "fileio.bytes": sum(spans[i][5]["bytes"] for i in writes),
        "fileio.write_s": total(writes, self_time),
        "cli.self_s": total(idx("cli.main"), self_time),
    }
