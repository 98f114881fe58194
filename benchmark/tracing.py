"""Span recorder and per-layer report for the traced run.

Only the traced run imports this module.  `install` replaces the program's
functions at the module attributes through which the other layers (and the
workloads) call them, so no program file is edited; `uninstall` puts the
originals back.  Each span is [name, op, parent, start_ns, end_ns, attrs];
spans of one operation share the op id, and the operation itself is a root
span named "op".  The hottest scalar kernels (two_phase_pdf, two_phase_cdf)
are counted, not spanned, at the same boundaries.  Spans stay in memory
until `write` dumps them when the run ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict

_clock = time.perf_counter_ns


def _output_bytes(args, kwargs, out):
    return len(kwargs["stdout"].getvalue().encode())


def _solve_work(args, kwargs, solution):
    steps = round((solution.t - solution.grid.t_warm) / solution.dt_effective)
    return {"steps": steps, "cells": int(solution.x.size)}


#: (module, attribute, span name, attrs(args, kwargs, result) or None)
SPANS = [
    ("multiphase.cli", "run", "cli.run", _output_bytes),
    ("multiphase.cli", "surface", "pricing.surface", lambda a, k, out: len(out)),
    ("multiphase.pricing", "commensurate_volatility", "pricing.commensurate_volatility", None),
    ("multiphase.pricing", "price_call", "pricing.price_call", None),
    ("multiphase.pricing", "implied_vol", "pricing.implied_vol", None),
    ("multiphase.pricing", "two_phase_moments", "phase_kernel.two_phase_moments", None),
    ("multiphase.phase_kernel", "two_phase_moments", "phase_kernel.two_phase_moments", None),
    ("multiphase.phase_kernel", "two_phase_sample", "phase_kernel.two_phase_sample",
     lambda a, k, out: out[0].size),
    ("multiphase.phase_kernel", "three_phase_pdf", "phase_kernel.three_phase_pdf", None),
    ("multiphase.phase_kernel", "integrate_adaptive", "numerics.integrate_adaptive", None),
    ("multiphase.pricing", "integrate_adaptive", "numerics.integrate_adaptive", None),
    ("multiphase.pde_oracle", "integrate_adaptive", "numerics.integrate_adaptive", None),
    ("multiphase.inference", "numerical_hessian", "numerics.numerical_hessian", None),
    ("multiphase.pde_oracle", "solve_system", "pde_oracle.solve_system", _solve_work),
    ("multiphase.pde_oracle", "chapman_kolmogorov_check",
     "pde_oracle.chapman_kolmogorov_check", None),
    ("multiphase.inference", "fit_two_phase", "inference.fit_two_phase",
     lambda a, k, out: out.n_evaluations),
    ("multiphase.inference", "minimize", "inference.simplex", None),
    ("multiphase.inference", "_loglik_terms", "inference.loglik_terms",
     lambda a, k, out: out.size),
]

#: (module, attribute, counter name, amount(args) or None for one per call)
COUNTERS = [
    ("multiphase.phase_kernel", "two_phase_pdf", "phase_kernel.two_phase_pdf", None),
    ("multiphase.pricing", "two_phase_pdf", "phase_kernel.two_phase_pdf", None),
    ("multiphase.pde_oracle", "two_phase_pdf", "phase_kernel.two_phase_pdf", None),
    ("multiphase.phase_kernel", "two_phase_cdf", "phase_kernel.two_phase_cdf",
     lambda args: getattr(args[1], "size", 1)),
]


class Recorder:
    """In-memory spans and counters; records only while an operation is open."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple, int] = defaultdict(int)
        self.op: int | None = None
        self._stack = [-1]
        self._originals: list[tuple] = []

    def begin_op(self, op: int) -> None:
        self.op = op
        self._stack.append(len(self.spans))
        self.spans.append(["op", op, -1, _clock(), 0, None])

    def end_op(self) -> None:
        self.spans[self._stack.pop()][4] = _clock()
        self.op = None

    def _span(self, name, fn, attrs):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            record = [name, self.op, stack[-1], _clock(), 0, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[4] = _clock()
            if attrs is not None:
                record[5] = attrs(args, kwargs, out)
            return out

        return traced

    def _counter(self, name, fn, amount):
        spans, stack, counts = self.spans, self._stack, self.counts

        def counted(*args, **kwargs):
            if self.op is not None:
                enclosing = spans[stack[-1]][0]
                counts[(self.op, name, enclosing)] += 1 if amount is None else amount(args)
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        for table, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for module_name, attr, name, extra in table:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._originals.append((module, attr, original))
                setattr(module, attr, make(name, original, extra))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "op", "parent", "start_ns", "end_ns", "attrs"],
                    "spans": self.spans,
                    "counts": [[op, name, within, n] for (op, name, within), n in self.counts.items()],
                },
                fh,
            )


def layer_report(rec: Recorder, ops_per_s_untraced: float, ops_per_s_traced: float):
    """Per-layer metrics (name -> (value, unit)) and a share table per span name.

    Per-operation values are medians over the traced operations; rates and
    per-call times are totals over them.  A layer the workload never calls
    reads 0.
    """
    ops = [s[1] for s in rec.spans if s[0] == "op"]
    op_ns = {s[1]: s[4] - s[3] for s in rec.spans if s[0] == "op"}
    time_ns = defaultdict(lambda: defaultdict(int))   # name -> op -> ns
    calls = defaultdict(lambda: defaultdict(int))     # name -> op -> calls
    attr_sum = defaultdict(lambda: defaultdict(int))  # name -> op -> sum of attrs
    child_ns = defaultdict(int)                       # span index -> ns in children
    solve_cell_steps = solve_steps = 0
    for idx, (name, op, parent, start, end, attrs) in enumerate(rec.spans):
        if name == "op":
            continue
        time_ns[name][op] += end - start
        calls[name][op] += 1
        child_ns[parent] += end - start
        if name == "pde_oracle.solve_system":
            solve_steps += attrs["steps"]
            solve_cell_steps += attrs["steps"] * attrs["cells"]
        elif attrs is not None:
            attr_sum[name][op] += attrs
    counted = defaultdict(lambda: defaultdict(int))
    cdf_points_in_sampler = 0
    for (op, name, within), n in rec.counts.items():
        counted[name][op] += n
        if name == "phase_kernel.two_phase_cdf" and within == "phase_kernel.two_phase_sample":
            cdf_points_in_sampler += n
    cli_self = defaultdict(int)
    for idx, span in enumerate(rec.spans):
        if span[0] == "cli.run":
            cli_self[span[1]] += span[4] - span[3] - child_ns[idx]

    def per_op(table, name, scale=1.0):
        return statistics.median(table[name].get(op, 0) for op in ops) * scale if ops else 0.0

    def total(table, name):
        return sum(table[name].values())

    def rate(work, ns):
        return work / (ns / 1e9) if ns else 0.0

    def per_call(name, scale):
        n = total(calls, name)
        return total(time_ns, name) * scale / n if n else 0.0

    draws = total(attr_sum, "phase_kernel.two_phase_sample")
    metrics = {
        "numerics.quad_calls": (per_op(calls, "numerics.integrate_adaptive"), "count"),
        "numerics.quad_ms": (per_op(time_ns, "numerics.integrate_adaptive", 1e-6), "ms"),
        "numerics.hessian_calls": (per_op(calls, "numerics.numerical_hessian"), "count"),
        "numerics.hessian_ms": (per_op(time_ns, "numerics.numerical_hessian", 1e-6), "ms"),
        "phase_kernel.sample_ms": (per_op(time_ns, "phase_kernel.two_phase_sample", 1e-6), "ms"),
        "phase_kernel.draws_per_s": (
            rate(draws, total(time_ns, "phase_kernel.two_phase_sample")), "1/s"),
        "phase_kernel.cdf_evals_per_draw": (
            cdf_points_in_sampler / draws if draws else 0.0, "count"),
        "phase_kernel.moments_ms": (
            per_op(time_ns, "phase_kernel.two_phase_moments", 1e-6), "ms"),
        "phase_kernel.moments_calls": (per_op(calls, "phase_kernel.two_phase_moments"), "count"),
        "phase_kernel.pdf_calls": (per_op(counted, "phase_kernel.two_phase_pdf"), "count"),
        "phase_kernel.three_phase_pdf_ms": (
            per_op(time_ns, "phase_kernel.three_phase_pdf", 1e-6), "ms"),
        "pde_oracle.solve_ms": (per_op(time_ns, "pde_oracle.solve_system", 1e-6), "ms"),
        "pde_oracle.step_us": (
            total(time_ns, "pde_oracle.solve_system") / 1e3 / solve_steps if solve_steps else 0.0,
            "us"),
        "pde_oracle.cell_steps_per_s": (
            rate(solve_cell_steps, total(time_ns, "pde_oracle.solve_system")), "1/s"),
        "pde_oracle.ck_ms": (
            per_op(time_ns, "pde_oracle.chapman_kolmogorov_check", 1e-6), "ms"),
        "inference.fit_ms": (per_op(time_ns, "inference.fit_two_phase", 1e-6), "ms"),
        "inference.objective_calls": (per_op(calls, "inference.loglik_terms"), "count"),
        "inference.objective_us": (per_call("inference.loglik_terms", 1e-3), "us"),
        "inference.loglik_points_per_s": (
            rate(total(attr_sum, "inference.loglik_terms"),
                 total(time_ns, "inference.loglik_terms")), "1/s"),
        "inference.simplex_ms": (per_op(time_ns, "inference.simplex", 1e-6), "ms"),
        "inference.reported_evaluations": (
            per_op(attr_sum, "inference.fit_two_phase"), "count"),
        "pricing.surface_ms": (per_op(time_ns, "pricing.surface", 1e-6), "ms"),
        "pricing.cells_per_s": (
            rate(total(attr_sum, "pricing.surface"), total(time_ns, "pricing.surface")), "1/s"),
        "pricing.price_us": (per_call("pricing.price_call", 1e-3), "us"),
        "pricing.implied_vol_us": (per_call("pricing.implied_vol", 1e-3), "us"),
        "pricing.commensurate_vol_ms": (
            per_op(time_ns, "pricing.commensurate_volatility", 1e-6), "ms"),
        "cli.run_ms": (per_op(time_ns, "cli.run", 1e-6), "ms"),
        "cli.self_ms": (
            statistics.median(cli_self.get(op, 0) for op in ops) * 1e-6 if ops else 0.0, "ms"),
        "cli.output_bytes": (per_op(attr_sum, "cli.run"), "bytes"),
        "tracing.overhead_pct": (
            100.0 * (ops_per_s_untraced / ops_per_s_traced - 1.0), "%"),
    }
    op_total = sum(op_ns.values())
    shares = sorted(
        (
            (name, total(calls, name) / len(ops), total(time_ns, name) / 1e6 / len(ops),
             total(time_ns, name) / op_total)
            for name in time_ns
            if total(calls, name)
        ),
        key=lambda row: -row[3],
    )
    return metrics, shares
