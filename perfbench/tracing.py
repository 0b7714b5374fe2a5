"""In-memory spans recorded around calls into czwarp's public functions.

A span is recorded by a wrapper that is rebound where the caller looks the
name up: ``czwarp.experiment.norms_report`` (experiment imports it by name),
``czwarp.norms.integrate``, or a class attribute such as
``GreenFunction.__init__``.  Nothing inside czwarp is edited, so every span
is timed from outside the layer it names.  Each span records its parent from
a per-thread stack; a span opened on a thread with an empty stack (a sweep
worker thread) is parented to the pass span that the main thread opened.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

import czwarp.experiment
import czwarp.norms
from czwarp.green import GreenFunction
from czwarp.norms import CutoffFunction
from czwarp.warping import WarpingProfile

AUDIT_SPANS = ("warping.audit_strip", "green.audit_green_bounds", "norms.audit_norm_chain")


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    thread: int
    start: float
    end: float
    # nodes evaluated, pieces or table rows built, or integrate's err/|value|
    n: float

    @property
    def dur(self) -> float:
        return self.end - self.start


def _arg_size(i: int) -> Callable:
    return lambda args, result: int(np.size(args[i]))


def _rel_err(args, result) -> float:
    value, err = result
    return err / abs(value) if value else 0.0


# (owner, attribute, span name, what the span's n records); end-to-end
# timers come first and are the only ones installed in an untraced run
_E2E = [
    (czwarp.experiment, "run_experiment", "experiment.run_experiment", None),
    (czwarp.experiment, "audit_strip", "warping.audit_strip", None),
    (czwarp.experiment, "audit_green_bounds", "green.audit_green_bounds", None),
    (czwarp.norms, "audit_norm_chain", "norms.audit_norm_chain", None),
]
_LAYERS = [
    (czwarp.experiment, "build_construction", "experiment.build_construction", None),
    (czwarp.experiment, "insert_sawtooth", "warping.insert_sawtooth",
     lambda args, result: len(result.pieces)),
    (czwarp.experiment, "norms_report", "norms.norms_report", None),
    (WarpingProfile, "eval_many", "warping.eval_many", _arg_size(1)),
    (GreenFunction, "__init__", "green.table", lambda args, result: len(args[0]._r_tab)),
    (GreenFunction, "value_many", "green.value_many", _arg_size(1)),
    (GreenFunction, "inverse_many", "green.inverse_many", _arg_size(1)),
    (CutoffFunction, "__init__", "norms.cutoff_init", None),
    (CutoffFunction, "eval_many", "norms.cutoff_eval", _arg_size(1)),
]


class Tracer:
    """Wraps czwarp entry points and keeps every span of the current pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.root = 0
        self._pass_start = 0.0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, n: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else self.root
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            value = n(args, result) if n is not None else 0
            self.spans.append(Span(sid, parent, name, threading.get_ident(), start, end, value))
            return result

        return wrapper

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self, layers: bool) -> list[str]:
        """Rebind the end-to-end timers, and every layer wrapper if asked.

        Returns the span names installed.
        """
        targets = _E2E + (_LAYERS if layers else [])
        for owner, attr, name, n in targets:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, n))
        names = [t[2] for t in targets]
        if layers:
            integrate = czwarp.norms.__dict__["integrate"]
            self._saved.append((czwarp.norms, "integrate", integrate))

            def traced_integrate(f, *args, **kwargs):
                f = self.wrap("quadrature.integrand", f, _arg_size(0))
                return integrate(f, *args, **kwargs)

            czwarp.norms.integrate = self.wrap("quadrature.integrate", traced_integrate, _rel_err)
            names += ["quadrature.integrate", "quadrature.integrand"]
        return names

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def begin_pass(self) -> None:
        """Start an empty span list and open the pass span as the new root."""
        self.spans = []
        self.root = next(self._ids)
        self._pass_start = perf_counter()

    def end_pass(self) -> list[Span]:
        end = perf_counter()
        self.spans.append(
            Span(self.root, 0, "workload.pass", threading.get_ident(), self._pass_start, end, 0)
        )
        spans, self.spans = self.spans, []
        return spans


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per name, span time minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += s.dur - _covered(children.get(s.id, []))
    return out


def _under(spans: list[Span], name: str, ancestor: str) -> list[Span]:
    """Spans called name that have a span called ancestor above them."""
    by_id = {s.id: s for s in spans}
    found = []
    for s in spans:
        if s.name != name:
            continue
        p = by_id.get(s.parent)
        while p is not None and p.name != ancestor:
            p = by_id.get(p.parent)
        if p is not None:
            found.append(s)
    return found


def layer_metrics(spans: list[Span], cpu_s: float, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    ns: dict[str, float] = defaultdict(int)
    for s in spans:
        calls[s.name] += 1
        total[s.name] += s.dur
        ns[s.name] += s.n
    selfs = self_times(spans)
    out = {
        "experiment.probes": calls["experiment.run_experiment"],
        "experiment.build_construction.s": total["experiment.build_construction"],
        "experiment.cpu_per_wall": cpu_s / wall_s,
        "warping.insert_sawtooth.s": total["warping.insert_sawtooth"],
        "warping.pieces": ns["warping.insert_sawtooth"],
        "warping.audit_strip.s": total["warping.audit_strip"],
        "green.table.s": total["green.table"],
        "green.table.rows": ns["green.table"],
        "green.audit_green_bounds.s": total["green.audit_green_bounds"],
        "norms.cutoff_init.s": total["norms.cutoff_init"],
        "norms.norms_report.s": total["norms.norms_report"],
        "norms.norms_report.evals": sum(
            s.n for s in _under(spans, "quadrature.integrand", "norms.norms_report")
        ),
        "quadrature.integrate.calls": calls["quadrature.integrate"],
        "quadrature.integrate.self_s": selfs["quadrature.integrate"],
        "quadrature.evals": ns["quadrature.integrand"],
        "quadrature.f_calls": calls["quadrature.integrand"],
        "quadrature.nodes_per_call": ns["quadrature.integrand"] / calls["quadrature.integrand"],
        "quadrature.rel_err_max": max(
            (s.n for s in spans if s.name == "quadrature.integrate"), default=0.0
        ),
    }
    for layer in ("warping.eval_many", "green.value_many", "green.inverse_many", "norms.cutoff_eval"):
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.nodes"] = ns[layer]
        out[f"{layer}.s"] = total[layer]
    out["warping.eval_many.nodes_per_s"] = (
        ns["warping.eval_many"] / total["warping.eval_many"]
    )
    return out


def e2e_from_passes(passes: list[list[Span]]) -> dict[str, float]:
    """norms_s, audit_s and per-cell latency quantiles over the run's passes."""
    cells = [s.dur for spans in passes for s in spans if s.name == "experiment.run_experiment"]
    norms = [
        sum(s.dur for s in spans if s.name == "experiment.run_experiment") for spans in passes
    ]
    audits = [sum(s.dur for s in spans if s.name in AUDIT_SPANS) for spans in passes]
    if len(cells) > 1:
        deciles = statistics.quantiles(cells, n=10, method="inclusive")
        p50, p90 = deciles[4], deciles[8]
    else:
        p50 = p90 = cells[0]
    return {
        "norms_s": statistics.median(norms),
        "audit_s": statistics.median(audits),
        "cell_p50_s": p50,
        "cell_p90_s": p90,
        "cells": len(cells),
    }


def write_spans(path: str, passes: list[list[Span]]) -> None:
    with open(path, "w") as fh:
        fh.write("pass,id,parent,name,thread,start,end,n\n")
        for i, spans in enumerate(passes):
            for s in spans:
                fh.write(f"{i},{s.id},{s.parent},{s.name},{s.thread},{s.start!r},{s.end!r},{s.n!r}\n")
