"""Knot-aware composite Gauss-Legendre quadrature with honest error estimates.

Integrands here are piecewise analytic with breakpoints known in advance
(profile knots, cutoff transition radii).  The integrator lays one panel
between consecutive breakpoints, estimates each panel's error by comparing
the panel value against the sum of its two halves, and bisects panels whose
estimate exceeds their share of the tolerance.  Panel values are combined
left to right with exact summation, so identical inputs give bit-identical
results regardless of available parallelism.

Integrands must be vectorized: f(x: ndarray) -> ndarray, or a tuple of
ndarrays for several integrands over the same panels.  Such columns share the
breakpoints and the depth-0 evaluation, which is where nearly all the nodes
are, and each column then keeps its own error budget and refinement, so it
comes out bit-identical to integrating it alone.

A pass over many panels is cut into batches.  When there are several, they
are evaluated concurrently on a thread pool opened for that pass and shut
down before it returns, with one worker per CPU at most; numpy releases the
interpreter lock inside its array loops, so the batches overlap.  A batch
runs the same arithmetic on the same nodes whichever thread runs it, so the
results do not depend on the worker count.  Integrands are therefore called
from several threads at once and must not mutate shared state; an integrand
may itself call integrate().
"""

from __future__ import annotations

import contextlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureNotConverged",
    "AuditEntry",
    "BoundAudit",
    "Integral",
    "integrate",
]

# panels per evaluation batch; bounds peak memory, which holds about one
# batch's node arrays per worker in flight.  Batches start on multiples of 4,
# the BLAS gemv row block, so a panel's weighted sum does not depend on the
# batch size.  numpy sums a single row outside gemv, which may round
# differently, so a lone last panel joins the batch before it
_CHUNK = 2048
# error floor relative to the panel value, so reported errors never
# understate plain rounding noise
_NOISE = 2.0 ** -50

# an integrand's values at the nodes: one array, or a tuple of columns
Columns = np.ndarray | tuple[np.ndarray, ...]


class QuadratureNotConverged(RuntimeError):
    """A panel could not meet its error share within max_depth bisections."""

    def __init__(self, a: float, b: float, err: float, share: float):
        super().__init__(
            f"panel [{a!r}, {b!r}]: error estimate {err:.6e} exceeds share "
            f"{share:.6e} at maximum bisection depth"
        )
        self.panel = (a, b)
        self.err = err
        self.share = share


@dataclass(frozen=True)
class QuadratureSpec:
    """Settings for integrate().

    base_order   fixed Gauss-Legendre order per panel
    rel_tol      target relative error for the whole integral
    abs_tol      absolute floor for the error budget
    max_depth    bisection levels allowed below the initial panels
    """

    base_order: int = 16
    rel_tol: float = 1e-10
    abs_tol: float = 1e-300
    max_depth: int = 30

    def __post_init__(self):
        if not (2 <= self.base_order <= 64):
            raise ValueError("base_order must be in [2, 64]")
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError("rel_tol must be in (0, 1)")
        if self.abs_tol < 0.0:
            raise ValueError("abs_tol must be nonnegative")
        if not (1 <= self.max_depth <= 60):
            raise ValueError("max_depth must be in [1, 60]")


_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    cached = _RULES.get(order)
    if cached is None:
        x, w = np.polynomial.legendre.leggauss(order)
        cached = (0.5 * (x + 1.0), 0.5 * w)
        _RULES[order] = cached
    return cached


def _floats(xs: Iterable) -> np.ndarray:
    """Any iterable of numbers as a float array; an array is not walked by rows."""
    return np.asarray(xs if isinstance(xs, np.ndarray) else list(xs), dtype=float)


def _columns(f: Callable[[np.ndarray], Columns], x: np.ndarray) -> tuple[np.ndarray, ...]:
    out = f(x)
    return out if isinstance(out, tuple) else (out,)


def _cpus() -> int:
    """CPUs this process may run on: the most batches worth running at once."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _batch(
    f: Callable[[np.ndarray], Columns],
    a: np.ndarray,
    b: np.ndarray,
    nodes: np.ndarray,
    weights: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """_panel_pass for the panels [a, b) of one batch."""
    mid = a + 0.5 * (b - a)

    def rule_on(x0: np.ndarray, x1: np.ndarray) -> list[np.ndarray]:
        pts = x0[:, None] + (x1 - x0)[:, None] * nodes[None, :]
        return [
            (x1 - x0) * (np.asarray(v, dtype=float).reshape(pts.shape) @ weights)
            for v in _columns(f, pts.reshape(-1))
        ]

    out = []
    for w, lh, rh in zip(rule_on(a, b), rule_on(a, mid), rule_on(mid, b)):
        halves = lh + rh
        out.append((halves, np.abs(w - halves) + _NOISE * np.abs(halves)))
    return out


def _panel_pass(
    f: Callable[[np.ndarray], Columns],
    lo: np.ndarray,
    hi: np.ndarray,
    order: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Refined panel values and error estimates, one pair per column of f.

    Value is the two-half composite; error is its distance to the single
    whole-panel rule, plus a rounding-noise floor.  A pass of several
    batches runs them on a pool opened for this call and closed before it
    returns; each batch is copied out as it arrives, in order.
    """
    nodes, weights = _rule(order)
    n = lo.size
    stops = [*range(_CHUNK, n, _CHUNK), n]
    if n > 1 and n % _CHUNK == 1:
        del stops[-2]
    spans = [slice(start, stop) for start, stop in zip([0, *stops], stops)]

    def run(sl: slice) -> list[tuple[np.ndarray, np.ndarray]]:
        return _batch(f, lo[sl], hi[sl], nodes, weights)

    passes: list[tuple[np.ndarray, np.ndarray]] = []
    workers = min(len(spans), _cpus())
    with contextlib.ExitStack() as stack:
        if workers > 1:
            results = stack.enter_context(ThreadPoolExecutor(workers)).map(run, spans)
        else:
            results = map(run, spans)
        for sl, cols in zip(spans, results):
            if not passes:
                passes = [(np.empty(n), np.empty(n)) for _ in cols]
            for (value, err), (v, e) in zip(passes, cols):
                value[sl] = v
                err[sl] = e
    return passes


class Integral(tuple):
    """(value, error) of an integrand's first column.

    Unpacks like the plain pair; .columns holds the (value, error) pair of
    every column, first column first.
    """

    columns: tuple[tuple[float, float], ...]

    def __new__(cls, columns: Sequence[tuple[float, float]]) -> "Integral":
        self = super().__new__(cls, columns[0])
        self.columns = tuple(columns)
        return self


def integrate(
    f: Callable[[np.ndarray], Columns],
    a: float,
    b: float,
    breakpoints: Iterable[float] = (),
    spec: QuadratureSpec = QuadratureSpec(),
    slivers: Iterable[tuple[float, float]] = (),
) -> Integral:
    """Integrate f over [a, b] with panels split at the given breakpoints.

    Returns (value, error_estimate).  The estimate is a sum of per-panel
    whole-versus-halves discrepancies and is meant to be conservative for
    piecewise analytic integrands whose kinks are all registered as
    breakpoints.  Breakpoints outside (a, b) are dropped; duplicates are
    merged.  Raises QuadratureNotConverged when a panel still exceeds its
    error share at max_depth.

    f may return a tuple of arrays instead of one array: several integrands
    over the same nodes.  The columns share the panels and the depth-0
    evaluation; from there each keeps its own budget, refinement and sum,
    so each column's pair is bit-identical to integrating that column alone.
    The result is the first column's pair, and .columns holds them all.  A
    column that cannot converge raises for its own panel, columns in order.

    slivers are disjoint subintervals the caller certifies as negligible:
    panels so thin that their entire contribution sits far below the
    tolerance (corner blends a few hundred float spacings wide).  Each is
    evaluated once with the base rule and accepted without refinement; its
    whole-versus-halves discrepancy still enters the reported error, so a
    wrongly certified sliver shows up in the estimate rather than being
    silently refined on a float lattice too coarse to resolve it.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration bounds must be finite")
    if not a < b:
        raise ValueError("need a < b")

    sliv = _floats(slivers).reshape(-1, 2)
    sliv = sliv[(sliv[:, 0] >= a) & (sliv[:, 1] <= b) & (sliv[:, 0] < sliv[:, 1])]
    sliv = sliv[np.lexsort((sliv[:, 1], sliv[:, 0]))]
    if np.any(sliv[1:, 0] < sliv[:-1, 1]):
        raise ValueError("slivers must be disjoint")

    inner = np.unique(np.concatenate((_floats(breakpoints).reshape(-1), sliv.reshape(-1))))
    edges = np.concatenate(([a], inner[(inner > a) & (inner < b)], [b]))

    lo = edges[:-1].copy()
    hi = edges[1:].copy()
    first = _panel_pass(f, lo, hi, spec.base_order)
    return Integral(
        [
            _refine(lambda x, c=c: _columns(f, x)[c], lo, hi, value, err, b - a, sliv, spec)
            for c, (value, err) in enumerate(first)
        ]
    )


def _refine(
    f: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    value: np.ndarray,
    err: np.ndarray,
    total_len: float,
    sliv: np.ndarray,
    spec: QuadratureSpec,
) -> tuple[float, float]:
    """Accept or bisect one column's panels from its depth-0 pass to the sum."""
    done_lo: list[np.ndarray] = []
    done_val: list[np.ndarray] = []
    done_err: list[np.ndarray] = []
    done_abs_sum = 0.0

    for depth in range(spec.max_depth + 1):
        if depth:
            ((value, err),) = _panel_pass(f, lo, hi, spec.base_order)
        abs_val = np.abs(value)
        scale = done_abs_sum + float(np.sum(abs_val))
        budget = max(spec.abs_tol, spec.rel_tol * scale)
        # split the budget half by length, half by value mass, so very
        # narrow panels are not starved of tolerance they cannot use
        len_frac = (hi - lo) / total_len
        if scale > 0.0:
            share = 0.5 * budget * (len_frac + abs_val / scale)
        else:
            share = budget * len_frac
        ok = err <= share
        if depth == 0 and sliv.size:
            mid = lo + 0.5 * (hi - lo)
            j = np.searchsorted(sliv[:, 0], mid, side="right") - 1
            in_sliver = (j >= 0) & (mid <= sliv[np.clip(j, 0, None), 1])
            ok = ok | in_sliver
        if np.any(ok):
            done_lo.append(lo[ok])
            done_val.append(value[ok])
            done_err.append(err[ok])
            done_abs_sum += float(np.sum(np.abs(value[ok])))
        bad = ~ok
        if not np.any(bad):
            break
        if depth == spec.max_depth:
            worst = int(np.argmax(err[bad] - share[bad]))
            raise QuadratureNotConverged(
                float(lo[bad][worst]),
                float(hi[bad][worst]),
                float(err[bad][worst]),
                float(share[bad][worst]),
            )
        blo = lo[bad]
        bhi = hi[bad]
        bmid = blo + 0.5 * (bhi - blo)
        lo = np.stack([blo, bmid], axis=1).reshape(-1)
        hi = np.stack([bmid, bhi], axis=1).reshape(-1)

    all_lo = np.concatenate(done_lo)
    order = np.argsort(all_lo, kind="stable")
    all_val = np.concatenate(done_val)[order]
    all_err = np.concatenate(done_err)[order]
    return math.fsum(all_val.tolist()), math.fsum(all_err.tolist())


@dataclass(frozen=True)
class AuditEntry:
    """One verified inequality: positive violation means the bound is broken."""

    name: str
    worst_violation: float
    location: float
    passed: bool


@dataclass
class BoundAudit:
    """Collection of audited bounds; overall_pass is their conjunction."""

    entries: list[AuditEntry] = field(default_factory=list)

    def add(self, name: str, worst_violation: float, location: float, tol: float) -> AuditEntry:
        entry = AuditEntry(
            name=name,
            worst_violation=float(worst_violation),
            location=float(location),
            passed=bool(worst_violation <= tol),
        )
        self.entries.append(entry)
        return entry

    def extend(self, other: "BoundAudit") -> None:
        self.entries.extend(other.entries)

    @property
    def overall_pass(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> list[AuditEntry]:
        return [e for e in self.entries if not e.passed]
