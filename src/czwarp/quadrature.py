"""Knot-aware composite Gauss-Legendre quadrature with honest error estimates.

Integrands here are piecewise analytic with breakpoints known in advance
(profile knots, cutoff transition radii).  The integrator lays one panel
between consecutive breakpoints, estimates each panel's error by comparing
the panel value against the sum of its two halves, and bisects panels whose
estimate exceeds their share of the tolerance.  Panel values are combined
with correctly rounded summation, which does not depend on their order or
on how they are grouped into batches.

Integrands must be vectorized: f(x: ndarray) -> ndarray, or a tuple of
ndarrays for several integrands over the same panels.  x is a C-contiguous
float64 array of shape (panels, base_order): each row holds one panel's
nodes, sorted ascending, so an integrand can look up what is constant on a
panel once per row.  f returns x.size values per column, in x's order and
in any shape; an elementwise integrand written for flat input works
unchanged and gives the same bits.

Columns share the breakpoints and every integrand call: each pass
evaluates, in the same calls, the panels that every column still refines at
that depth.  Each column keeps its own error budget, refinement and sum, and
each panel's weighted sums come from the same batch of rows as when the
column is integrated alone, so each column comes out bit-identical to
integrating it alone.

A pass is cut into batches of panels, and the rules of each batch into
integrand calls of bounded size, so one call's node and value arrays bound
the memory a pass holds, and the small panel sets of a refinement pass share
one call.  The calls run one after another on the calling thread; an
integrand may itself call integrate().
"""

from __future__ import annotations

import itertools
import math
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

# panels per evaluation batch, and the most panels' worth of nodes one
# integrand call holds; bounds peak memory, which holds one call's node and
# value arrays at a time.  Batches start on multiples of 4, the BLAS gemv
# row block, and each batch's weighted sums are one gemv over its own rows, so
# a panel's weighted sum does not depend on the batch size or on what else
# shares the call.  numpy sums a single row outside gemv, which may round
# differently, so a lone last panel joins the batch before it
_CHUNK = 2048
# error floor relative to the panel value, so reported errors never
# understate plain rounding noise
_NOISE = 2.0 ** -50
# absolute floor of a column's error budget, so a vanishing integral does
# not demand error estimates of exactly zero
_BUDGET_FLOOR = 1e-300
# numpy's warnings, silenced while a pass evaluates and folds: a value that is
# not finite ends integrate() with a QuadratureNotConverged naming its panel
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")

# an integrand's values at the nodes: one array, or a tuple of columns
Columns = np.ndarray | tuple[np.ndarray, ...]


class QuadratureNotConverged(RuntimeError):
    """A panel could not meet its error share within max_depth bisections.

    A panel whose error estimate is not finite raises at once: the integrand
    is not finite there, and no bisection can bring it within its share.
    """

    def __init__(self, a: float, b: float, err: float, share: float):
        if math.isfinite(err):
            detail = (
                f"error estimate {err:.6e} exceeds share {share:.6e} "
                "at maximum bisection depth"
            )
        else:
            detail = f"the integrand is not finite there (error estimate {err!r})"
        super().__init__(f"panel [{a!r}, {b!r}]: {detail}")
        self.panel = (a, b)
        self.err = err
        self.share = share


@dataclass(frozen=True)
class QuadratureSpec:
    """Settings for integrate().

    base_order   fixed Gauss-Legendre order per panel
    rel_tol      target relative error for the whole integral
    max_depth    bisection levels allowed below the initial panels

    The error budget is rel_tol times the integral's absolute mass, floored
    at _BUDGET_FLOOR.
    """

    base_order: int = 16
    rel_tol: float = 1e-10
    max_depth: int = 30

    def __post_init__(self):
        # type(), not isinstance(): bool is a subclass of int
        if type(self.base_order) is not int or not 2 <= self.base_order <= 64:
            raise ValueError(f"base_order must be an integer in [2, 64], not {self.base_order!r}")
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError("rel_tol must be in (0, 1)")
        if type(self.max_depth) is not int or not 1 <= self.max_depth <= 60:
            raise ValueError(f"max_depth must be an integer in [1, 60], not {self.max_depth!r}")


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


def _batches(n: int) -> list[slice]:
    """n panels cut into batches of _CHUNK, a lone last panel joined to the one before."""
    stops = [*range(_CHUNK, n, _CHUNK), n]
    if n > 1 and n % _CHUNK == 1:
        del stops[-2]
    return [slice(start, stop) for start, stop in zip([0, *stops], stops)]


# the three rules of a panel: whole, left half, right half
_WHOLE, _LEFT, _RIGHT = range(3)
# a set of panels that one pass refines: (lo, hi, the columns of f it needs)
_PanelSet = tuple[np.ndarray, np.ndarray, slice]
# one rule over one batch of one set: (set index, batch, rule)
_Block = tuple[int, slice, int]


def _panel_pass(
    f: Callable[[np.ndarray], Columns],
    sets: Sequence[_PanelSet],
    order: int,
) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Refined panel values and error estimates of several panel sets at once.

    Returns, for each set, one (value, err) pair per column it selects.
    Value is the two-half composite; error is its distance to the single
    whole-panel rule, plus a rounding-noise floor.

    Each set is cut into batches and each batch into its three rules; the
    blocks are packed in order into integrand calls of at most _CHUNK
    panels' nodes, so small sets share one call.  The calls run in order
    on the calling thread.  Each block's weighted sums are one gemv over
    that block's own rows, folded into the result arrays as soon as its
    call returns.
    """
    nodes, weights = _rule(order)
    blocks = [
        (k, sl, rule)
        for k, (lo, _, _) in enumerate(sets)
        for sl in _batches(lo.size)
        for rule in (_WHOLE, _LEFT, _RIGHT)
    ]

    calls: list[list[_Block]] = []
    rows = 0
    for block in blocks:
        size = block[1].stop - block[1].start
        if not calls or rows + size > _CHUNK:
            calls.append([])
            rows = 0
        calls[-1].append(block)
        rows += size

    # per set and selected column: the halves' sum, and the whole-panel rule
    # until a batch's right half arrives and turns it into the error
    out: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in sets]

    # one integrand call and its fold; the call's node and value arrays are
    # freed when it returns, before the next call allocates its own
    def run(call: list[_Block]) -> None:
        spans = []  # per block: left ends, widths, and its rows of the node array
        start = 0
        for k, sl, rule in call:
            a, b = sets[k][0][sl], sets[k][1][sl]
            mid = a + 0.5 * (b - a)
            x0, x1 = ((a, b), (a, mid), (mid, b))[rule]
            spans.append((x0, x1 - x0, slice(start, start + x0.size)))
            start += x0.size
        # one node array for the whole call, written in place block by block
        pts = np.empty((start, order))
        for x0, w, r in spans:
            np.add(x0[:, None], w[:, None] * nodes[None, :], out=pts[r])
        cols = [np.asarray(v, dtype=float).reshape(pts.shape) for v in _columns(f, pts)]
        for (k, sl, rule), (_, w, r) in zip(call, spans):
            block = [w * (v[r] @ weights) for v in cols[sets[k][2]]]
            if not out[k]:
                n = sets[k][0].size
                out[k] = [(np.empty(n), np.empty(n)) for _ in block]
            for (halves, err), v in zip(out[k], block):
                if rule == _WHOLE:
                    err[sl] = v
                elif rule == _LEFT:
                    halves[sl] = v
                else:  # blocks arrive in order: the other two rules are in place
                    halves[sl] += v
                    err[sl] = np.abs(err[sl] - halves[sl]) + _NOISE * np.abs(halves[sl])

    with np.errstate(**_QUIET):
        for call in calls:
            run(call)
    return out


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

    f(x) gets a C-contiguous float64 array of shape (panels,
    spec.base_order), one panel's nodes per row, sorted ascending, and
    returns x.size values in x's order, in any shape.

    Returns (value, error_estimate).  The estimate is a sum of per-panel
    whole-versus-halves discrepancies and is meant to be conservative for
    piecewise analytic integrands whose kinks are all registered as
    breakpoints.  Breakpoints outside (a, b) are dropped; duplicates are
    merged.  Raises QuadratureNotConverged when a panel still exceeds its
    error share at max_depth, and at once for a panel whose error estimate
    is not finite.

    f may return a tuple of arrays instead of one array: several integrands
    over the same nodes.  The columns share the panels and every integrand
    call; each keeps its own budget, refinement and sum, so each column's
    pair is bit-identical to integrating that column alone.  The result is
    the first column's pair, and .columns holds them all.  When several
    columns cannot converge, the lowest-index one raises, for the panel it
    raises for alone.  A refinement pass evaluates every column's panels
    together, so an exception raised by the integrand can come from any
    column's nodes.

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
    # slivers are accepted at depth 0 whatever their estimate
    free: np.ndarray | None = None
    if sliv.size:
        mid = lo + 0.5 * (hi - lo)
        j = np.searchsorted(sliv[:, 0], mid, side="right") - 1
        free = (j >= 0) & (mid <= sliv[np.clip(j, 0, None), 1])

    (pairs,) = _panel_pass(f, [(lo, hi, slice(None))], spec.base_order)
    columns = [_Column(lo, hi) for _ in pairs]
    refining = list(enumerate(columns))
    for depth in range(spec.max_depth + 1):
        if depth:
            sets = [(col.lo, col.hi, slice(c, c + 1)) for c, col in refining]
            pairs = [pair for (pair,) in _panel_pass(f, sets, spec.base_order)]
        last = depth == spec.max_depth
        refining = [
            (c, col)
            for (c, col), (value, err) in zip(refining, pairs)
            if col.settle(value, err, b - a, spec, free, last)
        ]
        if not refining:
            break
        # let this depth's values go before the next pass allocates its own
        del pairs
        free = None
    return Integral([col.total for col in columns])


def _fsum(arrays: list[np.ndarray]) -> float:
    """Correctly rounded sum of every element, listed a batch at a time.

    fsum rounds the exact sum once, so neither the order of the panels nor
    how they are grouped changes the result.
    """
    return math.fsum(
        itertools.chain.from_iterable(
            a[i : i + _CHUNK].tolist() for a in arrays for i in range(0, a.size, _CHUNK)
        )
    )


class _Column:
    """One column's refinement: the panels still open, and what was accepted."""

    # (value, error), set when the last open panel is accepted
    total: tuple[float, float]

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.lo = lo
        self.hi = hi
        self.done_val: list[np.ndarray] = []
        self.done_err: list[np.ndarray] = []
        self.done_abs_sum = 0.0

    def settle(
        self,
        value: np.ndarray,
        err: np.ndarray,
        total_len: float,
        spec: QuadratureSpec,
        free: np.ndarray | None,
        last: bool,
    ) -> bool:
        """Accept the open panels within their error share and bisect the rest.

        value and err belong to the open panels; free marks panels accepted
        whatever their estimate.  Returns whether any panel is left open;
        when one is, and this was the last depth, raises instead.  Raises
        for the first panel whose estimate is not finite, free or not.
        """
        lo, hi = self.lo, self.hi
        finite = np.isfinite(err)
        if not finite.all():
            i = int(np.argmin(finite))
            raise QuadratureNotConverged(float(lo[i]), float(hi[i]), float(err[i]), math.nan)
        abs_val = np.abs(value)
        scale = self.done_abs_sum + float(np.sum(abs_val))
        budget = max(_BUDGET_FLOOR, spec.rel_tol * scale)
        # split the budget half by length, half by value mass, so very
        # narrow panels are not starved of tolerance they cannot use
        len_frac = (hi - lo) / total_len
        if scale > 0.0:
            share = 0.5 * budget * (len_frac + abs_val / scale)
        else:
            share = budget * len_frac
        ok = err <= share
        if free is not None:
            ok = ok | free
        if np.any(ok):
            self.done_val.append(value[ok])
            self.done_err.append(err[ok])
            self.done_abs_sum += float(np.sum(np.abs(value[ok])))
        bad = ~ok
        if not np.any(bad):
            self.total = (_fsum(self.done_val), _fsum(self.done_err))
            self.done_val, self.done_err = [], []
            return False
        if last:
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
        self.lo = np.stack([blo, bmid], axis=1).reshape(-1)
        self.hi = np.stack([bmid, bhi], axis=1).reshape(-1)
        return True


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

    def add_worst(
        self, name: str, violation: np.ndarray, locations: np.ndarray, tol: float
    ) -> AuditEntry:
        """Record the largest entry of violation, at its entry of locations."""
        i = int(np.argmax(violation))
        return self.add(name, float(violation[i]), float(locations[i]), tol)

    def extend(self, other: "BoundAudit") -> None:
        self.entries.extend(other.entries)

    @property
    def overall_pass(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> list[AuditEntry]:
        return [e for e in self.entries if not e.passed]
