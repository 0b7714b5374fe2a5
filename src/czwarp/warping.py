"""Rotationally symmetric warping profiles with sawtooth oscillation windows.

A profile is a contiguous table of closed-form pieces on [0, inf):

  CAP     quintic t + a3 t^3 + a4 t^4 + a5 t^5 on [0, 1], pinned to
          sigma(0) = 0, sigma'(0) = 1, sigma''(0) = 0 and matching the base
          curve's value, slope and curvature at t = 1
  POWER   (t + c)^alpha, the background curve (c = 1/2 keeps it mid-strip)
  LINEAR  sawtooth teeth and the short connector ramps
  BLEND   smoothstep mix of the two neighbouring rows' formulas across a
          corner; it carries no params of its own

Every corner is replaced by a BLEND of halfwidth smooth_halfwidth.  The
smoothstep s(x) = B(x) / (B(x) + B(1-x)) with B(x) = exp(-1/x) satisfies
s(x) + s(1-x) = 1, and the tooth slopes are chosen so that each corner that
touches a strip boundary has equal and opposite slope deviations from it;
the convex blend then stays inside the strip pointwise, not just to
tolerance.

Profiles are immutable after construction and evaluation is pure, so values
may be shared freely across threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .quadrature import BoundAudit, _row_max

__all__ = [
    "CAP",
    "POWER",
    "LINEAR",
    "BLEND",
    "CubeDoesNotFit",
    "OverlappingWindow",
    "FootprintOutOfRange",
    "ManifoldConfig",
    "SawtoothWindow",
    "WarpingProfile",
    "build_base_profile",
    "plan_window",
    "insert_sawtooth",
    "audit_strip",
    "profile_to_json",
    "profile_from_json",
]

POWER, LINEAR, CAP, BLEND = 0, 1, 2, 3
# _by_kind's part of rows split across table rows, after every kind
_SPLIT = 4

STRIP_TOL = 1e-12


class CubeDoesNotFit(ValueError):
    """The oscillation cube fails its strip-containment check (h too small)."""


class OverlappingWindow(ValueError):
    """A new window's footprint (with connectors) touches existing structure."""


class FootprintOutOfRange(ValueError):
    """Window footprint, including connectors, must sit inside (1, inf)."""


@dataclass(frozen=True)
class ManifoldConfig:
    """Dimension-derived constants: alpha = 1/(m-1), gamma_m = area of S^{m-1}."""

    m: int
    alpha: float
    gamma_m: float

    @classmethod
    def from_dimension(cls, m: int) -> "ManifoldConfig":
        if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or m < 2:
            raise ValueError("dimension m must be an integer >= 2")
        m = int(m)
        alpha = 1.0 / (m - 1)
        gamma_m = 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)
        return cls(m=m, alpha=alpha, gamma_m=gamma_m)


@dataclass(frozen=True)
class SawtoothWindow:
    """Placement and shape of one oscillation window.

    For m = 2 the teeth drift up the diagonal: width = amplitude = 1 and the
    rise/fall slopes are 2n+1 and -(2n-1).  For m >= 3 the teeth are symmetric
    triangles of slope +-(amplitude/step) inside an eta-cube resting on the
    strip floor at the footprint's right end.
    """

    z: float
    width: float
    n_teeth: int
    amplitude: float
    base: float
    smooth_halfwidth: float

    def __post_init__(self):
        if self.n_teeth < 1:
            raise ValueError("n_teeth must be >= 1")
        if not 0.0 < self.smooth_halfwidth < 0.5 * self.step:
            raise ValueError("smooth_halfwidth must lie in (0, step/2)")

    @property
    def step(self) -> float:
        """Half a tooth: the footprint split into 2 n_teeth equal runs."""
        return self.width / (2.0 * self.n_teeth)


# smoothstep region below which exp(-1/x) is zero to double precision
_XCUT = 0.01


def _smoothstep_inside(x: np.ndarray, derivs: int) -> tuple[np.ndarray, ...]:
    """_smoothstep for x strictly inside (_XCUT, 1 - _XCUT).

    The second-derivative terms, when asked for, come first, and each
    temporary is dropped once used, to keep the peak memory of a call low.
    """
    x1 = 1.0 - x
    b = np.exp(-1.0 / x)
    b1 = np.exp(-1.0 / x1)
    if derivs == 2:
        bpp = b * (1.0 - 2.0 * x) / x**4
        b1pp = b1 * (1.0 - 2.0 * x1) / x1**4
        dnum = bpp * b1 - b * b1pp
        del bpp, b1pp
    bp = b / x**2
    b1p = b1 / x1**2
    num = bp * b1 + b * b1p
    del x1
    den = b + b1
    if derivs == 1:
        return b / den, num / den**2
    dden = bp - b1p
    del bp, b1p
    return b / den, num / den**2, dnum / den**2 - 2.0 * num * dden / den**3


def _smoothstep(x: np.ndarray, derivs: int = 2) -> tuple[np.ndarray, ...]:
    """C-infinity step on [0, 1] with its first derivs (1 or 2) derivatives in x.

    At and beyond _XCUT from either end the step is exactly 0 or 1 with
    zero derivatives.  When some nodes lie there, _smoothstep_inside runs
    on every node, with numpy's warnings silenced for the ones where it
    may divide by zero, and those are then overwritten; gathering the
    others would cost more.
    """
    x = np.asarray(x, dtype=float)
    if x.size and x.min() > _XCUT and x.max() < 1.0 - _XCUT:
        return _smoothstep_inside(x, derivs)
    lo = x <= _XCUT
    hi = x >= 1.0 - _XCUT
    edge = lo | hi
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        outs = _smoothstep_inside(x, derivs)
    outs[0][lo] = 0.0
    outs[0][hi] = 1.0
    for out in outs[1:]:
        out[edge] = 0.0
    return outs


def _by_kind(
    kinds: np.ndarray, width: int, fn, idx: np.ndarray, x: np.ndarray, *args
) -> tuple[np.ndarray, ...]:
    """fn(kind, idx, x, *args) run once per kind of kinds[idx] present, on the rows of that kind.

    x is flat, one node per row, or holds nodes in rows, shape (R, c),
    laid out as GreenFunction._lookup takes them: the row's least node
    first and its greatest at quadrature._row_max.  idx names the table
    row (of kinds and of the caller's other columns) that holds each
    node: shaped like x, or for rows of nodes one per row as an (R, 1)
    column.  Table rows increase with the node, so a row of x whose least
    and greatest nodes share a table row lies wholly inside it.  fn gets
    such rows with their index as an (R', 1) column, so it gathers each
    row's operands once and broadcasts them over the row's nodes.  The
    other rows, split across table rows, form one more part of their
    own, which runs flat, one node per row.  fn returns width arrays
    shaped like its x, which are put back in place.  Rows are gathered
    with ndarray.take along the first axis, which copies a row of nodes
    about twice as fast as indexing x[sel].  When one kind covers every
    row, fn's result is returned without a gather or a scatter; an empty
    input counts as POWER.
    """
    full = idx
    if idx.ndim == 2:
        idx = idx[:, :1]
    row_kinds = kinds[idx].reshape(-1)
    if full.ndim == 2 and full.shape[1] > 1:
        split = idx[:, 0] != _row_max(full)
        if np.any(split):
            row_kinds = np.where(split, _SPLIT, row_kinds)
    first = int(row_kinds[0]) if row_kinds.size else POWER
    if first != _SPLIT and np.all(row_kinds == first):
        return fn(first, idx, x, *args)
    # the outputs are allocated before any part is computed; allocated
    # after the first part, they left the heap fragmented and raised the
    # peak RSS of a 2^15 cell
    outs = tuple(np.empty(x.shape) for _ in range(width))
    for kind in np.flatnonzero(np.bincount(row_kinds)):
        sel = np.flatnonzero(row_kinds == kind)
        if kind == _SPLIT:
            flat = (full.take(sel, axis=0).ravel(), x.take(sel, axis=0).ravel())
            part = [v.reshape(sel.size, -1) for v in _by_kind(kinds, width, fn, *flat, *args)]
        else:
            part = fn(int(kind), idx.take(sel, axis=0), x.take(sel, axis=0), *args)
        for out, v in zip(outs, part):
            out[sel] = v
    return outs


class WarpingProfile:
    """Immutable piecewise profile tiling [0, inf), stored as a piece table.

    Row i has kind piece_kinds[i] and covers [piece_t0[i], piece_t1[i]), where
    piece_t1 is piece_t0 shifted by one row with inf last, so the rows tile by
    construction.  piece_params has three columns; by kind:
      POWER   (c, 0, 0)                 sigma = (t + c)^alpha
      LINEAR  (t_ref, y_ref, slope)     sigma = y_ref + slope*(t - t_ref)
      CAP     (a3, a4, a5)              sigma = t + a3 t^3 + a4 t^4 + a5 t^5
      BLEND   (0, 0, 0)                 smoothstep mix of rows i-1 and i+1
    """

    def __init__(
        self,
        config: ManifoldConfig,
        kinds: Sequence[int],
        t0: Sequence[float],
        params: Sequence[Sequence[float]],
        windows: Sequence[SawtoothWindow] = (),
    ):
        kind_arr = np.array(kinds, dtype=np.int64)
        t0_arr = np.array(t0, dtype=float)
        params = np.array(params, dtype=float)
        n = kind_arr.size
        if n == 0:
            raise ValueError("profile needs at least one piece")
        if kind_arr.shape != (n,) or t0_arr.shape != (n,) or params.shape != (n, 3):
            raise ValueError("need n kinds, n starts and an (n, 3) params array")
        if not np.all(np.isin(kind_arr, (POWER, LINEAR, CAP, BLEND))):
            raise ValueError("unknown piece kind")
        if t0_arr[0] != 0.0:
            raise ValueError("pieces must start at t = 0")
        if not (np.all(np.isfinite(t0_arr)) and np.all(np.diff(t0_arr) > 0.0)):
            raise ValueError("piece starts must be finite and strictly increasing")
        blend = kind_arr == BLEND
        if blend[0] or blend[-1]:
            raise ValueError("a BLEND piece needs a neighbour on each side")
        if np.any(blend[1:] & blend[:-1]):
            raise ValueError("BLEND pieces may not be adjacent")
        if np.any(params[blend]):
            raise ValueError("BLEND pieces take no params")
        t1_arr = np.append(t0_arr[1:], math.inf)
        for arr in (kind_arr, t0_arr, t1_arr, params):
            arr.flags.writeable = False
        self.config = config
        self.windows = tuple(sorted(windows, key=lambda wdw: wdw.z))
        self.piece_kinds = kind_arr
        self.piece_t0 = t0_arr
        self.piece_t1 = t1_arr
        self.piece_params = params

    @functools.cached_property
    def pieces(self) -> np.ndarray:
        """Read-only record view of the table: fields kind, t0, t1, params."""
        rows = np.empty(
            self.piece_kinds.size,
            dtype=[("kind", np.int64), ("t0", float), ("t1", float), ("params", float, 3)],
        )
        rows["kind"] = self.piece_kinds
        rows["t0"] = self.piece_t0
        rows["t1"] = self.piece_t1
        rows["params"] = self.piece_params
        rows.flags.writeable = False
        return rows

    @property
    def knots(self) -> np.ndarray:
        """Interior piece boundaries (all finite)."""
        return self.piece_t0[1:]

    def knots_in(self, a: float, b: float) -> np.ndarray:
        k = self.knots
        return k[(k > a) & (k < b)]

    def blend_spans_in(self, a: float, b: float) -> np.ndarray:
        """Corner-blend intervals inside (a, b), one (t0, t1) row each.

        They are the quadrature-negligible slivers of integrate().
        """
        mask = (self.piece_kinds == BLEND) & (self.piece_t0 >= a) & (self.piece_t1 <= b)
        return np.stack([self.piece_t0[mask], self.piece_t1[mask]], axis=1)

    def piece_index(self, t: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.piece_t0, t, side="right") - 1
        return np.clip(idx, 0, self.piece_t0.size - 1)

    def _piece(
        self, kind: int, rows: np.ndarray, t: np.ndarray, derivs: int
    ) -> tuple[np.ndarray, ...]:
        """sigma and its first derivs derivatives at t, on piece rows all of one kind.

        rows and t are as _by_kind hands them over: flat, or an (R, 1)
        column of piece rows whose params are gathered once and broadcast
        over the row's nodes in t.
        """
        if kind == BLEND:
            return self._blend(rows, t, derivs)
        alpha = self.config.alpha
        params = self.piece_params
        if kind == POWER:
            u = t + params[rows, 0]
            out = (u**alpha, alpha * u ** (alpha - 1.0))
            return out if derivs == 1 else (*out, alpha * (alpha - 1.0) * u ** (alpha - 2.0))
        if kind == LINEAR:
            # p1 + p2 (t - p0), built in place
            slope = params[rows, 2]
            y = t - params[rows, 0]
            y *= slope
            y += params[rows, 1]
            out = (y, slope if slope.shape == t.shape else np.broadcast_to(slope, t.shape))
            return out if derivs == 1 else (*out, np.zeros_like(t))
        p0, p1, p2 = (params[rows, j] for j in range(3))
        t2 = t * t
        out = (
            t + t2 * t * (p0 + t * (p1 + t * p2)),
            1.0 + t2 * (3.0 * p0 + t * (4.0 * p1 + t * 5.0 * p2)),
        )
        return out if derivs == 1 else (*out, t * (6.0 * p0 + t * (12.0 * p1 + t * 20.0 * p2)))

    def _blend(self, rows: np.ndarray, t: np.ndarray, derivs: int) -> tuple[np.ndarray, ...]:
        """BLEND rows: each neighbour evaluated on the nodes, then mixed.

        Temporaries are dropped once used, and the neighbours are evaluated
        one after the other, not on a concatenated copy of the nodes, to
        keep the peak memory of a call low.
        """
        t0 = self.piece_t0[rows]
        width = self.piece_t1[rows] - t0
        step = _smoothstep((t - t0) / width, derivs)
        s = step[0]
        del t0
        yl, dl, *d2l = _by_kind(self.piece_kinds, derivs + 1, self._piece, rows - 1, t, derivs)
        yr, dr, *d2r = _by_kind(self.piece_kinds, derivs + 1, self._piece, rows + 1, t, derivs)
        gap = yr - yl
        slope = step[1] / width
        out = (yl + s * gap, dl + s * (dr - dl) + slope * gap)
        if derivs == 1:
            return out
        d2l, d2r = d2l[0], d2r[0]
        return (*out, d2l + s * (d2r - d2l) + 2.0 * slope * (dr - dl) + (step[2] / width**2) * gap)

    def _eval_rows(
        self, rows: np.ndarray, t: np.ndarray, derivs: int = 2
    ) -> tuple[np.ndarray, ...]:
        """sigma and its first derivs (1 or 2) derivatives at t, on the piece rows that hold t.

        The kernel behind every sigma evaluation: each piece kind runs once,
        on its own rows (_by_kind).  t is flat, one node per row, or holds
        nodes in rows, shape (R, c), laid out as GreenFunction._lookup
        takes them, such as an integrand's panels.  rows names the piece
        row of each node, shaped like t, or one per row of a 2-D t as an
        (R, 1) column: piece_index(t) or a caller's own lookup of the same
        rows.  Returns arrays shaped like t; for a 2-D t, sigma' on LINEAR
        rows may be a read-only broadcast of their slopes.
        """
        return _by_kind(self.piece_kinds, derivs + 1, self._piece, rows, t, derivs)

    def eval_many(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(sigma, sigma', sigma'') at an array of radii; pure and deterministic."""
        t = np.asarray(t, dtype=float)
        flat = np.ravel(t)
        y, dy, d2y = self._eval_rows(self.piece_index(flat), flat)
        return y.reshape(t.shape), dy.reshape(t.shape), d2y.reshape(t.shape)


def _cap_coefficients(alpha: float) -> tuple[float, float, float]:
    v = 1.5**alpha
    d1 = alpha * 1.5 ** (alpha - 1.0)
    d2 = alpha * (alpha - 1.0) * 1.5 ** (alpha - 2.0)
    lhs = np.array([[1.0, 1.0, 1.0], [3.0, 4.0, 5.0], [6.0, 12.0, 20.0]])
    rhs = np.array([v - 1.0, d1 - 1.0, d2])
    a3, a4, a5 = np.linalg.solve(lhs, rhs)
    return float(a3), float(a4), float(a5)


def build_base_profile(config: ManifoldConfig) -> WarpingProfile:
    """Background profile: quintic cap on [0, 1], then (t + 1/2)^alpha.

    The cap satisfies sigma(0) = 0, sigma'(0) = 1, sigma''(0) = 0 and joins
    the power curve with matching value, slope and curvature at t = 1, so the
    profile is C^2 with no blend needed there.
    """
    coeffs = _cap_coefficients(config.alpha)
    profile = WarpingProfile(config, [CAP, POWER], [0.0, 1.0], [coeffs, (0.5, 0.0, 0.0)])
    ts = np.linspace(1.0 / 512, 1.0, 512)
    y = profile.eval_many(ts)[0]
    top = (ts + 1.0) ** config.alpha
    if not (np.all(y > 0.0) and np.all(y <= top * (1.0 + 1e-12))):
        raise CubeDoesNotFit(
            f"cap polynomial leaves (0, (t+1)^alpha] on (0, 1] for m = {config.m}"
        )
    return profile


def plan_window(config: ManifoldConfig, h: float, n_teeth: int) -> SawtoothWindow:
    """Size an oscillation window starting at h.

    m = 2: the unit window [h, h+1] with drifting teeth spanning the strip.
    m >= 3: cube side eta = min over [h, h+1] of ((t+1)^alpha - t^alpha) / 10,
    attained at t = h+1 since the gap decreases, resting on base = (h+eta)^alpha.
    Every corner blends over the halfwidth
    max(min(step/100, step^10), 64 float spacings at the window's end).
    Raises CubeDoesNotFit when the cube pokes above the strip ceiling, or
    when n is so large that that halfwidth is no longer below step/2.
    """
    if not h > 1.0:
        raise ValueError("window start h must exceed 1")
    if not isinstance(n_teeth, (int, np.integer)) or n_teeth < 1:
        raise ValueError("n_teeth must be an integer >= 1")
    n_teeth = int(n_teeth)
    alpha = config.alpha
    if config.m == 2:
        width = 1.0
        amplitude = 1.0
        base = h
    else:
        eta = ((h + 2.0) ** alpha - (h + 1.0) ** alpha) / 10.0
        width = eta
        amplitude = eta
        base = (h + eta) ** alpha
        ceiling = (h + 1.0) ** alpha
        scale = max(1.0, ceiling)
        if base < (h + width) ** alpha - 1e-12 * scale:
            raise CubeDoesNotFit("cube base fell below the strip floor")
        if base + amplitude > ceiling + 1e-12 * scale:
            raise CubeDoesNotFit(
                f"cube top {base + amplitude!r} above strip ceiling {ceiling!r} at h = {h!r}"
            )
    step = width / (2.0 * n_teeth)
    smooth_halfwidth = max(
        min(step / 100.0, step**10),
        64.0 * float(np.spacing(h + width + 1.0)),
    )
    if not smooth_halfwidth < 0.5 * step:
        raise CubeDoesNotFit(
            f"smoothing halfwidth {smooth_halfwidth!r} must lie in (0, step/2)"
        )
    return SawtoothWindow(
        z=float(h),
        width=width,
        n_teeth=n_teeth,
        amplitude=amplitude,
        base=float(base),
        smooth_halfwidth=smooth_halfwidth,
    )


def _bisect_root(fn, lo: float, hi: float) -> float:
    flo = fn(lo)
    fhi = fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError("connector root not bracketed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def _window_rows(
    config: ManifoldConfig, window: SawtoothWindow, host_c: float
) -> tuple[np.ndarray, np.ndarray]:
    """Boundaries and LINEAR params of the window's rows, corners not yet blended.

    Returns the 2n + 3 boundaries t_enter, z, ..., z + width, t_exit and the
    (t_ref, y_ref, slope) params of the 2n + 2 rows between them: the entry
    connector, n rise/fall pairs and the exit connector.  The entry connector
    falls into (z, base) with the falling-tooth slope and the exit connector
    rises out of (z + width, end value) with the rising slope, so the corners
    where the window touches the strip have symmetric slope deviations and
    blend cleanly.
    """
    alpha = config.alpha
    z = window.z
    n = window.n_teeth
    step = window.step
    base = window.base
    end = z + window.width

    edges = z + step * np.arange(2 * n + 1)
    edges[-1] = end
    # every row is anchored at its left footprint edge; the entry connector
    # shares z with the first rise
    t_ref = np.concatenate((edges[:1], edges))
    if config.m == 2:
        rise = 2.0 * n + 1.0
        fall = 2.0 * n - 1.0
        t_enter = z - 0.5 * step
        t_exit = end + 0.5 * step
        # rises start on the diagonal, falls one unit above it
        y_ref = t_ref + np.concatenate(([0.0], np.tile([0.0, 1.0], n), [0.0]))
    else:
        rise = fall = window.amplitude / step
        top = base + window.amplitude

        def entry_gap(t: float) -> float:
            return (t + host_c) ** alpha - (base + rise * (z - t))

        delta_in = (z + host_c) ** alpha - base
        t_enter = _bisect_root(entry_gap, z - 1.5 * delta_in / rise, z)

        def exit_gap(t: float) -> float:
            return (t + host_c) ** alpha - (base + rise * (t - end))

        delta_out = (end + host_c) ** alpha - base
        t_exit = _bisect_root(exit_gap, end, end + 1.5 * delta_out / rise)
        y_ref = np.concatenate(([base], np.tile([base, top], n), [base]))
    slopes = np.tile([-fall, rise], n + 1)
    bounds = np.concatenate(([t_enter], edges, [t_exit]))
    return bounds, np.stack((t_ref, y_ref, slopes), axis=1)


def insert_sawtooth(profile: WarpingProfile, window: SawtoothWindow) -> WarpingProfile:
    """New profile with the window's teeth, connectors and corner blends.

    The footprint [z, z + width] carries n_teeth sawtooth units; short
    connector ramps outside the footprint rejoin the background curve, and
    every corner is a BLEND of halfwidth smooth_halfwidth.  sigma and sigma'
    stay continuous everywhere and the strip bounds are preserved.  The whole
    span must lie inside one POWER row; since rows tile, that also keeps it
    clear of every existing window.
    """
    host = int(profile.piece_index(np.asarray([window.z]))[0])
    if profile.piece_kinds[host] != POWER:
        raise OverlappingWindow(
            f"window start {window.z!r} does not sit on background curve"
        )
    host_params = profile.piece_params[host]
    host_t0 = float(profile.piece_t0[host])
    host_t1 = float(profile.piece_t1[host])
    w = window.smooth_halfwidth
    bounds, linear = _window_rows(profile.config, window, float(host_params[0]))

    span = (float(bounds[0]) - w, float(bounds[-1]) + w)
    if span[0] <= 1.0:
        raise FootprintOutOfRange(
            f"window span {span!r} (with connectors) must stay inside (1, inf)"
        )
    if not (host_t0 <= span[0] and span[1] <= host_t1):
        raise OverlappingWindow(
            f"window span {span!r} overlaps existing structure or crosses the "
            f"host curve's row [{host_t0!r}, {host_t1!r}]"
        )

    # plain rows: host left of the window, the LINEAR rows, host right of it;
    # each is trimmed by w at every window boundary, where a BLEND bridges it
    starts = np.concatenate(([host_t0], bounds + w))
    ends = np.concatenate((bounds - w, [host_t1]))
    if not np.all(starts < ends):
        raise CubeDoesNotFit("smoothing halfwidth swallows a whole piece")
    rows = 2 * bounds.size + 1
    kinds = np.full(rows, BLEND, dtype=np.int64)
    kinds[0::2] = LINEAR
    kinds[0] = kinds[-1] = POWER
    t0 = np.empty(rows)
    t0[0::2] = starts
    t0[1::2] = ends[:-1]
    params = np.zeros((rows, 3))
    params[0] = params[-1] = host_params
    params[2:-1:2] = linear

    def splice(column: np.ndarray, middle: np.ndarray) -> np.ndarray:
        return np.concatenate((column[:host], middle, column[host + 1 :]))

    return WarpingProfile(
        profile.config,
        splice(profile.piece_kinds, kinds),
        splice(profile.piece_t0, t0),
        splice(profile.piece_params, params),
        (*profile.windows, window),
    )


def audit_strip(
    profile: WarpingProfile, t_min: float, t_max: float, samples: int
) -> BoundAudit:
    """Check t^alpha <= sigma(t) <= (t+1)^alpha on [t_min, t_max].

    The sample set contains every knot in range plus samples evenly spaced
    points.  Violations are relative; touching the boundaries is allowed.
    """
    if not 1.0 <= t_min < t_max:
        raise ValueError("need 1 <= t_min < t_max")
    ts = np.unique(
        np.concatenate(
            [
                np.asarray([t_min, t_max]),
                profile.knots_in(t_min, t_max),
                np.linspace(t_min, t_max, max(2, samples)),
            ]
        )
    )
    y = profile.eval_many(ts)[0]
    alpha = profile.config.alpha
    floor = ts**alpha
    ceil = (ts + 1.0) ** alpha
    low_viol = (floor - y) / np.maximum(1.0, floor)
    high_viol = (y - ceil) / np.maximum(1.0, ceil)
    audit = BoundAudit()
    audit.add_worst("strip_lower", low_viol, ts, STRIP_TOL)
    audit.add_worst("strip_upper", high_viol, ts, STRIP_TOL)
    return audit


def profile_to_json(profile: WarpingProfile) -> dict:
    """Canonical serialization: dimension, windows, cap coefficients."""
    cap = profile.piece_params[profile.piece_kinds == CAP][0]
    return {
        "m": profile.config.m,
        "cap_coefficients": [float(c) for c in cap],
        "windows": [
            {
                "z": wdw.z,
                "width": wdw.width,
                "n_teeth": wdw.n_teeth,
                "amplitude": wdw.amplitude,
                "base": wdw.base,
                "smooth_halfwidth": wdw.smooth_halfwidth,
            }
            for wdw in profile.windows
        ],
    }


def profile_from_json(data: dict) -> WarpingProfile:
    """Rebuild a profile from its serialized form (windows re-inserted in order)."""
    config = ManifoldConfig.from_dimension(int(data["m"]))
    profile = build_base_profile(config)
    for wdata in sorted(data.get("windows", []), key=lambda d: d["z"]):
        window = SawtoothWindow(
            z=float(wdata["z"]),
            width=float(wdata["width"]),
            n_teeth=int(wdata["n_teeth"]),
            amplitude=float(wdata["amplitude"]),
            base=float(wdata["base"]),
            smooth_halfwidth=float(wdata["smooth_halfwidth"]),
        )
        profile = insert_sawtooth(profile, window)
    return profile
