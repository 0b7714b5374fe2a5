"""Radial Green's function G(r) = integral of sigma^(1-m) from 1 to r.

Because the background curve is (t + c)^alpha with alpha = 1/(m - 1), the
integrand on power pieces is exactly 1/(t + c) in every dimension, so G is
assembled from logarithms.  Linear pieces integrate in closed form as well;
only the narrow corner blends need (fixed, deterministic) Gauss panels.

A checkpoint table caches G at every knot plus geometric fill points, giving
O(1) vectorized evaluation and a piecewise closed-form inverse.  G is strictly
increasing since sigma > 0, so both directions are well posed.

For in-strip profiles the classical envelopes hold and are audited here:
  log((t+1)/2) <= G(t) <= log t
  e^s <= Ginv(s) <= 2 e^s - 1
  e^(alpha s) <= sigma(Ginv(s)) <= 2^alpha e^(alpha s)
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import BoundAudit, _row_max
from .warping import BLEND, CAP, LINEAR, POWER, WarpingProfile, _by_kind

__all__ = [
    "DELTA_UNIVERSAL",
    "OutOfRange",
    "WindowTooNarrow",
    "GreenTableNotIncreasing",
    "GreenFunction",
    "find_h",
    "audit_green_bounds",
]

# plateau margin (1 - log 2) / 4: one quarter of the worst-case gap between
# the upper and lower Green envelopes, safe for every admissible profile
DELTA_UNIVERSAL = (1.0 - math.log(2.0)) / 4.0

ENVELOPE_TOL = 1e-9

_FILL_LOG_SPACING = 0.25


class OutOfRange(ValueError):
    """Radius or Green coordinate outside the tabulated domain."""


class WindowTooNarrow(ValueError):
    """The unit Green-coordinate window does not fit above the requested level."""


def _blend_quad(
    profile: WarpingProfile, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Midpoint rule for sigma^(1-m) across corner blends; rows hold the midpoints.

    Blends are at most a step/50 sliver where sigma moves by a relative
    1e-9 or less, so the midpoint value is already accurate to ~1e-20 of
    the running integral; one deterministic evaluation per interval.
    """
    em = 1.0 - profile.config.m
    mid = 0.5 * (lo + hi)
    return (hi - lo) * profile._eval_rows(rows, mid, derivs=1)[0] ** em


def _clip_checked(x: np.ndarray, lo: float, hi: float, message: str) -> np.ndarray:
    """x clipped into [lo, hi]; x itself when it already lies inside.

    Entries within a relative 1e-9 outside are roundoff and get clipped;
    the first entry beyond that, or not finite, raises OutOfRange with
    message formatted around it.
    """
    if not x.size or (lo <= x.min() and x.max() <= hi):
        return x
    slack = 1e-9 * (1.0 + np.abs(x))
    bad = (x < lo - slack) | (x > hi + slack) | ~np.isfinite(x)
    if np.any(bad):
        raise OutOfRange(message.format(x[bad][0]))
    return np.clip(x, lo, hi)


def _interval(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Index i of the table interval [table[i], table[i+1]) holding each x."""
    idx = np.searchsorted(table, x, side="right") - 1
    return np.clip(idx, 0, table.size - 2, out=idx)


class GreenTableNotIncreasing(ValueError):
    """Cumulative G stops rising between two checkpoints of the table.

    Near the fit limit an interval's increment of G can fall to about the
    float spacing of G itself, and the running sum no longer grows.
    """


class GreenFunction:
    """Tabulated G and its inverse for one profile on [1, r_max].

    Checkpoint interval i, [_r_tab[i], _r_tab[i+1]], lies inside profile row
    _rows[i].  _kinds[i] is that row's kind, except that a zero-slope
    LINEAR row counts as BLEND: G is linear in r on both.  _anchor[i] is
    the constant G and G^-1 need there: lo + c on POWER rows, sigma(lo) on
    LINEAR rows, and the slope G' of the interval on BLEND-class rows (the
    mean of sigma^(1-m) over a blend, sigma^(1-m) on a flat row).
    """

    def __init__(self, profile: WarpingProfile, r_max: float):
        if not (math.isfinite(r_max) and r_max > 1.0):
            raise ValueError("r_max must be finite and exceed 1")
        self.profile = profile
        self.r_max = float(r_max)

        pts = [np.asarray([1.0, self.r_max])]
        knots = profile.knots
        pts.append(knots[(knots > 1.0) & (knots < self.r_max)])
        ratio = math.exp(_FILL_LOG_SPACING)
        for i in np.flatnonzero(profile.piece_kinds == POWER):
            lo = max(profile.piece_t0[i], 1.0)
            hi = min(profile.piece_t1[i], self.r_max)
            if not lo < hi:
                continue
            c = profile.piece_params[i, 0]
            count = int(math.log((hi + c) / (lo + c)) / _FILL_LOG_SPACING)
            if count >= 1:
                fills = (lo + c) * ratio ** np.arange(1, count + 1) - c
                pts.append(fills[(fills > lo) & (fills < hi)])
        cps = np.unique(np.concatenate(pts))
        lo, hi = cps[:-1], cps[1:]
        rows = profile.piece_index(0.5 * (lo + hi))
        kinds = profile.piece_kinds[rows].astype(np.int8)
        if np.any(kinds == CAP):
            raise ValueError("Green table may not cover the cap region t < 1")

        params = profile.piece_params
        anchor = np.empty_like(lo)
        sel = np.flatnonzero(kinds == POWER)
        anchor[sel] = lo[sel] + params[rows[sel], 0]
        # partial integrals across a blend interval interpolate the table
        # linearly; the integrand drifts by ~1e-9 across such a sliver, so
        # the mean slope is exact at both edges and 1e-20-accurate inside
        sel = np.flatnonzero(kinds == BLEND)
        blend_seg = _blend_quad(profile, rows[sel], lo[sel], hi[sel])
        anchor[sel] = blend_seg / (hi[sel] - lo[sel])
        linear = np.flatnonzero(kinds == LINEAR)
        tr, yr, a = params[rows[linear]].T
        anchor[linear] = yr + a * (lo[linear] - tr)
        flat = linear[a == 0.0]
        anchor[flat] **= 1 - profile.config.m
        kinds[flat] = BLEND

        self._r_tab = cps
        self._rows = rows
        self._kinds = kinds
        self._anchor = anchor
        seg = self._partial(np.arange(lo.size), hi)
        seg[sel] = blend_seg
        g = np.concatenate([[0.0], np.cumsum(seg)])
        stalls = np.flatnonzero(np.diff(g) <= 0.0)
        if stalls.size:
            i = stalls[0]
            raise GreenTableNotIncreasing(
                f"Green table is not strictly increasing: G stops rising at r = "
                f"{float(cps[i])!r} (G = {float(g[i])!r}), before the next checkpoint "
                f"{float(cps[i + 1])!r}"
            )
        self._g_tab = g
        for arr in (self._r_tab, self._g_tab, self._rows, self._kinds, self._anchor):
            arr.flags.writeable = False

    def _partial(self, idx: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Integral of sigma^(1-m) from the checkpoint at idx to r, inside interval idx.

        r and idx are shaped as _by_kind takes them.
        """
        return _by_kind(self._kinds, 1, self._partial_of, idx, r)[0]

    def _partial_of(self, kind: int, idx: np.ndarray, r: np.ndarray) -> tuple[np.ndarray]:
        """_partial on intervals that are all of one kind class."""
        anchor = self._anchor[idx]
        m = self.profile.config.m
        if kind == BLEND:
            return ((r - self._r_tab[idx]) * anchor,)
        params = self.profile.piece_params
        rows = self._rows[idx]
        if kind == POWER:
            return (np.log((r + params[rows, 0]) / anchor),)
        tr, yr, a = (params[rows, j] for j in range(3))
        l1 = yr + a * (r - tr)
        if m == 2:
            return (np.log(l1 / anchor) / a,)
        q = 2.0 - m
        return ((l1**q - anchor**q) / (q * a),)

    def _inverse_of(self, kind: int, idx: np.ndarray, ds: np.ndarray) -> tuple[np.ndarray]:
        """Radius where the integral from checkpoint idx reaches ds, for one kind class."""
        anchor = self._anchor[idx]
        m = self.profile.config.m
        r0 = self._r_tab[idx]
        if kind == BLEND:
            return (r0 + ds / anchor,)
        params = self.profile.piece_params
        rows = self._rows[idx]
        if kind == POWER:
            c = params[rows, 0]
            return (anchor * np.exp(ds) - c,)
        a = params[rows, 2]
        if m == 2:
            return (r0 + anchor * np.expm1(a * ds) / a,)
        q = 2.0 - m
        l1 = (anchor**q + q * a * ds) ** (1.0 / q)
        return (r0 + (l1 - anchor) / a,)

    @property
    def s_max(self) -> float:
        return float(self._g_tab[-1])

    def _lookup(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, idx, odd): r clipped into [1, r_max], each row's checkpoint interval, the odd rows.

        r is flat, one node per row, or holds nodes in rows, shape (R, c),
        such as an integrand's panels: each row ascends, or is three
        ascending blocks laid out as quadrature._panel_rows lays them, with
        the row's least node first.  A row is looked up at its first node
        only: idx is flat for a flat r and an (R, 1) column for a 2-D one.
        odd lists the rows that interval does not serve: a row whose
        greatest node (quadrature._row_max) reaches the next checkpoint,
        on a POWER row with fill checkpoints; a row holding r_max, whose
        profile row the last interval need not name; and a row with a
        radius clipped in from just outside [1, r_max].  Rounding is
        monotone, so every other row lies in its first node's interval.
        """
        x = _clip_checked(r, 1.0, self.r_max, f"radius {{!r}} outside [1, {self.r_max!r}]")
        if x.ndim == 2:
            idx = _interval(self._r_tab, x[:, :1])
            top, least = _row_max(x), r[:, 0]
        else:
            idx = _interval(self._r_tab, x)
            top, least = x, r
        # the last interval's next checkpoint is r_max itself
        odd = np.flatnonzero((top >= self._r_tab[idx.reshape(-1) + 1]) | (least < 1.0))
        return x, idx, odd

    def _value_sigma(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(G, sigma, sigma') at radii r, shaped like r, from one lookup and one partition.

        r is as _lookup takes it.  The rows are split by kind class once
        (_by_kind), and each class's part gets G and then sigma and sigma'
        from WarpingProfile._eval_rows on its own profile rows: a part of
        one piece kind runs without a second gather.  The odd rows (see
        _lookup) go node by node instead: G from value_many, and sigma and
        sigma' from the profile rows piece_index names, as eval_many takes
        them; both ways give the bits of value_many and eval_many.
        """
        x, idx, odd = self._lookup(r)
        if not odd.size:
            return _by_kind(self._kinds, 3, self._value_sigma_of, idx, x)
        plain = np.delete(np.arange(len(x)), odd)
        part = _by_kind(
            self._kinds, 3, self._value_sigma_of, idx.take(plain, axis=0), x.take(plain, axis=0)
        )
        ro = r.take(odd, axis=0).ravel()
        sigma = self.profile._eval_rows(self.profile.piece_index(ro), ro, derivs=1)
        nodes = (self.value_many(ro), *sigma)
        # allocated once the plain rows' part is done; allocated before it,
        # they raised a call's peak memory by about a quarter (tracemalloc)
        outs = tuple(np.empty(x.shape) for _ in range(3))
        for out, v, w in zip(outs, part, nodes):
            out[plain] = v
            out[odd] = w.reshape(-1, *x.shape[1:])
        return outs

    def _value_sigma_of(self, kind: int, idx: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, ...]:
        """_value_sigma on intervals that are all of one kind class.

        sigma and sigma' come first, so G is not held while a BLEND part
        evaluates both neighbours.
        """
        sigma = self.profile._eval_rows(self._rows[idx], r, derivs=1)
        return (self._g_tab[idx] + self._partial_of(kind, idx, r)[0], *sigma)

    def value_many(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        x, idx, _ = self._lookup(np.ravel(r))
        return (self._g_tab[idx] + self._partial(idx, x)).reshape(r.shape)

    def value(self, r: float) -> float:
        return float(self.value_many(np.asarray([float(r)]))[0])

    def inverse_many(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        top = self.s_max
        x = _clip_checked(
            np.ravel(s),
            0.0,
            top,
            f"Green coordinate {{!r}} outside [0, {top!r}]; "
            "rebuild with a larger r_max to reach higher levels",
        )
        idx = _interval(self._g_tab, x)
        r = _by_kind(self._kinds, 1, self._inverse_of, idx, x - self._g_tab[idx])[0]
        np.clip(r, self._r_tab[idx], self._r_tab[1:][idx], out=r)
        return r.reshape(s.shape)

    def inverse(self, s: float) -> float:
        return float(self.inverse_many(np.asarray([float(s)]))[0])


def find_h(green: GreenFunction, k: float) -> float:
    """Radius where the Green coordinate first clears level k by the margin.

    h = Ginv(k + delta) places the window footprint inside the cutoff
    plateau; the right end is re-checked so the whole unit window
    [h, h+1] stays below level k + 1 - delta.
    """
    if not k >= 1.0:
        raise ValueError("level k must be >= 1")
    delta = DELTA_UNIVERSAL
    if k + 1.0 > green.s_max:
        raise OutOfRange(
            f"level {k!r} needs s_max >= {k + 1.0!r} but table ends at "
            f"{green.s_max!r}; rebuild with a larger r_max"
        )
    h = green.inverse(k + delta)
    if h + 1.0 > green.r_max:
        raise OutOfRange("window [h, h+1] exceeds r_max; rebuild with a larger r_max")
    right = green.value(h + 1.0)
    if right > k + 1.0 - delta:
        raise WindowTooNarrow(
            f"G(h+1) = {right!r} exceeds k + 1 - delta = {k + 1.0 - delta!r}"
        )
    return h


def audit_green_bounds(green: GreenFunction, samples: int) -> BoundAudit:
    """Envelope audit over the whole table [1, green.r_max].

    Holds whenever sigma stays inside the strip.  samples log-spaced radii,
    plus every knot, check G; samples evenly spaced levels check G^-1 and
    sigma along it.
    """
    t_max = green.r_max
    ts = np.unique(
        np.concatenate(
            [
                np.exp(np.linspace(0.0, math.log(t_max), max(2, samples))),
                green.profile.knots_in(1.0, t_max),
                np.asarray([1.0, t_max]),
            ]
        )
    )
    g = green.value_many(ts)
    audit = BoundAudit()

    low = np.log(0.5 * (ts + 1.0))
    high = np.log(ts)
    audit.add_worst("green_lower", (low - g) / np.maximum(1.0, np.abs(low)), ts, ENVELOPE_TOL)
    audit.add_worst("green_upper", (g - high) / np.maximum(1.0, np.abs(high)), ts, ENVELOPE_TOL)

    s_top = green.value(t_max)
    ss = np.linspace(0.0, s_top, max(2, samples))
    rr = green.inverse_many(ss)
    e_s = np.exp(ss)
    audit.add_worst("inverse_lower", (e_s - rr) / e_s, ss, ENVELOPE_TOL)
    audit.add_worst("inverse_upper", (rr - (2.0 * e_s - 1.0)) / e_s, ss, ENVELOPE_TOL)

    alpha = green.profile.config.alpha
    sig = green.profile.eval_many(rr)[0]
    e_as = np.exp(alpha * ss)
    audit.add_worst("warp_lower", (e_as - sig) / e_as, ss, ENVELOPE_TOL)
    audit.add_worst("warp_upper", (sig - 2.0**alpha * e_as) / e_as, ss, ENVELOPE_TOL)
    return audit
