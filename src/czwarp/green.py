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

from .quadrature import BoundAudit
from .warping import BLEND, CAP, LINEAR, POWER, WarpingProfile

__all__ = [
    "DELTA_UNIVERSAL",
    "OutOfRange",
    "WindowTooNarrow",
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


def _blend_quad(profile: WarpingProfile, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Midpoint rule for sigma^(1-m) across (parts of) corner blends.

    Blends are at most a step/50 sliver where sigma moves by a relative
    1e-9 or less, so the midpoint value is already accurate to ~1e-20 of
    the running integral; one deterministic evaluation per interval.
    """
    em = 1.0 - profile.config.m
    mid = 0.5 * (lo + hi)
    return (hi - lo) * profile.eval_many(mid)[0] ** em


class GreenFunction:
    """Tabulated G and its inverse for one profile on [1, r_max]."""

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
        mids = 0.5 * (cps[:-1] + cps[1:])
        rows = profile.piece_index(mids)
        if np.any(profile.piece_kinds[rows] == CAP):
            raise ValueError("Green table may not cover the cap region t < 1")
        self._r_tab = cps
        self._rows = rows
        seg = self._segments(cps[:-1], cps[1:], rows)
        g = np.concatenate([[0.0], np.cumsum(seg)])
        if np.any(np.diff(g) <= 0.0):
            raise ValueError("Green table is not strictly increasing")
        self._g_tab = g
        # partial integrals across a blend interval interpolate the table
        # linearly; the integrand drifts by ~1e-9 across such a sliver, so
        # the mean slope is exact at both edges and 1e-20-accurate inside
        kinds = profile.piece_kinds[rows]
        with np.errstate(invalid="ignore"):
            self._mean = np.where(kinds == BLEND, seg / np.diff(cps), np.nan)
        for arr in (self._r_tab, self._g_tab, self._rows, self._mean):
            arr.flags.writeable = False

    def _segments(self, lo: np.ndarray, hi: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Integral of sigma^(1-m) on [lo_i, hi_i], each inside piece rows_i."""
        prof = self.profile
        m = prof.config.m
        out = np.zeros_like(lo)
        kinds = prof.piece_kinds[rows]
        pp = prof.piece_params[rows]

        mask = kinds == POWER
        if np.any(mask):
            c = pp[mask, 0]
            out[mask] = np.log((hi[mask] + c) / (lo[mask] + c))

        mask = kinds == LINEAR
        if np.any(mask):
            tr, yr, a = pp[mask, 0], pp[mask, 1], pp[mask, 2]
            l0 = yr + a * (lo[mask] - tr)
            l1 = yr + a * (hi[mask] - tr)
            vals = np.empty_like(l0)
            flat = a == 0.0
            if np.any(flat):
                vals[flat] = (hi[mask][flat] - lo[mask][flat]) * yr[flat] ** (1 - m)
            steep = ~flat
            if np.any(steep):
                if m == 2:
                    vals[steep] = np.log(l1[steep] / l0[steep]) / a[steep]
                else:
                    q = 2.0 - m
                    vals[steep] = (l1[steep] ** q - l0[steep] ** q) / (q * a[steep])
            out[mask] = vals

        mask = kinds == BLEND
        if np.any(mask):
            out[mask] = _blend_quad(prof, lo[mask], hi[mask])
        return out

    def _partial(self, idx: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Integral from the checkpoint at idx to r (inside interval idx)."""
        lo = self._r_tab[idx]
        rows = self._rows[idx]
        blend = np.isfinite(self._mean[idx])
        if not np.any(blend):
            return self._segments(lo, r, rows)
        out = np.empty_like(r)
        plain = ~blend
        if np.any(plain):
            out[plain] = self._segments(lo[plain], r[plain], rows[plain])
        out[blend] = (r[blend] - lo[blend]) * self._mean[idx[blend]]
        return out

    @property
    def s_max(self) -> float:
        return float(self._g_tab[-1])

    def value_many(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        flat = np.ravel(r).copy()
        slack = 1e-9 * (1.0 + np.abs(flat))
        bad = (flat < 1.0 - slack) | (flat > self.r_max + slack) | ~np.isfinite(flat)
        if np.any(bad):
            raise OutOfRange(
                f"radius {flat[bad][0]!r} outside [1, {self.r_max!r}]"
            )
        np.clip(flat, 1.0, self.r_max, out=flat)
        idx = np.searchsorted(self._r_tab, flat, side="right") - 1
        idx = np.clip(idx, 0, len(self._r_tab) - 2)
        g = self._g_tab[idx] + self._partial(idx, flat)
        return g.reshape(r.shape)

    def value(self, r: float) -> float:
        return float(self.value_many(np.asarray([float(r)]))[0])

    def inverse_many(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        flat = np.ravel(s).copy()
        top = self.s_max
        slack = 1e-9 * (1.0 + np.abs(flat))
        bad = (flat < -slack) | (flat > top + slack) | ~np.isfinite(flat)
        if np.any(bad):
            raise OutOfRange(
                f"Green coordinate {flat[bad][0]!r} outside [0, {top!r}]; "
                "rebuild with a larger r_max to reach higher levels"
            )
        np.clip(flat, 0.0, top, out=flat)
        idx = np.searchsorted(self._g_tab, flat, side="right") - 1
        idx = np.clip(idx, 0, len(self._g_tab) - 2)
        ds = flat - self._g_tab[idx]
        r0 = self._r_tab[idx]
        r1 = self._r_tab[idx + 1]
        rows = self._rows[idx]

        prof = self.profile
        m = prof.config.m
        kinds = prof.piece_kinds[rows]
        pp = prof.piece_params[rows]
        out = np.empty_like(flat)

        mask = kinds == POWER
        if np.any(mask):
            c = pp[mask, 0]
            out[mask] = (r0[mask] + c) * np.exp(ds[mask]) - c

        mask = kinds == LINEAR
        if np.any(mask):
            tr, yr, a = pp[mask, 0], pp[mask, 1], pp[mask, 2]
            l0 = yr + a * (r0[mask] - tr)
            r_new = np.empty_like(l0)
            flat_a = a == 0.0
            if np.any(flat_a):
                r_new[flat_a] = r0[mask][flat_a] + ds[mask][flat_a] * yr[flat_a] ** (m - 1)
            steep = ~flat_a
            if np.any(steep):
                if m == 2:
                    grow = np.expm1(a[steep] * ds[mask][steep])
                    r_new[steep] = r0[mask][steep] + l0[steep] * grow / a[steep]
                else:
                    q = 2.0 - m
                    l1 = (l0[steep] ** q + q * a[steep] * ds[mask][steep]) ** (1.0 / q)
                    r_new[steep] = r0[mask][steep] + (l1 - l0[steep]) / a[steep]
            out[mask] = r_new

        mask = kinds == BLEND
        if np.any(mask):
            out[mask] = r0[mask] + ds[mask] / self._mean[idx[mask]]

        np.clip(out, r0, r1, out=out)
        return out.reshape(s.shape)

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
    viol = (low - g) / np.maximum(1.0, np.abs(low))
    i = int(np.argmax(viol))
    audit.add("green_lower", float(viol[i]), float(ts[i]), ENVELOPE_TOL)
    viol = (g - high) / np.maximum(1.0, np.abs(high))
    i = int(np.argmax(viol))
    audit.add("green_upper", float(viol[i]), float(ts[i]), ENVELOPE_TOL)

    s_top = green.value(t_max)
    ss = np.linspace(0.0, s_top, max(2, samples))
    rr = green.inverse_many(ss)
    e_s = np.exp(ss)
    viol = (e_s - rr) / e_s
    i = int(np.argmax(viol))
    audit.add("inverse_lower", float(viol[i]), float(ss[i]), ENVELOPE_TOL)
    viol = (rr - (2.0 * e_s - 1.0)) / e_s
    i = int(np.argmax(viol))
    audit.add("inverse_upper", float(viol[i]), float(ss[i]), ENVELOPE_TOL)

    alpha = green.profile.config.alpha
    sig = green.profile.eval_many(rr)[0]
    e_as = np.exp(alpha * ss)
    viol = (e_as - sig) / e_as
    i = int(np.argmax(viol))
    audit.add("warp_lower", float(viol[i]), float(ss[i]), ENVELOPE_TOL)
    viol = (sig - 2.0**alpha * e_as) / e_as
    i = int(np.argmax(viol))
    audit.add("warp_upper", float(viol[i]), float(ss[i]), ENVELOPE_TOL)
    return audit
