"""Radial test functions u(r) = phi(G(r) - k) and their L^p norm accounting.

phi(s) = s * w(s) with a smooth cutoff w that is 1 on [delta, 1 - delta] and
0 outside (delta/2, 1 - delta/2).  On the plateau u equals G - k, where the
radial Laplacian collapses to phi'' * sigma^(2 - 2m) exactly, so u is
harmonic there while the sawtooth drives the Hessian through the tangential
component sigma' u' / sigma.

Norms use the rotationally invariant weight: ||f||_p^p is gamma_m times the
integral of |f|^p sigma^(m-1) dr over the support bracket.  One fixed kernel,
TestFunction._fields, gives u, the collapsed Laplacian, both Hessian
eigenvalues and sigma per node from one Green lookup, one partition of its
rows by kind for G and sigma together, and one class per row: a panel
wholly on the plateau takes phi = s, phi' = 1, phi'' = 0 without the
cutoff, with the same bits as through it.  norms_report
integrates the three norms of each p it is given as columns of one pass, and
audit_norm_chain bounds the u and Laplacian masses I_u = ||u||_p^p / gamma_m
and I_lap = ||Delta u||_p^p / gamma_m, which it reads from a norms_report,
so the chain bounds the very numbers the inequality uses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .green import DELTA_UNIVERSAL, GreenFunction
from .quadrature import BoundAudit, QuadratureSpec, _fsum, integrate
from .warping import LINEAR, _smoothstep

__all__ = [
    "CutoffFunction",
    "TestFunction",
    "NormsReport",
    "norms_report",
    "audit_norm_chain",
]


class CutoffFunction:
    """phi(s) = s * w(s); w rises on (delta/2, delta), falls on (1-delta, 1-delta/2).

    delta is DELTA_UNIVERSAL, the one margin the construction uses: find_h
    and the bracket check place the window inside [k + delta, k + 1 - delta]
    for that delta alone.  The four transitions are quadrature breakpoints,
    so each panel lies in one region; TestFunction._fields calls eval_many
    only on the rows that are not wholly on the plateau, where w = 1 and
    phi = s exactly.
    """

    def __init__(self):
        self.delta = DELTA_UNIVERSAL

    @functools.cached_property
    def sup_d2(self) -> float:
        """sup|phi''| over both ramps (20001 points each), scanned on first use."""
        d = self.delta
        grid = np.concatenate(
            [
                np.linspace(0.5 * d, d, 20001),
                np.linspace(1.0 - d, 1.0 - 0.5 * d, 20001),
            ]
        )
        return float(np.max(np.abs(self.eval_many(grid)[2])))

    def eval_many(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(phi, phi', phi'') with identically zero values outside the support."""
        s = np.asarray(s, dtype=float)
        d = self.delta
        half = 0.5 * d
        w = np.zeros_like(s)
        dw = np.zeros_like(s)
        d2w = np.zeros_like(s)

        plateau = (s >= d) & (s <= 1.0 - d)
        w[plateau] = 1.0

        rise = (s > half) & (s < d)
        if np.any(rise):
            x = (s[rise] - half) / half
            sv, sp, spp = _smoothstep(x)
            w[rise] = sv
            dw[rise] = sp / half
            d2w[rise] = spp / half**2

        fall = (s > 1.0 - d) & (s < 1.0 - half)
        if np.any(fall):
            x = ((1.0 - half) - s[fall]) / half
            sv, sp, spp = _smoothstep(x)
            w[fall] = sv
            dw[fall] = -sp / half
            d2w[fall] = spp / half**2

        phi = s * w
        dphi = w + s * dw
        d2phi = 2.0 * dw + s * d2w
        return phi, dphi, d2phi


class TestFunction:
    """u(r) = phi(G(r) - k), supported where G(r) - k lies in (delta/2, 1 - delta/2)."""

    __test__ = False  # keep pytest from collecting this despite the name

    def __init__(self, k: float, cutoff: CutoffFunction, green: GreenFunction):
        if not k >= 1.0:
            raise ValueError("level k must be >= 1")
        if k + 1.0 > green.s_max:
            raise ValueError(
                f"support needs Green range up to {k + 1.0!r} but the table "
                f"ends at {green.s_max!r}; rebuild with a larger r_max"
            )
        self.k = float(k)
        self.cutoff = cutoff
        self.green = green
        self.r_lo = green.inverse(self.k)
        self.r_hi = green.inverse(self.k + 1.0)

    def _fields(self, r: np.ndarray):
        """(u, Delta u, u'', sigma' u' / sigma, sigma) at r, from one lookup per row.

        Delta u is the collapsed form phi''(G - k) sigma^(2 - 2m); u'' and
        sigma' u' / sigma are the Hessian's radial and tangential
        eigenvalues, by the chain rule through G' = sigma^(1-m).  G, sigma
        and sigma' come from one lookup and one partition of the rows by
        kind (GreenFunction._value_sigma), and sigma comes back as the
        volume weight's base; sigma'' is never formed.  A 2-D r holds nodes
        in rows, each row increasing, such as an integrand's panels, and
        each row is looked up once; any other r is one node per row.

        Each row is then classed by s = G - k at every node.  A row wholly
        on the plateau [delta, 1 - delta] takes phi = s, phi' = 1, phi'' = 0
        without the cutoff (_plateau_fields); every other row takes
        CutoffFunction.eval_many (_ramp_fields), whose formulas give a
        plateau row the same bits.  A call mostly on the plateau gathers
        its other rows for _ramp_fields and writes their fields over those
        _plateau_fields gives the whole call; any other call runs
        _ramp_fields on every row.  A call of one class runs without a
        gather or a scatter.
        """
        r = np.asarray(r, dtype=float)
        x = r if r.ndim == 2 else np.ravel(r)
        s, sigma, dsigma = self.green._value_sigma(x)
        s -= self.k
        d = self.cutoff.delta
        # a row is on the plateau when every node is: both end nodes, and
        # then, unless the whole call lies there, each row's least and
        # greatest s, column against column (a reduction along rows of a
        # few nodes costs several times more)
        cols = (s if s.ndim == 2 else s[:, None]).T
        plateau = (cols[0] >= d) & (cols[-1] <= 1.0 - d)
        if plateau.any() and not (s.min() >= d and s.max() <= 1.0 - d):
            plateau &= functools.reduce(np.minimum, cols) >= d
            plateau &= functools.reduce(np.maximum, cols) <= 1.0 - d
        on = np.count_nonzero(plateau)
        if on == plateau.size:
            fields = self._plateau_fields(s, sigma, dsigma)
        elif 2 * on < plateau.size:
            # the cutoff's formulas give the plateau rows their bits too, and
            # cost less than a gather and scatter of the other rows
            fields = self._ramp_fields(s, sigma, dsigma)
        else:
            # the plateau's formulas on every row, then the other rows' own
            # from a gather of those rows; sigma needs no copy back
            ramp = np.flatnonzero(~plateau)
            part = self._ramp_fields(*(v.take(ramp, axis=0) for v in (s, sigma, dsigma)))
            fields = self._plateau_fields(s, sigma, dsigma)
            for out, v in zip(fields[:4], part):
                out[ramp] = v
        return tuple(v.reshape(r.shape) for v in fields)

    def _ramp_fields(self, s: np.ndarray, sigma: np.ndarray, dsigma: np.ndarray):
        """_fields from s = G - k, sigma and sigma' through the cutoff, on any rows."""
        phi, dphi, d2phi = self.cutoff.eval_many(s)
        m = self.green.profile.config.m
        gp = sigma ** (1 - m)
        du = dphi * gp
        d2u = d2phi * gp**2 + dphi * (1 - m) * sigma ** (-m) * dsigma
        return phi, d2phi * sigma ** (2 - 2 * m), d2u, dsigma * du / sigma, sigma

    def _plateau_fields(self, s: np.ndarray, sigma: np.ndarray, dsigma: np.ndarray):
        """_ramp_fields on rows with s in [delta, 1 - delta] at every node, with the same bits.

        There the cutoff gives phi = s * 1, phi' = 1 + s * 0 and
        phi'' = 2 * 0 + s * 0, that is s, 1 and +0 exactly, so Delta u is
        +0, u' is G' and u'' is +0 + (1 - m) sigma^(-m) sigma': adding +0
        turns a -0 (sigma' = 0) into +0, as the cutoff's formula does.
        """
        m = self.green.profile.config.m
        d2u = (1 - m) * sigma ** (-m) * dsigma
        d2u += 0.0
        return s, np.zeros_like(s), d2u, dsigma * sigma ** (1 - m) / sigma, sigma


def _validate_p(p: float) -> float:
    p = float(p)
    if not (1.0 < p < math.inf):
        raise ValueError(
            f"p = {p!r} outside (1, inf); the endpoint cases follow from "
            "classical theory and are not handled here"
        )
    return p


@dataclass(frozen=True)
class NormsReport:
    p: float
    k: float
    norm_u_p_pow: float
    norm_lap_p_pow: float
    norm_hess_p_pow: float
    err_u: float
    err_lap: float
    err_hess: float

    @property
    def quad_err(self) -> float:
        return max(self.err_u, self.err_lap, self.err_hess)


def norms_report(tf: TestFunction, ps: tuple, spec: QuadratureSpec) -> tuple[NormsReport, ...]:
    """The three norms of the inequality over [Ginv(k), Ginv(k+1)] for each p, in one pass.

    Each is gamma_m times the integral of |f|^p sigma^(m-1) dr.  The Hessian
    enters as its frame norm sqrt(u''^2 + (m-1) (sigma' u' / sigma)^2).  One
    field evaluation per node serves every p; reports match lone passes bit for bit.
    """
    ps = tuple(_validate_p(p) for p in ps)
    if not ps:
        raise ValueError("ps must hold at least one p")
    profile = tf.green.profile
    m = profile.config.m
    gamma = profile.config.gamma_m

    def integrand(r: np.ndarray) -> tuple[np.ndarray, ...]:
        u, lap, radial, tangential, sigma = tf._fields(r)
        fields = (np.abs(u), np.abs(lap), np.sqrt(radial**2 + (m - 1) * tangential**2))
        weight = sigma ** (m - 1)
        return tuple(f**p * weight for p in ps for f in fields)

    d = tf.cutoff.delta
    transitions = tf.green.inverse_many(tf.k + np.asarray([0.5 * d, d, 1.0 - d, 1.0 - 0.5 * d]))
    knots = profile.knots_in(tf.r_lo, tf.r_hi)
    columns = integrate(
        integrand,
        tf.r_lo,
        tf.r_hi,
        breakpoints=np.concatenate([transitions, knots]),
        spec=spec,
        slivers=profile.blend_spans_in(tf.r_lo, tf.r_hi),
    ).columns
    # fields in order: p, k, the u, Laplacian and Hessian masses, their errors
    return tuple(
        NormsReport(p, tf.k, *(gamma * v for v, _ in own), *(gamma * e for _, e in own))
        for p, own in zip(ps, (columns[i : i + 3] for i in range(0, len(columns), 3)))
    )


def _blend_power(a_l, a_r, x_m, lo, hi, scale: float, p: float, spec: QuadratureSpec):
    """J: the integral of |sigma'/scale|^p over [lo, hi] on a corner blend, in x = (t - t0)/W.

    The blend mixes lines of slopes a_l and a_r that meet at x_m, so
    sigma' = a_l + (a_r - a_l)(s(x) + s'(x)(x - x_m)) whatever W is.
    """

    def integrand(x: np.ndarray) -> np.ndarray:
        s, ds = _smoothstep(x, derivs=1)
        return np.abs((a_l + (a_r - a_l) * (s + ds * (x - x_m))) / scale) ** p

    return integrate(integrand, lo, hi, spec=spec)


def _slope_mass(profile, z0: float, z1: float, p: float, spec: QuadratureSpec):
    """(mass, err, scale): the integral of |sigma'/scale|^p dt over [z0, z1], from the rows.

    scale is the largest LINEAR |slope| there.  A LINEAR row of slope a adds
    its width inside [z0, z1] times |a/scale|^p; a BLEND row, between two
    LINEAR rows, its width W times its J (_blend_power) over its part
    [lo, hi] of [0, 1] inside [z0, z1], with x_m read off the neighbours'
    params: 1/2 up to their rounding, up to 0.4% of W off for m >= 3.  One J
    serves each distinct (a_l, a_r, x_m, lo, hi).  err adds, per blend, W
    times J's error plus x_m's error, at most 2^-51 (S / |(a_r - a_l) W| + 1)
    with S the sum of its three terms' magnitudes, times
    2 p |a_r - a_l| J^(1 - 1/p) / scale >= |dJ/dx_m| (s' <= 2, and Hoelder);
    then (p + 4) ulp(mass) for rounding the ratios, powers, products and sum.
    """
    t0, t1, (t_ref, y_ref, slope) = profile.piece_t0, profile.piece_t1, profile.piece_params.T
    i0, i1 = np.searchsorted(t1, z0, side="right"), np.searchsorted(t0, z1)
    linear = profile.piece_kinds[i0:i1] == LINEAR
    rows, b = np.flatnonzero(linear) + i0, np.flatnonzero(~linear) + i0
    scale = float(np.max(np.abs(slope[rows])))
    linear_terms = np.minimum(t1[rows], z1) - np.maximum(t0[rows], z0)
    linear_terms *= np.abs(slope[rows] / scale) ** p

    start, width, a_l, a_r = t0[b], t1[b] - t0[b], slope[b - 1], slope[b + 1]
    # the right line minus the left one at the blend's start, in three terms
    gap = (y_ref[b + 1] - y_ref[b - 1], a_r * (start - t_ref[b + 1]), a_l * (t_ref[b - 1] - start))
    da_w = (a_r - a_l) * width
    x_m = -(gap[0] + gap[1] + gap[2]) / da_w
    x_m_err = 2.0**-51 * ((abs(gap[0]) + abs(gap[1]) + abs(gap[2])) / abs(da_w) + 1.0)
    lo, hi = (np.maximum(start, z0) - start) / width, (np.minimum(t1[b], z1) - start) / width
    keys = (a_l, a_r, x_m, lo, hi)
    blend_mass, blend_err = np.empty(b.size), np.empty(b.size)
    free = np.ones(b.size, dtype=bool)
    while free.any():
        i = int(np.argmax(free))
        same = free.copy()
        for key in keys:
            same &= key == key[i]
        free &= ~same
        j, j_err = _blend_power(*(key[i] for key in keys), scale, p, spec)
        dj_dx = 2.0 * p * abs((a_r[i] - a_l[i]) / scale) * j ** (1.0 - 1.0 / p)
        blend_mass[same] = width[same] * j
        blend_err[same] = width[same] * (j_err + x_m_err[same] * dj_dx)
    mass = _fsum([linear_terms, blend_mass])
    return mass, float(np.sum(blend_err)) + (p + 4.0) * math.ulp(mass), scale


def audit_norm_chain(tf: TestFunction, p: float, spec: QuadratureSpec) -> BoundAudit:
    """k-explicit bound chain: u mass above, Laplacian mass above, tooth mass below.

    upper bounds, without gamma_m:
      I_u   <= 2 e^(2k+2) for m = 2, else 4 e^(2(k+1))
      I_lap <= sup|phi''|^p e^(-2(p-1)k)
    lower bound, per window inside the support, on the raw slope mass
    integral of |sigma'|^p dt over the footprint:
      m = 2   n (step - 2 w_s) (2n-1)^p
      m >= 3  (eta - 4 l w_s) (amplitude/step)^p

    The slope mass is closed form on the rows (_slope_mass): |a|^p times
    each LINEAR row's width, plus each corner BLEND's width times a J over
    its blend coordinate.  Mass, error and floor are in units of scale^p, so
    neither overflows while their ratio is representable; the entry is
    (floor - (mass - err)) / floor, and -inf if the floor underflows.

    I_u and I_lap are ||u||_p^p / gamma_m and ||Delta u||_p^p / gamma_m; in
    the Green coordinate they are the integrals over s in [0, 1] of
    |phi|^p sigma^(2(m-1)) and |phi''|^p sigma^((2-2p)(m-1)).  They are
    read from one norms_report(tf, (p,), spec): its u and Laplacian masses and
    their errors divided by gamma_m.  Each upper entry is the relative
    excess of mass plus error over its bound.  The Laplacian's is formed in
    logarithms, because sup|phi''|^p overflows a float above p = 81, and
    reads -1 for a zero mass.
    """
    (report,) = norms_report(tf, (p,), spec)
    p = report.p
    k = tf.k
    profile = tf.green.profile
    m, gamma = profile.config.m, profile.config.gamma_m
    audit = BoundAudit()
    iu, iu_err = report.norm_u_p_pow / gamma, report.err_u / gamma
    il, il_err = report.norm_lap_p_pow / gamma, report.err_lap / gamma
    bound_u = 2.0 * math.exp(2.0 * k + 2.0) if m == 2 else 4.0 * math.exp(2.0 * (k + 1.0))
    audit.add("u_mass_upper", (iu + iu_err - bound_u) / bound_u, k, 0.0)

    excess = -1.0
    if il + il_err > 0.0:
        log_bound = p * math.log(tf.cutoff.sup_d2) - 2.0 * (p - 1.0) * k
        excess = math.expm1(math.log(il + il_err) - log_bound)
    audit.add("laplacian_mass_upper", excess, k, 0.0)

    for window in profile.windows:
        z0, z1 = window.z, window.z + window.width
        if not (tf.r_lo <= z0 and z1 <= tf.r_hi):
            continue
        mass, mass_err, scale = _slope_mass(profile, z0, z1, p, spec)
        n, ws = window.n_teeth, window.smooth_halfwidth
        if m == 2:
            floor = n * (window.step - 2.0 * ws) * ((2.0 * n - 1.0) / scale) ** p
        else:
            floor = (window.width - 4.0 * n * ws) * (window.amplitude / window.step / scale) ** p
        low = mass - mass_err
        # as IEEE division by a floor just above the underflow would say
        excess = (floor - low) / floor if floor else (-math.inf if low > 0.0 else math.inf)
        audit.add(f"tooth_mass_lower[z={window.z!r}]", excess, window.z, 0.0)
    return audit
