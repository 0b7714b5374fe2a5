"""Radial test functions u(r) = phi(G(r) - k) and their L^p norm accounting.

phi(s) = s * w(s) with a smooth cutoff w that is 1 on [delta, 1 - delta] and
0 outside (delta/2, 1 - delta/2).  On the plateau u equals G - k, where the
radial Laplacian collapses to phi'' * sigma^(2 - 2m) exactly, so u is
harmonic there while the sawtooth drives the Hessian through the tangential
component sigma' u' / sigma.

Norms use the rotationally invariant weight: ||f||_p^p is gamma_m times the
integral of |f|^p sigma^(m-1) dr over the support bracket.  Each route has
one fixed kernel that computes everything it needs per node in one
evaluation.  In r, TestFunction._fields gives u, the collapsed Laplacian,
both Hessian eigenvalues and sigma, and norms_report integrates the three
norms as three columns of one quadrature pass.  In the Green coordinate s,
s_integrals gives I_u and I_lap together; they admit the k-explicit bounds
that audit_norm_chain verifies, and they check the r route independently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .green import DELTA_UNIVERSAL, GreenFunction
from .quadrature import BoundAudit, QuadratureSpec, integrate
from .warping import _smoothstep

__all__ = [
    "CutoffFunction",
    "TestFunction",
    "volume_integral",
    "NormsReport",
    "norms_report",
    "s_integrals",
    "audit_norm_chain",
]


class CutoffFunction:
    """phi(s) = s * w(s); w rises on (delta/2, delta), falls on (1-delta, 1-delta/2).

    delta is DELTA_UNIVERSAL, the one margin the construction uses: find_h
    and the bracket check place the window inside [k + delta, k + 1 - delta]
    for that delta alone.
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
        d = cutoff.delta
        self.support_r = (
            green.inverse(self.k + 0.5 * d),
            green.inverse(self.k + 1.0 - 0.5 * d),
        )

    def _fields(self, r: np.ndarray):
        """(u, Delta u, u'', sigma' u' / sigma, sigma) at r, from one lookup per node.

        Delta u is the collapsed form phi''(G - k) sigma^(2 - 2m); u'' and
        sigma' u' / sigma are the Hessian's radial and tangential
        eigenvalues, by the chain rule through G' = sigma^(1-m).  sigma is
        evaluated on the profile rows of the Green table's lookup and comes
        back as the volume weight's base.
        """
        r = np.asarray(r, dtype=float)
        flat = np.ravel(r)
        g, rows = self.green._value_rows(flat)
        sigma, dsigma, _ = self.green.profile._eval_rows(rows, flat)
        sigma, dsigma = sigma.reshape(r.shape), dsigma.reshape(r.shape)
        phi, dphi, d2phi = self.cutoff.eval_many((g - self.k).reshape(r.shape))
        m = self.green.profile.config.m
        gp = sigma ** (1 - m)
        du = dphi * gp
        d2u = d2phi * gp**2 + dphi * (1 - m) * sigma ** (-m) * dsigma
        return phi, d2phi * sigma ** (2 - 2 * m), d2u, dsigma * du / sigma, sigma


def _weighted_integrals(
    profile, fields_sigma, a: float, b: float, breakpoints, spec: QuadratureSpec
) -> list[tuple[float, float]]:
    """gamma_m * integral of f(r) sigma^(m-1) dr for each f, in one pass.

    fields_sigma(r) returns (tuple of f values, sigma).
    """
    m = profile.config.m
    gamma = profile.config.gamma_m

    def integrand(r: np.ndarray) -> tuple[np.ndarray, ...]:
        fields, sigma = fields_sigma(r)
        weight = sigma ** (m - 1)
        return tuple(f * weight for f in fields)

    result = integrate(
        integrand,
        a,
        b,
        breakpoints=breakpoints,
        spec=spec,
        slivers=profile.blend_spans_in(a, b),
    )
    return [(gamma * value, gamma * err) for value, err in result.columns]


def volume_integral(
    profile,
    f_many,
    a: float,
    b: float,
    spec: QuadratureSpec,
) -> tuple[float, float]:
    """gamma_m * integral of f(r) sigma^(m-1) dr with knot-aware panels."""
    return _weighted_integrals(
        profile,
        lambda r: ((f_many(r),), profile.eval_many(r)[0]),
        a,
        b,
        profile.knots_in(a, b),
        spec,
    )[0]


def _validate_p(p: float) -> float:
    p = float(p)
    if not (1.0 < p < math.inf):
        raise ValueError(
            f"p = {p!r} outside (1, inf); the endpoint cases follow from "
            "classical theory and are not handled here"
        )
    return p


def _norm_breakpoints(tf: TestFunction) -> np.ndarray:
    d = tf.cutoff.delta
    transitions = tf.green.inverse_many(
        tf.k + np.asarray([0.5 * d, d, 1.0 - d, 1.0 - 0.5 * d])
    )
    knots = tf.green.profile.knots_in(tf.r_lo, tf.r_hi)
    return np.concatenate([transitions, knots])


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


def norms_report(tf: TestFunction, p: float, spec: QuadratureSpec) -> NormsReport:
    """The three norms of the inequality over [Ginv(k), Ginv(k+1)], in one pass.

    The Hessian enters as its frame norm sqrt(u''^2 + (m-1) (sigma' u' / sigma)^2).
    """
    p = _validate_p(p)
    m = tf.green.profile.config.m

    def powers_sigma(r: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        u, lap, radial, tangential, sigma = tf._fields(r)
        hess = np.sqrt(radial**2 + (m - 1) * tangential**2)
        return (np.abs(u) ** p, np.abs(lap) ** p, np.abs(hess) ** p), sigma

    (u_pow, u_err), (lap_pow, lap_err), (hess_pow, hess_err) = _weighted_integrals(
        tf.green.profile, powers_sigma, tf.r_lo, tf.r_hi, _norm_breakpoints(tf), spec
    )
    return NormsReport(
        p=p,
        k=tf.k,
        norm_u_p_pow=u_pow,
        norm_lap_p_pow=lap_pow,
        norm_hess_p_pow=hess_pow,
        err_u=u_err,
        err_lap=lap_err,
        err_hess=hess_err,
    )


def _s_panels(tf: TestFunction) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints and (k, 2) blend slivers mapped into the Green coordinate."""
    d = tf.cutoff.delta
    knots = tf.green.profile.knots_in(tf.r_lo, tf.r_hi)
    pts = [np.asarray([0.5 * d, d, 1.0 - d, 1.0 - 0.5 * d])]
    if knots.size:
        pts.append(tf.green.value_many(knots) - tf.k)
    spans = tf.green.profile.blend_spans_in(tf.r_lo, tf.r_hi)
    slivers = tf.green.value_many(spans) - tf.k
    return np.concatenate(pts), slivers[slivers[:, 0] < slivers[:, 1]]


def s_integrals(
    tf: TestFunction, p: float, spec: QuadratureSpec
) -> list[tuple[float, float]]:
    """[(I_u, error), (I_lap, error)] in one pass over s in [0, 1].

    I_u is the integral of |phi|^p sigma(Ginv(k+s))^(2(m-1)) and I_lap that
    of |phi''|^p sigma(Ginv(k+s))^((2-2p)(m-1)): the u and Laplacian masses
    in the Green coordinate, without gamma_m.
    """
    p = _validate_p(p)
    m = tf.green.profile.config.m
    e_u = 2 * (m - 1)
    e_lap = (2.0 - 2.0 * p) * (m - 1)

    def integrand(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r, rows = tf.green._inverse_rows(tf.k + s)
        sigma = tf.green.profile._eval_rows(rows, r)[0]
        phi, _, d2phi = tf.cutoff.eval_many(s)
        return np.abs(phi) ** p * sigma**e_u, np.abs(d2phi) ** p * sigma**e_lap

    brk, slivers = _s_panels(tf)
    result = integrate(
        integrand, 0.0, 1.0, breakpoints=brk, spec=spec, slivers=slivers
    )
    return list(result.columns)


def audit_norm_chain(tf: TestFunction, p: float, spec: QuadratureSpec) -> BoundAudit:
    """k-explicit bound chain: u mass above, Laplacian mass above, tooth mass below.

    upper bounds (in the Green coordinate, without gamma_m):
      I_u   <= 2 e^(2k+2) for m = 2, else 4 e^(2(k+1))
      I_lap <= sup|phi''|^p e^(-2(p-1)k)
    lower bound, per window inside the support, on the raw slope mass
    integral of |sigma'|^p dt over the footprint:
      m = 2   n (step - 2 w_s) (2n-1)^p
      m >= 3  (eta - 4 l w_s) (amplitude/step)^p
    """
    p = _validate_p(p)
    k = tf.k
    m = tf.green.profile.config.m
    audit = BoundAudit()

    (iu, iu_err), (il, il_err) = s_integrals(tf, p, spec)
    bound_u = 2.0 * math.exp(2.0 * k + 2.0) if m == 2 else 4.0 * math.exp(2.0 * (k + 1.0))
    audit.add("u_mass_upper", (iu + iu_err - bound_u) / bound_u, k, 0.0)

    bound_l = tf.cutoff.sup_d2**p * math.exp(-2.0 * (p - 1.0) * k)
    audit.add("laplacian_mass_upper", (il + il_err - bound_l) / bound_l, k, 0.0)

    profile = tf.green.profile
    for window in profile.windows:
        z0, z1 = window.z, window.z + window.width
        if not (tf.r_lo <= z0 and z1 <= tf.r_hi):
            continue

        def slope_mass(t: np.ndarray) -> np.ndarray:
            return np.abs(profile.eval_many(t)[1]) ** p

        mass, mass_err = integrate(
            slope_mass,
            z0,
            z1,
            breakpoints=profile.knots_in(z0, z1),
            spec=spec,
            slivers=profile.blend_spans_in(z0, z1),
        )
        n = window.n_teeth
        ws = window.smooth_halfwidth
        if m == 2:
            floor = n * (window.step - 2.0 * ws) * (2.0 * n - 1.0) ** p
        else:
            slope = window.amplitude / window.step
            floor = (window.width - 4.0 * n * ws) * slope**p
        audit.add(
            f"tooth_mass_lower[z={window.z!r}]",
            (floor - (mass - mass_err)) / floor,
            window.z,
            0.0,
        )
    return audit
