"""I_u and I_lap in the Green coordinate s: a second route to the chain's masses.

audit_norm_chain reads I_u = ||u||_p^p / gamma_m and I_lap = ||Delta u||_p^p /
gamma_m from the r-route kernel TestFunction._fields.  Substituting
r = Ginv(k + s) turns both into integrals over s in [0, 1] whose only profile
quantity is sigma(Ginv(k + s)), so this route needs none of that kernel's
chain rule, volume weight or Green lookup in r: it evaluates G^-1, sigma and
phi through their public evaluators, on the r route's breakpoints and blend
slivers mapped into s.
"""

from __future__ import annotations

import numpy as np

from czwarp.norms import TestFunction
from czwarp.quadrature import QuadratureSpec, integrate


def s_panels(tf: TestFunction) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints and (k, 2) blend slivers of the r route, mapped into s."""
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
    of |phi''|^p sigma(Ginv(k+s))^((2-2p)(m-1)).
    """
    p = float(p)
    m = tf.green.profile.config.m
    e_u = 2 * (m - 1)
    e_lap = (2.0 - 2.0 * p) * (m - 1)

    def integrand(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sigma = tf.green.profile.eval_many(tf.green.inverse_many(tf.k + s))[0]
        phi, _, d2phi = tf.cutoff.eval_many(s)
        return np.abs(phi) ** p * sigma**e_u, np.abs(d2phi) ** p * sigma**e_lap

    brk, slivers = s_panels(tf)
    result = integrate(integrand, 0.0, 1.0, breakpoints=brk, spec=spec, slivers=slivers)
    return list(result.columns)
