"""Cutoff, test function, norm integrals, bound-chain audits."""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

import czwarp.norms as norms_module
from czwarp.experiment import ExperimentConfig, build_construction
from czwarp.green import DELTA_UNIVERSAL, GreenFunction, find_h
from czwarp.norms import (
    CutoffFunction,
    TestFunction,
    audit_norm_chain,
    norms_report,
    s_integrals,
    volume_integral,
)
from czwarp.quadrature import QuadratureSpec, integrate
from czwarp.warping import (
    LINEAR,
    POWER,
    ManifoldConfig,
    WarpingProfile,
    build_base_profile,
    insert_sawtooth,
    plan_window,
)
from laplacian_routes import worst_route_discrepancy

SPEC = QuadratureSpec(base_order=8, rel_tol=1e-8)


@functools.lru_cache(maxsize=None)
def sawtooth_tf(m: int, k: float, n: int) -> TestFunction:
    cfg = ManifoldConfig.from_dimension(m)
    base = build_base_profile(cfg)
    r_max = 2.2 * math.e ** (k + 1.05)
    h = find_h(GreenFunction(base, r_max=r_max), k)
    prof = insert_sawtooth(base, plan_window(cfg, h, n))
    return TestFunction(k, CutoffFunction(), GreenFunction(prof, r_max=r_max))


@functools.lru_cache(maxsize=None)
def pure_power_tf(k: float = 1.0) -> TestFunction:
    cfg = ManifoldConfig.from_dimension(2)
    prof = WarpingProfile(cfg, [POWER], [0.0], [(0.0, 0.0, 0.0)])
    return TestFunction(k, CutoffFunction(), GreenFunction(prof, r_max=12.0))


def test_cutoff_plateau_is_identity():
    cut = CutoffFunction()
    d = cut.delta
    s = np.linspace(d, 1.0 - d, 101)
    phi, dphi, d2phi = cut.eval_many(s)
    assert np.array_equal(phi, s)
    assert np.all(dphi == 1.0)
    assert np.all(d2phi == 0.0)
    assert cut.eval_many(np.asarray([0.5]))[0][0] == 0.5


def test_cutoff_vanishes_outside_support():
    cut = CutoffFunction()
    d = cut.delta
    s = np.asarray([-1.0, 0.0, 0.25 * d, 0.5 * d, 1.0 - 0.5 * d, 1.0, 2.0])
    for arr in cut.eval_many(s):
        assert np.all(arr == 0.0)


def test_cutoff_stays_between_zero_and_identity():
    cut = CutoffFunction()
    s = np.linspace(0.0, 1.0, 40001)
    phi = cut.eval_many(s)[0]
    assert np.all(phi >= 0.0)
    assert np.all(phi <= s + 1e-15)


def test_sup_d2_above_ramp_lower_bound():
    # any C^1 ramp climbing 0 -> 1 over width delta/2 has sup|w''| >= 4/(delta/2)^2,
    # so the scanned sup must clear it; finiteness guards the scan itself
    cut = CutoffFunction()
    half = 0.5 * cut.delta
    assert math.isfinite(cut.sup_d2)
    assert cut.sup_d2 >= 4.0 / half**2


def test_sup_d2_scanned_on_first_use(monkeypatch):
    calls = []
    eval_many = CutoffFunction.eval_many

    def counting(self, s):
        calls.append(np.size(s))
        return eval_many(self, s)

    monkeypatch.setattr(CutoffFunction, "eval_many", counting)
    cut = CutoffFunction()
    assert calls == []
    sup = cut.sup_d2
    assert calls == [40002]
    assert cut.sup_d2 is sup
    assert calls == [40002]
    # the scan the constructor used to run eagerly, bit for bit
    grid = np.concatenate(
        [
            np.linspace(0.5 * DELTA_UNIVERSAL, DELTA_UNIVERSAL, 20001),
            np.linspace(1.0 - DELTA_UNIVERSAL, 1.0 - 0.5 * DELTA_UNIVERSAL, 20001),
        ]
    )
    assert sup == float(np.max(np.abs(eval_many(cut, grid)[2])))


def test_u_derivative_fixture_pure_power():
    # sigma = t, m = 2, k = 1: on the plateau u = log r - 1, so at r = e^1.5
    # u = 1/2, the radial eigenvalue u'' = -1/r^2 = -e^-3, the tangential
    # one sigma' u' / sigma = 1/r^2 = e^-3, and phi'' = 0 there
    tf = pure_power_tf()
    r = np.asarray([math.e**1.5])
    u, lap, radial, tangential, sigma = tf._fields(r)
    assert abs(u[0] - 0.5) <= 1e-14
    assert abs(radial[0] + math.e**-3) <= 1e-14
    assert abs(tangential[0] - math.e**-3) <= 1e-14
    assert lap[0] == 0.0
    assert abs(sigma[0] - r[0]) <= 1e-14 * r[0]


def test_u_vanishes_outside_support():
    tf = sawtooth_tf(2, 2.0, 4)
    lo, hi = tf.support_r
    rs = np.asarray([tf.r_lo * 1.0001, lo * 0.9999, hi * 1.0001, tf.r_hi * 0.9999])
    u, lap, radial, tangential, _ = tf._fields(rs)
    for values in (u, lap, radial, tangential):
        assert np.all(values == 0.0)


def test_testfunction_validation():
    tf = pure_power_tf()
    assert tf.r_lo < tf.support_r[0] < tf.support_r[1] < tf.r_hi
    with pytest.raises(ValueError):
        TestFunction(0.5, tf.cutoff, tf.green)
    # s_max = log 12 < 3, so k = 2 does not fit
    with pytest.raises(ValueError):
        TestFunction(2.0, tf.cutoff, tf.green)


def test_volume_integral_closed_forms():
    # 2*pi * int_1^2 t dt = 3*pi for the flat profile
    cfg = ManifoldConfig.from_dimension(2)
    flat = WarpingProfile(cfg, [POWER], [0.0], [(0.0, 0.0, 0.0)])
    val, err = volume_integral(flat, lambda r: np.ones_like(r), 1.0, 2.0, SPEC)
    assert abs(val - 3.0 * math.pi) <= 1e-12 * 3.0 * math.pi
    assert err <= 1e-10
    # 4*pi * int_1^3 (t + 1/2) dt = 20*pi for the m = 3 base profile
    base3 = build_base_profile(ManifoldConfig.from_dimension(3))
    val, err = volume_integral(base3, lambda r: np.ones_like(r), 1.0, 3.0, SPEC)
    assert abs(val - 20.0 * math.pi) <= 1e-12 * 20.0 * math.pi


@pytest.mark.parametrize("m,k,n", [(2, 2.0, 8), (3, 2.0, 8)])
def test_two_route_laplacian_agreement(m: int, k: float, n: int):
    tf = sawtooth_tf(m, k, n)
    rng = np.random.default_rng(3)
    rs = rng.uniform(tf.r_lo, tf.r_hi, 1000)
    assert worst_route_discrepancy(tf, rs) <= 1e-12


@pytest.mark.parametrize("m,p", [(2, 2.5), (3, 1.5)])
def test_s_route_matches_r_route(m: int, p: float):
    tf = sawtooth_tf(m, 2.0, 8)
    gamma = tf.green.profile.config.gamma_m
    rep = norms_report(tf, p, SPEC)
    (iu, _), (il, _) = s_integrals(tf, p, SPEC)
    for r_val, s_val in ((rep.norm_u_p_pow, iu), (rep.norm_lap_p_pow, il)):
        assert abs(gamma * s_val - r_val) <= 1e-8 * r_val


def test_i_u_sandwich_closed_form():
    # sigma = t: sigma(Ginv(k+s)) = e^(k+s) exactly, and phi = s on the
    # plateau, phi <= s on the ramps, so with F(s) = e^(2s)(2s^2-2s+1)/4:
    # e^2 (F(1-d) - F(d)) <= I_u <= e^2 (F(1) - F(0)) at k = 1, p = 2
    tf = pure_power_tf()
    d = tf.cutoff.delta
    F = lambda s: math.exp(2.0 * s) * (2.0 * s * s - 2.0 * s + 1.0) / 4.0
    lower = math.e**2 * (F(1.0 - d) - F(d))
    upper = math.e**2 * (F(1.0) - F(0.0))
    iu, err = s_integrals(tf, 2.0, SPEC)[0]
    assert lower - err <= iu <= upper + err


@pytest.mark.parametrize("route", ["norms_report", "s_integrals"])
def test_sigma_evaluated_once_per_node(monkeypatch, route: str):
    # each route's kernel evaluates sigma once per quadrature node and forms
    # every column from it: norms_report hands it to the volume weight of
    # all three norms, s_integrals raises it to the exponents of I_u and
    # I_lap.  sigma is counted at _eval_rows, the entry every sigma
    # evaluation goes through: both integrands take their rows from the
    # Green table's lookup and never call eval_many
    tf = sawtooth_tf(2, 2.0, 8)
    counts = {"sigma": 0, "integrand": 0}
    eval_rows = WarpingProfile._eval_rows
    integrate = norms_module.integrate

    def counting_eval_rows(self, rows, t):
        counts["sigma"] += np.size(t)
        return eval_rows(self, rows, t)

    def counting_integrate(f, *args, **kwargs):
        def counted(x):
            counts["integrand"] += np.size(x)
            return f(x)

        return integrate(counted, *args, **kwargs)

    monkeypatch.setattr(WarpingProfile, "_eval_rows", counting_eval_rows)
    monkeypatch.setattr(norms_module, "integrate", counting_integrate)
    getattr(norms_module, route)(tf, 2.0, SPEC)
    assert counts["integrand"] > 0
    assert counts["sigma"] == counts["integrand"]


@pytest.mark.parametrize("m,p", [(2, 2.5), (3, 1.5)])
def test_trace_inequality(m: int, p: float):
    # |Delta u| <= sqrt(m) * frame norm pointwise, so the norms inherit it
    tf = sawtooth_tf(m, 2.0, 8)
    rep = norms_report(tf, p, SPEC)
    lap, hess = rep.norm_lap_p_pow, rep.norm_hess_p_pow
    assert lap <= m ** (p / 2.0) * hess * (1.0 + 1e-9)


def test_hessian_doubling_law():
    # in the tooth-dominated regime the Hessian mass scales like n^p while
    # u and Laplacian masses stay put
    p = 2.0
    r1 = norms_report(sawtooth_tf(2, 2.0, 2048), p, SPEC)
    r2 = norms_report(sawtooth_tf(2, 2.0, 4096), p, SPEC)
    ratio = r2.norm_hess_p_pow / r1.norm_hess_p_pow
    assert 0.8 * 2.0**p <= ratio <= 1.2 * 2.0**p
    assert abs(r2.norm_u_p_pow / r1.norm_u_p_pow - 1.0) <= 1e-3
    assert abs(r2.norm_lap_p_pow / r1.norm_lap_p_pow - 1.0) <= 1e-3


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_plateau_hessian_mass_matches_high_precision_reference(m: int, n: int):
    # on the plateau phi = s, so |Hess u| = sqrt(m(m-1)) |sigma'| sigma^-m,
    # and on a LINEAR piece sigma = l0 + a (t - t0) the gamma-free mass of
    # |Hess u|^p sigma^(m-1) is (m(m-1))^(p/2) |a|^p (l1^(q+1) - l0^(q+1)) /
    # ((q+1) a) with q = m - 1 - mp; evaluated at 50 digits, it must lie
    # within the quadrature's own error of the real integrand's integral
    mpmath = pytest.importorskip("mpmath")
    tf = sawtooth_tf(m, 3.0, n)
    prof = tf.green.profile
    d = tf.cutoff.delta
    linear = np.flatnonzero(prof.piece_kinds == LINEAR)
    ends = np.stack([prof.piece_t0[linear], prof.piece_t1[linear]])
    s0, s1 = tf.green.value_many(ends) - tf.k
    plateau = linear[(s0 >= d) & (s1 <= 1.0 - d)]
    assert plateau.size >= 2 * n
    spec = QuadratureSpec(rel_tol=1e-12)
    for p in (1.5, 2.0, 4.0):

        def mass(r: np.ndarray) -> np.ndarray:
            _, _, radial, tangential, sigma = tf._fields(r)
            hess = np.sqrt(radial**2 + (m - 1) * tangential**2)
            return np.abs(hess) ** p * sigma ** (m - 1)

        for i in plateau:
            t0, t1 = float(prof.piece_t0[i]), float(prof.piece_t1[i])
            value, err = integrate(mass, t0, t1, spec=spec)
            with mpmath.workdps(50):
                t_ref, y_ref, a = (mpmath.mpf(float(x)) for x in prof.piece_params[i])
                l0, l1 = (y_ref + a * (mpmath.mpf(t) - t_ref) for t in (t0, t1))
                q1 = m - m * mpmath.mpf(p)
                ref = (m * (m - 1)) ** (mpmath.mpf(p) / 2) * abs(a) ** p
                ref *= (l1**q1 - l0**q1) / (q1 * a)
                assert abs(value - ref) <= err, (p, i)


@pytest.mark.parametrize("m,p", [(2, 2.5), (3, 1.5)])
def test_audit_norm_chain_passes(m: int, p: float):
    tf = sawtooth_tf(m, 2.0, 8)
    audit = audit_norm_chain(tf, p, SPEC)
    assert audit.overall_pass, audit.failures()
    names = [e.name for e in audit.entries]
    assert "u_mass_upper" in names and "laplacian_mass_upper" in names
    assert any(name.startswith("tooth_mass_lower") for name in names)


def test_lp_norm_validation():
    tf = pure_power_tf()
    for route in (norms_report, s_integrals, audit_norm_chain):
        for p in (1.0, math.inf):
            with pytest.raises(ValueError):
                route(tf, p, SPEC)


def test_norms_report_fields():
    tf = sawtooth_tf(2, 2.0, 4)
    rep = norms_report(tf, 2.0, SPEC)
    # the u column against the plain knot-aware volume integral of u^2
    u, ue = volume_integral(
        tf.green.profile, lambda r: tf._fields(r)[0] ** 2, tf.r_lo, tf.r_hi, SPEC
    )
    assert abs(rep.norm_u_p_pow - u) <= rep.err_u + ue + 1e-12 * u
    assert rep.quad_err == max(rep.err_u, rep.err_lap, rep.err_hess)
    assert rep.p == 2.0 and rep.k == 2.0


# repr of every number below, recorded before the three norms and the two
# s-integrals shared one quadrature pass; a change that moves any bit fails
# here, and an intended numeric change must update these openly
GOLDEN = {
    (2, 2.0, 64): (
        (6827.666815287771, 480.17818224399116, 485.94241846001603),
        (2.9879456817497603e-07, 5.324113175477281e-07, 5.319903744694232e-07),
        (1086.6569234375522, 4.988981738100227e-08),
        (76.42273126901247, 8.729442448567447e-08),
        (-0.8177336064092219, -0.9992320926200681),
    ),
    (3, 1.5, 257): (
        (16110.591013124827, 1092.0377080638327, 1156.979763624409),
        (1.840670702727545e-05, 5.13049235072768e-08, 1.2536240717468416e-07),
        (1282.0400979090214, 4.227144017878836e-06),
        (86.90159964055162, 4.8681849367284375e-09),
        (-0.8924808645652493, -0.9965394051074663),
    ),
    (4, 4.0, 130): (
        (12638.798589239615, 1166.8933808764414, 14010.295953410203),
        (3.9207248869066544e-07, 1.5930718601144198e-06, 3.8655999976256464e-05),
        (640.2890164366191, 8.713800921439994e-08),
        (59.11550926741432, 1.6990706644860332e-09),
        (-0.9463017409749565, -0.999997592086405),
    ),
}


@pytest.mark.parametrize("m,p,n", list(GOLDEN), ids=[f"m{m}-p{p}-n{n}" for m, p, n in GOLDEN])
def test_golden_numbers(m: int, p: float, n: int):
    cfg = ExperimentConfig(m=m, p=p, k=3.0, n_teeth=n)
    _, _, green, _ = build_construction(cfg)
    tf = TestFunction(cfg.k, CutoffFunction(), green)
    norms, errs, i_u, i_lap, chain = GOLDEN[(m, p, n)]
    rep = norms_report(tf, p, cfg.quad)
    got = (rep.norm_u_p_pow, rep.norm_lap_p_pow, rep.norm_hess_p_pow)
    assert [repr(x) for x in got] == [repr(x) for x in norms]
    got = (rep.err_u, rep.err_lap, rep.err_hess)
    assert [repr(x) for x in got] == [repr(x) for x in errs]
    got_u, got_lap = s_integrals(tf, p, cfg.quad)
    assert repr(tuple(got_u)) == repr(i_u)
    assert repr(tuple(got_lap)) == repr(i_lap)
    entries = {e.name: e.worst_violation for e in audit_norm_chain(tf, p, cfg.quad).entries}
    got = (entries["u_mass_upper"], entries["laplacian_mass_upper"])
    assert [repr(x) for x in got] == [repr(x) for x in chain]
