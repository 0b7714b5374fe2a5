"""Cutoff, test function, norm integrals, bound-chain audits."""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

import czwarp.norms as norms_module
import czwarp.quadrature as quadrature
from czwarp.experiment import ExperimentConfig, build_construction
from czwarp.green import DELTA_UNIVERSAL, GreenFunction, find_h
from czwarp.norms import (
    CutoffFunction,
    NormsReport,
    TestFunction,
    _blend_power,
    _slope_mass,
    audit_norm_chain,
    norms_report,
)
from czwarp.quadrature import QuadratureSpec, _batches, integrate
from czwarp.warping import (
    BLEND,
    LINEAR,
    POWER,
    ManifoldConfig,
    WarpingProfile,
    build_base_profile,
    insert_sawtooth,
    plan_window,
)
from laplacian_routes import worst_route_discrepancy
from s_route import s_integrals

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
    half = 0.5 * tf.cutoff.delta
    lo, hi = tf.green.inverse(tf.k + half), tf.green.inverse(tf.k + 1.0 - half)
    rs = np.asarray([tf.r_lo * 1.0001, lo * 0.9999, hi * 1.0001, tf.r_hi * 0.9999])
    u, lap, radial, tangential, _ = tf._fields(rs)
    for values in (u, lap, radial, tangential):
        assert np.all(values == 0.0)


def test_testfunction_validation():
    tf = pure_power_tf()
    half = 0.5 * tf.cutoff.delta
    lo, hi = tf.green.inverse(tf.k + half), tf.green.inverse(tf.k + 1.0 - half)
    assert tf.r_lo < lo < hi < tf.r_hi
    with pytest.raises(ValueError):
        TestFunction(0.5, tf.cutoff, tf.green)
    # s_max = log 12 < 3, so k = 2 does not fit
    with pytest.raises(ValueError):
        TestFunction(2.0, tf.cutoff, tf.green)


def test_volume_integral_closed_forms():
    # gamma_m times the integral of sigma^(m-1): 2*pi * int_1^2 t dt = 3*pi
    # for the flat profile
    cfg = ManifoldConfig.from_dimension(2)
    flat = WarpingProfile(cfg, [POWER], [0.0], [(0.0, 0.0, 0.0)])
    val, err = integrate(lambda r: flat.eval_many(r)[0], 1.0, 2.0, spec=SPEC)
    val, err = cfg.gamma_m * val, cfg.gamma_m * err
    assert abs(val - 3.0 * math.pi) <= 1e-12 * 3.0 * math.pi
    assert err <= 1e-10
    # 4*pi * int_1^3 (t + 1/2) dt = 20*pi for the m = 3 base profile
    base3 = build_base_profile(ManifoldConfig.from_dimension(3))
    val, _ = integrate(
        lambda r: base3.eval_many(r)[0] ** 2, 1.0, 3.0, base3.knots_in(1.0, 3.0), SPEC
    )
    val *= base3.config.gamma_m
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
    (rep,) = norms_report(tf, (p,), SPEC)
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


@pytest.mark.parametrize("route", ["norms_report", "audit_norm_chain"])
def test_sigma_evaluated_once_per_node(monkeypatch, route: str):
    # the norms pass evaluates sigma once per quadrature node and forms every
    # column from it, handing it to the volume weight.  sigma is counted at
    # _eval_rows, the entry every sigma evaluation goes through, by the nodes
    # of its t, flat or one panel per row; the norms integrand takes its rows
    # from the Green table's lookup and never calls eval_many.  The chain
    # reads its masses from that pass, and its tooth-mass floor reads slopes
    # off the row table: its blend integrands evaluate no sigma, so nodes and
    # sigma are counted inside norms_report only, and nothing outside it may
    # evaluate sigma at all
    tf = sawtooth_tf(2, 2.0, 8)
    counts = {"sigma": 0, "integrand": 0, "sigma_outside": 0, "eval_many_outside": 0}
    inside = []  # non-empty while norms_report runs
    eval_rows = WarpingProfile._eval_rows
    eval_many = WarpingProfile.eval_many
    integrate = norms_module.integrate
    report = norms_module.norms_report

    def counting_eval_rows(self, rows, t, **kwargs):
        counts["sigma" if inside else "sigma_outside"] += np.size(t)
        return eval_rows(self, rows, t, **kwargs)

    def counting_eval_many(self, t):
        if not inside:
            counts["eval_many_outside"] += 1
        return eval_many(self, t)

    def counting_integrate(f, *args, **kwargs):
        def counted(x):
            if inside:
                counts["integrand"] += np.size(x)
            return f(x)

        return integrate(counted, *args, **kwargs)

    def tracked_report(*args):
        inside.append(True)
        try:
            return report(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(WarpingProfile, "_eval_rows", counting_eval_rows)
    monkeypatch.setattr(WarpingProfile, "eval_many", counting_eval_many)
    monkeypatch.setattr(norms_module, "integrate", counting_integrate)
    monkeypatch.setattr(norms_module, "norms_report", tracked_report)
    getattr(norms_module, route)(tf, (2.0,) if route == "norms_report" else 2.0, SPEC)
    assert counts["integrand"] > 0
    assert counts["sigma"] == counts["integrand"]
    assert counts["sigma_outside"] == counts["eval_many_outside"] == 0


@pytest.mark.parametrize("m,p", [(2, 2.5), (3, 1.5)])
def test_trace_inequality(m: int, p: float):
    # |Delta u| <= sqrt(m) * frame norm pointwise, so the norms inherit it
    tf = sawtooth_tf(m, 2.0, 8)
    (rep,) = norms_report(tf, (p,), SPEC)
    lap, hess = rep.norm_lap_p_pow, rep.norm_hess_p_pow
    assert lap <= m ** (p / 2.0) * hess * (1.0 + 1e-9)


# (m, n), with m = 2, n = 2^15 last: the tightest cell of the sweep grid,
# where the Hessian's slack is 0.0027
LOG_CONVEX_CELLS = [(m, n) for n in (4, 64, 256) for m in (2, 3, 4)] + [(2, 2**15)]


@pytest.mark.parametrize("m,n", LOG_CONVEX_CELLS, ids=[f"{n}-{m}" for m, n in LOG_CONVEX_CELLS])
def test_norms_are_log_convex_in_p(m: int, n: int):
    # Lyapunov's inequality: p -> log ||f||_p^p is convex for one f and one
    # measure, and 2 = 0.8 * 1.5 + 0.2 * 4, so M_2 <= M_1.5^0.8 * M_4^0.2
    # for each norm; the reported error bars may only shrink the slack
    ps = (1.5, 2.0, 4.0)
    reps = dict(zip(ps, norms_report(sawtooth_tf(m, 3.0, n), ps, SPEC)))
    for norm in ("u", "lap", "hess"):
        mass = {p: getattr(rep, f"norm_{norm}_p_pow") for p, rep in reps.items()}
        err = {p: getattr(rep, f"err_{norm}") for p, rep in reps.items()}
        upper = 0.8 * math.log(mass[1.5] - err[1.5]) + 0.2 * math.log(mass[4.0] - err[4.0])
        assert math.log(mass[2.0] + err[2.0]) <= upper, norm


def test_hessian_doubling_law():
    # in the tooth-dominated regime the Hessian mass scales like n^p while
    # u and Laplacian masses stay put
    p = 2.0
    (r1,) = norms_report(sawtooth_tf(2, 2.0, 2048), (p,), SPEC)
    (r2,) = norms_report(sawtooth_tf(2, 2.0, 4096), (p,), SPEC)
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


# (a_l, a_r, scale): the m = 2 valley corner of an n = 4 window, between
# the fall -(2n - 1) and the rise 2n + 1, and the m >= 3 valley, -a to a,
# in units of a
@pytest.mark.parametrize("a_l,a_r,scale", [(-7.0, 9.0, 9.0), (-1.0, 1.0, 1.0)])
@pytest.mark.parametrize("p", [2.0, 20.0])
def test_blend_power_matches_high_precision_reference(
    a_l: float, a_r: float, scale: float, p: float
):
    # J over the whole blend and over its right half (the half-blend at a
    # window's start) against a 30-digit model of sigma' on the blend,
    # s = B(x) / (B(x) + B(1 - x)) with B(x) = exp(-1/x), lines meeting at 1/2
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        half = mpmath.mpf(1) / 2

        def slope_pow(x):
            b, b1 = mpmath.exp(-1 / x), mpmath.exp(-1 / (1 - x))
            s = b / (b + b1)
            ds = b * b1 * (1 / x**2 + 1 / (1 - x) ** 2) / (b + b1) ** 2
            return abs((a_l + (a_r - a_l) * (s + ds * (x - half))) / scale) ** int(p)

        left, right = mpmath.quad(slope_pow, [0, half]), mpmath.quad(slope_pow, [half, 1])
    for lo, ref in ((0.0, left + right), (0.5, right)):
        j, j_err = _blend_power(a_l, a_r, 0.5, lo, 1.0, scale, p, SPEC)
        assert abs(j - ref) <= j_err, (lo, j, float(ref), j_err)


@pytest.mark.parametrize("p", [2.0, 20.0])
def test_slope_mass_follows_an_off_centre_corner(p: float):
    # slope 1 into slope -1 through a blend of width 0.1 on [1, 1.1], the
    # lines meeting at 1.06, off the blend's centre 1.05: the closed form
    # must track where the lines meet, against a quadrature of eval_many's
    # sigma', whose rounding is negligible on a blend this wide
    cfg = ManifoldConfig.from_dimension(2)
    params = [(0.0, 0.0, 1.0), (0.0, 0.0, 0.0), (1.06, 1.06, -1.0)]
    prof = WarpingProfile(cfg, [LINEAR, BLEND, LINEAR], [0.0, 1.0, 1.1], params)
    mass, err, scale = _slope_mass(prof, 0.5, 1.5, p, SPEC)
    ref, ref_err = integrate(
        lambda t: np.abs(prof.eval_many(t)[1]) ** p, 0.5, 1.5, prof.knots_in(0.5, 1.5), SPEC
    )
    assert scale == 1.0
    assert abs(mass - ref) <= err + ref_err


# each cell failed tooth_mass_lower on a correct construction while the
# floor integrated |sigma'|^p with its corner blends accepted unrefined: the
# entry read +2.4e-7, +8.5e-5, +3.2e6 and +5.0e15 for the first four, the
# integrand overflowed at p = 400, and (4, 4, 4096, 32) read +5.7e-2
@pytest.mark.parametrize(
    "m,k,n,p",
    [(3, 3.0, 64, 20.0), (3, 3.0, 64, 32.0), (2, 3.0, 4, 65.0), (2, 3.0, 4, 100.0),
     (2, 3.0, 4, 400.0), (4, 4.0, 4096, 32.0)],
)
def test_chain_passes_where_the_floor_false_alarmed(m: int, k: float, n: int, p: float):
    audit = audit_norm_chain(sawtooth_tf(m, k, n), p, SPEC)
    assert audit.overall_pass, audit.failures()
    assert all(math.isfinite(e.worst_violation) for e in audit.entries)


def test_chain_floor_that_underflows_reads_minus_inf():
    # at n = 1 the m = 2 floor in units of the rise slope 3 is
    # (1/3)^700 (step - 2 w), below the smallest float, while the slope mass
    # in those units is about the rise row's width: the entry is the limit
    # of (floor - mass) / floor, not a division by zero
    audit = audit_norm_chain(sawtooth_tf(2, 3.0, 1), 700.0, SPEC)
    (floor,) = [e for e in audit.entries if e.name.startswith("tooth_mass_lower")]
    assert floor.worst_violation == -math.inf and floor.passed


@pytest.mark.parametrize("m,p", [(2, 2.5), (3, 1.5)])
def test_audit_norm_chain_passes(m: int, p: float):
    tf = sawtooth_tf(m, 2.0, 8)
    audit = audit_norm_chain(tf, p, SPEC)
    assert audit.overall_pass, audit.failures()
    names = [e.name for e in audit.entries]
    assert "u_mass_upper" in names and "laplacian_mass_upper" in names
    assert any(name.startswith("tooth_mass_lower") for name in names)


@pytest.mark.parametrize("m,p", [(2, 2.5), (3, 1.5)])
def test_chain_bounds_the_norms_report_masses(m: int, p: float):
    # the chain's I_u and I_lap are norms_report's u and Laplacian columns
    # over gamma_m, bit for bit: it bounds the numbers the inequality uses
    tf = sawtooth_tf(m, 2.0, 8)
    k = tf.k
    gamma = tf.green.profile.config.gamma_m
    (rep,) = norms_report(tf, (p,), SPEC)
    iu = rep.norm_u_p_pow / gamma + rep.err_u / gamma
    il = rep.norm_lap_p_pow / gamma + rep.err_lap / gamma
    bound_u = 2.0 * math.exp(2.0 * k + 2.0) if m == 2 else 4.0 * math.exp(2.0 * (k + 1.0))
    log_bound_l = p * math.log(tf.cutoff.sup_d2) - 2.0 * (p - 1.0) * k
    want = ((iu - bound_u) / bound_u, math.expm1(math.log(il) - log_bound_l))
    entries = {e.name: e.worst_violation for e in audit_norm_chain(tf, p, SPEC).entries}
    got = (entries["u_mass_upper"], entries["laplacian_mass_upper"])
    assert [repr(x) for x in got] == [repr(x) for x in want]


def test_chain_upper_bounds_hold_at_large_p():
    # sup|phi''|^100 and the Green-coordinate integrand |phi''|^100 both
    # overflow a float; the r route's masses stay finite
    entries = {e.name: e for e in audit_norm_chain(sawtooth_tf(2, 3.0, 4), 100.0, SPEC).entries}
    for name in ("u_mass_upper", "laplacian_mass_upper"):
        assert entries[name].passed, entries[name]
        assert math.isfinite(entries[name].worst_violation)


def test_chain_reads_one_norms_report(monkeypatch):
    # the chain's I_u and I_lap are the masses of the one report it asks
    # for: scaling that report's u and Laplacian columns moves the entries
    tf = sawtooth_tf(2, 2.0, 8)
    gamma = tf.green.profile.config.gamma_m
    calls = []

    def scaled_report(*args):
        calls.append(args)
        (rep,) = norms_report(*args)
        return (replace(rep, norm_u_p_pow=4.0 * rep.norm_u_p_pow, norm_lap_p_pow=0.0, err_lap=0.0),)

    monkeypatch.setattr(norms_module, "norms_report", scaled_report)
    entries = {e.name: e.worst_violation for e in audit_norm_chain(tf, 2.0, SPEC).entries}
    assert len(calls) == 1 and calls[0][0] is tf and calls[0][1:] == ((2.0,), SPEC)
    (rep,) = norms_report(tf, (2.0,), SPEC)
    bound_u = 2.0 * math.exp(2.0 * tf.k + 2.0)
    iu = 4.0 * rep.norm_u_p_pow / gamma + rep.err_u / gamma
    assert entries["u_mass_upper"] == (iu - bound_u) / bound_u
    assert entries["laplacian_mass_upper"] == -1.0


def test_chain_zero_mass_reads_minus_one(monkeypatch):
    zero = NormsReport(2.0, 2.0, *[0.0] * 6)  # p, k, then three masses and their errors
    monkeypatch.setattr(norms_module, "norms_report", lambda *args: (zero,))
    entries = audit_norm_chain(sawtooth_tf(2, 2.0, 8), 2.0, SPEC).entries
    got = {e.name: e.worst_violation for e in entries}
    assert got["u_mass_upper"] == got["laplacian_mass_upper"] == -1.0


def test_lp_norm_validation():
    tf = pure_power_tf()
    for route in (lambda tf, p, spec: norms_report(tf, (p,), spec), audit_norm_chain):
        for p in (1.0, math.inf):
            with pytest.raises(ValueError):
                route(tf, p, SPEC)


@pytest.mark.parametrize("m", [2, 3])
def test_norms_report_columns_match_lone_passes(monkeypatch, m: int):
    # one pass for several p gives each p, in order, the report a pass for
    # that p alone gives, bit for bit
    tf = sawtooth_tf(m, 3.0, 16)
    ps = (1.5, 2.0, 4.0)
    shared = norms_report(tf, ps, SPEC)
    assert [repr(r) for r in shared] == [repr(norms_report(tf, (p,), SPEC)[0]) for p in ps]
    # an empty ps or an invalid p anywhere in it raises before any quadrature
    calls = []
    monkeypatch.setattr(norms_module, "integrate", lambda *args, **kw: calls.append(args))
    with pytest.raises(ValueError):
        norms_report(tf, (), SPEC)
    for bad in ((1.0, 2.0, 4.0), (1.5, math.inf, 4.0), (1.5, 2.0, 0.5)):
        with pytest.raises(ValueError, match=r"outside \(1, inf\)"):
            norms_report(tf, bad, SPEC)
    assert calls == []


def test_norms_report_fields():
    tf = sawtooth_tf(2, 2.0, 4)
    (rep,) = norms_report(tf, (2.0,), SPEC)
    # the u column against the plain knot-aware volume integral of u^2
    prof = tf.green.profile
    u, ue = integrate(
        lambda r: tf._fields(r)[0] ** 2 * prof.eval_many(r)[0],
        tf.r_lo,
        tf.r_hi,
        breakpoints=prof.knots_in(tf.r_lo, tf.r_hi),
        spec=SPEC,
        slivers=prof.blend_spans_in(tf.r_lo, tf.r_hi),
    )
    u, ue = prof.config.gamma_m * u, prof.config.gamma_m * ue
    assert abs(rep.norm_u_p_pow - u) <= rep.err_u + ue + 1e-12 * u
    assert rep.quad_err == max(rep.err_u, rep.err_lap, rep.err_hess)
    assert rep.p == 2.0 and rep.k == 2.0


# repr of every number below, recorded before the three norms and the two
# s-integrals shared one quadrature pass; a change that moves any bit fails
# here, and an intended numeric change must update these openly.  The chain
# entries were recorded again when the chain took I_u and I_lap from the
# r-route kernel instead of the s route, which the I_u and I_lap pairs pin
GOLDEN = {
    (2, 2.0, 64): (
        (6827.666815287771, 480.17818224399116, 485.94241846001603),
        (2.9879456817497603e-07, 5.324113175477281e-07, 5.319903744694232e-07),
        (1086.6569234375522, 4.988981738100227e-08),
        (76.42273126901247, 8.729442448567447e-08),
        (-0.8177336064096145, -0.9992320926200937),
    ),
    (3, 1.5, 257): (
        (16110.591013124827, 1092.0377080638327, 1156.979763624409),
        (1.840670702727545e-05, 5.13049235072768e-08, 1.2536240717468416e-07),
        (1282.0400979090214, 4.227144017878836e-06),
        (86.90159964055162, 4.8681849367284375e-09),
        (-0.8924808647947111, -0.9965394051074976),
    ),
    (4, 4.0, 130): (
        (12638.798589239615, 1166.8933808764414, 14010.295953410203),
        (3.9207248869066544e-07, 1.5930718601144198e-06, 3.8655999976256464e-05),
        (640.2890164366191, 8.713800921439994e-08),
        (59.11550926741432, 1.6990706644860332e-09),
        (-0.9463017409803626, -0.9999975920864017),
    ),
}


@pytest.mark.parametrize("m,p,n", list(GOLDEN), ids=[f"m{m}-p{p}-n{n}" for m, p, n in GOLDEN])
def test_golden_numbers(m: int, p: float, n: int):
    cfg = ExperimentConfig(m=m, p=p, k=3.0, n_teeth=n)
    _, _, green, _ = build_construction(cfg)
    tf = TestFunction(cfg.k, CutoffFunction(), green)
    norms, errs, i_u, i_lap, chain = GOLDEN[(m, p, n)]
    (rep,) = norms_report(tf, (p,), cfg.quad)
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


# sha256 of the raw bytes of _fields' five outputs, signed zeros included,
# on every depth-0 node array norms_report's pass hands its integrand, split
# back into the calls of one rule each that the pass made when these were
# recorded (whole, left half and right half of each batch of up to 2048
# panels over the ramps, the plateau and the window, packed into calls of
# up to 2048 rows), on one call of those calls' rows off the plateau, on
# one of those rows and three plateau rows, and on one flat call over a
# stride of every node and the blend midpoints; k = 3.  Recorded before
# plateau rows skipped the cutoff; any change to the field kernel's
# arithmetic moves them
FIELDS_DIGESTS = {
    (2, 1): "8e50997950c4551eee20abb80eaa3de077a1666d28c9e466e59e97cf8c4b1959",
    (2, 64): "455a61a50828a42ecde04bd378c4e53af469deeca91e9349fa6969030302fbb8",
    (2, 4096): "275d071f1281a455b7d63e3333ee6929922be0f571ad6c5e79677786b5144435",
    (3, 1): "7bd0784b32ecc7886ae7d40a2c1e6b2d99ce918ecbf7c902b0d7af0b7fdd464a",
    (3, 64): "b95f7bc647b724680435de7d96e87f05a6a795edfc982ee1b91865aafb968671",
    (3, 4096): "487860ed608c721ecb9632c9fc1c6b12ef0d317aa00217aa53fff7b054eae484",
    (4, 1): "42864c06b5c377680ecae4b799b25f5ac59d7d6055b1ea9d7441616bf0b89ac8",
    (4, 64): "b50716f8bea670b0972b1b7213b52ef95dc6e23de30ed6ef1788c65f17a13ae7",
    (4, 4096): "8ba50505b545a414cdd2e537f1f6f839c729d39982443b3d76fd0a6922ae4909",
}


def fields_digest(tf: TestFunction, spec: QuadratureSpec, monkeypatch) -> str:
    calls = []

    def recording(f, *args, **kwargs):
        def zeros(x):
            calls.append(x)
            return (np.zeros(x.shape),) * 3

        # a zero integrand settles every panel at depth 0
        return integrate(zeros, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(norms_module, "integrate", recording)
        norms_report(tf, (2.0,), spec)
    # each row holds one panel's left-half, whole and right-half nodes
    fields = [tf._fields(x) for x in calls]
    for x, out in zip(calls, fields):
        assert all(v.shape == x.shape for v in out)
    panels = np.concatenate(calls).reshape(-1, 3, spec.base_order)
    outs = [np.concatenate(v).reshape(panels.shape) for v in zip(*fields)]
    # the one-rule calls: blocks (batch, rule) in the order whole, left,
    # right, packed in order into calls of up to 2048 rows, from batches
    # of up to 2048 panels
    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "_CHUNK", 2048)
        batches = _batches(len(panels))
    blocks: list[list[tuple[slice, int]]] = []
    size = 2048
    for sl in batches:
        for rule in (1, 0, 2):
            if size + sl.stop - sl.start > 2048:
                blocks.append([])
                size = 0
            blocks[-1].append((sl, rule))
            size += sl.stop - sl.start
    digest = hashlib.sha256()
    for call in blocks:
        for v in outs:
            digest.update(np.concatenate([v[sl, rule] for sl, rule in call]).tobytes())
    rows = np.concatenate([panels[sl, rule] for call in blocks for sl, rule in call])
    d = tf.cutoff.delta
    lo, hi = tf.green.inverse_many(tf.k + np.asarray([d, 1.0 - d]))
    off = (rows[:, 0] < lo) | (rows[:, -1] > hi)
    # the flat call adds every corner blend's midpoint, where sigma' of a
    # symmetric apex is exactly zero
    t0, t1 = tf.green.profile.blend_spans_in(tf.r_lo, tf.r_hi).T
    for x in (
        rows[off],
        np.concatenate([rows[off], rows[~off][:3]]),
        np.concatenate([rows.ravel()[::5], t0 + 0.5 * (t1 - t0)]),
    ):
        for v in tf._fields(x):
            assert v.shape == x.shape
            digest.update(v.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("m,n", sorted(FIELDS_DIGESTS), ids=str)
def test_fields_digest(monkeypatch, m: int, n: int):
    cfg = ExperimentConfig(m=m, p=2.0, k=3.0, n_teeth=n)
    _, _, green, _ = build_construction(cfg)
    tf = TestFunction(cfg.k, CutoffFunction(), green)
    assert fields_digest(tf, cfg.quad, monkeypatch) == FIELDS_DIGESTS[(m, n)]
