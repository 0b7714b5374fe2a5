"""End-to-end acceptance gate.

One test per criterion, in order.  Each test prints a single line,
"criterion N: PASS/FAIL (measured numbers)", before asserting, so the
measurements survive into the report when a criterion is red.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from czwarp.cli import main
from czwarp.experiment import ExperimentConfig, build_construction, run_experiment
from czwarp.green import GreenFunction, audit_green_bounds
from czwarp.norms import CutoffFunction, TestFunction, norms_report, volume_integral
from czwarp.quadrature import QuadratureSpec, integrate
from czwarp.warping import POWER, ManifoldConfig, WarpingProfile, audit_strip
from laplacian_routes import worst_route_discrepancy
from s_route import s_integrals

SPEC = QuadratureSpec(base_order=8, rel_tol=1e-8)

GRID = [
    (m, p, k, n)
    for m in (2, 3, 5)
    for p in (1.5, 2.0, 4.0)
    for k in (2.0, 3.0, 4.0)
    for n in (8, 64)
]


def _verdict(num: int, passed: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if passed else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def sampled():
    """20 random grid configs plus their built constructions, keyed by (m, k, n)."""
    rng = np.random.default_rng(715)
    idx = rng.choice(len(GRID), size=20, replace=False)
    configs = [GRID[i] for i in idx]
    built = {}
    for m, p, k, n in configs:
        key = (m, k, n)
        if key not in built:
            cfg = ExperimentConfig(m=m, p=p, k=k, n_teeth=n)
            _, window, green, r_max = build_construction(cfg)
            built[key] = (TestFunction(k, CutoffFunction(), green), window, r_max)
    return configs, built


def test_criterion_1_two_route_laplacian(sampled):
    configs, built = sampled
    t0 = time.perf_counter()
    rng = np.random.default_rng(923)
    worst = 0.0
    for m, p, k, n in configs:
        tf, _, _ = built[(m, k, n)]
        rs = rng.uniform(tf.r_lo, tf.r_hi, 1000)
        worst = max(worst, worst_route_discrepancy(tf, rs))
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-9 and elapsed < 60.0
    _verdict(1, passed, f"worst relative discrepancy {worst:.3e} over 20 configs x 1000 points, {elapsed:.1f}s")
    assert passed


def test_criterion_2_envelope_audits(sampled):
    configs, built = sampled
    worst = -math.inf
    count = 0
    for tf, _, r_max in built.values():
        entries = list(audit_green_bounds(tf.green, samples=512).entries)
        entries += audit_strip(tf.green.profile, 1.0, r_max, samples=2048).entries
        for entry in entries:
            worst = max(worst, entry.worst_violation)
            count += 1
            assert entry.passed, entry.name
    passed = worst <= 1e-9
    _verdict(2, passed, f"worst envelope violation {worst:.3e} across {count} audit entries")
    assert passed


def test_criterion_3_upper_mass_bounds(sampled):
    configs, built = sampled
    worst = 0.0
    for m, p, k, n in configs:
        tf, _, _ = built[(m, k, n)]
        (iu, iu_err), (il, il_err) = s_integrals(tf, p, SPEC)
        bound_u = 4.0 * math.exp(2.0 * (k + 1.0))
        bound_l = tf.cutoff.sup_d2**p * math.exp(-2.0 * (p - 1.0) * k)
        worst = max(worst, (iu + iu_err) / bound_u, (il + il_err) / bound_l)
    passed = worst <= 1.0
    _verdict(3, passed, f"largest mass/bound share {worst:.4f} over 20 configs")
    assert passed


def test_criterion_4_tooth_mass_floor(sampled):
    configs, built = sampled
    slack = math.inf
    for m, p, k, n in configs:
        tf, window, _ = built[(m, k, n)]
        prof = tf.green.profile
        h = window.z

        def slope_pow(t: np.ndarray) -> np.ndarray:
            return np.abs(prof.eval_many(t)[1]) ** p

        mass, err = integrate(
            slope_pow,
            h,
            h + 1.0,
            breakpoints=prof.knots_in(h, h + 1.0),
            spec=SPEC,
            slivers=prof.blend_spans_in(h, h + 1.0),
        )
        ws = window.smooth_halfwidth
        if m == 2:
            floor = (2.0 * n - 1.0) ** p * n * (window.step - 2.0 * ws)
        else:
            floor = (window.width - 4.0 * n * ws) * (window.amplitude / window.step) ** p
        slack = min(slack, (mass - err) / floor)
        assert mass - err >= floor, (m, p, k, n)
    passed = slack >= 1.0
    _verdict(4, passed, f"smallest slope-mass/floor ratio {slack:.4f} over 20 configs")
    assert passed


def test_criterion_5_scaling_law():
    # The Hessian mass is H(n) = A + B*n^p: A is the radial Hessian on the
    # cutoff ramps, where it equals the Laplacian and does not depend on n,
    # and B*n^p is the tooth mass in the window.  On n = 32 .. 4096 the
    # constant A dominates, so the slope of log H is not p.  The increments
    # D_j = H(2n_j) - H(n_j) cancel A and leave B*(2^p - 1)*n_j^p, whose
    # log-log slope is the tooth exponent.
    t0 = time.perf_counter()
    ns = [2**j for j in range(5, 13)]
    tfs = {}
    for n in ns:
        cfg = ExperimentConfig(m=2, p=2.0, k=3.0, n_teeth=n)
        _, _, green, _ = build_construction(cfg)
        tfs[n] = TestFunction(3.0, CutoffFunction(), green)
    log_n = np.log(np.asarray(ns, dtype=float))
    slopes = {}
    total_slopes = {}
    min_margin = {}
    for p in (1.5, 2.0, 4.0):
        reports = [norms_report(tfs[n], p, SPEC) for n in ns]
        values = np.asarray([r.norm_hess_p_pow for r in reports])
        errs = np.asarray([r.err_hess for r in reports])
        increments = values[1:] - values[:-1]
        margins = increments - (errs[1:] + errs[:-1])
        min_margin[p] = float(margins.min())
        total_slopes[p] = float(np.polyfit(log_n, np.log(values), 1)[0])
        if min_margin[p] > 0.0:
            slopes[p] = float(np.polyfit(log_n[:-1], np.log(increments), 1)[0])
        else:
            slopes[p] = float("nan")
    elapsed = time.perf_counter() - t0
    in_band = {p: abs(s - p) <= 0.1 * p for p, s in slopes.items()}
    detail = ", ".join(
        f"p={p}: increment slope {slopes[p]:.4f} vs band "
        f"[{0.9 * p:.2f}, {1.1 * p:.2f}], min margin over error bars "
        f"{min_margin[p]:.3g}, total-mass slope {total_slopes[p]:.4f} (info)"
        for p in slopes
    )
    passed = (
        all(m > 0.0 for m in min_margin.values())
        and all(in_band.values())
        and elapsed < 300.0
    )
    _verdict(5, passed, f"{detail}, {elapsed:.1f}s")
    assert passed, (
        "the growth H(2n) - H(n) of the Hessian mass does not follow n^p "
        f"within 10%, or an increment is inside its error bars: {detail}; "
        "see the Tests section of the README"
    )


def test_criterion_6_violation_found_everywhere(capsys):
    t0 = time.perf_counter()
    details = []
    ok = True
    for m in (2, 3, 4):
        for p in (1.5, 2.0, 4.0):
            rc = main(
                [
                    "violate",
                    "--m", str(m), "--p", str(p), "--k", "3",
                    "--n-max", str(2**15),
                ]
            )
            doc = json.loads(capsys.readouterr().out)
            n_star = doc["n_star"]
            cell_ok = rc == 0 and n_star is not None and n_star <= 2**15
            if cell_ok:
                cell_ok = doc["lhs"] > doc["rhs"]
                big = run_experiment(
                    ExperimentConfig(m=m, p=p, k=3.0, n_teeth=4 * n_star)
                )
                cell_ok = cell_ok and big.ratio > doc["ratio"]
                details.append(f"m={m} p={p}: n*={n_star} ratio {doc['ratio']:.4f} -> {big.ratio:.4f}")
            else:
                details.append(f"m={m} p={p}: rc={rc} n*={n_star}")
            ok = ok and cell_ok
    elapsed = time.perf_counter() - t0
    passed = ok and elapsed < 600.0
    _verdict(6, passed, "; ".join(details) + f", {elapsed:.0f}s")
    assert passed


CLOSED_FORMS = [
    ("exp", lambda t: np.exp(t), 0.0, 1.0, (), math.e - 1.0),
    ("sin", lambda t: np.sin(t), 0.0, math.pi, (), 2.0),
    ("recip", lambda t: 1.0 / t, 1.0, math.e, (), 1.0),
    ("rational", lambda t: 1.0 / (1.0 + t * t), 0.0, 1.0, (), math.pi / 4.0),
    ("t_exp_t2", lambda t: t * np.exp(t * t), 0.0, 1.0, (), (math.e - 1.0) / 2.0),
    ("cosh", lambda t: np.cosh(t), 0.0, 2.0, (), math.sinh(2.0)),
    ("log1p", lambda t: np.log1p(t), 0.0, 1.0, (), 2.0 * math.log(2.0) - 1.0),
    ("sqrt", lambda t: np.sqrt(t), 1.0, 4.0, (), 14.0 / 3.0),
    ("geometric", lambda t: 1.0 / (1.0 + t), 0.0, 1.0, (), math.log(2.0)),
    ("sin_sq", lambda t: np.sin(t) ** 2, 0.0, 2.0 * math.pi, (), math.pi),
    ("gaussian", lambda t: np.exp(-t * t), 0.0, 1.0, (), math.sqrt(math.pi) / 2.0 * math.erf(1.0)),
    ("abs_sin", lambda t: np.abs(np.sin(t)), 0.0, 2.0 * math.pi, (math.pi,), 4.0),
    ("cbrt", lambda t: np.cbrt(t), 1.0, 8.0, (), 45.0 / 4.0),
    ("t_sin", lambda t: t * np.sin(t), 0.0, math.pi, (), math.pi),
    ("arctan", lambda t: np.arctan(t), 0.0, 1.0, (), math.pi / 4.0 - math.log(2.0) / 2.0),
    ("log", lambda t: np.log(t), 1.0, 2.0, (), 2.0 * math.log(2.0) - 1.0),
    ("inv_sqrt", lambda t: 1.0 / np.sqrt(1.0 + t), 0.0, 1.0, (), 2.0 * (math.sqrt(2.0) - 1.0)),
    ("oscillatory", lambda t: np.sin(10.0 * t), 0.0, 1.0, (), (1.0 - math.cos(10.0)) / 10.0),
    ("decay", lambda t: np.exp(-t), 0.0, 5.0, (), 1.0 - math.exp(-5.0)),
    ("sech_sq", lambda t: 1.0 / np.cosh(t) ** 2, 0.0, 2.0, (), math.tanh(2.0)),
]


def test_criterion_7_quadrature_honesty():
    tight = QuadratureSpec()
    worst = 0.0
    for name, f, a, b, brk, truth in CLOSED_FORMS:
        value, err = integrate(f, a, b, breakpoints=brk, spec=tight)
        diff = abs(value - truth)
        assert diff <= 10.0 * err, name
        if err > 0.0:
            worst = max(worst, diff / (10.0 * err))

    flat = WarpingProfile(
        ManifoldConfig.from_dimension(2), [POWER], [0.0], [(0.0, 0.0, 0.0)]
    )
    ones = lambda t: np.ones_like(t)
    volume, _ = volume_integral(flat, ones, 1.0, 2.0, tight)
    vol_ok = abs(volume - 3.0 * math.pi) <= 1e-12 * 3.0 * math.pi
    g2 = GreenFunction(flat, r_max=100.0).value(2.0)
    g_ok = abs(g2 - math.log(2.0)) <= 1e-12 * math.log(2.0)
    passed = worst <= 1.0 and vol_ok and g_ok
    _verdict(
        7,
        passed,
        f"20 closed forms, worst error share {worst:.3f} of the 10x allowance; "
        f"disk shell volume off by {abs(volume - 3.0 * math.pi):.2e}, "
        f"log fixture off by {abs(g2 - math.log(2.0)):.2e}",
    )
    assert passed


def test_criterion_8_sweep_determinism(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(
        json.dumps(
            {
                "grid": {
                    "m": [2, 3],
                    "p": [1.5, 2.0],
                    "k": [2.0, 3.0],
                    "n": [4, 16, 64],
                }
            }
        )
    )
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    rc_a = main(["sweep", "--config", str(config), "--out", str(out_a)])
    rc_b = main(["sweep", "--config", str(config), "--out", str(out_b)])
    capsys.readouterr()
    bytes_a, bytes_b = out_a.read_bytes(), out_b.read_bytes()
    passed = rc_a == 0 and rc_b == 0 and bytes_a == bytes_b
    _verdict(
        8,
        passed,
        f"24-cell sweep run twice, {len(bytes_a)} bytes, identical={bytes_a == bytes_b}",
    )
    assert passed
