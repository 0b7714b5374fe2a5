"""Experiment pipeline: single cells, minimal-n search, sweeps, CSV rows."""

from __future__ import annotations

import csv
import functools
import math
import re
import threading
from dataclasses import fields, replace

import numpy as np
import pytest

from czwarp.experiment import (
    CSV_COLUMNS,
    CZReport,
    ExperimentConfig,
    SweepRow,
    build_construction,
    run_experiment,
    search_min_n,
    sweep,
    write_csv,
)
import czwarp.experiment as experiment_module
from czwarp.green import DELTA_UNIVERSAL
from czwarp.warping import ManifoldConfig, plan_window

BASE = ExperimentConfig(m=2, p=2.0, k=3.0, n_teeth=1)


@functools.lru_cache(maxsize=None)
def report_cell(m: int, p: float, k: float, n: int) -> CZReport:
    return run_experiment(replace(BASE, m=m, p=p, k=k, n_teeth=n))


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(m=1, p=2.0, k=3.0, n_teeth=1)
    with pytest.raises(ValueError):
        ExperimentConfig(m=2.5, p=2.0, k=3.0, n_teeth=1)
    with pytest.raises(ValueError):
        ExperimentConfig(m=2, p=1.0, k=3.0, n_teeth=1)
    with pytest.raises(ValueError):
        ExperimentConfig(m=2, p=2.0, k=0.5, n_teeth=1)
    with pytest.raises(ValueError):
        ExperimentConfig(m=2, p=2.0, k=3.0, n_teeth=0)
    with pytest.raises(ValueError):
        ExperimentConfig(m=2, p=2.0, k=3.0, n_teeth=1, C1=-1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(m=2, p=2.0, k=3.0, n_teeth=1, C1=math.nan)
    with pytest.raises(ValueError):
        ExperimentConfig(m=2, p=2.0, k=3.0, n_teeth=1, C2=math.inf)
    # the Green table radius 2.2 e^(k + 1.05) must be a finite double
    for k in (1e6, math.inf):
        with pytest.raises(ValueError, match="level k"):
            ExperimentConfig(m=2, p=2.0, k=k, n_teeth=1)


@pytest.mark.parametrize("name", ["m", "k", "n_teeth", "C1", "C2"])
def test_config_rejects_bools(name: str):
    # True equals 1 and would otherwise pass for k, n_teeth, C1 and C2;
    # numpy's bool is no subclass of bool but compares the same way
    for flag in (True, np.True_):
        fields = {"m": 2, "p": 2.0, "k": 3.0, "n_teeth": 1, name: flag}
        with pytest.raises(ValueError, match=re.escape(f"{name} must be a number, not {flag!r}")):
            ExperimentConfig(**fields)


def test_settable_fields_and_audit_constants():
    names = [f.name for f in fields(ExperimentConfig)]
    assert names == ["m", "p", "k", "n_teeth", "C1", "C2", "quad"]
    for name in ("r_cap", "strip_samples", "envelope_samples"):
        with pytest.raises(TypeError):
            ExperimentConfig(m=2, p=2.0, k=3.0, n_teeth=1, **{name: 2})
    # constants, still read through a config as the benchmark does
    assert (BASE.strip_samples, BASE.envelope_samples) == (2048, 512)


def test_bracket_holds_on_final_profile():
    # the window image must land inside the plateau [k+delta, k+1-delta]
    for m, k, n in ((2, 3.0, 8), (3, 2.0, 4), (5, 2.0, 16)):
        cfg = replace(BASE, m=m, k=k, n_teeth=n)
        h, window, green, _ = build_construction(cfg)
        assert window.z == h
        lo = green.value(window.z)
        hi = green.value(window.z + window.width)
        assert lo >= k + DELTA_UNIVERSAL - 1e-9
        assert hi <= k + 1.0 - DELTA_UNIVERSAL + 1e-9


def test_single_tooth_does_not_violate():
    # one tooth cannot beat an RHS carrying the e^(2k)-sized u mass
    rep = report_cell(2, 2.0, 3.0, 1)
    assert rep.violated is False
    assert rep.ratio < 1.0
    assert rep.audit.overall_pass
    # regression anchors, frozen from a pipeline run before this test existed
    assert rep.norms.norm_u_p_pow == pytest.approx(6826.095496440882, rel=1e-6)
    assert rep.norms.norm_lap_p_pow == pytest.approx(480.2947084034157, rel=1e-6)
    assert rep.norms.norm_hess_p_pow == pytest.approx(480.2572729283327, rel=1e-6)


def test_report_arithmetic_identities():
    rep = report_cell(2, 2.0, 3.0, 1)
    cfg = rep.config
    assert rep.lhs == rep.norms.norm_hess_p_pow
    assert rep.rhs == cfg.C1 * rep.norms.norm_lap_p_pow + cfg.C2 * rep.norms.norm_u_p_pow
    assert rep.ratio == rep.lhs / rep.rhs
    assert rep.ratio > 0.0
    assert rep.h == rep.window.z


def test_weak_constants_flip_the_verdict():
    rep = run_experiment(replace(BASE, C1=1e-3, C2=1e-3))
    assert rep.violated is True
    assert rep.ratio > 1.0


def test_many_teeth_violate_at_unit_constants():
    rep = report_cell(2, 2.0, 3.0, 4096)
    assert rep.violated is True
    assert rep.ratio > 1.0
    assert rep.audit.overall_pass
    # u and laplacian masses barely move while the hessian mass explodes
    small = report_cell(2, 2.0, 3.0, 1)
    assert rep.norms.norm_u_p_pow == pytest.approx(small.norms.norm_u_p_pow, rel=0.05)
    assert rep.norms.norm_lap_p_pow == pytest.approx(small.norms.norm_lap_p_pow, rel=0.05)
    assert rep.norms.norm_hess_p_pow > 40.0 * small.norms.norm_hess_p_pow


def test_window_geometry_tracks_the_gap_formula():
    # m >= 3 windows take the minimal strip gap over [h, h+1], reached at h+1
    rep = report_cell(3, 2.0, 4.0, 8)
    h = rep.h
    eta = (math.sqrt(h + 2.0) - math.sqrt(h + 1.0)) / 10.0
    assert rep.window.width == pytest.approx(eta, rel=1e-13)
    assert rep.window.amplitude == rep.window.width
    assert rep.window.base == pytest.approx(math.sqrt(h + eta), rel=1e-13)
    # the same formula evaluated at an anchor picked by hand
    w = plan_window(ManifoldConfig.from_dimension(3), 4.0, 8)
    assert w.width == pytest.approx((math.sqrt(6.0) - math.sqrt(5.0)) / 10.0, rel=1e-13)


def test_search_rejects_bad_ceiling():
    with pytest.raises(ValueError):
        search_min_n(BASE, 0)


def test_search_not_found_below_ceiling():
    n_star, trace = search_min_n(BASE, 4)
    assert n_star is None
    assert [r.config.n_teeth for r in trace] == [1, 2, 4]
    assert all(not r.violated for r in trace)


def test_search_weak_constants_finds_first_probe():
    n_star, trace = search_min_n(replace(BASE, C1=1e-3, C2=1e-3), 256)
    assert n_star == 1
    assert len(trace) == 1
    assert trace[0].violated


def _fake_search_reports(
    ratios: dict[int, float], monkeypatch, failed_audits: frozenset[int] = frozenset()
) -> None:
    # a probe in failed_audits comes back clean whatever its ratio, as
    # run_experiment reports a construction whose audits failed
    template = report_cell(2, 2.0, 3.0, 1)

    def fake(cfg: ExperimentConfig) -> CZReport:
        ratio = ratios[cfg.n_teeth]
        violated = ratio > 1.0 and cfg.n_teeth not in failed_audits
        return replace(template, config=cfg, ratio=ratio, violated=violated)

    monkeypatch.setattr(experiment_module, "run_experiment", fake)


def test_search_bisects_to_the_minimal_n(monkeypatch):
    # strictly increasing ratio with the crossing hidden between 64 and 128
    _fake_search_reports({n: n / 101.0 for n in range(1, 129)}, monkeypatch)
    n_star, trace = search_min_n(BASE, 128)
    assert n_star == 102
    probed = [r.config.n_teeth for r in trace]
    assert probed[:8] == [1, 2, 4, 8, 16, 32, 64, 128]
    by_n = {r.config.n_teeth: r for r in trace}
    assert by_n[101].violated is False
    assert by_n[102].violated is True


def test_search_keeps_first_hit_when_tail_wobbles(monkeypatch):
    # a non-monotone tail must disable bisection, not crash it
    ratios = {1: 0.1, 2: 0.2, 4: 0.3, 8: 0.4, 16: 0.5, 32: 0.7, 64: 0.6, 128: 2.0}
    _fake_search_reports(ratios, monkeypatch)
    n_star, trace = search_min_n(BASE, 128)
    assert n_star == 128
    assert [r.config.n_teeth for r in trace] == [1, 2, 4, 8, 16, 32, 64, 128]


def _bracket_probes(trace: list[CZReport]) -> list[int]:
    # probes after the doubling scan, which stops at its first violated probe
    first_hit = next(i for i, r in enumerate(trace) if r.violated)
    return [r.config.n_teeth for r in trace[first_hit + 1 :]]


def _assert_certified_crossing(n_star: int, trace: list[CZReport], ratios, failed=()):
    # the minimal violating n of a monotone verdict, which plain bisection returns
    expected = min(n for n, r in ratios.items() if r > 1.0 and n not in failed)
    assert n_star == expected
    by_n = {r.config.n_teeth: r for r in trace}
    assert by_n[n_star].violated is True
    assert by_n[n_star - 1].violated is False


@pytest.mark.parametrize(
    "p, crossings",
    [
        (1.5, (5.5, 100.2, 809.7, 4420.3, 10298.6)),
        (2.0, (3.3, 60.1, 1509.9, 2211.5, 7777.7)),
        (4.0, (12.9, 129.6, 256.8, 808.4, 3000.1)),
        # at p = 80 the scan tail below the crossing stays distinguishable
        # from the constant only within a factor of about 1.6 of it
        (80.0, (33.3, 47.9, 66.6, 99.5)),
    ],
)
def test_search_interpolates_a_power_law_crossing(p, crossings, monkeypatch):
    # ratio = (A + B n^p) / R, the law the u, Laplacian and Hessian masses follow
    for c in crossings:
        ratios = {n: 0.07 + 0.93 * (n / c) ** p for n in range(1, int(2 * c) + 2)}
        _fake_search_reports(ratios, monkeypatch)
        n_star, trace = search_min_n(replace(BASE, p=p), 2**14)
        _assert_certified_crossing(n_star, trace, ratios)
        assert len(_bracket_probes(trace)) <= 4, (c, _bracket_probes(trace))


@pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
def test_search_corrects_a_slightly_wrong_exponent(p, monkeypatch):
    # the data grow as n^q with q up to 5% off the p the search interpolates
    # in, so the first guided probe can miss n* by several teeth
    for q in (0.95 * p, 0.98 * p, 1.02 * p, 1.05 * p):
        for c in (100.3, 809.7, 1509.9, 2211.5, 4420.3, 7906.6, 10298.6):
            ratios = {n: 0.07 + 0.93 * (n / c) ** q for n in range(1, int(2 * c) + 2)}
            _fake_search_reports(ratios, monkeypatch)
            n_star, trace = search_min_n(replace(BASE, p=p), 2**14)
            _assert_certified_crossing(n_star, trace, ratios)
            assert len(_bracket_probes(trace)) <= 4, (q, c, _bracket_probes(trace))


@pytest.mark.parametrize("p", [2.0, 80.0])
def test_search_bounds_probes_when_the_model_is_wrong(p, monkeypatch):
    # a step from `low` to `high` at c: the interpolated crossing misses it,
    # and the bracket [1024, 2048] may cost at most plain bisection's 10
    # probes plus 4
    for low, high in ((0.5, 2.0), (0.999, 1e6), (1e-6, 1.001)):
        for c in (1025, 1100, 1448, 1449, 1536, 1900, 2020, 2047, 2048):
            # the tiny slope keeps the scan tail strictly increasing
            ratios = {n: (low if n < c else high) + 1e-9 * n for n in range(1, 2049)}
            _fake_search_reports(ratios, monkeypatch)
            n_star, trace = search_min_n(replace(BASE, p=p), 2048)
            _assert_certified_crossing(n_star, trace, ratios)
            assert len(_bracket_probes(trace)) <= 10 + 4, (low, high, c)


def test_search_interpolates_without_overflow_at_large_p(monkeypatch):
    # 32768.0 ** 80 overflows a float; the bracket [16384, 32768] must not
    ratios = {n: n / 20000.5 for n in range(1, 2**15 + 1)}
    _fake_search_reports(ratios, monkeypatch)
    n_star, trace = search_min_n(replace(BASE, p=80.0), 2**15)
    _assert_certified_crossing(n_star, trace, ratios)
    assert len(_bracket_probes(trace)) <= 14 + 4


@pytest.mark.parametrize(
    "crossing, failed, first_probes",
    [
        # the guided probe is clean with ratio above 1, so the model is
        # dropped for the certificate and for the next step
        (900.5, range(901, 1000), [901, (901 + 1024) // 2]),
        # the scan's last clean probe already has ratio above 1
        (400.5, range(401, 1000), [(512 + 1024) // 2]),
    ],
)
def test_search_falls_back_to_the_midpoint_after_a_failed_audit(
    crossing, failed, first_probes, monkeypatch
):
    ratios = {n: 0.07 + 0.93 * (n / crossing) ** 2 for n in range(1, 1025)}
    _fake_search_reports(ratios, monkeypatch, frozenset(failed))
    n_star, trace = search_min_n(BASE, 1024)
    _assert_certified_crossing(n_star, trace, ratios, failed)
    assert n_star == 1000
    probed = _bracket_probes(trace)
    assert probed[: len(first_probes)] == first_probes


def test_search_refines_the_real_crossing():
    # pipeline oracle, frozen from a run before this test existed
    n_star, trace = search_min_n(BASE, 4096)
    assert n_star == 2212
    by_n = {r.config.n_teeth: r for r in trace}
    assert by_n[2211].violated is False
    assert by_n[2212].violated is True


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        sweep(BASE, [], [2.0], [3.0], [1])


def test_sweep_rows_follow_grid_order():
    rows = sweep(replace(BASE, k=2.0), [2, 3], [1.5, 2.0], [2.0], [1, 2])
    key = [(r.m, r.p, r.k, r.n_teeth) for r in rows]
    assert key == [
        (m, p, 2.0, n) for m in (2, 3) for p in (1.5, 2.0) for n in (1, 2)
    ]
    assert all(r.report is not None and r.error == "" for r in rows)


def test_sweep_runs_every_cell_on_the_calling_thread(monkeypatch):
    # workers is accepted and ignored: no cell may leave the caller's thread
    threads = []
    run = experiment_module.run_experiment

    def recording(cfg, construction=None, norms=None):
        threads.append(threading.get_ident())
        return run(cfg, construction, norms)

    monkeypatch.setattr(experiment_module, "run_experiment", recording)
    rows = sweep(replace(BASE, k=2.0), [2, 3], [2.0], [2.0], [1, 2], workers=2)
    assert len(rows) == 4 and all(r.error == "" for r in rows)
    assert threads == [threading.get_ident()] * 4


def test_sweep_builds_each_construction_once(monkeypatch, tmp_path):
    # p does not enter the construction, so a 2-p grid builds once per
    # (m, k, n) and its rows equal those of cells built one by one
    built = []
    build = experiment_module.build_construction

    def counting(cfg):
        built.append((cfg.m, cfg.k, cfg.n_teeth))
        return build(cfg)

    monkeypatch.setattr(experiment_module, "build_construction", counting)
    base = replace(BASE, k=2.0)
    grid = dict(ms=[2, 3], ps=[1.5, 2.0], ks=[2.0], ns=[1, 4])
    rows = sweep(base, **grid)
    assert sorted(built) == [(m, 2.0, n) for m in (2, 3) for n in (1, 4)]
    separate = [
        SweepRow(
            r.m, r.p, r.k, r.n_teeth,
            run_experiment(replace(base, m=r.m, p=r.p, n_teeth=r.n_teeth)),
        )
        for r in rows
    ]
    a, b = tmp_path / "grouped.csv", tmp_path / "separate.csv"
    write_csv(rows, str(a))
    write_csv(separate, str(b))
    assert a.read_bytes() == b.read_bytes()
    # each report owns its audit
    assert len({id(r.report.audit) for r in rows}) == len(rows)


def test_sweep_construction_error_fills_every_p_row():
    base = replace(BASE, k=2.0)
    with pytest.raises(Exception) as exc:
        run_experiment(replace(base, k=40.0, n_teeth=2))
    want = f"{type(exc.value).__name__}: {exc.value}"
    rows = sweep(base, [2], [1.5, 2.0, 4.0], [2.0, 40.0], [2])
    assert [(r.p, r.k) for r in rows] == [(p, k) for p in (1.5, 2.0, 4.0) for k in (2.0, 40.0)]
    for row in rows:
        if row.k == 40.0:
            assert row.report is None and row.error == want
        else:
            assert row.report is not None and row.error == ""


def test_sweep_isolates_per_cell_errors():
    # at k=40 the window's corner blends no longer fit between its teeth;
    # only that row may fail
    rows = sweep(replace(BASE, k=2.0), [2], [2.0], [2.0, 40.0], [2])
    ok, bad = rows
    assert ok.report is not None and ok.error == ""
    assert bad.report is None
    assert bad.error.startswith("CubeDoesNotFit:")


def test_sweep_failing_p_leaves_the_rest_of_its_group(monkeypatch, tmp_path):
    # |f|^500 overflows, so the group's shared norms pass raises; each cell
    # then runs its own pass: the p = 2 row keeps the bits of a lone cell
    # and the p = 500 row records the error a lone cell raises
    base = replace(BASE, k=2.0, n_teeth=2)
    with pytest.raises(Exception) as exc:
        run_experiment(replace(base, p=500.0))
    want = f"{type(exc.value).__name__}: {exc.value}"
    alone = SweepRow(2, 2.0, 2.0, 2, run_experiment(replace(base, p=2.0)))
    passes = []
    report = experiment_module.norms_report

    def recording(tf, ps, spec):
        passes.append(ps)
        return report(tf, ps, spec)

    monkeypatch.setattr(experiment_module, "norms_report", recording)
    good, bad = sweep(base, [2], [2.0, 500.0], [2.0], [2])
    assert passes == [(2.0, 500.0), (2.0,), (500.0,)]
    assert bad.report is None and bad.error == want
    assert want.startswith("QuadratureNotConverged:") and "integrand is not finite" in want
    a, b = tmp_path / "group.csv", tmp_path / "alone.csv"
    write_csv([good], str(a))
    write_csv([alone], str(b))
    assert a.read_bytes() == b.read_bytes()


def test_run_experiment_rejects_another_cells_norms():
    # a group hands each cell its own report; one with another p or k fails
    base = replace(BASE, k=2.0, n_teeth=2)
    construction = experiment_module._audited_construction(base)
    norms = run_experiment(base, construction).norms
    assert run_experiment(base, construction, norms).norms is norms
    for cfg in (replace(base, p=4.0), replace(base, k=3.0)):
        with pytest.raises(ValueError, match="norms for p"):
            run_experiment(cfg, construction, norms)


def test_csv_shape_and_round_trip(tmp_path):
    rep = report_cell(2, 2.0, 3.0, 1)
    rows = [
        SweepRow(2, 2.0, 3.0, 1, rep),
        SweepRow(2, 2.0, 13.0, 2, None, "OutOfRange: table too short"),
    ]
    path = tmp_path / "rows.csv"
    write_csv(rows, str(path))
    with open(path, newline="") as fh:
        records = list(csv.DictReader(fh))
    assert list(records[0].keys()) == list(CSV_COLUMNS)
    good = records[0]
    # repr round trip: parsing the text recovers the binary value exactly
    assert float(good["lhs"]) == rep.lhs
    assert float(good["ratio"]) == rep.ratio
    assert float(good["eps_or_delta"]) == rep.window.step
    assert float(good["eta"]) == rep.window.width
    assert float(good["quad_err"]) == rep.norms.quad_err
    assert good["violated"] == "false"
    assert good["audit_pass"] == "true"
    assert good["error"] == ""
    bad = records[1]
    assert bad["error"] == "OutOfRange: table too short"
    assert bad["lhs"] == "" and bad["ratio"] == "" and bad["h"] == ""
    assert (bad["m"], bad["p"], bad["k"], bad["n"]) == ("2", "2.0", "13.0", "2")
