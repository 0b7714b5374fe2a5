"""Experiment pipeline: one configuration, minimal-n search, grids, CSV rows.

run_experiment builds the manifold for one (m, p, k, n) cell, re-verifies the
window placement on the final profile, runs the strip and envelope audits, and
compares the inequality sides.  search_min_n doubles the tooth count until the
Hessian side wins, then closes the bracket around the crossing with probes
placed by the ratio's linear law in n^p (lhs ~ A + B n^p, rhs ~ constant) and
certified at n* - 1 and n*.  sweep runs a grid of cells one after another,
builds, audits and integrates each construction once for all the p that share
it, and assembles rows in grid order so the CSV is reproducible byte for byte.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .green import DELTA_UNIVERSAL, GreenFunction, WindowTooNarrow, audit_green_bounds, find_h
from .norms import CutoffFunction, NormsReport, TestFunction, _validate_p, norms_report
from .quadrature import BoundAudit, QuadratureSpec
from .warping import (
    ManifoldConfig,
    SawtoothWindow,
    audit_strip,
    build_base_profile,
    insert_sawtooth,
    plan_window,
)

__all__ = [
    "AuditFailed",
    "ExperimentConfig",
    "CZReport",
    "build_construction",
    "run_experiment",
    "search_min_n",
    "SweepRow",
    "sweep",
    "CSV_COLUMNS",
    "write_csv",
]

# slack for re-verifying the window bracket on the final profile; the entry
# connector only lowers sigma, so G(z) >= k + delta holds with strict sign
# and the slack absorbs table roundoff alone
BRACKET_SLACK = 1e-9

# probes the minimal-n bracket search may spend beyond what plain bisection
# of the same bracket needs, however wrong its model of the ratio is
SPARE_PROBES = 4


class AuditFailed(RuntimeError):
    """A bound audit reported a violation (used for CLI exit-code mapping)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One cell of the experiment grid."""

    m: int
    p: float
    k: float
    n_teeth: int
    C1: float = 1.0
    C2: float = 1.0
    quad: QuadratureSpec = QuadratureSpec(base_order=8, rel_tol=1e-8)
    # audit sample counts: constants, not fields; perfbench/workloads.py
    # still reads them as cfg.strip_samples and cfg.envelope_samples
    strip_samples: ClassVar[int] = 2048
    envelope_samples: ClassVar[int] = 512

    def __post_init__(self):
        # bool is a subclass of int, and numpy's bool compares like one: True
        # would pass the checks below as 1
        for name in ("m", "k", "n_teeth", "C1", "C2"):
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a number, not {getattr(self, name)!r}")
        if not isinstance(self.m, int) or self.m < 2:
            raise ValueError("dimension m must be an integer >= 2")
        _validate_p(self.p)
        if not self.k >= 1.0:
            raise ValueError("level k must be >= 1")
        if not math.isfinite(_table_r_max(self.k)):
            raise ValueError(
                f"level k = {self.k!r} is too large: the Green table radius "
                "2.2 e^(k + 1.05) overflows"
            )
        if not isinstance(self.n_teeth, int) or self.n_teeth < 1:
            raise ValueError("n_teeth must be an integer >= 1")
        if not (0.0 <= self.C1 < math.inf and 0.0 <= self.C2 < math.inf):
            raise ValueError("C1 and C2 must be finite and nonnegative")


@dataclass(frozen=True)
class CZReport:
    """Inequality sides and audit verdict for one configuration."""

    config: ExperimentConfig
    h: float
    window: SawtoothWindow
    norms: NormsReport
    lhs: float
    rhs: float
    ratio: float
    violated: bool
    audit: BoundAudit


def _table_r_max(k: float) -> float:
    """Radius of the Green table that level k needs; inf where it overflows."""
    # Ginv(k+1) <= 2 e^(k+1) - 1 for in-strip profiles; the 2.2 e^(k+1.05)
    # headroom keeps s_max past k+1 with room for find_h's right-end check.
    # No cap is needed: plan_window raises CubeDoesNotFit from k of about 25
    # (m = 2) or 13 (m = 4) on, and the radius overflows only near k = 708
    try:
        return 2.2 * math.exp(k + 1.05)
    except OverflowError:
        return math.inf


def build_construction(
    cfg: ExperimentConfig,
) -> tuple[float, SawtoothWindow, GreenFunction, float]:
    """Base profile, anchored window, final profile with its Green table.

    The sawtooth shifts G slightly, so the window bracket is re-checked on
    the final profile: [z, z + width] must map into the plateau image
    [k + delta, k + 1 - delta] before anything downstream is trusted.
    """
    manifold = ManifoldConfig.from_dimension(cfg.m)
    base = build_base_profile(manifold)
    r_max = _table_r_max(cfg.k)
    h = find_h(GreenFunction(base, r_max=r_max), cfg.k)
    window = plan_window(manifold, h, cfg.n_teeth)
    profile = insert_sawtooth(base, window)
    green = GreenFunction(profile, r_max=r_max)

    delta = DELTA_UNIVERSAL
    left = green.value(window.z)
    right = green.value(window.z + window.width)
    if left < cfg.k + delta - BRACKET_SLACK or right > cfg.k + 1.0 - delta + BRACKET_SLACK:
        raise WindowTooNarrow(
            f"window maps to [{left!r}, {right!r}] outside the plateau image "
            f"[{cfg.k + delta!r}, {cfg.k + 1.0 - delta!r}]"
        )
    return h, window, green, r_max


Construction = tuple[tuple[float, SawtoothWindow, GreenFunction, float], BoundAudit]


def _audited_construction(cfg: ExperimentConfig) -> Construction:
    """build_construction's result with its strip and envelope audits.

    Neither depends on p, C1, C2 or quad, so cells that differ only in
    those can share it.
    """
    built = build_construction(cfg)
    _, _, green, r_max = built
    audit = BoundAudit()
    audit.extend(audit_strip(green.profile, 1.0, r_max, samples=cfg.strip_samples))
    audit.extend(audit_green_bounds(green, samples=cfg.envelope_samples))
    return built, audit


def run_experiment(
    cfg: ExperimentConfig,
    construction: Construction | None = None,
    norms: NormsReport | None = None,
) -> CZReport:
    """Build, audit and measure one configuration.

    construction, if given, is an audited construction of a cell that
    differs from cfg at most in p, C1, C2 or quad; it is used instead of a
    fresh build, and the report gets its own copy of the audit.  norms, if
    given, is used instead of a norms pass on it; its p and k must be cfg's.

    Audit failures do not raise: the report comes back flagged with
    violated forced to False so a broken construction can never claim a
    counterexample.
    """
    if norms is not None and (norms.p != cfg.p or norms.k != cfg.k):
        raise ValueError(f"norms for p = {norms.p!r}, k = {norms.k!r} given to cell {cfg!r}")
    (h, window, green, _), shared = construction or _audited_construction(cfg)
    audit = BoundAudit(list(shared.entries))
    if norms is None:
        (norms,) = norms_report(TestFunction(cfg.k, CutoffFunction(), green), (cfg.p,), cfg.quad)
    lhs = norms.norm_hess_p_pow
    rhs = cfg.C1 * norms.norm_lap_p_pow + cfg.C2 * norms.norm_u_p_pow
    ratio = lhs / rhs if rhs > 0.0 else math.inf
    violated = bool(lhs > rhs) and audit.overall_pass
    return CZReport(
        config=cfg,
        h=h,
        window=window,
        norms=norms,
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        violated=violated,
        audit=audit,
    )


def _predict_crossing(lo: int, hi: int, r_lo: float, r_hi: float, p: float) -> int | None:
    """Smallest n the bracket ends call violated, with the ratio linear in n^p.

    None unless r_lo <= 1 < r_hi with r_hi finite, the only case in which
    the ends fit the model.  Works in x = (n / hi)^p so that hi^p cannot
    overflow at large p.
    """
    if not r_lo <= 1.0 < r_hi < math.inf:
        return None
    x_lo = (lo / hi) ** p
    x = x_lo + (1.0 - r_lo) / (r_hi - r_lo) * (1.0 - x_lo)
    return math.ceil(hi * x ** (1.0 / p))


def search_min_n(
    cfg: ExperimentConfig, n_max: int
) -> tuple[int | None, list[CZReport]]:
    """Smallest tooth count violating the inequality, or None up to n_max.

    Doubling scan from n = 1, then a bracket search between the last clean
    probe and the first violating one.  The bracket is refined only if the
    doubling trace was strictly increasing from n = 32 on (below that the
    cutoff-ramp mass dominates and the ratio wobbles at the 1e-5 level);
    otherwise the first scan hit is returned unrefined.

    Inside the bracket the u and Laplacian masses barely move while the
    Hessian mass is A + B n^p, so the ratio is close to linear in n^p.  A
    guided step interpolates the crossing from the bracket ends and probes
    its ceiling, then interpolates again from the bracket that probe left
    and probes the other side of the crossing: the ceiling after a clean
    probe, one below it after a violated one.  When the model is exact that
    second probe is the first one's neighbour and certifies n* - 1 and n*;
    when the model is a fraction of a tooth off, the second interpolation,
    made next to the crossing, corrects it.  The model is used only while
    the clean end's ratio is at most 1 and the violated end's is finite (a
    failed audit can leave a clean probe with ratio above 1); otherwise the
    step probes the midpoint.  Guided steps stop once bisection could no
    longer finish within SPARE_PROBES of its own count for the starting
    bracket, ceil(log2(hi - lo)), so a wrong model costs at most that many
    extra probes.  The loop ends with adjacent probed ends, so whenever
    `violated` is monotone on the bracket the result equals plain
    bisection's.  cfg.n_teeth is ignored by the search.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    trace: list[CZReport] = []
    schedule = []
    n = 1
    while n <= n_max:
        schedule.append(n)
        n *= 2
    if schedule[-1] != n_max:
        schedule.append(n_max)

    first_hit = None
    prev_clean = 0
    for n in schedule:
        report = run_experiment(replace(cfg, n_teeth=n))
        trace.append(report)
        if report.violated:
            first_hit = n
            break
        prev_clean = n
    if first_hit is None:
        return None, trace

    tail = [r.ratio for r, n in zip(trace, schedule) if n >= 32]
    monotone = all(a < b for a, b in zip(tail, tail[1:]))
    if not monotone:
        return first_hit, trace

    lo, hi = prev_clean, first_hit
    r_lo, r_hi = (trace[-2].ratio if lo else math.nan), trace[-1].ratio

    def probe(n: int) -> bool:
        nonlocal lo, hi, r_lo, r_hi
        report = run_experiment(replace(cfg, n_teeth=n))
        trace.append(report)
        if report.violated:
            hi, r_hi = n, report.ratio
        else:
            lo, r_lo = n, report.ratio
        return report.violated

    def inside(n: int) -> int:
        return min(max(n, lo + 1), hi - 1)

    # bisection closes a bracket of width w in (w - 1).bit_length() probes;
    # a guided step (at most two probes) is taken only while bisection from
    # whatever bracket it leaves would still finish within the budget
    budget = len(trace) + (hi - lo - 1).bit_length() + SPARE_PROBES
    while hi - lo > 1:
        guided = len(trace) + 2 + (hi - lo - 1).bit_length() <= budget
        n = _predict_crossing(lo, hi, r_lo, r_hi, cfg.p) if guided else None
        if n is None:
            probe((lo + hi) // 2)
            continue
        violated = probe(inside(n))
        n = _predict_crossing(lo, hi, r_lo, r_hi, cfg.p) if hi - lo > 1 else None
        if n is not None:
            # the other side of the crossing, re-predicted from the new end;
            # under an exact model this is the first probe's neighbour
            probe(inside(n - 1 if violated else n))
    return hi, trace


@dataclass(frozen=True)
class SweepRow:
    """One grid cell: either a report or a recorded error."""

    m: int
    p: float
    k: float
    n_teeth: int
    report: CZReport | None
    error: str = ""


def _error_row(cfg: ExperimentConfig, exc: Exception) -> SweepRow:
    return SweepRow(cfg.m, cfg.p, cfg.k, cfg.n_teeth, None, f"{type(exc).__name__}: {exc}")


def _run_group(cfgs: list[ExperimentConfig]) -> list[SweepRow]:
    """Cells sharing (m, k, n): one audited build and one norms pass for all p."""
    try:
        construction = _audited_construction(cfgs[0])
    except Exception as exc:
        return [_error_row(cfg, exc) for cfg in cfgs]
    try:
        tf = TestFunction(cfgs[0].k, CutoffFunction(), construction[0][2])
        reports = norms_report(tf, tuple(cfg.p for cfg in cfgs), cfgs[0].quad)
    except Exception:  # each cell reruns its own: same bits, its own error row
        reports = [None] * len(cfgs)
    rows = []
    for cfg, norms in zip(cfgs, reports):
        try:
            report = run_experiment(cfg, construction=construction, norms=norms)
            rows.append(SweepRow(cfg.m, cfg.p, cfg.k, cfg.n_teeth, report))
        except Exception as exc:
            rows.append(_error_row(cfg, exc))
    return rows


def sweep(
    base: ExperimentConfig,
    ms: list[int],
    ps: list[float],
    ks: list[float],
    ns: list[int],
    workers: int = 1,
) -> list[SweepRow]:
    """Run every (m, p, k, n) cell on the calling thread; rows follow grid order.

    Cells that differ only in p share one audited construction and one
    norms pass: each (m, k, n) group is built and measured once for all p.

    workers does nothing.  The cells are small NumPy calls that hold the
    interpreter lock, so a second thread only slowed the sweep down.  The
    parameter is kept because the perfbench sweep workload still passes
    it; it goes in the first benchmark change that stops passing it.
    """
    if not (ms and ps and ks and ns):
        raise ValueError("sweep grid must be nonempty on every axis")
    cells = [
        replace(base, m=m, p=p, k=k, n_teeth=n)
        for m in ms
        for p in ps
        for k in ks
        for n in ns
    ]
    groups: dict[tuple[int, float, int], list[int]] = {}
    for i, cfg in enumerate(cells):
        groups.setdefault((cfg.m, cfg.k, cfg.n_teeth), []).append(i)
    rows: list[SweepRow] = [None] * len(cells)
    for idx in groups.values():
        for i, row in zip(idx, _run_group([cells[i] for i in idx])):
            rows[i] = row
    return rows


CSV_COLUMNS = (
    "m",
    "p",
    "k",
    "n",
    "eps_or_delta",
    "h",
    "eta",
    "norm_u_p_pow",
    "norm_lap_p_pow",
    "norm_hess_p_pow",
    "lhs",
    "rhs",
    "ratio",
    "violated",
    "audit_pass",
    "quad_err",
    "error",
)


def _row_dict(row: SweepRow) -> dict[str, str]:
    out = {
        "m": repr(row.m),
        "p": repr(row.p),
        "k": repr(row.k),
        "n": repr(row.n_teeth),
        "error": row.error,
    }
    if row.report is None:
        out.update({c: "" for c in CSV_COLUMNS if c not in out})
        return out
    rep = row.report
    out.update(
        {
            "eps_or_delta": repr(rep.window.step),
            "h": repr(rep.h),
            "eta": repr(rep.window.width),
            "norm_u_p_pow": repr(rep.norms.norm_u_p_pow),
            "norm_lap_p_pow": repr(rep.norms.norm_lap_p_pow),
            "norm_hess_p_pow": repr(rep.norms.norm_hess_p_pow),
            "lhs": repr(rep.lhs),
            "rhs": repr(rep.rhs),
            "ratio": repr(rep.ratio),
            "violated": "true" if rep.violated else "false",
            "audit_pass": "true" if rep.audit.overall_pass else "false",
            "quad_err": repr(rep.norms.quad_err),
        }
    )
    return out


def write_csv(rows: list[SweepRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(_row_dict(row))
