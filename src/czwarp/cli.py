"""Command line front end.

Subcommands: build (emit profile JSON and a sampled sigma CSV), audit
(bound audits only), norms (one full report as JSON), violate (minimal
tooth-count search), sweep (parameter grid to CSV).  Options may come
from a JSON config file; command line flags override file fields.

Exit codes: 0 success (for violate: violation found), 2 violate found
nothing up to n-max, 3 a bound audit failed, 4 quadrature did not
converge, 1 invalid configuration or construction failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from .experiment import (
    AuditFailed,
    CZReport,
    ExperimentConfig,
    SweepRow,
    _audited_construction,
    build_construction,
    run_experiment,
    search_min_n,
    sweep,
    write_csv,
)
from .norms import CutoffFunction, TestFunction, audit_norm_chain
from .quadrature import BoundAudit, QuadratureNotConverged, QuadratureSpec
from .warping import profile_to_json

__all__ = ["main"]

# scalar config keys, each read from the flag of the same name or the
# config file: (ExperimentConfig field, type)
_SCALARS = {
    "m": ("m", int),
    "p": ("p", float),
    "k": ("k", float),
    "n": ("n_teeth", int),
    "C1": ("C1", float),
    "C2": ("C2", float),
    "r_cap": ("r_cap", float),
    "strip_samples": ("strip_samples", int),
    "envelope_samples": ("envelope_samples", int),
}
# values for the fields ExperimentConfig requires; every other value that
# neither a flag nor the file gives is ExperimentConfig's own default
_REQUIRED = {"m": 2, "p": 2.0, "k": 3.0, "n": 1}
# quad keys: (QuadratureSpec field, flag, type)
_QUAD = (
    ("base_order", "quad_order", int),
    ("rel_tol", "quad_rel_tol", float),
    ("max_depth", "quad_max_depth", int),
)
# JSON config keys accepted at the top level; anything else is a typo
_CONFIG_KEYS = {*_SCALARS, "quad", "grid"}
_QUAD_KEYS = {key for key, _, _ in _QUAD}
_GRID_KEYS = {"m", "p", "k", "n"}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must contain a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    quad = data.get("quad", {})
    if not isinstance(quad, dict) or set(quad) - _QUAD_KEYS:
        raise ValueError(f"config key 'quad' must be an object with keys in {sorted(_QUAD_KEYS)}")
    return data


def _cast(kind, what: str, value):
    """value as kind (int or float); a JSON bool, string, list, object, or a
    fractional value where kind is int, is reported as invalid."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, not {value!r}")
    if kind is int and not (isinstance(value, int) or value.is_integer()):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return kind(value)


def _given(args: argparse.Namespace, flag: str, data: dict, key: str):
    """The flag's value, else the file's, else None (a JSON null counts as absent)."""
    value = getattr(args, flag)
    return data.get(key) if value is None else value


def _quad_spec(args: argparse.Namespace, data: dict) -> QuadratureSpec:
    quad = data.get("quad", {})
    fields = {}
    for key, flag, kind in _QUAD:
        value = _given(args, flag, quad, key)
        if value is not None:
            fields[key] = _cast(kind, f"config key 'quad.{key}'", value)
    return replace(ExperimentConfig.quad, **fields)


def _experiment_config(args: argparse.Namespace, data: dict) -> ExperimentConfig:
    fields = {}
    for key, (name, kind) in _SCALARS.items():
        value = _given(args, key, data, key)
        if value is None:
            value = _REQUIRED.get(key)
        if value is not None:
            fields[name] = _cast(kind, f"config key {key!r}", value)
    return ExperimentConfig(**fields, quad=_quad_spec(args, data))


def _report_doc(report: CZReport) -> dict:
    cfg = report.config
    win = report.window
    return {
        "m": cfg.m,
        "p": cfg.p,
        "k": cfg.k,
        "n": cfg.n_teeth,
        "C1": cfg.C1,
        "C2": cfg.C2,
        "h": report.h,
        "window": {
            "z": win.z,
            "width": win.width,
            "n_teeth": win.n_teeth,
            "step": win.step,
            "amplitude": win.amplitude,
            "base": win.base,
            "smooth_halfwidth": win.smooth_halfwidth,
        },
        "norm_u_p_pow": report.norms.norm_u_p_pow,
        "norm_lap_p_pow": report.norms.norm_lap_p_pow,
        "norm_hess_p_pow": report.norms.norm_hess_p_pow,
        "quad_err": report.norms.quad_err,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "ratio": _json_ratio(report.ratio),
        "violated": report.violated,
        "audit_pass": report.audit.overall_pass,
        "audit": [
            {
                "name": e.name,
                "worst_violation": e.worst_violation,
                "location": e.location,
                "passed": e.passed,
            }
            for e in report.audit.entries
        ],
    }


def _json_ratio(ratio: float) -> float | None:
    """lhs / rhs for a JSON document: null when rhs is 0 and the ratio is infinite."""
    return ratio if math.isfinite(ratio) else None


def _emit_json(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _print_audit(audit: BoundAudit) -> None:
    for entry in audit.entries:
        status = "PASS" if entry.passed else "FAIL"
        print(
            f"{status} {entry.name}: worst_violation={entry.worst_violation!r} "
            f"at={entry.location!r}"
        )


def _cmd_build(args: argparse.Namespace) -> int:
    if args.samples < 2:
        raise ValueError(f"--samples must be at least 2, got {args.samples!r}")
    cfg = _experiment_config(args, _load_config(args.config))
    _, window, green, _ = build_construction(cfg)
    profile = green.profile
    _emit_json(profile_to_json(profile), args.emit_profile)
    if args.samples_csv is not None:
        t_max = args.t_max if args.t_max is not None else window.z + window.width + 1.0
        if not t_max > 0.0:
            raise ValueError("--t-max must be positive")
        t = np.linspace(0.0, t_max, args.samples)
        sigma, dsigma, d2sigma = profile.eval_many(t)
        with open(args.samples_csv, "w") as fh:
            fh.write("t,sigma,dsigma,d2sigma\n")
            for row in zip(t, sigma, dsigma, d2sigma):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    cfg = _experiment_config(args, _load_config(args.config))
    (_, _, green, _), audit = _audited_construction(cfg)
    tf = TestFunction(cfg.k, CutoffFunction(), green)
    audit.extend(audit_norm_chain(tf, cfg.p, cfg.quad))
    _print_audit(audit)
    if not audit.overall_pass:
        raise AuditFailed(
            f"{len(audit.failures())} of {len(audit.entries)} bound audits failed"
        )
    print(f"all {len(audit.entries)} bound audits passed")
    return 0


def _cmd_norms(args: argparse.Namespace) -> int:
    cfg = _experiment_config(args, _load_config(args.config))
    report = run_experiment(cfg)
    _emit_json(_report_doc(report), args.out)
    if not report.audit.overall_pass:
        raise AuditFailed(
            f"{len(report.audit.failures())} of {len(report.audit.entries)} "
            "bound audits failed"
        )
    return 0


def _cmd_violate(args: argparse.Namespace) -> int:
    cfg = _experiment_config(args, _load_config(args.config))
    n_star, trace = search_min_n(cfg, args.n_max)
    if args.trace_csv is not None:
        rows = [
            SweepRow(r.config.m, r.config.p, r.config.k, r.config.n_teeth, r)
            for r in trace
        ]
        write_csv(rows, args.trace_csv)
    doc = {
        "m": cfg.m,
        "p": cfg.p,
        "k": cfg.k,
        "C1": cfg.C1,
        "C2": cfg.C2,
        "n_max": args.n_max,
        "probes": len(trace),
        "probed": [r.config.n_teeth for r in trace],
        "n_star": n_star,
    }
    if n_star is not None:
        hit = next(r for r in reversed(trace) if r.config.n_teeth == n_star)
        doc.update(lhs=hit.lhs, rhs=hit.rhs, ratio=_json_ratio(hit.ratio))
    _emit_json(doc, None)
    return 0 if n_star is not None else 2


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.config is None:
        raise ValueError("sweep requires --config with a 'grid' object")
    data = _load_config(args.config)
    grid = data.get("grid")
    if not isinstance(grid, dict) or set(grid) != _GRID_KEYS:
        raise ValueError(f"config key 'grid' must be an object with keys {sorted(_GRID_KEYS)}")

    def axis(name: str) -> list[float]:
        values = grid[name]
        if not isinstance(values, list):
            raise ValueError(f"grid axis '{name}' must be a list")
        return [_cast(float, f"grid axis '{name}' entry", v) for v in values]

    def int_axis(name: str) -> list[int]:
        values = axis(name)
        if not all(v.is_integer() for v in values):
            raise ValueError(f"grid axis '{name}' must hold integers")
        return [int(v) for v in values]

    base = _experiment_config(args, data)
    rows = sweep(base, int_axis("m"), axis("p"), axis("k"), int_axis("n"))
    write_csv(rows, args.out)
    violated = sum(1 for r in rows if r.report is not None and r.report.violated)
    errors = sum(1 for r in rows if r.error)
    print(f"wrote {len(rows)} rows to {args.out} (violated={violated}, errors={errors})")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its fields")
    parser.add_argument("--m", type=int, help=f"dimension (default {_REQUIRED['m']})")
    parser.add_argument(
        "--p", type=float, help=f"Lebesgue exponent in (1, inf) (default {_REQUIRED['p']})"
    )
    parser.add_argument("--k", type=float, help=f"window level (default {_REQUIRED['k']})")
    parser.add_argument("--n", type=int, help=f"tooth count (default {_REQUIRED['n']})")
    parser.add_argument("--C1", type=float, help="Laplacian-side constant")
    parser.add_argument("--C2", type=float, help="function-side constant")
    parser.add_argument("--r-cap", type=float, help="hard cap on the tabulated radius")
    parser.add_argument("--strip-samples", type=int, help="strip audit sample count")
    parser.add_argument("--envelope-samples", type=int, help="envelope audit sample count")
    parser.add_argument("--quad-order", type=int, help="Gauss-Legendre panel order")
    parser.add_argument("--quad-rel-tol", type=float, help="quadrature relative tolerance")
    parser.add_argument("--quad-max-depth", type=int, help="quadrature bisection depth limit")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="czwarp",
        description="Warped-product counterexamples to the L^p Hessian-Laplacian bound",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="construct a profile; emit JSON and sampled sigma")
    _add_common(build)
    build.add_argument("--emit-profile", help="write profile JSON here instead of stdout")
    build.add_argument("--samples-csv", help="write t,sigma,dsigma,d2sigma samples here")
    build.add_argument(
        "--samples", type=int, default=2048, help="sample count, at least 2 (default 2048)"
    )
    build.add_argument("--t-max", type=float, help="sample grid end (default: window end + 1)")
    build.set_defaults(func=_cmd_build)

    audit = sub.add_parser("audit", help="run bound audits only; exit 3 on any failure")
    _add_common(audit)
    audit.set_defaults(func=_cmd_audit)

    norms = sub.add_parser("norms", help="run one configuration; print the report as JSON")
    _add_common(norms)
    norms.add_argument("--out", help="write the JSON report here instead of stdout")
    norms.set_defaults(func=_cmd_norms)

    violate = sub.add_parser(
        "violate", help="search the minimal tooth count violating the bound"
    )
    _add_common(violate)
    violate.add_argument(
        "--n-max", type=int, default=2**15, help="search ceiling (default 32768)"
    )
    violate.add_argument("--trace-csv", help="write every probed configuration here")
    violate.set_defaults(func=_cmd_violate)

    swp = sub.add_parser("sweep", help="run a parameter grid and write a CSV table")
    _add_common(swp)
    swp.add_argument("--out", required=True, help="output CSV path")
    swp.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except QuadratureNotConverged as exc:
        print(f"error: quadrature did not converge: {exc}", file=sys.stderr)
        return 4
    except AuditFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
