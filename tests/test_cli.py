"""Command line behavior: subcommands, config precedence, exit codes."""

from __future__ import annotations

import csv
import json

import pytest

import czwarp.cli as cli
from czwarp.cli import main
from czwarp.experiment import CSV_COLUMNS, ExperimentConfig, run_experiment
from czwarp.quadrature import BoundAudit
from czwarp.warping import profile_from_json, profile_to_json


def test_build_writes_profile_and_samples(tmp_path):
    prof_path = tmp_path / "prof.json"
    csv_path = tmp_path / "sigma.csv"
    rc = main(
        [
            "build",
            "--m", "2", "--k", "2", "--n", "4",
            "--emit-profile", str(prof_path),
            "--samples-csv", str(csv_path),
            "--samples", "64",
        ]
    )
    assert rc == 0
    doc = json.loads(prof_path.read_text())
    assert doc["m"] == 2
    assert doc["windows"][0]["n_teeth"] == 4
    assert profile_to_json(profile_from_json(doc)) == doc
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,sigma,dsigma,d2sigma"
    assert len(lines) == 65
    last = [float(v) for v in lines[-1].split(",")]
    window = doc["windows"][0]
    assert last[0] == pytest.approx(window["z"] + window["width"] + 1.0, rel=1e-12)


@pytest.mark.parametrize("samples", ["1", "0", "-3"])
def test_build_rejects_fewer_than_two_samples(tmp_path, capsys, samples):
    csv_path = tmp_path / "sigma.csv"
    rc = main(["build", "--samples-csv", str(csv_path), "--samples", samples])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"error: --samples must be at least 2, got {int(samples)!r}\n"
    assert not csv_path.exists()


@pytest.mark.parametrize("t_max", ["-1", "0", "nan", "inf"])
def test_build_rejects_bad_t_max_before_building(tmp_path, capsys, t_max):
    csv_path = tmp_path / "sigma.csv"
    argv = ["build", "--samples-csv", str(csv_path), "--samples", "4", "--t-max", t_max]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --t-max must be finite and positive, got {float(t_max)!r}\n"
    assert not csv_path.exists()


def test_build_prints_profile_to_stdout(capsys):
    assert main(["build", "--m", "3", "--k", "2", "--n", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"m", "cap_coefficients", "windows"}
    assert doc["m"] == 3


def test_audit_reports_every_bound(capsys):
    assert main(["audit", "--m", "2", "--p", "2", "--k", "2", "--n", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.startswith("PASS ") for line in lines[:-1])
    names = {line.split()[1].rstrip(":") for line in lines[:-1]}
    assert {"strip_lower", "green_upper", "u_mass_upper", "laplacian_mass_upper"} <= names
    assert any(name.startswith("tooth_mass_lower") for name in names)
    assert lines[-1] == f"all {len(lines) - 1} bound audits passed"


def test_audit_failure_exits_three(monkeypatch, capsys):
    def broken_chain(tf, p, spec):
        audit = BoundAudit()
        audit.add("fake_bound", 1.0, 0.0, 0.0)
        return audit

    monkeypatch.setattr(cli, "audit_norm_chain", broken_chain)
    rc = main(["audit", "--m", "2", "--p", "2", "--k", "2", "--n", "4"])
    captured = capsys.readouterr()
    assert rc == 3
    assert "FAIL fake_bound" in captured.out
    assert "bound audits failed" in captured.err


def test_norms_json_matches_the_pipeline(capsys):
    assert main(["norms", "--m", "2", "--p", "2", "--k", "2", "--n", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    rep = run_experiment(ExperimentConfig(m=2, p=2.0, k=2.0, n_teeth=4))
    assert doc["norm_u_p_pow"] == rep.norms.norm_u_p_pow
    assert doc["norm_lap_p_pow"] == rep.norms.norm_lap_p_pow
    assert doc["norm_hess_p_pow"] == rep.norms.norm_hess_p_pow
    assert doc["lhs"] == rep.lhs and doc["rhs"] == rep.rhs
    assert doc["ratio"] == rep.ratio
    assert doc["violated"] is rep.violated
    assert doc["audit_pass"] is True
    assert doc["h"] == rep.h
    assert doc["window"]["n_teeth"] == 4
    assert len(doc["audit"]) == len(rep.audit.entries)


def test_norms_writes_file_when_asked(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["norms", "--m", "2", "--p", "2", "--k", "2", "--n", "4", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["n"] == 4


def test_violate_found_writes_trace(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    rc = main(
        [
            "violate",
            "--m", "2", "--p", "2", "--k", "3",
            "--C1", "0.001", "--C2", "0.001",
            "--n-max", "64",
            "--trace-csv", str(trace),
        ]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_star"] == 1
    assert doc["probes"] == 1
    assert doc["ratio"] > 1.0
    with open(trace, newline="") as fh:
        records = list(csv.DictReader(fh))
    assert list(records[0].keys()) == list(CSV_COLUMNS)
    assert len(records) == 1
    assert records[0]["violated"] == "true"
    assert doc["probed"] == [int(r["n"]) for r in records] == [1]


def test_violate_not_found_exits_two(capsys):
    rc = main(["violate", "--m", "2", "--p", "2", "--k", "3", "--n-max", "2"])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["n_star"] is None


def test_too_large_dimension_exits_one(capsys):
    # gamma_m overflows from m = 344: a named error, not a traceback
    assert main(["audit", "--m", "344", "--p", "2", "--k", "3", "--n", "1"]) == 1
    assert capsys.readouterr().err == (
        "error: dimension m = 344 is too large: Gamma(m/2) in gamma_m overflows from m = 344\n"
    )


def test_violate_rejects_bad_ceiling(capsys):
    rc = main(["violate", "--m", "2", "--n-max", "0"])
    assert rc == 1
    assert "n_max" in capsys.readouterr().err


def test_sweep_runs_a_grid(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(
        json.dumps(
            {
                "k": 2.0,
                "grid": {"m": [2, 3], "p": [2.0], "k": [2.0], "n": [1, 2]},
            }
        )
    )
    out = tmp_path / "rows.csv"
    rc = main(["sweep", "--config", str(config), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "wrote 4 rows" in captured.out
    with open(out, newline="") as fh:
        records = list(csv.DictReader(fh))
    assert [(r["m"], r["p"], r["n"]) for r in records] == [
        ("2", "2.0", "1"), ("2", "2.0", "2"), ("3", "2.0", "1"), ("3", "2.0", "2"),
    ]
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(config), "--out", str(out), "--workers", "2"])
    assert exc.value.code == 2


def test_sweep_requires_config_with_grid(tmp_path, capsys):
    assert main(["sweep", "--out", str(tmp_path / "x.csv")]) == 1
    assert "requires --config" in capsys.readouterr().err
    config = tmp_path / "nogrid.json"
    config.write_text(json.dumps({"m": 2}))
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 1
    assert "grid" in capsys.readouterr().err
    config.write_text(json.dumps({"grid": {"m": [2], "p": [2.0], "k": [2.0]}}))
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 1


def test_sweep_rejects_fractional_integer_axis(tmp_path, capsys):
    config = tmp_path / "frac.json"
    config.write_text(
        json.dumps({"grid": {"m": [2.5], "p": [2.0], "k": [2.0], "n": [1]}})
    )
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 1
    assert "integers" in capsys.readouterr().err


_GRID = {"m": [2], "p": [2.0], "k": [2.0], "n": [1]}


def test_unknown_config_key_rejected(tmp_path, capsys):
    config = tmp_path / "typo.json"
    config.write_text(json.dumps({"n_teeth": 4}))
    assert main(["build", "--config", str(config)]) == 1
    assert "n_teeth" in capsys.readouterr().err
    # the blend halfwidth and the quadrature's absolute floor are fixed
    config.write_text(json.dumps({"smooth_halfwidth": None}))
    assert main(["build", "--config", str(config)]) == 1
    assert "unknown config keys: ['smooth_halfwidth']" in capsys.readouterr().err
    config.write_text(json.dumps({"quad": {"abs_tol": 1e-300}}))
    assert main(["build", "--config", str(config)]) == 1
    assert "config key 'quad'" in capsys.readouterr().err
    # sweep runs serially; a worker count is not a config key
    config.write_text(json.dumps({"workers": 2, "grid": _GRID}))
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 1
    assert "unknown config keys: ['workers']" in capsys.readouterr().err
    # the table radius follows from k and the audit sample counts are fixed
    for key, value in (("r_cap", 2e5), ("strip_samples", 2048), ("envelope_samples", 512)):
        config.write_text(json.dumps({key: value}))
        assert main(["build", "--config", str(config)]) == 1
        assert f"unknown config keys: [{key!r}]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,doc",
    [
        ("build", {"m": [2]}),
        ("build", {"quad": {"base_order": "x"}}),
        ("sweep", {"grid": {**_GRID, "p": [None]}}),
        ("sweep", {"grid": {**_GRID, "p": 2.0}}),
        ("build", {"m": 2.7}),
        ("build", {"n": "4"}),
        ("build", {"n": True}),
        ("build", {"quad": {"base_order": 8.5}}),
    ],
    ids=[
        "list-m",
        "string-quad-order",
        "null-grid-value",
        "scalar-grid-axis",
        "fractional-m",
        "string-n",
        "bool-n",
        "fractional-quad-order",
    ],
)
def test_wrongly_typed_config_value_exits_one(tmp_path, capsys, command, doc):
    config = tmp_path / "typed.json"
    config.write_text(json.dumps(doc))
    argv = [command, "--config", str(config)]
    if command == "sweep":
        argv += ["--out", str(tmp_path / "x.csv")]
    assert main(argv) == 1
    assert "must" in capsys.readouterr().err


def test_defaults_come_from_the_library():
    # only the fields ExperimentConfig requires get a value from the CLI
    args = cli._build_parser().parse_args(["norms"])
    assert cli._experiment_config(args, {}) == ExperimentConfig(m=2, p=2.0, k=3.0, n_teeth=1)


@pytest.mark.parametrize(
    "flag",
    ["--smooth-halfwidth", "--quad-abs-tol", "--r-cap", "--strip-samples", "--envelope-samples"],
)
def test_removed_flags_exit_two(flag):
    # 2 is a valid value for every one of these flags while it existed
    with pytest.raises(SystemExit) as exc:
        main(["norms", flag, "2"])
    assert exc.value.code == 2


def test_flags_override_config_file(tmp_path, capsys):
    config = tmp_path / "one.json"
    config.write_text(json.dumps({"m": 3, "k": 2.0, "n": 8}))
    assert main(["build", "--config", str(config), "--n", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m"] == 3
    assert doc["windows"][0]["n_teeth"] == 2


def test_invalid_exponent_exits_one(capsys):
    assert main(["norms", "--m", "2", "--p", "0.5", "--k", "2", "--n", "2"]) == 1
    assert "error:" in capsys.readouterr().err


def test_non_finite_constant_exits_one(capsys):
    assert main(["norms", "--m", "2", "--p", "2", "--k", "2", "--n", "2", "--C1", "nan"]) == 1
    assert "finite" in capsys.readouterr().err


def test_huge_level_exits_one(capsys):
    # the table radius 2.2 e^(k + 1.05) overflows here, and the config
    # rejects the level before anything is built
    for k in ("1e6", "inf"):
        assert main(["norms", "--m", "2", "--p", "2", "--k", k, "--n", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: level k") and "Traceback" not in err


def test_high_level_runs_until_the_cube_does_not_fit(capsys):
    # the table radius follows k with no cap, so k = 12 builds and passes
    # every audit; at k = 40 the corner blends no longer fit between teeth
    assert main(["norms", "--m", "2", "--p", "2", "--k", "12", "--n", "8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["audit_pass"] is True
    assert all(entry["passed"] for entry in doc["audit"])
    assert main(["norms", "--m", "2", "--p", "2", "--k", "40", "--n", "2"]) == 1
    assert capsys.readouterr().err.startswith("error: CubeDoesNotFit: ")


@pytest.mark.parametrize("m,k,n", [("6", "14.5", "1"), ("4", "11.0", "4096")])
def test_green_table_that_stops_rising_exits_one(capsys, m: str, k: str, n: str):
    assert main(["audit", "--m", m, "--p", "2", "--k", k, "--n", n]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: GreenTableNotIncreasing: Green table is not strictly increasing")


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize(
    "argv",
    [
        ["norms", "--n", "2"],
        ["violate", "--n-max", "2"],
    ],
    ids=["norms", "violate"],
)
def test_infinite_ratio_is_json_null(capsys, argv):
    # C1 = C2 = 0 makes rhs 0 and lhs / rhs infinite
    flags = ["--m", "2", "--p", "2", "--k", "2", "--C1", "0", "--C2", "0"]
    assert main(argv[:1] + flags + argv[1:]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert doc["ratio"] is None
    assert doc["lhs"] > 0.0 and doc["rhs"] == 0.0


def test_quadrature_blowup_exits_four(capsys):
    rc = main(
        [
            "norms",
            "--m", "2", "--p", "2", "--k", "2", "--n", "4",
            "--quad-rel-tol", "1e-15", "--quad-max-depth", "2",
        ]
    )
    assert rc == 4
    assert "did not converge" in capsys.readouterr().err


def test_overflowing_integrand_exits_four(capsys):
    # the tooth-mass floor's blend integrand |sigma'/scale|^5000 overflows a
    # float (|sigma'| reaches 1.36 times the largest tooth slope on a blend):
    # the audit names the panel at once, and numpy's overflow warnings stay
    # off stderr
    rc = main(["audit", "--m", "2", "--p", "5000", "--k", "3", "--n", "4"])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert "did not converge" in err and "integrand is not finite" in err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
