"""czwarp benchmark: one workload per run, timed passes, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload search|cell|sweep|all \
        [--seed N] [--seconds S] [--trace 0|1]

The run first starts a few fresh interpreters that only set up (import
czwarp and run one n = 1 warm-up cell) to sample set-up time, then sets up
itself and repeats the workload's pass while another pass still fits in
--seconds (at least one pass).  Outputs are checked after the timed passes.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  ``--workload all`` runs each workload in
its own process and prints each one's lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("search", "cell", "sweep")
# fresh interpreters started only to sample set-up time; the run's own
# set-up is one more sample
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170


def set_up() -> float:
    """Import czwarp and run one n = 1 cell; seconds taken."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import czwarp

    czwarp.run_experiment(czwarp.ExperimentConfig(m=2, p=2.0, k=3.0, n_teeth=1))
    return time.perf_counter() - start


def sample_setups() -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-only"],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "czwarp").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "source_sha256": src.hexdigest(),
    }


def timed_passes(workload, tracer, seconds: float, scratch: str):
    """Repeat the pass while another one still fits in the time left."""
    outputs, spans, walls, cpus = [], [], [], []
    start = time.perf_counter()
    while True:
        tracer.begin_pass()
        c0 = time.process_time()
        t0 = time.perf_counter()
        outputs.append(workload.run(scratch))
        t1 = time.perf_counter()
        cpus.append(time.process_time() - c0)
        walls.append(t1 - t0)
        spans.append(tracer.end_pass())
        if (t1 - start) + (t1 - t0) > seconds:
            return outputs, spans, walls, cpus


def missed_rebinds(names, passes, idle) -> list[str]:
    fired = [{s.name for s in spans} for spans in passes]
    return [n for n in names if n not in idle and any(n not in f for f in fired)]


def run_workload(args) -> int:
    setups = [] if args.trace else sample_setups()
    setups.append(set_up())

    import tracing
    from workloads import Checks, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        names = tracer.install(layers=False)
        if args.trace:
            # one pass with the end-to-end timers only, to price the tracing
            _, _, untraced, _ = timed_passes(workload, tracer, 0.0, scratch)
            tracer.uninstall()
            names = tracer.install(layers=True)
        try:
            outputs, passes, walls, cpus = timed_passes(workload, tracer, args.seconds, scratch)
        finally:
            tracer.uninstall()
        missed = missed_rebinds(names, passes, workload.idle)
        if missed:
            print(f"error: no calls recorded for {missed}; a rebind was missed", file=sys.stderr)
            return 1
        checks = Checks()
        workload.check(outputs, checks)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        per_pass = [
            tracing.layer_metrics(spans, cpu, wall)
            for spans, cpu, wall in zip(passes, cpus, walls)
        ]
        metrics = {k: statistics.median_low(p[k] for p in per_pass) for k in per_pass[0]}
        metrics["trace.overhead_s"] = statistics.median(walls) - untraced[0]
        tracing.write_spans(str(OUT / f"spans-{tag}.csv"), passes)
    else:
        e2e = tracing.e2e_from_passes(passes)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "norms_s": e2e["norms_s"],
            "audit_s": e2e["audit_s"],
            "cell_p50_s": e2e["cell_p50_s"],
            "cell_p90_s": e2e["cell_p90_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    failed = len(checks.failures)
    env = environment()
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(walls),
        "pass_walls_s": walls,
        "setup_samples_s": setups,
        "fail_frac": failed / checks.attempted,
        "failures": checks.failures,
        "environment": env,
    }
    if not args.trace:
        detail["cell_samples"] = e2e["cells"]
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump({**detail, "metrics": metrics}, fh, indent=1)

    for what in checks.failures:
        print(f"FAILED {what}")
    print(
        f"{args.workload} seed={args.seed} trace={args.trace} passes={len(walls)} "
        f"fail_frac={failed}/{checks.attempted} env={json.dumps(env)}"
    )
    result = {}
    for key, value in metrics.items():
        unit = units[key]
        print(f"  {key} = {value!r} {unit}")
        result[key] = {"value": value, "unit": unit}
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": checks.attempted, "failed": failed, "metrics": result}
        )
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "czwarp" / "__init__.py").is_file():
        print(f"error: no czwarp sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(set_up())
        return 0
    if args.workload != "all":
        return run_workload(args)
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
