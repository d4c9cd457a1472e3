"""spde-pv benchmark: end-to-end metrics per workload, or a traced per-layer breakdown.

    python3 perfbench/run.py --workload converge_main --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1       # every workload, one table

Run from the root of a checkout; the package is imported from ./src.  Every timed
repetition is a fresh worker process (perfbench/worker.py), single-threaded with BLAS
pinned to BLAS_THREADS, so each one pays the same import and cold caches as a CLI
invocation.  Repetitions continue while the next one fits in --seconds (at least one).

--trace 0 reports setup_s, run_s, replicates_per_s and peak_rss_mb as medians over the
repetitions; setup_s takes at least SETUP_SAMPLES fresh processes.  --trace 1
alternates untraced and traced repetitions and reports the per-layer metrics of the
traced ones plus trace.overhead_frac.  Correctness checks run on every repetition,
and every repetition of one seed must produce the same outputs.  The last stdout line
is {"correct", "attempted", "failed", "metrics"}; scratch files, traces and a run
record (library versions, thread counts) go to ./.perfbench_out.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("converge_main", "holder_trio", "functional_sub")
BLAS_THREADS = 1
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.env = {**os.environ, "OPENBLAS_NUM_THREADS": str(BLAS_THREADS), "OMP_NUM_THREADS": str(BLAS_THREADS),
                    "MKL_NUM_THREADS": str(BLAS_THREADS), "SPDE_PV_THREADS": "1", "PYTHONPATH": ""}

    def spawn(self, mode: str) -> dict:
        cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--out", str(OUT)]
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining < 5.0:
            raise WorkerError("out of time before the benchmark could finish")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise WorkerError(f"{mode} worker exceeded {remaining:.0f} s") from exc
        wall = time.monotonic() - t0
        if proc.returncode != 0:
            raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        rec["setup_s"] = rec["t_ready"] - t0
        rec["wall_s"] = wall
        return rec

    def repeat(self, modes: tuple[str, ...], seconds: float) -> list[dict]:
        """Run groups of workers (one per mode) while the next group fits in `seconds`."""
        reps = []
        start = time.monotonic()
        while True:
            group = [self.spawn(mode) for mode in modes]
            reps.extend(group)
            if time.monotonic() - start + sum(r["wall_s"] for r in group) > seconds:
                return reps


def consistency_checks(reps: list[dict]) -> list:
    first = reps[0]["digest"]
    return [(f"repetition {i} outputs identical to repetition 0", r["digest"] == first, "")
            for i, r in enumerate(reps) if i > 0]


def measure(workload: str, seed: int, seconds: float, trace: bool, units: dict[str, str]) -> dict:
    runner = Runner(workload, seed)
    info = runner.spawn("probe")["info"]  # warm-up: byte-code and page caches, not timed
    info.update(workload=workload, seed=seed, trace=int(trace), seconds=seconds, blas_threads=BLAS_THREADS,
                worker_threads=1)
    setups = []
    if trace:
        reps = runner.repeat(("run", "trace"), seconds)
        plain = [r for r in reps if "layers" not in r]
        traced = [r for r in reps if "layers" in r]
        values = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
        values["trace.overhead_frac"] = (statistics.median(r["run_s"] for r in traced)
                                         / statistics.median(r["run_s"] for r in plain) - 1)
        counts = [n for n in traced[0]["layers"] if units.get(n) == "count"]
        checks = [(f"trace repetition {i} counts equal repetition 0's",
                   all(r["layers"][n] == traced[0]["layers"][n] for n in counts), "")
                  for i, r in enumerate(traced) if i > 0]
    else:
        reps = runner.repeat(("run",), seconds)
        setups = [r["setup_s"] for r in reps]
        while len(setups) < SETUP_SAMPLES:
            setups.append(runner.spawn("probe")["setup_s"])
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(r["run_s"] for r in reps),
            "replicates_per_s": statistics.median(r["work_units"] / r["run_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }
        checks = []
    if set(values) != set(units):
        raise WorkerError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    metrics = {name: (value, units[name]) for name, value in values.items()}
    checks += [c for r in reps for c in r["checks"]] + consistency_checks(reps)
    failed = [c for c in checks if not c[1]]
    return {"info": info, "reps": len(reps), "samples": {"run_s": [r["run_s"] for r in reps], "setup_s": setups},
            "checks": checks, "attempted": len(checks), "failed": len(failed), "metrics": metrics,
            "elapsed_s": time.monotonic() - runner.started}


def report(workload: str, res: dict) -> None:
    print(f"== {workload}: {res['reps']} worker runs in {res['elapsed_s']:.1f} s")
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':40s} {res['failed'] / res['attempted']:14.6g} frac "
          f"({res['failed']} of {res['attempted']} checks failed)")
    for name, ok, detail in res["checks"]:
        if not ok:
            print(f"  FAILED {name}: {detail}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "spde_pv" / "__init__.py").is_file():
        print(f"no spde_pv package under {ROOT / 'src'}: run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace), units)
            report(name, results[name])
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for name, res in results.items():
        (OUT / f"run-{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(res, indent=1))
        print(f"info {name} " + json.dumps(res["info"]))
    prefix = (lambda n: n + ".") if len(names) > 1 else (lambda n: "")
    metrics = {prefix(n) + k: {"value": v, "unit": u} for n, r in results.items() for k, (v, u) in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
