"""One fresh benchmark process: import spde_pv, build a workload, and in `run` or
`trace` mode execute its body once.  Started by run.py; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --mode probe|run|trace --out DIR

`t_ready` is the CLOCK_MONOTONIC time at which import and input building finished,
so the parent, which notes the same clock at spawn, gets the set-up time.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def rng_floor_ns(shapes) -> float:
    """Raw Philox `standard_normal` cost per normal at the workload's draw shapes,
    weighted by each shape's share of the workload's normals."""
    import numpy as np

    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(2024)))
    total = weight_sum = 0.0
    for shape, weight in shapes:
        size = int(np.prod(shape))
        gen.standard_normal(shape)
        per_call = []
        stop = time.perf_counter() + 0.2
        while len(per_call) < 3 or time.perf_counter() < stop:
            t0 = time.perf_counter()
            gen.standard_normal(shape)
            per_call.append(time.perf_counter() - t0)
        total += weight * 1e9 * statistics.median(per_call) / size
        weight_sum += weight
    return total / weight_sum


def run_info() -> dict:
    """Library versions, the program's bit generator and the visible processors."""
    import os

    import numpy
    import scipy
    from spde_pv import simulator

    def openblas(module):
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")

    rng_for = getattr(simulator, "_rng_for", None)
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": openblas(numpy),
        "scipy_openblas": openblas(scipy),
        "bit_generator": type(rng_for(0).bit_generator).__name__ if rng_for else "unknown",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    ap.add_argument("--out", required=True, help="directory for scratch files and the trace")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    out = Path(args.out)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out))
    try:
        job = workloads.WORKLOADS[args.workload](args.seed, tmp)
        record = {"t_ready": time.monotonic()}
        if args.mode == "probe":
            record["info"] = run_info()
        else:
            tracer = tracing.Tracer() if args.mode == "trace" else None
            if tracer:
                tracing.instrument(tracer)
            t0 = time.perf_counter()
            try:
                result = job.run(tracer)
            finally:
                run_s = time.perf_counter() - t0
                if tracer:
                    tracer.restore()
            outcome = job.check(result)
            record.update(
                run_s=run_s,
                work_units=job.work_units,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                checks=outcome.checks,
                digest=outcome.digest,
            )
            if tracer:
                layers = tracing.layer_metrics(tracer, run_s)
                layers["cli.bytes_written"] = float(outcome.bytes_written)
                layers["simulator.rng_floor_ns_per_normal"] = rng_floor_ns(job.rng_shapes)
                record["layers"] = layers
                tracer.dump(out / f"trace-{args.workload}-seed{args.seed}.json")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
