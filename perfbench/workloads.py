"""The three benchmark workloads: inputs built from the seed, the timed body, and the
correctness checks on the program's outputs.

Seeds reach the program only through the `sim.seed` field of the generated configs
and specs, never through the CLI's `--seed` flag (which `spde-pv holder` ignores).
Each workload is single-threaded: `converge` gets `--threads 1`, the library call
gets `threads=1`, and `holder` has no thread pool.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
from pathlib import Path

from spde_pv import cli, harness
from spde_pv.harness import ExperimentSpec
from spde_pv.limits import RegimeParams, norm_power_functional
from spde_pv.simulator import SimConfig
from spde_pv.spectrum import DomainSpec
from spde_pv.variations import F_PRESETS, VariationRequest

PI = math.pi
ZETA2 = PI**2 / 6.0
ZETA4 = PI**4 / 90.0
BELL4 = ZETA2**2 + 2.0 * ZETA4  # K(-1, 2) = 2^2 B_2(zeta(2)/2, zeta(4)/2)
INTERVAL = {"dim": 1, "sides": [PI]}
HOLDER_REPLICATES = 800


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
    return h.hexdigest()


def _without_created(payload: dict) -> dict:
    """Drop the wall-clock stamp, the one field of a summary that differs between runs."""
    meta = {k: v for k, v in payload.get("meta", {}).items() if k != "created_utc"}
    return {**payload, "meta": meta}


def _all_finite(values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def _run_cli(argv: list[str], tracer) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tracer.call("cli.cli", cli.cli, argv) if tracer else cli.cli(argv)
    return code, buf.getvalue()


@dataclasses.dataclass
class Outcome:
    checks: list  # (name, ok, detail)
    digest: str
    bytes_written: int = 0


# -- converge_main -------------------------------------------------------------


class ConvergeMain:
    """`spde-pv converge` on a copy of the acceptance main experiment at M = 8."""

    work_units = 8 * 5  # replicates x mesh levels
    rng_shapes = [((4096,), 1.0)]
    tolerances = {"sub_p2": (ZETA2, 0.025), "sub_p4": (BELL4, 0.06), "super_p4": (PI, 0.06)}

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.config = {
            "name": "converge_main",
            "sim": {"domain": INTERVAL, "gamma": 1.0, "r": -1.0, "modes": 4096, "delta": 2.0**-12,
                    "horizon": 1.0, "sigma": {"mode": "constant", "value": 1.0}, "seed": seed},
            "variations": [
                {"r": -1.0, "p": 2.0, "label": "sub_p2"},
                {"r": -1.0, "p": 4.0, "label": "sub_p4"},
                {"r": 0.0, "p": 4.0, "label": "super_p4"},
            ],
            "delta_grid": [2.0**-e for e in range(8, 13)],
            "replicates": 8,
        }
        self.config_path = tmp / "converge_main.json"
        self.config_path.write_text(json.dumps(self.config))
        self.out = tmp / "out"

    def run(self, tracer):
        argv = ["converge", "--config", str(self.config_path), "--out", str(self.out), "--threads", "1"]
        return _run_cli(argv, tracer)

    def check(self, result) -> Outcome:
        code, stdout = result
        checks = [("converge exit code 0", code == 0, f"exit {code}")]
        if code != 0:
            return Outcome(checks, "")
        csv_text = (self.out / "converge_main_convergence.csv").read_text()
        summary = _without_created(json.loads((self.out / "converge_main_summary.json").read_text()))
        rows = summary["rows"]
        csv_rows = [line.split(",") for line in csv_text.strip().splitlines()[1:]]
        checks.append(("summary rows match the CSV", len(csv_rows) == len(rows) == 15 and all(
            c[1] == r["request"] and float(c[2]) == r["mean_V_at_T"] for c, r in zip(csv_rows, rows)), ""))
        checks.append(("summary spec carries the config seed", summary["spec"]["sim"]["seed"] == self.seed,
                       str(summary["spec"]["sim"]["seed"])))
        fields = ("mean_V_at_T", "std_error", "theoretical_limit", "abs_error", "sup_error_over_grid")
        checks.append(("every row finite", _all_finite(r[f] for r in rows for f in fields), ""))
        finest = min(r["delta"] for r in rows)
        for row in (r for r in rows if r["delta"] == finest):
            ref, tol = self.tolerances[row["request"]]
            rel = abs(row["mean_V_at_T"] - ref) / ref
            checks.append((f"{row['request']} finest mesh within {tol:.1%} of its limit", rel <= tol,
                           f"mean {row['mean_V_at_T']:.5f} vs {ref:.5f} ({rel:.2%})"))
            checks.append((f"{row['request']} target is the exact limit",
                           abs(row["theoretical_limit"] - ref) <= 1e-9 * ref, f"{row['theoretical_limit']!r}"))
        digest = _digest(csv_text, json.dumps(summary, sort_keys=True), stdout)
        written = len(stdout.encode()) + sum(p.stat().st_size for p in self.out.iterdir())
        return Outcome(checks, digest, written)


# -- holder_trio ---------------------------------------------------------------


class HolderTrio:
    """`spde-pv holder` on the three criterion-5 configurations."""

    # (r, modes, mesh exponents, alpha(r) from the paper)
    cases = ((-1.0, 2048, range(8, 15), 0.5), (0.0, 4096, range(6, 13), 0.25), (0.25, 16384, range(4, 10), 0.125))
    work_units = HOLDER_REPLICATES * sum(len(c[2]) for c in cases)
    rng_shapes = [((HOLDER_REPLICATES, k), float(k * len(ex))) for _, k, ex, _ in cases]

    def __init__(self, seed: int, tmp: Path):
        self.jobs = []
        for i, (r, modes, exps, alpha) in enumerate(self.cases):
            config = {
                "name": f"holder_{i}",
                "sim": {"domain": INTERVAL, "gamma": 1.0, "r": r, "modes": modes, "delta": 2.0**-4,
                        "horizon": 4.0, "sigma": {"mode": "constant", "value": 1.0}, "seed": seed},
                "r": r,
                "delta_grid": [2.0**-e for e in exps],
                "replicates": HOLDER_REPLICATES,
            }
            path = tmp / f"holder_{i}.json"
            path.write_text(json.dumps(config))
            self.jobs.append((config, path, tmp / f"out_{i}", alpha))

    def run(self, tracer):
        return [_run_cli(["holder", "--config", str(path), "--out", str(out)], tracer)
                for _, path, out, _ in self.jobs]

    def check(self, results) -> Outcome:
        checks, parts, written = [], [], 0
        for (config, _, out, alpha), (code, stdout) in zip(self.jobs, results):
            r = config["r"]
            checks.append((f"r={r:g} holder exit code 0", code == 0, f"exit {code}"))
            if code != 0:
                continue
            payload = _without_created(json.loads((out / "holder.json").read_text()))
            est = payload["estimate"]
            checks.append((f"r={r:g} estimate finite",
                           _all_finite([est["slope"], est["stderr"], *est["ci95"], *est["mean_norms"]]), ""))
            checks.append((f"r={r:g} slope within 0.03 of alpha(r)", abs(est["slope"] - alpha) <= 0.03,
                           f"slope {est['slope']:.4f} vs {alpha}"))
            checks.append((f"r={r:g} reported alpha(r) exact", abs(payload["theoretical_alpha"] - alpha) <= 1e-12,
                           f"{payload['theoretical_alpha']!r}"))
            spec_hash = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()
            checks.append((f"r={r:g} output hashes the generated config (seed included)",
                           payload["meta"]["spec_sha256"] == spec_hash, ""))
            parts += [json.dumps(payload, sort_keys=True), stdout]
            written += len(stdout.encode()) + (out / "holder.json").stat().st_size
        return Outcome(checks, _digest(*parts), written)


# -- functional_sub ------------------------------------------------------------


class FunctionalSub:
    """Library call `harness.run_convergence` with a scalar f and a general F request."""

    work_units = 32 * 3
    rng_shapes = [((512,), 1.0)]

    def __init__(self, seed: int, tmp: Path):
        domain = DomainSpec((PI,))
        sim = SimConfig(params=RegimeParams(r=-1.0, gamma=1.0, domain=domain), modes=512, delta=2.0**-10,
                        horizon=1.0, seed=seed)
        self.spec = ExperimentSpec(
            name="functional_sub",
            sim=sim,
            variations=(
                VariationRequest(r=-1.0, f=F_PRESETS["min_square_one"], label="sub_f_min_square_one"),
                VariationRequest(r=-1.0, F=norm_power_functional(2.0), label="sub_F_norm_sq"),
            ),
            delta_grid=(2.0**-8, 2.0**-9, 2.0**-10),
            replicates=32,
        )

    def run(self, tracer):
        spec = self.spec
        if tracer:
            counted = [dataclasses.replace(req, F=tracer.counted("limits.functional_calls", req.F))
                       if req.F is not None else req for req in spec.variations]
            spec = dataclasses.replace(spec, variations=tuple(counted))
        estimates = []
        sampler = harness.mu_rF_estimate

        def recording(*args, **kwargs):
            est = sampler(*args, **kwargs)
            estimates.append(est)
            return est

        harness.mu_rF_estimate = recording
        try:
            rows = harness.run_convergence(spec, threads=1)
        finally:
            harness.mu_rF_estimate = sampler
        return rows, estimates

    def check(self, result) -> Outcome:
        rows, estimates = result
        checks = [("every row finite", len(rows) == 6 and _all_finite(
            v for r in rows for v in (r.mean_V_at_T, r.std_error, r.theoretical_limit, r.abs_error,
                                      r.sup_error_over_grid)), "")]
        finest = min(r.delta for r in rows)
        for row in (r for r in rows if r.delta == finest):
            rel = abs(row.mean_V_at_T - row.theoretical_limit) / row.theoretical_limit
            checks.append((f"{row.request_label} finest mesh within 5% of its target", rel <= 0.05,
                           f"mean {row.mean_V_at_T:.5f} vs {row.theoretical_limit:.5f} ({rel:.2%})"))
        target = next(r.theoretical_limit for r in rows if r.request_label == "sub_F_norm_sq")
        est = next((e for e in estimates if e.mean == target), None)
        ok = est is not None and abs(est.mean - ZETA2) < 3.0 * est.stderr + 1.0 / 1000.0
        detail = "no sampler estimate matches the target" if est is None else (
            f"{est.mean:.5f} vs {ZETA2:.5f} (se {est.stderr:.5f})")
        checks.append(("norm_power_functional(2) target within 3 se + 1/1000 of pi^2/6", ok, detail))
        digest = _digest(repr([dataclasses.astuple(r) for r in rows]))
        return Outcome(checks, digest)


WORKLOADS = {"converge_main": ConvergeMain, "holder_trio": HolderTrio, "functional_sub": FunctionalSub}
