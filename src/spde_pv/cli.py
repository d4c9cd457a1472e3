"""Command-line entry point.

Subcommands: constants, simulate, variation, converge, holder, validate.
Exit codes: 0 success, 1 validation failure, 2 configuration/usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy.special import gamma as gamma_fn

from . import harness, limits, simulator, spectrum, variations
from ._version import __version__, check_keys, sidecar_metadata
from .combinatorics import alpha_permanent, complete_bell, gaussian_even_moment
from .limits import RegimeParams, holder_exponent, k_r, tau_n
from .spectrum import DomainSpec, eigenvalues, hr_norm_sq, spectral_zeta

CONFIG_ERROR = 2
VALIDATION_ERROR = 1


class ConfigError(Exception):
    pass


def _load_config(path_str: str | None) -> dict:
    if not path_str:
        raise ConfigError("missing --config <json> argument")
    path = Path(path_str)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


def _params_from(cfg: dict) -> RegimeParams:
    try:
        return RegimeParams.from_json(cfg)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad parameter block: {exc}") from exc


def _resolve_threads(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("SPDE_PV_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"SPDE_PV_THREADS={env!r} is not an integer") from exc
    return 1


def _out_dir(args) -> Path:
    out = Path(args.out or "results")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_constants(args) -> int:
    cfg = _load_config(args.config)
    check_keys(cfg, ("domain", "gamma", "r", "orders"), "constants")
    params = _params_from(cfg)
    report = harness.report_constants(params, cfg.get("orders", [1, 2]))
    print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    if args.out:
        harness.write_report(report, params, _out_dir(args) / "constants.json")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    try:
        sim = simulator.SimConfig.from_json({k: v for k, v in cfg.items() if k != "norm_r"})
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad simulation config: {exc}") from exc
    if args.seed is not None:
        sim = replace(sim, seed=args.seed)
    path = simulator.simulate(sim)
    out = _out_dir(args)
    npy, sidecar = path.save(out / "path")
    r = float(cfg.get("norm_r", sim.params.r))
    path.write_norm_csv(out / "path_norms.csv", r)
    print(f"wrote {npy}, {sidecar}, and {out / 'path_norms.csv'} (H_r norms at r = {r:g})")
    return 0


def cmd_variation(args) -> int:
    cfg = _load_config(args.config)
    try:
        check_keys(cfg, ("sim", "variations"), "variation config")
        sim = simulator.SimConfig.from_json(cfg["sim"])
        requests = [variations.VariationRequest.from_json(v) for v in cfg["variations"]]
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad variation config: {exc}") from exc
    if args.seed is not None:
        sim = replace(sim, seed=args.seed)
    path = simulator.simulate(sim)
    out = _out_dir(args)
    for req in requests:
        series = variations.compute_variation(path, req)
        target = out / f"variation_{req.label}.csv"
        series.write_csv(target)
        print(f"{req.label}: V(T) = {series.values[-1]:.6g} -> {target}")
    return 0


def cmd_converge(args) -> int:
    cfg = _load_config(args.config)
    try:
        spec = harness.ExperimentSpec.from_json(cfg, output_dir=_out_dir(args))
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad experiment config: {exc}") from exc
    if args.seed is not None:
        spec = replace(spec, sim=replace(spec.sim, seed=args.seed))
    rows = harness.run_convergence(spec, threads=_resolve_threads(args))
    for row in rows:
        se = "n/a" if math.isnan(row.std_error) else f"{row.std_error:.3g}"
        print(
            f"delta={row.delta:.3e} {row.request_label}: mean={row.mean_V_at_T:.6g} (se {se}) "
            f"target={row.theoretical_limit:.6g} abs_err={row.abs_error:.3g} sup_err={row.sup_error_over_grid:.3g}"
        )
    return 0


def cmd_holder(args) -> int:
    cfg = _load_config(args.config)
    try:
        check_keys(cfg, ("name", "sim", "r", "delta_grid", "replicates"), "holder")
        if args.seed is not None:
            cfg = {**cfg, "sim": {**cfg["sim"], "seed": args.seed}}
        sim = simulator.SimConfig.from_json(cfg["sim"])
        r = float(cfg["r"])
        spec = harness.ExperimentSpec(
            name=str(cfg.get("name", "holder")),
            sim=sim,
            variations=(variations.VariationRequest(r=r, p=2.0),),
            delta_grid=tuple(cfg["delta_grid"]),
            replicates=int(cfg["replicates"]),
        )
        est = harness.estimate_holder(spec, r)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad holder config: {exc}") from exc
    params = RegimeParams(r=r, gamma=sim.params.gamma, domain=sim.params.domain)
    print(
        f"slope = {est.slope:.4f} (stderr {est.stderr:.4f}, 95% CI [{est.ci_low:.4f}, {est.ci_high:.4f}]); "
        f"theoretical alpha(r) = {holder_exponent(params):.4f}"
    )
    if args.out:
        payload = {"estimate": est.to_json(), "theoretical_alpha": holder_exponent(params), "meta": sidecar_metadata(cfg)}
        (_out_dir(args) / "holder.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def _validation_checks() -> list[tuple[str, bool, str]]:
    checks = []
    pi_interval = DomainSpec((math.pi,))

    lam3 = eigenvalues(pi_interval, 3)
    checks.append(("interval eigenvalues k^2", bool(np.allclose(lam3, [1.0, 4.0, 9.0])), f"{lam3}"))

    cd = spectrum.weyl_constant(pi_interval)
    checks.append(("Weyl constant on (0, pi)", abs(cd - 1.0) < 1e-12, f"C_D = {cd!r}"))

    exact = {1.0: math.pi**2 / 6.0, 2.0: math.pi**4 / 90.0}
    ok = True
    detail = []
    for z, ref in exact.items():
        zv = spectral_zeta(pi_interval, z, 2000)
        ok = ok and abs(zv.value - ref) <= zv.tail_bound
        detail.append(f"z={z}: {zv.value:.10f} vs {ref:.10f} (bound {zv.tail_bound:.2e})")
    checks.append(("spectral zeta vs Riemann zeta", ok, "; ".join(detail)))

    rng = np.random.Generator(np.random.Philox(41))
    ok = True
    for _ in range(3):
        a = rng.standard_normal((4, 4))
        a = a + a.T
        ok = ok and abs(alpha_permanent(a, -1.0) - np.linalg.det(a)) < 1e-10
    checks.append(("per_{-1} = (-1)^p det", ok, "3 random symmetric 4x4 matrices"))

    rho = 0.37
    gm = gaussian_even_moment(np.array([[1.0, rho], [rho, 1.0]]))
    checks.append(("Gaussian even moment p=2", abs(gm - (1.0 + 2.0 * rho**2)) < 1e-12, f"{gm!r}"))

    checks.append(("Bell number B_3 = 5", abs(complete_bell([1.0, 1.0, 1.0]) - 5.0) < 1e-12, ""))

    ok = True
    for r in (-0.3, 0.0, 0.2, 0.45):
        params = RegimeParams(r=r, gamma=1.0, domain=pi_interval)
        ref = gamma_fn(r + 0.5) / (2.0 * (0.5 - r))
        ok = ok and abs(k_r(params) - ref) < 1e-10
    checks.append(("K_r matches interval closed form", ok, "4 values of r in (-1/2, 1/2)"))

    ok = True
    for d in (1e-2, 1e-4, 1e-6):
        sub = tau_n(RegimeParams(r=-1.0, gamma=1.0, domain=pi_interval), d)
        crit = tau_n(RegimeParams(r=-0.5, gamma=1.0, domain=pi_interval), d)
        ok = ok and sub < crit
    checks.append(("normalizer ordering sqrt(d) < sqrt(d |log d|)", ok, ""))

    params = RegimeParams(r=-1.0, gamma=1.0, domain=pi_interval)
    sim = simulator.SimConfig(params=params, modes=256, delta=2.0**-8, horizon=1.0, seed=20240501)
    incs = simulator.sample_additive_increments(sim, 0.5, 4000)
    sq = hr_norm_sq(incs, eigenvalues(pi_interval, 256), -1.0)
    mc, se = float(np.mean(sq)), float(np.std(sq, ddof=1) / math.sqrt(sq.size))
    ref = limits.increment_variance(params, sim.delta, 0.5 + sim.delta, truncation=256, include_tail=False)
    checks.append(("increment variance MC vs series", abs(mc - ref) < 4 * se, f"mc={mc:.5f} ref={ref:.5f} se={se:.2g}"))
    return checks


def cmd_validate(args) -> int:
    failures = 0
    for name, ok, detail in _validation_checks():
        status = "PASS" if ok else "FAIL"
        suffix = f"  [{detail}]" if detail else ""
        print(f"[{status}] {name}{suffix}")
        failures += 0 if ok else 1
    if args.table:
        table = _load_config(args.table)
        rtol = float(table.get("rtol", 1e-6))
        for case in table.get("cases", []):
            label = f"table case r={case.get('r', '?')}"
            try:
                params = _params_from(case)
                ok = True
                detail = []
                if "k_r" in case:
                    got = k_r(params)
                    ok &= math.isclose(got, float(case["k_r"]), rel_tol=rtol)
                    detail.append(f"k_r {got:.8g} vs {case['k_r']}")
                for p_str, expected in case.get("constants", {}).items():
                    got = limits.limit_constant_even_power(params, int(p_str))
                    ok &= math.isclose(got, float(expected), rel_tol=rtol)
                    detail.append(f"K(r,{p_str}) {got:.8g} vs {expected}")
                if "holder_alpha" in case:
                    got = holder_exponent(params)
                    ok &= math.isclose(got, float(case["holder_alpha"]), rel_tol=rtol)
                    detail.append(f"alpha {got:.8g} vs {case['holder_alpha']}")
            except ConfigError as exc:
                ok, detail = False, [str(exc)]
            status = "PASS" if ok else "FAIL"
            print(f"[{status}] {label}  [{'; '.join(detail)}]")
            failures += 0 if ok else 1
    return VALIDATION_ERROR if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spde-pv",
        description="Power-variation laboratory for fractional stochastic heat equations on boxes.",
    )
    parser.add_argument("--version", action="version", version=f"spde-pv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("constants", cmd_constants),
        ("simulate", cmd_simulate),
        ("variation", cmd_variation),
        ("converge", cmd_converge),
        ("holder", cmd_holder),
        ("validate", cmd_validate),
    ):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", help="output directory (default: results)")
        if name == "converge":
            p.add_argument("--threads", type=int, help="worker threads (default: SPDE_PV_THREADS or 1)")
        if name == "validate":
            p.add_argument("--table", help="JSON table of expected constants to verify")
    return parser


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except (ValueError, KeyError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
