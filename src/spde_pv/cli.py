"""Command-line entry point.

Subcommands: constants, simulate, variation, converge, holder, validate.
Exit codes: 0 success, 1 validation failure, 2 configuration/usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import harness, limits, simulator, spectrum, variations
from ._version import __version__, check_keys, json_float, json_int, json_list, rng_for, write_json
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


def _out_dir(args) -> Path:
    out = Path(args.out or "results")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_constants(args) -> int:
    cfg = _load_config(args.config)
    check_keys(cfg, ("domain", "gamma", "r", "orders"), "constants")
    params = RegimeParams.from_json(cfg)
    report = harness.report_constants(params, json_list(cfg.get("orders", [1, 2]), "orders"))
    print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    if args.out:
        harness.write_report(report, params, _out_dir(args) / "constants.json")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    sim = simulator.SimConfig.from_json(cfg)
    if args.seed is not None:
        sim = replace(sim, seed=args.seed)
    path = simulator.simulate(sim)
    out = _out_dir(args)
    npy, sidecar = path.save(out / "path")
    path.write_norm_csv(out / "path_norms.csv", sim.params.r)
    print(f"wrote {npy}, {sidecar}, and {out / 'path_norms.csv'} (H_r norms at r = {sim.params.r:g})")
    return 0


def cmd_variation(args) -> int:
    cfg = _load_config(args.config)
    check_keys(cfg, ("sim", "variations"), "variation config")
    sim = simulator.SimConfig.from_json(cfg["sim"])
    requests = [variations.VariationRequest.from_json(v) for v in json_list(cfg["variations"], "variations")]
    variations.check_requests(requests)
    if args.seed is not None:
        sim = replace(sim, seed=args.seed)
    level = harness.variation_levels(sim, simulator.iter_states(sim), requests, (sim.delta,))[0]
    out = _out_dir(args)
    for req, series in zip(requests, level):
        target = out / f"variation_{req.label}.csv"
        series.write_csv(target)
        print(f"{req.label}: V(T) = {series.values[-1]:.6g} -> {target}")
    return 0


def cmd_converge(args) -> int:
    cfg = _load_config(args.config)
    spec = harness.ExperimentSpec.from_json(cfg, output_dir=args.out or "results")
    if args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    if args.seed is not None:
        spec = replace(spec, sim=replace(spec.sim, seed=args.seed))
    rows = harness.run_convergence(spec, threads=args.threads)
    for row in rows:
        se = "n/a" if math.isnan(row.std_error) else f"{row.std_error:.3g}"
        print(
            f"delta={row.delta:.3e} {row.request_label}: mean={row.mean_V_at_T:.6g} (se {se}) "
            f"target={row.theoretical_limit:.6g} abs_err={row.abs_error:.3g} sup_err={row.sup_error_over_grid:.3g}"
        )
    return 0


def cmd_holder(args) -> int:
    cfg = _load_config(args.config)
    check_keys(cfg, ("name", "sim", "r", "delta_grid", "replicates"), "holder")
    sim = simulator.SimConfig.from_json(cfg["sim"])
    if args.seed is not None:
        cfg = {**cfg, "sim": {**cfg["sim"], "seed": args.seed}}
        sim = replace(sim, seed=args.seed)
    r = json_float(cfg["r"], "r")
    if "r" in cfg["sim"] and sim.params.r != r:
        raise ValueError(f"sim r = {sim.params.r:g} differs from r = {r:g}; drop sim.r or give both the same value")
    spec = harness.ExperimentSpec(
        name=cfg.get("name", "holder"),
        sim=sim,
        variations=(variations.VariationRequest(r=r, p=2.0),),
        delta_grid=tuple(json_float(d, "delta_grid") for d in json_list(cfg["delta_grid"], "delta_grid")),
        replicates=json_int(cfg["replicates"], "replicates"),
    )
    est = harness.estimate_holder(spec)
    params = replace(sim.params, r=r)
    mc_se = "n/a" if math.isnan(est.mc_stderr) else f"{est.mc_stderr:.4f}"
    print(
        f"slope = {est.slope:.4f} (stderr {est.stderr:.4f}, 95% CI [{est.ci_low:.4f}, {est.ci_high:.4f}]; "
        f"Monte Carlo stderr {mc_se}); theoretical alpha(r) = {holder_exponent(params):.4f}"
    )
    if args.out:
        payload = {"estimate": est.to_json(), "theoretical_alpha": holder_exponent(params)}
        write_json(_out_dir(args) / "holder.json", payload, cfg)
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

    rng = rng_for(41)
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
        ref = math.gamma(r + 0.5) / (2.0 * (0.5 - r))
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
    ref = float(limits.increment_weights(params, sim.delta, 0.5 + sim.delta, 256).sum())
    checks.append(("increment variance MC vs series", abs(mc - ref) < 4 * se, f"mc={mc:.5f} ref={ref:.5f} se={se:.2g}"))
    return checks


def _table_case(number: int, case, rtol: float) -> tuple[str, bool, str]:
    """The report line (label, pass, detail) of `validate --table` case `number` (from 1) against relative
    tolerance `rtol`, computed before any check prints: a case whose parameters or expected values cannot be
    read is a config error (exit 2), not a failed check."""
    check_keys(case, ("domain", "gamma", "r", "k_r", "constants", "holder_alpha"), "table case")
    constants = case.get("constants", {})
    if not isinstance(constants, dict):
        raise ConfigError(f"`constants` must be a JSON object, got {type(constants).__name__}")
    if not ("k_r" in case or constants or "holder_alpha" in case):
        raise ConfigError("the case names none of k_r, constants, holder_alpha: nothing is checked")
    orders = []
    for p, v in constants.items():
        try:
            orders.append((int(p), v))
        except ValueError:
            raise ConfigError(f"table case {number}: `constants` key {p!r} must be an integer order p") from None
    params = RegimeParams.from_json(case)
    # (name in the report, expected value, computed value)
    checks = [("k_r", json_float(case["k_r"], "k_r"), k_r(params))] if "k_r" in case else []
    checks += [(f"K(r,{p})", json_float(v, "constants"), limits.limit_constant_even_power(params, p))
               for p, v in orders]
    if "holder_alpha" in case:
        checks.append(("alpha", json_float(case["holder_alpha"], "holder_alpha"), holder_exponent(params)))
    ok = all(math.isclose(got, expected, rel_tol=rtol) for _, expected, got in checks)
    detail = "; ".join(f"{name} {got:.8g} vs {expected}" for name, expected, got in checks)
    return f"table case r={case['r']}", ok, detail


def cmd_validate(args) -> int:
    cases = []
    if args.table:
        table = _load_config(args.table)
        check_keys(table, ("rtol", "cases"), "table")
        rtol = json_float(table.get("rtol", 1e-6), "rtol")
        cases = [_table_case(i, case, rtol) for i, case in enumerate(json_list(table.get("cases", []), "cases"), 1)]
    failures = 0
    for name, ok, detail in _validation_checks() + cases:
        status = "PASS" if ok else "FAIL"
        suffix = f"  [{detail}]" if detail else ""
        print(f"[{status}] {name}{suffix}")
        failures += 0 if ok else 1
    return VALIDATION_ERROR if failures else 0


_OUT_HELP = {
    "constants": "output directory; constants.json is written only when --out is given",
    "simulate": "output directory (default: results)",
    "variation": "output directory (default: results)",
    "converge": "output directory (default: results)",
    "holder": "output directory; holder.json is written only when --out is given",
}

_OPTIONS = {
    "--config": {"help": "JSON config file"},
    "--seed": {"type": int, "help": "override the master seed"},
    "--threads": {"type": int, "default": 1, "help": "worker threads (default: 1)"},
    "--table": {"help": "JSON table of expected constants to verify"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spde-pv",
        description="Power-variation laboratory for fractional stochastic heat equations on boxes.",
    )
    parser.add_argument("--version", action="version", version=f"spde-pv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # each command takes exactly the flags its handler reads, so argparse rejects the rest
    for name, fn, flags in (
        ("constants", cmd_constants, ("--config", "--out")),
        ("simulate", cmd_simulate, ("--config", "--seed", "--out")),
        ("variation", cmd_variation, ("--config", "--seed", "--out")),
        ("converge", cmd_converge, ("--config", "--seed", "--out", "--threads")),
        ("holder", cmd_holder, ("--config", "--seed", "--out")),
        ("validate", cmd_validate, ("--table",)),
    ):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        for flag in flags:
            kwargs = {"help": _OUT_HELP[name]} if flag == "--out" else _OPTIONS[flag]
            p.add_argument(flag, **kwargs)
    return parser


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.fn(args)
    except (ConfigError, ValueError, KeyError, TypeError, ArithmeticError) as exc:
        # the one map from a refused input to its exit code
        kind = ("missing key " if isinstance(exc, KeyError)
                else "a number left float64's range: " if isinstance(exc, ArithmeticError) else "")
        print(f"config error: {args.command}: {kind}{exc}", file=sys.stderr)
        return CONFIG_ERROR


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
