"""Experiment engine: Monte Carlo convergence tables across meshes, Hölder regression,
constants reports, and persistence of results with reproducible seeding.

Replicates run in a work pool; aggregation is indexed by replicate, so results are
byte-identical regardless of the thread count.
"""

from __future__ import annotations

import itertools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy import integrate, stats

from ._version import check_keys, sidecar_metadata
from .limits import (
    Regime,
    RegimeParams,
    holder_exponent,
    k_r,
    limit_constant_even_power,
    limit_process_general_sigma,
    mu_rF_estimate,
    norm_power_functional,
    spectral_zeta,
)
from .simulator import (
    ConstantSigma,
    FieldSigma,
    SimConfig,
    eigenvalues,
    iter_additive_states,
    sample_additive_increments,
    simulate_field_sigma,
)
from .spectrum import _power_tail, _weyl_scale, composite_gauss_legendre, hr_norm_sq
from .variations import (
    VariationRequest,
    grid_index,
    resolve_normalizer,
    series_from_norms,
    series_from_values,
)

__all__ = [
    "ExperimentSpec",
    "ConvergenceRow",
    "HolderEstimate",
    "LimitReport",
    "run_convergence",
    "estimate_holder",
    "report_constants",
    "derive_seed",
]

def derive_seed(master_seed: int, replicate_index: int) -> int:
    """Stable per-replicate seed: hash of (master seed, replicate index)."""
    ss = np.random.SeedSequence((int(master_seed), int(replicate_index)))
    return int(ss.generate_state(2, dtype=np.uint64)[0])


@dataclass(frozen=True)
class ExperimentSpec:
    """A named convergence experiment: simulation template, variation requests, mesh grid."""

    name: str
    sim: SimConfig
    variations: tuple[VariationRequest, ...]
    delta_grid: tuple[float, ...]
    replicates: int
    output_dir: Path | None = None

    def __post_init__(self):
        object.__setattr__(self, "variations", tuple(self.variations))
        object.__setattr__(self, "delta_grid", tuple(float(d) for d in self.delta_grid))
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if len(self.delta_grid) == 0:
            raise ValueError("delta grid is empty")
        if any(b >= a for a, b in zip(self.delta_grid, self.delta_grid[1:])):
            raise ValueError("delta grid must be strictly decreasing")
        t = self.sim.horizon
        for d in self.delta_grid:
            steps = t / d
            if abs(steps - round(steps)) > 1e-12 * steps:
                raise ValueError(f"delta = {d} does not divide the horizon {t}")
        if self.output_dir is not None:
            object.__setattr__(self, "output_dir", Path(self.output_dir))

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "sim": self.sim.to_json(),
            "variations": [req.to_json() for req in self.variations],
            "delta_grid": list(self.delta_grid),
            "replicates": self.replicates,
        }

    @classmethod
    def from_json(cls, obj: dict, output_dir=None) -> "ExperimentSpec":
        check_keys(obj, ("name", "sim", "variations", "delta_grid", "replicates"), "experiment")
        return cls(
            name=str(obj.get("name", "experiment")),
            sim=SimConfig.from_json(obj["sim"]),
            variations=tuple(VariationRequest.from_json(v) for v in obj["variations"]),
            delta_grid=tuple(obj["delta_grid"]),
            replicates=int(obj["replicates"]),
            output_dir=output_dir,
        )


@dataclass(frozen=True)
class ConvergenceRow:
    """One (mesh, request) cell of the convergence table."""

    delta: float
    request_label: str
    mean_V_at_T: float
    std_error: float
    theoretical_limit: float
    abs_error: float
    sup_error_over_grid: float

    def to_json(self) -> dict:
        return {
            "delta": self.delta,
            "request": self.request_label,
            "mean_V_at_T": self.mean_V_at_T,
            "std_error": None if math.isnan(self.std_error) else self.std_error,
            "theoretical_limit": self.theoretical_limit,
            "abs_error": self.abs_error,
            "sup_error_over_grid": self.sup_error_over_grid,
        }


def _sigma_sq_domain_integral(sim: SimConfig):
    """s -> int_D sigma^2(s, y) dy for constant or deterministic-field sigma, d = 1."""
    if isinstance(sim.sigma, ConstantSigma):
        c2 = sim.sigma.value**2 * sim.params.domain.volume
        return lambda s: c2
    if isinstance(sim.sigma, FieldSigma):
        if sim.params.d != 1:
            raise ValueError("field-sigma limits are supported on intervals only")
        L = sim.params.domain.sides[0]
        nodes, wts = composite_gauss_legendre(0.0, L, panels=max(64, sim.modes), order=10)

        def integral(s: float) -> float:
            vals = np.asarray(sim.sigma.fn(s, nodes), dtype=float)
            return float(np.sum(vals * vals * wts))

        return integral
    raise ValueError("state-dependent sigma admits no deterministic limit; no theoretical target")


def theoretical_limit_rate(req: VariationRequest, sim: SimConfig, mu_samples: int = 200000, mu_seed: int = 7) -> float:
    """Per-unit-time limit of the requested variation under the experiment's sigma."""
    params = RegimeParams(r=req.r, gamma=sim.params.gamma, domain=sim.params.domain)
    regime = params.regime
    if regime is Regime.SUB:
        if req.p is not None:
            half = req.p / 2.0
            if isinstance(sim.sigma, ConstantSigma) and abs(half - round(half)) < 1e-12:
                return limit_constant_even_power(params, int(round(half)), sigma=sim.sigma.value)
            F = norm_power_functional(req.p)
        elif req.f is not None:
            F = lambda coeffs, lam, r: req.f(math.sqrt(hr_norm_sq(coeffs, lam, r)))
        else:
            F = req.F
        if isinstance(sim.sigma, ConstantSigma):
            est = mu_rF_estimate(F, sim.sigma.value**2, params, truncation=1000, samples=mu_samples, seed=mu_seed)
            return est.mean
        if not isinstance(sim.sigma, FieldSigma):
            raise ValueError("state-dependent sigma admits no deterministic limit; no theoretical target")
        # deterministic sigma(s, y): fixed quadrature in time of the Gaussian-functional mean
        s_nodes, s_wts = composite_gauss_legendre(0.0, 1.0, panels=1, order=3)
        total = 0.0
        for i, (s, w_s) in enumerate(zip(s_nodes, s_wts)):
            weight = lambda y, s=s: np.asarray(sim.sigma.fn(s, y), dtype=float) ** 2
            est = mu_rF_estimate(F, weight, params, truncation=300, samples=min(mu_samples, 50000), seed=mu_seed + i)
            total += w_s * est.mean
        return total
    if req.F is not None:
        raise ValueError("general functionals have no limit at or above the transition")
    sig_int = _sigma_sq_domain_integral(sim)
    if req.p is not None:
        limit = limit_process_general_sigma(params, req.p, sig_int)
        return limit(1.0)
    rate = math.sqrt(k_r(params) / params.domain.volume)
    val, _ = integrate.quad(lambda s: req.f(rate * math.sqrt(sig_int(s))), 0.0, 1.0, epsabs=1e-8, limit=200)
    return val


def _level_strides(delta_grid, horizon: float) -> list[int]:
    """Row stride of each mesh level on the finest level's time grid.

    A level can be read from the finest path only if its step count divides the finest
    step count; any other grid is rejected.
    """
    counts = [grid_index(horizon, d) for d in delta_grid]
    n_fine = counts[-1]
    if any(n_fine % n for n in counts):
        raise ValueError(
            f"delta grid {list(delta_grid)} is not nested: the step counts {counts} must each "
            f"divide the finest step count {n_fine}"
        )
    return [n_fine // n for n in counts]


def _replicate_value_arrays(cfg: SimConfig, requests, deltas, taus, block: int = 1024):
    """Per-level variation series for every request, from one simulated replicate.

    `cfg` simulates the finest mesh `deltas[-1]`; level l reads every `s`-th state of
    that path, s = n_fine / n_l, which is an exact path at mesh `deltas[l]` for the
    additive scheme.  `taus[l][j]` normalizes request j at level l.  Additive paths are
    streamed in row blocks so the full coefficient matrix is never materialized;
    field-sigma paths are simulated in memory (their mode counts are small).  Returns
    one list of series per level.
    """
    lam = eigenvalues(cfg.params.domain, cfg.modes)
    rs = tuple(dict.fromkeys(req.r for req in requests))
    n = cfg.n_steps
    strides = _level_strides(deltas, cfg.horizon)
    f_rows = [i for i, req in enumerate(requests) if req.F is not None]
    norms = [{r: np.empty(n // s) for r in rs} for s in strides]
    f_vals = [{i: np.empty(n // s) for i in f_rows} for s in strides]
    prev = [np.zeros(cfg.modes) for _ in strides]

    if isinstance(cfg.sigma, ConstantSigma):
        states = iter_additive_states(cfg)
        buf = np.empty((min(block, n), cfg.modes))

        def fine_rows(start: int, stop: int) -> np.ndarray:
            rows = buf[: stop - start]
            for k, row in enumerate(itertools.islice(states, stop - start)):
                rows[k] = row
            return rows

    else:
        coeffs = simulate_field_sigma(cfg).coeffs

        def fine_rows(start: int, stop: int) -> np.ndarray:
            return coeffs[start + 1 : stop + 1]

    for start in range(0, n, block):
        stop = min(start + block, n)
        fine = fine_rows(start, stop)
        for lv, s in enumerate(strides):
            # fine row i holds the state at t_{i+1}; level rows are those with (i + 1) % s == 0
            rows = fine[(s - 1 - start) % s :: s]
            count = rows.shape[0]
            if count == 0:
                continue
            diffs = np.empty_like(rows)
            diffs[0] = rows[0] - prev[lv]
            np.subtract(rows[1:], rows[:-1], out=diffs[1:])
            prev[lv] = rows[-1].copy()
            at = start // s
            for r, sq_norms in zip(rs, hr_norm_sq(diffs, lam, rs)):
                norms[lv][r][at : at + count] = np.sqrt(sq_norms)
            for i in f_rows:
                req, tau, vals = requests[i], taus[lv][i], f_vals[lv][i]
                for j in range(count):
                    vals[at + j] = req.F(diffs[j] / tau, lam, req.r)

    out = []
    for lv, delta in enumerate(deltas):
        level = []
        for i, req in enumerate(requests):
            if req.F is not None:
                level.append(series_from_values(f_vals[lv][i], delta))
            else:
                f = (lambda p: (lambda x: x**p))(req.p) if req.p is not None else req.f
                level.append(series_from_norms(norms[lv][req.r], delta, taus[lv][i], f))
        out.append(level)
    return out


def _truncation_record(spec: ExperimentSpec) -> dict:
    """Mode-truncation tail of the most demanding requested r against the default-K rule."""
    params = spec.sim.params
    r_max = max(req.r for req in spec.variations)
    c = _weyl_scale(eigenvalues(params.domain, spec.sim.modes), params.d)
    tail = _power_tail(c, r_max - params.gamma, params.d, spec.sim.modes)
    p_dem = RegimeParams(r=r_max, gamma=params.gamma, domain=params.domain)
    threshold = 1e-4 * k_r(p_dem) * min(spec.delta_grid)
    return {
        "most_demanding_r": r_max,
        "hr_tail_beyond_K": tail,
        "threshold_1e-4_Kr_delta": threshold,
        "satisfied": bool(tail < threshold),
    }


def run_convergence(spec: ExperimentSpec, threads: int = 1) -> list[ConvergenceRow]:
    """Simulate M replicates, compare each variation against K * t per mesh, and tabulate.

    Each replicate is one path at the finest mesh; every coarser level reads that path
    at its own stride, so the grid must be nested and the levels are coupled.  Replicate
    `idx` is seeded with `derive_seed(seed, (L - 1) * M + idx)` for L levels.

    Writes `<name>_convergence.csv` and `<name>_summary.json` when the spec carries an
    output directory.  The sup deviation is evaluated on the coarsest grid of the
    experiment, so rows are comparable across mesh levels.
    """
    requests = spec.variations
    deltas = spec.delta_grid
    _level_strides(deltas, spec.sim.horizon)  # reject a non-nested grid before the targets
    targets = [theoretical_limit_rate(req, spec.sim) for req in requests]
    t_end = spec.sim.horizon
    common_times = deltas[0] * np.arange(1, grid_index(t_end, deltas[0]) + 1)
    m = spec.replicates
    levels = len(deltas)
    fine_cfg = replace(spec.sim, delta=deltas[-1])
    taus = [[resolve_normalizer(req, replace(spec.sim, delta=d)) for req in requests] for d in deltas]
    v_end = np.empty((levels, m, len(requests)))
    sup_dev = np.empty((levels, m, len(requests)))

    def one_replicate(idx: int) -> None:
        seed = derive_seed(spec.sim.seed, (levels - 1) * m + idx)
        try:
            per_level = _replicate_value_arrays(replace(fine_cfg, seed=seed), requests, deltas, taus)
            for lv, series_list in enumerate(per_level):
                for j, series in enumerate(series_list):
                    v_end[lv, idx, j] = series.value_at(t_end)
                    devs = [abs(series.value_at(t) - targets[j] * t) for t in common_times]
                    sup_dev[lv, idx, j] = max(devs)
        except Exception as exc:
            raise RuntimeError(f"replicate {idx} (seed {seed}) failed: {exc}") from exc

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(one_replicate, range(m)))
    else:
        for idx in range(m):
            one_replicate(idx)

    rows: list[ConvergenceRow] = []
    for lv, delta in enumerate(deltas):
        for j, req in enumerate(requests):
            mean = float(np.mean(v_end[lv, :, j]))
            se = float(np.std(v_end[lv, :, j], ddof=1) / math.sqrt(m)) if m > 1 else math.nan
            limit_at_T = targets[j] * t_end
            rows.append(
                ConvergenceRow(
                    delta=delta,
                    request_label=req.label,
                    mean_V_at_T=mean,
                    std_error=se,
                    theoretical_limit=limit_at_T,
                    abs_error=abs(mean - limit_at_T),
                    sup_error_over_grid=float(np.mean(sup_dev[lv, :, j])),
                )
            )
    if spec.output_dir is not None:
        _write_convergence(spec, rows)
    return rows


def _write_convergence(spec: ExperimentSpec, rows: list[ConvergenceRow]) -> None:
    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{spec.name}_convergence.csv"
    with open(csv_path, "w") as fh:
        fh.write("delta,request,mean_V_at_T,std_error,theoretical_limit,abs_error,sup_error_over_grid\n")
        for row in rows:
            fh.write(
                f"{row.delta:.17g},{row.request_label},{row.mean_V_at_T:.17g},{row.std_error:.17g},"
                f"{row.theoretical_limit:.17g},{row.abs_error:.17g},{row.sup_error_over_grid:.17g}\n"
            )
    spec_json = spec.to_json()
    summary = {
        "spec": spec_json,
        "rows": [row.to_json() for row in rows],
        "truncation": _truncation_record(spec),
        "meta": sidecar_metadata(spec_json),
    }
    (out / f"{spec.name}_summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True)
class HolderEstimate:
    """OLS slope of log E||u(t + delta) - u(t)||_{H_r} against log delta."""

    slope: float
    stderr: float
    ci_low: float
    ci_high: float
    deltas: tuple[float, ...]
    mean_norms: tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "slope": self.slope,
            "stderr": self.stderr,
            "ci95": [self.ci_low, self.ci_high],
            "deltas": list(self.deltas),
            "mean_norms": list(self.mean_norms),
        }


def estimate_holder(spec: ExperimentSpec, r: float, t: float | None = None) -> HolderEstimate:
    """Regression estimate of the temporal Hölder exponent in H_r.

    Per mesh level, draws `replicates` exact samples of the increment over
    [t, t + delta] (the two-time Gaussian law of the additive-noise solution) and
    regresses the log of the Monte Carlo mean norm on log delta.
    """
    if not isinstance(spec.sim.sigma, ConstantSigma):
        raise ValueError("Hölder regression is defined for the additive constant-sigma setup")
    if len(spec.delta_grid) < 4:
        raise ValueError("need at least 4 mesh levels for the regression")
    t = spec.sim.horizon / 2.0 if t is None else t
    lam = eigenvalues(spec.sim.params.domain, spec.sim.modes)
    means = []
    for level, delta in enumerate(spec.delta_grid):
        if t + delta > spec.sim.horizon + 1e-12:
            raise ValueError(f"increment [t, t + delta] leaves the horizon at delta = {delta}")
        cfg = replace(spec.sim, delta=delta)
        incs = sample_additive_increments(cfg, t, spec.replicates, seed=derive_seed(spec.sim.seed, level))
        norms = np.sqrt(hr_norm_sq(incs, lam, r))
        means.append(float(np.mean(norms)))
    x = np.log(np.asarray(spec.delta_grid))
    y = np.log(np.asarray(means))
    n = len(x)
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (intercept + slope * x)
    se = math.sqrt(float(np.sum(resid**2)) / (n - 2) / sxx)
    tcrit = float(stats.t.ppf(0.975, n - 2))
    return HolderEstimate(
        slope=slope,
        stderr=se,
        ci_low=slope - tcrit * se,
        ci_high=slope + tcrit * se,
        deltas=tuple(spec.delta_grid),
        mean_norms=tuple(means),
    )


@dataclass(frozen=True)
class LimitReport:
    """Theoretical constants for a parameter point: normalizer exponents, K_r, K(r, p),
    the Hölder exponent, and any spectral zeta values used (with their tail bounds)."""

    regime: str
    tau_delta_exponent: float
    tau_log_factor: bool
    k_r: float
    constants_by_order: dict[int, float]
    holder_alpha: float
    zeta_values: list[dict]

    def __post_init__(self):
        vals = [self.k_r, self.holder_alpha, *self.constants_by_order.values()]
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("limit constants must be finite")

    def to_json(self) -> dict:
        return {
            "regime": self.regime,
            "tau": {"delta_exponent": self.tau_delta_exponent, "log_factor": self.tau_log_factor},
            "k_r": self.k_r,
            "constants_by_order": {str(p): v for p, v in self.constants_by_order.items()},
            "holder_alpha": self.holder_alpha,
            "zeta_values": self.zeta_values,
        }


def report_constants(params: RegimeParams, orders, zeta_truncation: int = 20000) -> LimitReport:
    """Assemble the limit constants for the given orders p (variation orders 2p)."""
    regime = params.regime
    alpha = holder_exponent(params)
    orders = [int(p) for p in orders]
    constants = {p: limit_constant_even_power(params, p, truncation=zeta_truncation) for p in orders}
    zetas = []
    if regime is Regime.SUB:
        for l in range(1, max(orders, default=1) + 1):
            zv = spectral_zeta(params.domain, -l * params.r, zeta_truncation)
            zetas.append({"z": -l * params.r, "value": zv.value, "truncation": zv.truncation_index, "tail_bound": zv.tail_bound})
    return LimitReport(
        regime=regime.value,
        tau_delta_exponent=alpha,
        tau_log_factor=regime is Regime.CRITICAL,
        k_r=k_r(params, truncation=zeta_truncation),
        constants_by_order=constants,
        holder_alpha=alpha,
        zeta_values=zetas,
    )


def write_report(report: LimitReport, params: RegimeParams, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    spec_json = params.to_json()
    payload = {"params": spec_json, "report": report.to_json(), "meta": sidecar_metadata(spec_json)}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
