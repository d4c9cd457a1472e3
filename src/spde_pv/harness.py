"""Experiment engine: Monte Carlo convergence tables across meshes, Hölder regression,
constants reports, and persistence of results with reproducible seeding.

Replicates run serially, or in a thread pool when `--threads` > 1; aggregation is indexed by
replicate, so results are byte-identical regardless of the thread count.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, replace
from pathlib import Path

import numpy as np

from ._version import (
    BLOCK_ELEMENTS,
    aligned_empty,
    check_keys,
    file_name,
    json_float,
    json_int,
    json_list,
    write_csv,
    write_json,
)
from .limits import (
    ZETA_TRUNCATION,
    Regime,
    RegimeParams,
    functional_values,
    holder_exponent,
    increment_power_sums,
    increment_weights,
    k_r,
    limit_constant_even_power,
    limit_process_general_sigma,
    norm_weights,
    spectral_zeta,
)
from .qform import conditional_power_means, norm_functional_mean, power_sum_moments
from .rqmc import mu_rF_estimate
from .simulator import (
    ConstantSigma,
    FieldSigma,
    SimConfig,
    eigenvalues,
    iter_additive_states,
    iter_field_states,
    normal_stream,
    sample_additive_increments,  # unused here: the benchmark's tracer patches this binding
)
from .spectrum import _power_tail, _weyl_scale, composite_gauss_legendre, hr_weights
from .variations import (
    VariationRequest,
    check_requests,
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
    "variation_levels",
    "estimate_holder",
    "report_constants",
    "derive_seed",
]

# the RQMC points behind every general-F target, and the seed of the first time node's scramblings
MU_SAMPLES = 2**14
MU_SEED = 7

# the levels in the mode count of `run_convergence` (two) and of `estimate_holder` (a ladder): a level below K has
# K // LEVEL_RATIO modes, and not fewer than MIN_BASE_MODES, below which a stream's fixed cost per step (about that
# of 80 modes) is most of a base replicate; at 64 a base replicate still costs 0.22-0.25 of one at K = 512
# (measured), so two levels pay from K = 512 on; a correction level's first PILOT_REPLICATES coupled replicates
# (at least) set its size
LEVEL_RATIO = 8
MIN_BASE_MODES = 64
PILOT_REPLICATES = 2


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
        file_name(self.name, "experiment name")  # it prefixes the output files
        object.__setattr__(self, "variations", tuple(self.variations))
        object.__setattr__(self, "delta_grid", tuple(float(d) for d in self.delta_grid))
        check_requests(self.variations)
        for req in self.variations:
            if req.normalizer is not None:
                raise ValueError(
                    f"variation {req.label!r} fixes 'normalizer', but every convergence target assumes "
                    "tau_n at the row's own mesh; the override belongs to the 'variation' command"
                )
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        t = self.sim.horizon
        for d in self.delta_grid:
            if not 0.0 < d < t:
                raise ValueError(f"delta_grid entry {d} must lie in (0, horizon = {t})")
        if len(self.delta_grid) == 0:
            raise ValueError("delta grid is empty")
        if any(b >= a for a, b in zip(self.delta_grid, self.delta_grid[1:])):
            raise ValueError("delta grid must be strictly decreasing")
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
            name=obj.get("name", "experiment"),
            sim=SimConfig.from_json(obj["sim"]),
            variations=tuple(VariationRequest.from_json(v) for v in json_list(obj["variations"], "variations")),
            delta_grid=tuple(json_float(d, "delta_grid") for d in json_list(obj["delta_grid"], "delta_grid")),
            replicates=json_int(obj["replicates"], "replicates"),
            output_dir=output_dir,
        )


@dataclass(frozen=True)
class ConvergenceRow:
    """One (mesh, request) cell of the convergence table."""

    # the CSV header and the JSON keys, in field order
    COLUMNS = ("delta", "request", "mean_V_at_T", "std_error", "theoretical_limit", "abs_error", "sup_error_over_grid")

    delta: float
    request_label: str
    mean_V_at_T: float
    std_error: float
    theoretical_limit: float
    abs_error: float
    sup_error_over_grid: float

    def to_json(self) -> dict:
        row = dict(zip(self.COLUMNS, astuple(self)))
        return row | {"std_error": None if math.isnan(self.std_error) else self.std_error}


def theoretical_limit_rate(req: VariationRequest, sim: SimConfig) -> float:
    """Per-unit-time limit of the requested variation under the experiment's sigma: the one dispatch from (sigma,
    regime, request) to a target.

    A state sigma gives a random limit, so no sigma but a constant or a field one has a target.  Below the
    transition sigma enters through the law of a Gaussian functional: a power or f request has the exact mean of
    its function of the H_r norm (`norm_functional_mean` on `norm_weights`, where an even power is a Bell moment of
    the zeta values), and only a general coefficient functional F is estimated by randomized quasi-Monte Carlo
    (`mu_rF_estimate`, `MU_SAMPLES` points from seed `MU_SEED`).  A field sigma integrates that mean over time with
    a fixed 3-point rule.  At and above the transition sigma enters only through s -> int_D sigma^2(s, y) dy, and a
    power or f request is a time integral of it (`limit_process_general_sigma`); an F request has no limit there.
    """
    sigma, params = sim.sigma, replace(sim.params, r=req.r)
    if not isinstance(sigma, (ConstantSigma, FieldSigma)):
        raise ValueError("state-dependent sigma admits no deterministic limit; no theoretical target")
    g = req.f if req.p is None else req.p
    if params.regime is not Regime.SUB:
        if req.F is not None:
            raise ValueError("general functionals have no limit at or above the transition")
        if isinstance(sigma, ConstantSigma):
            c2 = sigma.value**2 * params.domain.volume
            integral = lambda s: c2
        else:  # d = 1, as `SimConfig` checks
            nodes, wts = composite_gauss_legendre(0.0, params.domain.sides[0], panels=max(64, sim.modes), order=10)

            def integral(s: float) -> float:
                vals = np.asarray(sigma.fn(s, nodes), dtype=float)
                return float(np.sum(vals * vals * wts))

        return limit_process_general_sigma(params, g, integral)(1.0)
    # (time-quadrature weight, covariance weight, truncation)
    if isinstance(sigma, ConstantSigma):
        terms = [(1.0, sigma.value**2, 1000)]
    else:
        s_nodes, s_wts = composite_gauss_legendre(0.0, 1.0, panels=1, order=3)
        terms = [(w_s, lambda y, s=s: np.asarray(sigma.fn(s, y), dtype=float) ** 2, 300)
                 for s, w_s in zip(s_nodes, s_wts)]
    total = 0.0
    for i, (w_s, weight, truncation) in enumerate(terms):
        if req.F is not None:
            est = mu_rF_estimate(req.F, weight, params, truncation=truncation, samples=MU_SAMPLES, seed=MU_SEED + i)
            total += w_s * est.mean
        else:
            a, tail = norm_weights(params, weight, truncation)
            total += w_s * norm_functional_mean(g, a, tail)
    return total


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


def _kernel_workspace(modes: int) -> np.ndarray:
    """The variation kernel's three flat sub-block buffers, the increments, their squares and the increments
    divided by tau, each of at most BLOCK_ELEMENTS numbers at any width up to `modes` (one row if wider), and
    each starting on a 64-byte boundary (`aligned_empty`)."""
    width = -(-max(BLOCK_ELEMENTS, modes) // 8) * 8  # a whole number of 64-byte lines per buffer
    return aligned_empty(3 * width).reshape(3, width)


def variation_levels(cfg: SimConfig, blocks, requests, deltas, work: np.ndarray | None = None,
                     base_modes: int | None = None, high_moments: list[dict] | None = None):
    """Per-level variation series for every request, from the fine-mesh states of one path.

    `blocks` yields the states a(t_1), .., a(t_N) of a path started at zero at the finest
    mesh `cfg.delta = deltas[-1]`, in row blocks of shape (rows, modes): `iter_states(cfg)`,
    or `[path.coeffs[1:]]` of a stored path.  The kernel copies what it keeps, so a stream
    may reuse its buffer.  Level l reads every `s`-th state, s = n_fine / n_l, which is an
    exact path at mesh `deltas[l]` for the additive scheme, and normalizes request j by its
    tau at that mesh.  Each block is reduced as it arrives, in sub-blocks of at most 2^15
    numbers: per level one subtraction forms the sub-block's increments, one product of their
    squares their squared H_r norms, and F is called once on them divided by tau.  The
    increments, their squares and the divided increments live in the three buffers of `work`
    (`_kernel_workspace(cfg.modes)`, viewed at this width, or allocated here if not given),
    so nothing of the budget's size is allocated per sub-block, and F is handed a reused
    buffer.  A non-finite increment, which a stream does not check itself, is rejected, and f
    is called once on all of a level's normalized norms.  Returns one list of series per level.

    With `base_modes` K0 < K the one pass also reduces the path of the first K0 modes, which for
    the additive scheme is an exact K0-mode path coupled to the K-mode one: the weight matrix
    gains one column per distinct r that is zero past K0, and F is called once more on the first
    K0 columns.  Each level's list then holds the K-mode series of the requests followed by their
    K0-mode series.

    With `high_moments`, the path's modes are the first K0 = cfg.modes of a model with more, which add to the
    squared norm S_i of increment i an independent S_hi,i with moments high_moments[l][r][i - 1, j - 1] = E S_hi,i^j
    for every r of an even-power request.  An even power p = 2q then takes the exact conditional mean of its summand
    given the path, E (S_i + S_hi,i)^q / tau^p (`conditional_power_means`); any other request is reduced as it stands.
    """
    d = cfg.params.d
    for req in requests:
        if req.F is not None and not req.r < -d / 2.0:
            raise ValueError(
                f"general functionals need r < -d/2 = {-d / 2.0}: above the transition the normalized "
                "increments admit no tight nondegenerate normalization"
            )
    if base_modes is not None and not 1 <= base_modes < cfg.modes:
        raise ValueError(f"base_modes must lie in [1, {cfg.modes}), got {base_modes}")
    lam = eigenvalues(cfg.params.domain, cfg.modes)
    rs = tuple(dict.fromkeys(req.r for req in requests))
    weights = hr_weights(lam, rs)
    # (modes, offset of their weight columns) of every path the pass reduces
    paths = [(cfg.modes, 0)]
    if base_modes is not None:
        weights = np.hstack([weights, weights])
        weights[base_modes:, len(rs):] = 0.0
        paths.append((base_modes, len(rs)))
    n = cfg.n_steps
    strides = _level_strides(deltas, cfg.horizon)
    taus = [[resolve_normalizer(req, cfg.params, delta) for req in requests] for delta in deltas]
    f_rows = [i for i, req in enumerate(requests) if req.F is not None]
    sq_norms = [np.empty((n // s, weights.shape[1])) for s in strides]
    f_vals = [[{i: np.empty(n // s) for i in f_rows} for s in strides] for _ in paths]
    height = max(1, BLOCK_ELEMENTS // cfg.modes)
    work = _kernel_workspace(cfg.modes) if work is None else work
    diff, squares, scaled = work[:, : height * cfg.modes].reshape(3, height, cfg.modes)
    prev = [np.zeros(cfg.modes) for _ in strides]

    read = 0
    for block in blocks:
        if np.ndim(block) != 2 or np.shape(block)[1] != cfg.modes:
            raise ValueError(f"a state block must have shape (rows, {cfg.modes}), got {np.shape(block)}")
        block = block[: n - read]
        for start in range(0, len(block), height):
            sub = block[start : start + height]
            for lv, s in enumerate(strides):
                states = sub[(s - 1 - read) % s :: s]
                if not len(states):
                    continue
                lo, hi = read // s, read // s + len(states)
                inc = diff[: len(states)]
                np.subtract(states[1:], states[:-1], out=inc[1:])
                np.subtract(states[0], prev[lv], out=inc[0])
                prev[lv][:] = states[-1]
                np.matmul(np.multiply(inc, inc, out=squares[: len(states)]), weights, out=sq_norms[lv][lo:hi])
                # a non-finite sub-block is left to the path check below, which names its first bad increment
                if f_rows and np.isfinite(sq_norms[lv][lo:hi]).all():
                    where = f"increment i = {lo + 1}..{hi}, delta = {deltas[lv]}"
                    for i in f_rows:
                        x = np.divide(inc, taus[lv][i], out=scaled[: len(states)])
                        for (modes, _), vals in zip(paths, f_vals):
                            vals[lv][i][lo:hi] = functional_values(
                                "F", requests[i].F, x[:, :modes], lam[:modes], requests[i].r, where=where
                            )
            read += len(sub)
        if read == n:
            break
    if read < n:
        raise ValueError(f"the path ended after {read} of its {n} states")
    del prev, weights, lam  # the series below need none of them

    for lv, delta in enumerate(deltas):
        bad = ~np.isfinite(sq_norms[lv]).all(axis=1)
        if bad.any():
            raise ValueError(f"the path is not finite: increment i = {int(np.argmax(bad)) + 1} at delta = {delta}")
    out = []
    for lv, delta in enumerate(deltas):
        level = []
        times = delta * np.arange(len(sq_norms[lv]) + 1)  # one grid, shared by the level's series
        for (_, offset), vals in zip(paths, f_vals):
            for i, req in enumerate(requests):
                if req.F is not None:
                    level.append(series_from_values(vals[lv][i], delta, times))
                    continue
                sq = sq_norms[lv][:, offset + rs.index(req.r)]
                q = req.even_order if high_moments is not None else None
                if q:
                    values = conditional_power_means(sq, high_moments[lv][req.r], q) / taus[lv][i] ** req.p
                    series = series_from_values(values, delta, times)
                else:
                    f = (lambda p: (lambda x: x**p))(req.p) if req.p is not None else req.f
                    series = series_from_norms(np.sqrt(sq), delta, taus[lv][i], f, times)
                if req.p is not None and np.any(np.diff(series.values) < 0.0):
                    raise AssertionError("power variation series must be non-decreasing")
                level.append(series)
        out.append(level)
        sq_norms[lv] = None  # each level's norms are freed once its series are built
    return out


def _truncation_record(spec: ExperimentSpec) -> dict:
    """Mode-truncation tail of the most demanding requested r against the default-K rule."""
    params = spec.sim.params
    r_max = max(req.r for req in spec.variations)
    c = _weyl_scale(eigenvalues(params.domain, spec.sim.modes), params.d)
    tail = _power_tail(c, r_max - params.gamma, params.d, spec.sim.modes)
    threshold = 1e-4 * k_r(replace(params, r=r_max)) * min(spec.delta_grid)
    return {
        "most_demanding_r": r_max,
        "hr_tail_beyond_K": tail,
        "threshold_1e-4_Kr_delta": threshold,
        "satisfied": bool(tail < threshold),
    }


def _mode_ladder(spec: ExperimentSpec, pilots: bool = True) -> list[int]:
    """The mode counts K_0 < .. < K_L = K of the levels in the mode count: K // LEVEL_RATIO^j down to the last that
    is at least MIN_BASE_MODES, below which a stream's cost per step hardly falls with its modes.  One level, [K],
    runs where two cannot pay: under a field or state sigma, whose modes are not independent, and, for a caller that
    draws `pilots`, where M <= PILOT_REPLICATES, because M base replicates at K // LEVEL_RATIO modes and the pilots
    at K cost at least M replicates at K (M K_0 / K + 2 >= M holds exactly when M <= 2 at LEVEL_RATIO = 8)."""
    ladder = [spec.sim.modes]
    if isinstance(spec.sim.sigma, ConstantSigma) and (not pilots or spec.replicates > PILOT_REPLICATES):
        while ladder[0] // LEVEL_RATIO >= MIN_BASE_MODES:
            ladder.insert(0, ladder[0] // LEVEL_RATIO)
    return ladder


def _correction_replicates(cost_ratio: float, base: np.ndarray, pilots: np.ndarray) -> tuple[int, float]:
    """Giles' count M1 = M sqrt(V1 / V0 * K0 / K) of the coupled replicates of `run_convergence`, at least the
    pilots and at most M, and the V1 / V0 that fixed it: the largest ratio over the rows of V1, the variance of the
    pilots' differences V_K - V_K0 (`pilots`, shape (mesh levels, pilots, rows)), to V0, that of the M base
    values (`base`, (mesh levels, M, rows)); a row whose pilots do not vary counts 0, and one whose base values do
    not vary while its pilots do, infinity, which takes M1 = M."""
    m = base.shape[1]
    v0, v1 = np.var(base, axis=1, ddof=1), np.var(pilots, axis=1, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = float(np.max(np.where(v1 > 0.0, v1 / v0, 0.0)))
    if not ratio < math.inf:  # a row whose base values do not vary
        return m, ratio
    return min(m, max(PILOT_REPLICATES, math.ceil(m * math.sqrt(ratio * cost_ratio)))), ratio


def _increment_power_sums(spec: ExperimentSpec, start: int, stop: int) -> list[dict]:
    """Per mesh level, {r: the (steps, orders) power sums of the increment weights of the modes start < k <= stop}
    (`increment_power_sums`) for every r of an even-power request, to the order p / 2 of its highest power."""
    sim, orders = spec.sim, {}
    for req in spec.variations:
        if req.even_order:
            orders[req.r] = max(orders.get(req.r, 0), req.even_order)
    return [{r: increment_power_sums(replace(sim.params, r=r), delta, grid_index(sim.horizon, delta), stop, q,
                                     sim.sigma.value, start) for r, q in orders.items()} for delta in spec.delta_grid]


def run_convergence(spec: ExperimentSpec, threads: int = 1) -> list[ConvergenceRow]:
    """Simulate M replicates, compare each variation against K * t per mesh, and tabulate.

    Each replicate is one path at the finest mesh; every coarser level reads that path
    at its own stride, so the grid must be nested and the mesh levels are coupled.

    The rows are estimated on a list of Monte Carlo levels, each of which serves some of them.  For the
    additive scheme the base level runs M replicates at K0 = K // LEVEL_RATIO modes, an exact K0-mode path
    independent of the modes past it, and serves every row.  An even power reads it alone: each summand is its
    exact conditional mean given the K0 modes (`variation_levels` with `high_moments`, from the table of
    `increment_power_sums`), so the row's mean is the K-mode model's (Rao-Blackwell).  The rows that are not
    even powers are also served by the coupled level of Giles (2008): M1 replicates at K modes, each reduced in
    one pass to V_K - V_K0 of those rows (`base_modes`), whose first PILOT_REPLICATES fix M1 by Giles' rule on
    those rows (`_correction_replicates`) and are kept.  A row's mean and sup deviation sum over the levels that
    serve it, mean0 + mean1, and its standard error is sqrt(s0^2 / M + s1^2 / M1).  Where two levels cannot pay
    (`_mode_ladder`, which counts the pilots only for a spec with a coupled row), one level runs the M
    replicates at K.  Replicate `idx` is seeded with `derive_seed(seed, (L - 1) * M + idx)` for L mesh levels,
    the M base replicates first, so coupled replicate j takes `derive_seed(seed, L * M + j)`.  No count and no
    output depends on the thread count.

    Writes `<name>_convergence.csv` and `<name>_summary.json` when the spec carries an
    output directory; the summary's `levels` block gives each level's modes, replicates, normals
    drawn and `integrated_modes`, and the correction level's `variance_ratio`, the V1 / V0 that
    fixed M1; an even-power row gains `exact_mean` (`_exact_means`).  The sup deviation is taken
    on the coarsest grid of the experiment, so rows are comparable across mesh levels.
    """
    requests = spec.variations
    deltas = spec.delta_grid
    strides = _level_strides(deltas, spec.sim.horizon)  # reject a non-nested grid before the targets
    targets = [theoretical_limit_rate(req, spec.sim) for req in requests]
    for req, target in zip(requests, targets):
        if not math.isfinite(target):
            raise ValueError(f"variation {req.label!r} has the non-finite limit rate {target}: no finite target")
    t_end = spec.sim.horizon
    common_times = deltas[0] * np.arange(1, grid_index(t_end, deltas[0]) + 1)
    m = spec.replicates
    fine_cfg = replace(spec.sim, delta=deltas[-1])
    additive = isinstance(fine_cfg.sigma, ConstantSigma)
    even = additive and any(req.even_order for req in requests)
    coupled_rows = [j for j, req in enumerate(requests) if not req.even_order]  # the rows that need pilots
    # the top two rungs of the ladder: at M = 8 a third level does not pay (ROADMAP item 20, measured), because
    # Giles' rule puts most of the replicates on the middle rung
    ladder = _mode_ladder(spec, pilots=bool(coupled_rows))[-2:]
    k, k0 = ladder[-1], ladder[0] if len(ladder) > 1 else None
    high_moments = None if k0 is None or not even else [
        {r: power_sum_moments(sums) for r, sums in level.items()} for level in _increment_power_sums(spec, k0, k)]
    # the Monte Carlo levels, each with its modes, the rows it serves and how `variation_levels` reduces them: the
    # base level serves every row, and the coupled level the rows that are not even powers, as V_K - V_K0
    mc = [{"modes": ladder[0], "rows": range(len(requests)), "kernel": {"high_moments": high_moments}}]
    if k0 is not None and coupled_rows:
        mc.append({"modes": k, "rows": coupled_rows, "kernel": {"base_modes": k0}})
    # ahead of the replicates, whose buffers would otherwise stand beside the table over all K modes
    exact = _exact_means(spec) if even and spec.output_dir is not None else [None] * len(requests) * len(deltas)

    # one kernel workspace and one normal-stream buffer per worker thread, 64-byte aligned and reused by its
    # replicates at every width: allocated per replicate, they were trimmed from the heap at the end of each
    # replicate and faulted in again
    buffers = threading.local()

    def one_replicate(idx: int) -> np.ndarray:
        """V(T) and the sup deviation, shape (2, mesh levels, rows of its level), of base replicate idx < M or, past
        M, the differences V_K - V_K0 of coupled replicate idx - M."""
        seed = derive_seed(spec.sim.seed, (len(deltas) - 1) * m + idx)
        coupled = idx >= m  # only a two-level run goes past M
        level = mc[coupled]
        served = level["rows"]
        try:
            cfg = replace(fine_cfg, seed=seed, modes=level["modes"])
            if not hasattr(buffers, "work"):
                buffers.work = _kernel_workspace(k)
                buffers.normals = aligned_empty(max(BLOCK_ELEMENTS, k)) if additive else None
            # not `iter_states`: the benchmark's tracer times the additive stream at this module's binding
            stream = iter_additive_states(cfg, buffers.normals) if additive else iter_field_states(cfg)
            reqs = tuple(requests[j] for j in served)
            per_level = variation_levels(cfg, stream, reqs, deltas, buffers.work, **level["kernel"])
            # (V(T) and sup deviation, mesh levels, paths, rows), of the path's K modes and, coupled, its first K0
            values = np.empty((2, len(deltas), 1 + coupled, len(served)))
            for lv, path, c in np.ndindex(values.shape[1:]):
                series = per_level[lv][path * len(served) + c]
                ratio = strides[0] // strides[lv]  # level steps per step of the coarsest grid
                sup = np.max(np.abs(series.values[ratio::ratio] - targets[served[c]] * common_times))
                values[:, lv, path, c] = series.value_at(t_end), sup
        except Exception as exc:
            name = f"coupled replicate {idx - m}" if coupled else f"replicate {idx}"
            raise RuntimeError(f"{name} (seed {seed}) failed: {exc}") from exc
        return values[:, :, 0] - values[:, :, 1] if coupled else values[:, :, 0]

    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:  # its threads start with its first task
        run = pool.map if threads > 1 else map
        pilots = PILOT_REPLICATES * (len(mc) - 1)
        results = list(run(one_replicate, range(m + pilots)))
        if pilots:
            base, drawn = (np.stack(part, axis=2)[0] for part in (results[:m], results[m:]))
            m1, v_ratio = _correction_replicates(k0 / k, base[:, :, coupled_rows], drawn)
            results += run(one_replicate, range(m + pilots, m + m1))
    for level, part in zip(mc, (results[:m], results[m:])):  # values of shape (2, mesh levels, replicates, rows)
        level["values"], level["replicates"] = np.stack(part, axis=2), len(part)

    rows: list[ConvergenceRow] = []
    for lv, delta in enumerate(deltas):
        for j, req in enumerate(requests):
            # the row's V(T) and sup deviation on each level that serves it
            cells = [level["values"][:, lv, :, c] for level in mc for c, row in enumerate(level["rows"]) if row == j]
            mean = sum(float(np.mean(v)) for v, _ in cells)
            se = math.hypot(*(float(np.std(v, ddof=1)) / math.sqrt(len(v)) for v, _ in cells)) if m > 1 else math.nan
            limit_at_T = targets[j] * t_end
            rows.append(ConvergenceRow(delta=delta, request_label=req.label, mean_V_at_T=mean, std_error=se,
                                       theoretical_limit=limit_at_T, abs_error=abs(mean - limit_at_T),
                                       sup_error_over_grid=sum(float(np.mean(s)) for _, s in cells)))
    if spec.output_dir is not None:
        per_step = lambda modes: modes if additive else fine_cfg.spatial_grid  # the normals of one step
        mc_levels = [{"modes": level["modes"], "replicates": level["replicates"],
                      "normals": level["replicates"] * fine_cfg.n_steps * per_step(level["modes"])} for level in mc]
        if high_moments is not None:  # the modes whose part of every even-power row is exact
            mc_levels[0]["integrated_modes"] = [k0 + 1, k]
        if pilots:  # the V1 / V0 that fixed M1
            mc_levels[1]["variance_ratio"] = v_ratio if v_ratio < math.inf else None
        _write_convergence(spec, rows, mc_levels, exact)
    return rows


def _exact_means(spec: ExperimentSpec) -> list[float | None]:
    """Per row of `run_convergence`, the exact mean of V(T) in the K-mode model of an even power p = 2q, delta
    tau^-p sum_i E ||Delta_i||^p from the Bell moments of the table over all K modes, and None for any other row."""
    out = []
    for delta, sums in zip(spec.delta_grid, _increment_power_sums(spec, 0, spec.sim.modes)):
        steps = grid_index(spec.sim.horizon, delta)
        for req in spec.variations:
            q = req.even_order
            if not q:
                out.append(None)
                continue
            moments = power_sum_moments(sums[req.r])[:, q - 1]  # every step past the last row repeats it
            tau = resolve_normalizer(req, spec.sim.params, delta)
            out.append(delta * (float(np.sum(moments)) + (steps - len(moments)) * moments[-1]) / tau**req.p)
    return out


def _write_convergence(spec: ExperimentSpec, rows: list[ConvergenceRow], mc_levels: list[dict], exact: list) -> None:
    out = spec.output_dir
    write_csv(out / f"{spec.name}_convergence.csv", ConvergenceRow.COLUMNS, map(astuple, rows))
    spec_json = spec.to_json()
    summary = {
        "spec": spec_json,
        # an even-power row's exact K-mode mean goes to the summary only: the CSV keeps its columns
        "rows": [row.to_json() | ({} if mean is None else {"exact_mean": mean}) for row, mean in zip(rows, exact)],
        "truncation": _truncation_record(spec),
        "levels": mc_levels,
    }
    write_json(out / f"{spec.name}_summary.json", summary, spec_json)


def _t_quantile(p: float, df: int) -> float:
    """The p quantile of Student's t law with df degrees of freedom, df an integer >= 1.

    For integer df, P(|T| < t) is a finite series in theta = arctan(t / sqrt(df)) (Abramowitz and Stegun
    26.7.3-4).  With c = cos theta and S the sum over k = df % 2, df % 2 + 2, ..., df - 2 of c^k w_k, where w_k
    is the product of (j - 1) / j over j = df % 2 + 2, ..., k, it is S sin theta for even df and
    2 / pi (theta + S sin theta) for odd df.  Each term is one exp of its logarithm, so that its rounding does
    not grow with k.  The theta-derivative is 2 Gamma((df + 1) / 2) / (sqrt(pi) Gamma(df / 2)) c^(df - 1).
    Newton's method, kept inside a shrinking bracket by bisection, solves P(|T| < t) = |2p - 1| for theta in
    (0, pi / 2) until the bracket holds two adjacent floats.  The work grows with df, which is a few for a
    regression over mesh levels.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {p}")
    if not float(df).is_integer() or df < 1:
        raise ValueError(f"degrees of freedom must be an integer >= 1, got {df}")
    nu = int(df)
    target = abs(2.0 * p - 1.0)
    scale = 2.0 / math.sqrt(math.pi) * math.exp(math.lgamma((nu + 1) / 2.0) - math.lgamma(nu / 2.0))

    def central(theta: float) -> float:
        c, s = math.cos(theta), math.sin(theta)
        log_c2 = 2.0 * math.log(c) if c < s else math.log1p(-s * s)  # log c^2, to a relative error of a few ulps
        terms, log_weight = [], 0.0
        for k in range(nu % 2, nu - 1, 2):
            terms.append(math.exp(0.5 * k * log_c2 + log_weight))
            log_weight += math.log1p(-1.0 / (k + 2))
        series = s * math.fsum(terms)
        return series if nu % 2 == 0 else 2.0 / math.pi * (theta + series)

    lo, hi, theta = 0.0, math.pi / 2.0, target * math.pi / 2.0
    while math.nextafter(lo, hi) < hi:
        resid = central(theta) - target
        if resid == 0.0:
            break
        lo, hi = (theta, hi) if resid < 0.0 else (lo, theta)
        slope = scale * math.cos(theta) ** (nu - 1)  # 0 where it underflows: bisect
        newton = theta - resid / slope if slope > 0.0 else math.nan
        theta = newton if lo < newton < hi else 0.5 * (lo + hi)
    return math.copysign(math.sqrt(nu) * math.tan(theta), p - 0.5)


@dataclass(frozen=True)
class HolderEstimate:
    """OLS slope of log E||u(t + delta) - u(t)||_{H_r} against log delta.

    `stderr` and the 95% interval `ci_low`..`ci_high` (Student t, levels - 2 degrees of freedom, its quantile
    from the closed form of `_t_quantile`) come from the residuals of the fit: they measure how far the log
    mean norms lie from a line, not the Monte Carlo error of those means.  `mc_stderr` is that Monte Carlo
    error: the delta-method standard error of the slope, from the sample covariance of the per-sample level
    norms (which the shared draw correlates), telescoped over the Monte Carlo levels, or NaN with a single
    replicate.  `mean_norm_stderr` is each mean norm's Monte Carlo error, telescoped the same way.  `levels`
    gives each Monte Carlo level's modes, samples, normals drawn and `variance`, the variance of its samples'
    slope term that sized it (with one level, the one behind `mc_stderr`).
    """

    slope: float
    stderr: float
    ci_low: float
    ci_high: float
    mc_stderr: float
    deltas: tuple[float, ...]
    mean_norms: tuple[float, ...]
    mean_norm_stderr: tuple[float, ...]
    levels: tuple[dict, ...]

    def to_json(self) -> dict:
        return {
            "slope": self.slope,
            "stderr": self.stderr,
            "ci95": [self.ci_low, self.ci_high],
            "mc_stderr": None if math.isnan(self.mc_stderr) else self.mc_stderr,
            "deltas": list(self.deltas),
            "mean_norms": list(self.mean_norms),
            "mean_norm_stderr": [None if math.isnan(v) else v for v in self.mean_norm_stderr],
            "levels": list(self.levels),
        }


def _reduce_normals(blocks, weights: np.ndarray, out: np.ndarray, base_modes: int | None = None) -> int:
    """Square each row block of normals in place and multiply it by the (modes, levels) `weights`, into the next
    rows of out[0]: the squared level norms of its samples.  With `base_modes` K0 the first K0 columns of the
    squared block times the first K0 rows of `weights` go into out[1]: the squared norms of the same samples at
    K0 modes, with no second weight matrix.  Returns the number of rows reduced."""
    start = 0
    for block in blocks:
        rows = slice(start, start + len(block))
        np.matmul(np.multiply(block, block, out=block), weights, out=out[0, rows])
        if base_modes is not None:
            np.matmul(block[:, :base_modes], weights[:base_modes], out=out[1, rows])
        start += len(block)
    return start


def _slope_gradient(x: np.ndarray, means: np.ndarray) -> np.ndarray:
    """The gradient of the OLS slope of log(means) on x with respect to the means."""
    xbar = x.mean()
    return (x - xbar) / (float(np.sum((x - xbar) ** 2)) * means)


def _slope_variances(terms: list[np.ndarray], x: np.ndarray) -> list[float]:
    """V_l, the sample variance of level l's per-sample terms (`terms[l]`, shape (rows, mesh levels)) dotted with
    the slope's gradient at the telescoped means: to first order the slope moves by sum_l g_l (m_l - E m_l), so
    level l adds V_l / M_l to its variance, and the levels' independent errors add."""
    g = _slope_gradient(x, sum(part.mean(axis=0) for part in terms))
    return [float(np.var(part @ g, ddof=1)) for part in terms]


def _giles_counts(terms: list[np.ndarray], ladder: list[int], m: int, x: np.ndarray) -> tuple[list[int], list[float]]:
    """Giles' sample counts of the levels of `estimate_holder`, and the variances V_l that gave them.

    V_l is the variance of level l's slope term (`_slope_variances`), and the cost of a sample is its mode count
    K_l.  For the variance eps^2 = V_0 / M of M base samples, M_l = ceil(sum_j sqrt(V_j K_j) sqrt(V_l / K_l) /
    eps^2), and never fewer than the rows drawn; where V_0 is 0 or a V_l is not finite, the rows drawn.
    """
    v = _slope_variances(terms, x)
    drawn = [len(part) for part in terms]
    scale = sum(math.sqrt(vl * k) for vl, k in zip(v, ladder)) * m / v[0] if v[0] > 0.0 else math.nan
    if not math.isfinite(scale):
        return drawn, v
    return [max(rows, math.ceil(scale * math.sqrt(vl / k))) for rows, vl, k in zip(drawn, v, ladder)], v


def estimate_holder(spec: ExperimentSpec) -> HolderEstimate:
    """Regression estimate of the temporal Hölder exponent in H_r, r that of the spec's one variation request.

    Under constant sigma the increment over [t, t + delta], t = T / 2, is exactly N(0, diag a(delta)) in the
    coefficients, so its squared H_r norm is sum_k a_k(delta) xi_k^2 (`increment_weights`).  A sample
    draws one normal vector xi and serves every mesh level with it: the 256 KiB row blocks of xi are
    squared in place and multiplied by the (modes, levels) weight matrix (`_reduce_normals`), so memory
    does not grow with `replicates` and the draw does not grow with the levels.  Each level keeps its
    exact law, and the levels are coupled through xi, as `converge` couples its levels through one fine
    path.  The slope regresses the log of the Monte Carlo mean norm on log delta.

    The first K' coefficients of a K-mode sample are a K'-mode sample, so the estimator runs on a ladder
    of levels in the mode count (Giles 2008), K_0 < .. < K_L = K (`_mode_ladder`).  Level 0 draws its
    samples at K_0 modes from the stream of `sim.seed`.  Level l >= 1 draws rows of K_l normals from the
    stream of `derive_seed(sim.seed, l)`, and each row gives its norms at K_l and, from its first K_(l-1)
    columns, at K_(l-1).  Level 0 first draws M = `replicates` samples and level l max(PILOT_REPLICATES,
    ceil(M K_0 / (LEVEL_RATIO K_l))) pilot rows.  Giles' rule (`_giles_counts`) then sizes every level for
    the variance of M base samples, twice: from the pilots, and again from all the rows drawn by then.  A
    level never gives back rows, and each continues its one stream.  Each mean norm is
    mean_0(||D||_K_0) + sum_l mean_l(||D||_K_l - ||D||_K_(l-1)), `mc_stderr` is sqrt(sum_l var_l(d_l . g) /
    M_l), g the slope's gradient at those means, and `mean_norm_stderr` telescopes each mean norm's error
    the same way.  Where two levels cannot pay (`_mode_ladder`, which counts the pilots every ladder draws),
    one level draws the M samples at K from the stream of `sim.seed`.
    """
    sim = spec.sim
    if not isinstance(sim.sigma, ConstantSigma):
        raise ValueError("Hölder regression is defined for the additive constant-sigma setup")
    if len(spec.variations) != 1:
        raise ValueError(f"Hölder regression reads its r from one variation request, got {len(spec.variations)}")
    if len(spec.delta_grid) < 4:
        raise ValueError("need at least 4 mesh levels for the regression")
    if sim.sigma.value == 0.0:
        raise ValueError("constant sigma = 0 makes every increment norm 0: log 0 has no slope to regress")
    t = sim.horizon / 2.0
    for delta in spec.delta_grid:
        if t + delta > sim.horizon + 1e-12:
            raise ValueError(f"increment [t, t + delta] leaves the horizon at delta = {delta}")
    params = replace(sim.params, r=spec.variations[0].r)
    weights = np.empty((sim.modes, len(spec.delta_grid)))
    for lv, delta in enumerate(spec.delta_grid):
        weights[:, lv] = increment_weights(params, delta, t + delta, sim.modes, sim.sigma.value)
    m, ladder = spec.replicates, _mode_ladder(spec)
    x = np.log(np.asarray(spec.delta_grid))
    # one block buffer for every stream: each block is reduced before the next one of any stream is drawn
    buffer = aligned_empty(max(BLOCK_ELEMENTS, sim.modes))
    draws = [normal_stream(derive_seed(sim.seed, l) if l else sim.seed, k, buffer) for l, k in enumerate(ladder)]
    # each level's per-sample terms: the norms at K_0 on level 0, the differences ||D||_K_l - ||D||_K_(l-1) past it
    terms = [np.empty((0, len(x))) for _ in ladder]

    def extend(l: int, rows: int) -> None:
        sq = np.empty((1 if l == 0 else 2, rows, len(x)))  # squared norms at K_l and, past level 0, at K_(l-1)
        _reduce_normals(draws[l](rows), weights[: ladder[l]], sq, ladder[l - 1] if l else None)
        terms[l] = np.concatenate([terms[l], np.sqrt(sq[0]) - np.sqrt(sq[1]) if l else np.sqrt(sq[0])])

    counts = [m, *(max(PILOT_REPLICATES, math.ceil(m * ladder[0] / (LEVEL_RATIO * k))) for k in ladder[1:])]
    variances = None
    for allocation in range(3 if len(ladder) > 1 else 1):  # the first draws, then Giles' rule twice
        if allocation:
            counts, variances = _giles_counts(terms, ladder, m, x)
        for l, count in enumerate(counts):
            if count > len(terms[l]):
                extend(l, count - len(terms[l]))
    means = sum(part.mean(axis=0) for part in terms)
    y = np.log(means)
    n = len(x)
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (intercept + slope * x)
    se = math.sqrt(float(np.sum(resid**2)) / (n - 2) / sxx)
    tcrit = _t_quantile(0.975, n - 2)
    if m > 1:
        slope_vars = _slope_variances(terms, x)
        mc_se = math.sqrt(sum(v / len(part) for v, part in zip(slope_vars, terms)))
        mean_se = np.sqrt(sum(np.var(part, axis=0, ddof=1) / len(part) for part in terms))
    else:
        slope_vars, mc_se, mean_se = [math.nan], math.nan, np.full(n, math.nan)
    variances = slope_vars if variances is None else variances  # one level: the variance behind mc_stderr
    return HolderEstimate(
        slope=slope,
        stderr=se,
        ci_low=slope - tcrit * se,
        ci_high=slope + tcrit * se,
        mc_stderr=mc_se,
        deltas=tuple(spec.delta_grid),
        mean_norms=tuple(float(v) for v in means),
        mean_norm_stderr=tuple(float(v) for v in mean_se),
        levels=tuple({"modes": k, "replicates": len(part), "normals": k * len(part),
                      "variance": None if math.isnan(v) else v} for k, part, v in zip(ladder, terms, variances)),
    )


@dataclass(frozen=True)
class LimitReport:
    """Theoretical constants for a parameter point: normalizer exponents, K_r, K(r, p),
    the Hölder exponent, and any spectral zeta values used (with tail bounds that hold on intervals only)."""

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


def report_constants(params: RegimeParams, orders) -> LimitReport:
    """Assemble the limit constants for the given orders p (variation orders 2p)."""
    regime = params.regime
    alpha = holder_exponent(params)
    constants = {}
    for p in orders:  # the value is computed first, so a non-integer order is rejected before int() truncates it
        constants[int(p)] = limit_constant_even_power(params, p)
    zetas = []
    if regime is Regime.SUB:
        for l in range(1, max(constants, default=1) + 1):
            zv = spectral_zeta(params.domain, -l * params.r, ZETA_TRUNCATION)
            zetas.append({"z": -l * params.r, "value": zv.value, "truncation": zv.truncation_index, "tail_bound": zv.tail_bound})
    return LimitReport(
        regime=regime.value,
        tau_delta_exponent=alpha,
        tau_log_factor=regime is Regime.CRITICAL,
        k_r=k_r(params),
        constants_by_order=constants,
        holder_alpha=alpha,
        zeta_values=zetas,
    )


def write_report(report: LimitReport, params: RegimeParams, path) -> None:
    spec_json = params.to_json()
    write_json(path, {"params": spec_json, "report": report.to_json()}, spec_json)
