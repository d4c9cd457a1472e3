"""Spectral-Galerkin path generation for the fractional stochastic heat equation.

Additive noise uses the exact Ornstein-Uhlenbeck transition per mode, so the only
approximation errors are mode truncation and Monte Carlo noise.  Non-constant noise
amplitudes use an accelerated exponential-Euler step with left-point evaluation and a
cell-wise projection of space-time white noise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Union

import numpy as np

from ._version import check_keys, sidecar_metadata
from .limits import RegimeParams, ou_law
from .spectrum import eigenfunction_values, eigenvalues, hr_norm_sq

__all__ = [
    "ConstantSigma",
    "FieldSigma",
    "StateSigma",
    "SigmaMode",
    "SIGMA_PRESETS",
    "SimConfig",
    "CoefficientPath",
    "simulate_additive",
    "simulate_field_sigma",
    "simulate",
    "iter_additive_states",
    "sample_additive_increments",
    "hr_norm",
    "increment_hr_norm",
    "increment_hr_norms",
    "evaluate_field",
]


@dataclass(frozen=True)
class ConstantSigma:
    """Constant noise amplitude sigma(t, x) = value."""

    value: float = 1.0


@dataclass(frozen=True)
class FieldSigma:
    """Deterministic amplitude sigma(t, x); `fn(t, x_array) -> array`."""

    fn: Callable[[float, np.ndarray], np.ndarray]
    name: str = "field"


@dataclass(frozen=True)
class StateSigma:
    """State-dependent amplitude sigma(u); `fn(u_array) -> array`, Lipschitz in u."""

    fn: Callable[[np.ndarray], np.ndarray]
    name: str = "state"


SigmaMode = Union[ConstantSigma, FieldSigma, StateSigma]

SIGMA_PRESETS: dict[str, SigmaMode] = {
    "sin_x": FieldSigma(fn=lambda t, x: np.sin(x), name="sin_x"),
    "time_ramp": FieldSigma(fn=lambda t, x: math.sqrt(t) * np.ones_like(x), name="time_ramp"),
    "linear_state": StateSigma(fn=lambda u: u, name="linear_state"),
    "cos_state": StateSigma(fn=lambda u: np.cos(u), name="cos_state"),
}


def _sigma_to_json(sigma: SigmaMode) -> dict:
    if isinstance(sigma, ConstantSigma):
        return {"mode": "constant", "value": sigma.value}
    if isinstance(sigma, (FieldSigma, StateSigma)):
        if sigma.name not in SIGMA_PRESETS:
            raise ValueError(f"sigma {sigma.name!r} is not a named preset and cannot be serialized")
        return {"mode": "field" if isinstance(sigma, FieldSigma) else "state", "preset": sigma.name}
    raise TypeError(f"unknown sigma mode {sigma!r}")


def _sigma_from_json(obj: dict) -> SigmaMode:
    mode = obj.get("mode", "constant")
    if mode not in ("constant", "field", "state"):
        raise ValueError(f"unknown sigma mode {mode!r}; available: ['constant', 'field', 'state']")
    check_keys(obj, ("mode", "value") if mode == "constant" else ("mode", "preset"), f"{mode} sigma")
    if mode == "constant":
        return ConstantSigma(float(obj.get("value", 1.0)))
    preset = obj.get("preset")
    if preset not in SIGMA_PRESETS:
        raise ValueError(f"unknown sigma preset {preset!r}; available: {sorted(SIGMA_PRESETS)}")
    sigma = SIGMA_PRESETS[preset]
    expected = FieldSigma if mode == "field" else StateSigma
    if not isinstance(sigma, expected):
        raise ValueError(f"preset {preset!r} is not a {mode!r} sigma")
    return sigma


@dataclass(frozen=True)
class SimConfig:
    """Simulation request: domain and gamma via `params`, mode count, time grid, noise."""

    params: RegimeParams
    modes: int
    delta: float
    horizon: float
    sigma: SigmaMode = ConstantSigma(1.0)
    spatial_grid: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.modes < 1:
            raise ValueError("need at least one mode")
        if not 0.0 < self.delta < self.horizon:
            raise ValueError(f"need 0 < delta < horizon, got delta={self.delta}, horizon={self.horizon}")
        if not isinstance(self.sigma, ConstantSigma) and self.spatial_grid < 2 * self.modes:
            raise ValueError(
                "non-constant sigma needs spatial_grid >= 2 * modes so the quadrature resolves "
                "eigenfunction products up to frequency 2K"
            )

    @property
    def n_steps(self) -> int:
        return int(math.floor(self.horizon / self.delta + 1e-12))

    @property
    def times(self) -> np.ndarray:
        return self.delta * np.arange(self.n_steps + 1)

    def to_json(self) -> dict:
        return {
            "domain": self.params.domain.to_json(),
            "gamma": self.params.gamma,
            "r": self.params.r,
            "modes": self.modes,
            "delta": self.delta,
            "horizon": self.horizon,
            "sigma": _sigma_to_json(self.sigma),
            "spatial_grid": self.spatial_grid,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SimConfig":
        check_keys(obj, ("domain", "gamma", "r", "modes", "delta", "horizon", "sigma", "spatial_grid", "seed"), "sim")
        params = RegimeParams.from_json({"domain": obj["domain"], "gamma": obj["gamma"], "r": obj.get("r", -1.0)})
        return cls(
            params=params,
            modes=int(obj["modes"]),
            delta=float(obj["delta"]),
            horizon=float(obj["horizon"]),
            sigma=_sigma_from_json(obj.get("sigma", {"mode": "constant", "value": 1.0})),
            spatial_grid=int(obj.get("spatial_grid", 0)),
            seed=int(obj.get("seed", 0)),
        )


@dataclass(frozen=True)
class CoefficientPath:
    """Solution path as the matrix a_k(t_i); row 0 is the zero initial condition."""

    config: SimConfig
    coeffs: np.ndarray

    def __post_init__(self):
        n, k = self.coeffs.shape
        if k != self.config.modes or n != self.config.n_steps + 1:
            raise ValueError(f"coefficient matrix shape {self.coeffs.shape} does not match the config")
        if np.any(self.coeffs[0] != 0.0):
            raise ValueError("path must start from the zero initial condition")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("path contains non-finite coefficients")

    @property
    def times(self) -> np.ndarray:
        return self.config.times

    @property
    def eigenvalues(self) -> np.ndarray:
        return eigenvalues(self.config.params.domain, self.config.modes)

    def save(self, prefix) -> tuple[Path, Path]:
        """Persist as <prefix>.npy plus a JSON sidecar with config and seed."""
        prefix = Path(prefix)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        npy = prefix.with_suffix(".npy")
        sidecar = prefix.with_suffix(".json")
        np.save(npy, self.coeffs)
        cfg_json = self.config.to_json()
        payload = {"config": cfg_json, "meta": sidecar_metadata(cfg_json)}
        sidecar.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return npy, sidecar

    @classmethod
    def load(cls, prefix) -> "CoefficientPath":
        prefix = Path(prefix)
        config = SimConfig.from_json(json.loads(prefix.with_suffix(".json").read_text())["config"])
        coeffs = np.load(prefix.with_suffix(".npy"))
        return cls(config=config, coeffs=coeffs)

    def write_norm_csv(self, path, r: float) -> None:
        """CSV of (t_i, ||u(t_i)||_{H_r})."""
        norms = np.sqrt(hr_norm_sq(self.coeffs, self.eigenvalues, r))
        with open(path, "w") as fh:
            fh.write("t,hr_norm\n")
            for t, v in zip(self.times, norms):
                fh.write(f"{t:.17g},{v:.17g}\n")


def _rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def iter_additive_states(config: SimConfig) -> Iterator[np.ndarray]:
    """Yield the coefficient rows a(t_1), .., a(t_N) of an additive-noise path.

    The transition a(t_{i+1}) = e^{-lam^g d} a(t_i) + c sqrt((1 - e^{-2 lam^g d})/(2 lam^g)) xi
    is the exact OU law, so two steps compose to one exact draw at the doubled mesh.
    """
    if not isinstance(config.sigma, ConstantSigma):
        raise ValueError("additive simulation requires a constant sigma; use simulate_field_sigma")
    c = config.sigma.value
    lam = eigenvalues(config.params.domain, config.modes)
    _, decay, variance = ou_law(lam, config.params.gamma, config.delta)
    scale = c * np.sqrt(variance(config.delta))
    rng = _rng_for(config.seed)
    state = np.zeros(config.modes)
    for _ in range(config.n_steps):
        state = decay * state + scale * rng.standard_normal(config.modes)
        yield state


def simulate_additive(config: SimConfig) -> CoefficientPath:
    """Exact-transition path for constant noise amplitude."""
    coeffs = np.zeros((config.n_steps + 1, config.modes))
    for i, row in enumerate(iter_additive_states(config), start=1):
        coeffs[i] = row
    return CoefficientPath(config=config, coeffs=coeffs)


def simulate_field_sigma(config: SimConfig) -> CoefficientPath:
    """Accelerated exponential-Euler path for deterministic-field or state-dependent noise amplitude.

    One standard normal per space-time cell, scaled by sqrt(delta w_m); sigma is frozen
    at the left time point (and at the current state in the state-dependent mode).  The
    projected shot enters mode k with gain sqrt(v_k(delta)/delta), the exact OU variance
    over one step, so a constant sigma reproduces the law of the additive scheme.
    """
    if isinstance(config.sigma, ConstantSigma):
        raise ValueError("constant sigma paths use the exact transition; call simulate_additive")
    d = config.params.d
    if d != 1:
        raise ValueError("grid-noise simulation supports d = 1 only")
    if isinstance(config.sigma, StateSigma) and config.params.gamma <= d / 2.0:
        raise ValueError("state-dependent noise requires gamma > d/2 for a random-field solution")
    L = config.params.domain.sides[0]
    m = config.spatial_grid
    nodes = (np.arange(m) + 0.5) * (L / m)
    cell = L / m
    phi = eigenfunction_values(config.params.domain, config.modes, nodes)
    lam = eigenvalues(config.params.domain, config.modes)
    _, decay, variance = ou_law(lam, config.params.gamma, config.delta)
    gain = np.sqrt(variance(config.delta) / config.delta)
    noise_scale = math.sqrt(config.delta * cell)
    rng = _rng_for(config.seed)
    coeffs = np.zeros((config.n_steps + 1, config.modes))
    state = np.zeros(config.modes)
    for i in range(1, config.n_steps + 1):
        t_left = (i - 1) * config.delta
        if isinstance(config.sigma, FieldSigma):
            amp = np.asarray(config.sigma.fn(t_left, nodes), dtype=float)
        else:
            u_vals = phi @ state
            amp = np.asarray(config.sigma.fn(u_vals), dtype=float)
        shot = phi.T @ (amp * noise_scale * rng.standard_normal(m))
        state = decay * state + gain * shot
        coeffs[i] = state
    return CoefficientPath(config=config, coeffs=coeffs)


def simulate(config: SimConfig) -> CoefficientPath:
    """Dispatch on the sigma mode."""
    if isinstance(config.sigma, ConstantSigma):
        return simulate_additive(config)
    return simulate_field_sigma(config)


def sample_additive_increments(config: SimConfig, t: float, count: int, seed: int | None = None) -> np.ndarray:
    """Draw `count` exact samples of the coefficient increment a(t + delta) - a(t).

    Uses the exact Gaussian two-time law of the additive-noise solution started at zero,
    i.e. the marginal of a full simulated path at times (t, t + delta); shape (count, modes).
    """
    if not isinstance(config.sigma, ConstantSigma):
        raise ValueError("exact increment sampling requires a constant sigma")
    if t < 0.0:
        raise ValueError("time must be non-negative")
    c = config.sigma.value
    lam = eigenvalues(config.params.domain, config.modes)
    beta, _, variance = ou_law(lam, config.params.gamma, config.delta)
    v_t = c * c * variance(t)
    q = c * c * variance(config.delta)
    std = np.sqrt(np.expm1(-beta * config.delta) ** 2 * v_t + q)
    rng = _rng_for(config.seed if seed is None else seed)
    return std * rng.standard_normal((count, config.modes))


def hr_norm(path: CoefficientPath, i: int, r: float) -> float:
    """H_r norm of the solution at time index i."""
    return math.sqrt(hr_norm_sq(path.coeffs[i], path.eigenvalues, r))


def increment_hr_norm(path: CoefficientPath, i: int, r: float) -> float:
    """H_r norm of u(t_i) - u(t_{i-1}); requires i >= 1."""
    if i < 1:
        raise ValueError("increments start at i = 1")
    return math.sqrt(hr_norm_sq(path.coeffs[i] - path.coeffs[i - 1], path.eigenvalues, r))


def increment_hr_norms(path: CoefficientPath, r: float, chunk: int = 8192) -> np.ndarray:
    """All N increment norms of a path in H_r, computed in row chunks."""
    lam = path.eigenvalues
    n = path.coeffs.shape[0] - 1
    out = np.empty(n)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        diff = path.coeffs[start + 1 : stop + 1] - path.coeffs[start:stop]
        out[start:stop] = np.sqrt(hr_norm_sq(diff, lam, r))
    return out


def evaluate_field(path: CoefficientPath, i: int, x) -> float:
    """Pointwise field value u(t_i, x) from the truncated eigenfunction expansion."""
    domain = path.config.params.domain
    if not domain.contains(x):
        raise ValueError(f"point {x!r} lies outside the closed domain")
    phi = eigenfunction_values(domain, path.config.modes, [x] if domain.dimension > 1 else x)
    return float(phi[0] @ path.coeffs[i])
