"""Spectral-Galerkin path generation for the fractional stochastic heat equation.

Every scheme is a stream of the states a(t_1), .., a(t_N) in row blocks of one reused
256 KiB buffer, and `simulate` collects one into a path.  `normal_stream` is the one draw
site: it continues the standard normals of one seed, in 256 KiB row blocks, on every call.
The additive scheme scales its blocks in place, the grid-noise scheme takes one row per step
as its cell noise, the exact increment sampler collects the stream and scales it, and the
Hölder regression reduces each block against every mesh level at once, so one draw serves
all levels.
Additive noise uses the exact per-mode Ornstein-Uhlenbeck transition, so mode truncation
and Monte Carlo noise are its only errors.  Field and state amplitudes use an accelerated
exponential-Euler step with left-point sigma and cell-wise white noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Union

import numpy as np

from ._version import BLOCK_ELEMENTS, check_keys, json_float, json_int, write_csv, write_json
from ._version import rng_for as _rng_for  # perfbench/worker.py reads simulator._rng_for to record the bit generator
from .limits import RegimeParams, ou_increment_variance, ou_law
from .spectrum import DomainSpec, eigenfunction_values, eigenvalues, hr_norm_sq
from .variations import grid_index

__all__ = [
    "ConstantSigma",
    "FieldSigma",
    "StateSigma",
    "SigmaMode",
    "SIGMA_PRESETS",
    "SimConfig",
    "CoefficientPath",
    "simulate",
    "iter_states",
    "iter_additive_states",
    "iter_field_states",
    "normal_stream",
    "sample_additive_increments",
]


@dataclass(frozen=True)
class ConstantSigma:
    """Constant noise amplitude sigma(t, x) = value."""

    value: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"constant sigma value must be finite, got {self.value}")


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
    # a block that is not an object is read as a constant sigma, whose key check rejects it
    mode = obj.get("mode", "constant") if isinstance(obj, dict) else "constant"
    if mode not in ("constant", "field", "state"):
        raise ValueError(f"unknown sigma mode {mode!r}; available: ['constant', 'field', 'state']")
    check_keys(obj, ("mode", "value") if mode == "constant" else ("mode", "preset"), f"{mode} sigma")
    if mode == "constant":
        return ConstantSigma(json_float(obj.get("value", 1.0), "value"))
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
        if not 0.0 < self.delta < self.horizon < math.inf:
            raise ValueError(f"need 0 < delta < horizon < inf, got delta={self.delta}, horizon={self.horizon}")
        if not isinstance(self.sigma, ConstantSigma) and self.params.d != 1:
            raise ValueError(f"non-constant sigma needs d = 1 (grid-noise scheme and limits), got d = {self.params.d}")
        if isinstance(self.sigma, StateSigma) and self.params.gamma <= self.params.d / 2.0:
            raise ValueError("state sigma needs gamma > d/2 for a random-field solution")
        if not isinstance(self.sigma, ConstantSigma) and self.spatial_grid < 2 * self.modes:
            raise ValueError(
                "non-constant sigma needs spatial_grid >= 2 * modes so the quadrature resolves "
                "eigenfunction products up to frequency 2K"
            )

    @property
    def n_steps(self) -> int:
        return grid_index(self.horizon, self.delta)

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
        domain, gamma = DomainSpec.from_json(obj["domain"]), json_float(obj["gamma"], "gamma")
        # r is the r of `simulate`'s norms and of `holder`'s cross-check, and nothing else reads it: by
        # default -1 where the solution lives in H_{-1}, else one below the bound gamma - d/2
        bound = gamma - domain.dimension / 2.0
        r = json_float(obj["r"], "r") if "r" in obj else (bound - 1.0 if bound <= -1.0 else -1.0)
        return cls(
            params=RegimeParams(r=r, gamma=gamma, domain=domain),
            modes=json_int(obj["modes"], "modes"),
            delta=json_float(obj["delta"], "delta"),
            horizon=json_float(obj["horizon"], "horizon"),
            sigma=_sigma_from_json(obj.get("sigma", {"mode": "constant", "value": 1.0})),
            spatial_grid=json_int(obj.get("spatial_grid", 0), "spatial_grid"),
            seed=json_int(obj.get("seed", 0), "seed"),
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
        npy = prefix.with_suffix(".npy")
        sidecar = prefix.with_suffix(".json")
        cfg_json = self.config.to_json()
        write_json(sidecar, {"config": cfg_json}, cfg_json)
        np.save(npy, self.coeffs)
        return npy, sidecar

    def write_norm_csv(self, path, r: float) -> None:
        """CSV of (t_i, ||u(t_i)||_{H_r})."""
        norms = np.sqrt(hr_norm_sq(self.coeffs, self.eigenvalues, r))
        write_csv(path, ("t", "hr_norm"), zip(self.times, norms))


def _row_blocks(rows: int, width: int, buffer: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """Views of one reused buffer of at most BLOCK_ELEMENTS numbers (one row if wider) that cover `rows` rows.

    The buffer is the leading part of the flat array `buffer`, viewed at this width, or allocated here if none
    is given: a flat array of max(BLOCK_ELEMENTS, width) numbers serves every width up to `width`.
    """
    height = max(1, min(rows, BLOCK_ELEMENTS // width))
    buf = np.empty((height, width)) if buffer is None else buffer[: height * width].reshape(height, width)
    for start in range(0, rows, height):
        yield buf[: rows - start]


def _collect(blocks, out: np.ndarray) -> np.ndarray:
    """Copy a stream of row blocks into the consecutive rows of `out`."""
    start = 0
    for block in blocks:
        out[start : start + len(block)] = block
        start += len(block)
    return out


def iter_additive_states(config: SimConfig, buffer: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """Yield the coefficient rows a(t_1), .., a(t_N) of an additive-noise path in row blocks.

    The transition a(t_{i+1}) = e^{-lam^g d} a(t_i) + c sqrt((1 - e^{-2 lam^g d})/(2 lam^g)) xi
    is the exact OU law, so two steps compose to one exact draw at the doubled mesh.  A block's
    normals are one draw, scaled in place, to which each row adds the decayed row before it, so
    the states are bit for bit those of one step at a time.  The recursion runs on the modes up to
    the last whose decay is not 0.0 (on an interval a prefix, 1747 of 4096 at delta = 2^-12): adding
    0.0 times the row before leaves a finite state as it is.  Every block is a view of one reused
    buffer of at most 256 KiB, the flat `buffer` if given (`normal_stream`): copy it to keep it.
    """
    if not isinstance(config.sigma, ConstantSigma):
        raise ValueError("additive simulation requires a constant sigma; use iter_field_states")
    c = config.sigma.value
    lam = eigenvalues(config.params.domain, config.modes)
    _, decay, variance = ou_law(lam, config.params.gamma, config.delta)
    scale = c * np.sqrt(variance(config.delta))
    decay = np.trim_zeros(decay, "b")  # the modes past it have the decay 0.0
    live = decay.size
    carry = np.zeros(live)  # decay times the last state yielded
    for block in normal_stream(config.seed, config.modes, buffer)(config.n_steps):
        block *= scale
        head = block[:, :live]
        head[0] += carry
        for i in range(1, len(head)):
            head[i] += np.multiply(decay, head[i - 1], out=carry)
        np.multiply(decay, head[-1], out=carry)
        yield block


def iter_field_states(config: SimConfig) -> Iterator[np.ndarray]:
    """Yield a(t_1), .., a(t_N) of the accelerated exponential-Euler scheme for field or state sigma.

    One standard normal per space-time cell, step i taking row i of the seed's normal stream
    (`normal_stream`), scaled by sqrt(delta w_m); sigma is frozen at the left time point
    (and at the current state in the state-dependent mode), by a rule chosen once.  The
    projected shot enters mode k with gain sqrt(v_k(delta)/delta), the exact OU variance
    over one step, so a constant sigma reproduces the law of the additive scheme.  The
    states come in row blocks of one reused buffer, as in `iter_additive_states`.
    """
    if isinstance(config.sigma, ConstantSigma):
        raise ValueError("constant sigma paths use the exact transition; use iter_additive_states")
    m = config.spatial_grid
    cell = config.params.domain.sides[0] / m
    nodes = (np.arange(m) + 0.5) * cell
    phi = eigenfunction_values(config.params.domain, config.modes, nodes)
    lam = eigenvalues(config.params.domain, config.modes)
    _, decay, variance = ou_law(lam, config.params.gamma, config.delta)
    gain = np.sqrt(variance(config.delta) / config.delta)
    noise_scale = math.sqrt(config.delta * cell)
    fn = config.sigma.fn
    if isinstance(config.sigma, FieldSigma):
        amplitude = lambda i, state: fn(i * config.delta, nodes)
    else:
        amplitude = lambda i, state: fn(phi @ state)
    noise = enumerate(row for block in normal_stream(config.seed, m)(config.n_steps) for row in block)
    state = np.zeros(config.modes)
    for block in _row_blocks(config.n_steps, config.modes):
        for row, (i, xi) in zip(block, noise):
            amp = np.asarray(amplitude(i, state), dtype=float)
            shot = phi.T @ (amp * noise_scale * xi)
            state = decay * state + gain * shot
            row[:] = state
        yield block


def iter_states(config: SimConfig) -> Iterator[np.ndarray]:
    """The state stream of the config's scheme: exact OU for constant sigma, exponential Euler otherwise."""
    if isinstance(config.sigma, ConstantSigma):
        return iter_additive_states(config)
    return iter_field_states(config)


def simulate(config: SimConfig) -> CoefficientPath:
    """Collect the config's state stream into a path matrix with the zero initial row."""
    coeffs = np.zeros((config.n_steps + 1, config.modes))
    _collect(iter_states(config), coeffs[1:])
    return CoefficientPath(config=config, coeffs=coeffs)


def normal_stream(seed: int, width: int, buffer: np.ndarray | None = None) -> Callable[[int], Iterator[np.ndarray]]:
    """draw(rows): the next `rows` x `width` standard normals of the stream of `seed` in row blocks, which every
    call continues: the program's one draw site.

    Every block of a draw is a view of one reused buffer of at most 256 KiB (`_row_blocks`), so a yielded
    block is overwritten by the next one: copy it to keep it.  A caller that runs many streams passes the
    flat `buffer` that holds the block, so that no draw allocates one.  Streams may share a buffer when each
    block is used up before the next block of any of them is drawn; two streams whose blocks are read side
    by side need a buffer each.  The Generator keeps no normal cache between calls, so the blocks of
    successive draws, stacked, are exactly the draw `_rng_for(seed).standard_normal((total, width))`, and a
    caller may size the rest of a stream from the rows it has read (the levels of `harness.estimate_holder`
    take turns so, on one buffer).
    """
    rng = _rng_for(seed)

    def draw(rows: int) -> Iterator[np.ndarray]:
        for block in _row_blocks(rows, width, buffer):
            rng.standard_normal(out=block)
            yield block

    return draw


def sample_additive_increments(config: SimConfig, t: float, count: int) -> np.ndarray:
    """`count` exact samples of the coefficient increment a(t + delta) - a(t), shape (count, modes).

    Uses the exact Gaussian two-time law of the additive-noise solution started at zero, i.e. the
    marginal of a full simulated path at times (t, t + delta): the normal stream of `config.seed`
    (`normal_stream`) collected and scaled by sigma sqrt(w), w = `ou_increment_variance`.
    """
    if not isinstance(config.sigma, ConstantSigma):
        raise ValueError("exact increment sampling requires a constant sigma")
    if t < 0.0:
        raise ValueError("time must be non-negative")
    lam = eigenvalues(config.params.domain, config.modes)
    w = ou_increment_variance(lam, config.params.gamma, config.delta, t + config.delta)
    out = _collect(normal_stream(config.seed, config.modes)(count), np.empty((count, config.modes)))
    out *= config.sigma.value * np.sqrt(w)
    return out
