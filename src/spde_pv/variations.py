"""Normalized variation functionals of a simulated path along its time grid.

V(t) = delta * sum_{i <= [t/delta]} g(increment_i / tau) for the three shapes of g:
power of the H_r increment norm, scalar function of it, or a general functional of the
normalized increment coefficients (the last only below the phase transition).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ._version import check_keys
from .limits import RegimeParams, tau_n
from .simulator import CoefficientPath, increment_hr_norms

__all__ = [
    "VariationRequest",
    "VariationSeries",
    "power_variation",
    "f_variation",
    "general_F_variation",
    "compute_variation",
    "grid_index",
]

F_PRESETS: dict[str, Callable[[float], float]] = {
    "identity": lambda x: x,
    "square": lambda x: x * x,
    "min_square_one": lambda x: min(x * x, 1.0),
}


def grid_index(t: float, delta: float) -> int:
    """[t/delta] with an epsilon guard so grid points are not lost to rounding."""
    return int(math.floor(t / delta + 1e-12))


@dataclass(frozen=True)
class VariationRequest:
    """Exactly one of p (power), f (scalar function), F (coefficient functional) is set.

    `normalizer` overrides tau_n(r); when None it is derived from the path's mesh.
    F receives the raw normalized coefficient increment plus the eigenvalues and r,
    and is only admissible below the transition (r < -d/2), where the normalized
    increments are tight in H_r.
    """

    r: float
    p: float | None = None
    f: Callable[[float], float] | None = None
    F: Callable[[np.ndarray, np.ndarray, float], float] | None = None
    normalizer: float | None = None
    label: str = ""

    def __post_init__(self):
        set_count = sum(v is not None for v in (self.p, self.f, self.F))
        if set_count != 1:
            raise ValueError("exactly one of p, f, F must be set")
        if self.p is not None and self.p <= 0.0:
            raise ValueError("variation order p must be positive")
        if self.normalizer is not None and self.normalizer <= 0.0:
            raise ValueError("normalizer must be positive")
        if not self.label:
            object.__setattr__(self, "label", self._default_label())

    def _default_label(self) -> str:
        if self.p is not None:
            return f"r{self.r:g}_p{self.p:g}"
        if self.f is not None:
            return f"r{self.r:g}_f{getattr(self.f, '__name__', 'fn')}"
        return f"r{self.r:g}_F{getattr(self.F, '__name__', 'fn')}"

    def to_json(self) -> dict:
        if self.p is None:
            raise ValueError("only power-variation requests serialize to JSON; use f/F presets in configs")
        out = {"r": self.r, "p": self.p, "label": self.label}
        if self.normalizer is not None:
            out["normalizer"] = self.normalizer
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "VariationRequest":
        check_keys(obj, ("r", "p", "f", "label", "normalizer"), "variation")
        kwargs = dict(r=float(obj["r"]), label=obj.get("label", ""))
        if "normalizer" in obj and obj["normalizer"] is not None:
            kwargs["normalizer"] = float(obj["normalizer"])
        if "p" in obj and obj["p"] is not None:
            return cls(p=float(obj["p"]), **kwargs)
        if "f" in obj:
            name = obj["f"]
            if name not in F_PRESETS:
                raise ValueError(f"unknown f preset {name!r}; available: {sorted(F_PRESETS)}")
            return cls(f=F_PRESETS[name], **kwargs)
        raise ValueError("variation request needs 'p' or a named 'f' preset")


@dataclass(frozen=True)
class VariationSeries:
    """Cumulative variation values on the path's grid; values[0] = 0 at t = 0."""

    times: np.ndarray
    values: np.ndarray

    @property
    def delta(self) -> float:
        return float(self.times[1] - self.times[0])

    def value_at(self, t: float) -> float:
        idx = grid_index(t, self.delta)
        if idx < 0 or idx >= len(self.values):
            raise ValueError(f"t = {t} outside the series range [0, {self.times[-1]}]")
        return float(self.values[idx])

    def write_csv(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("t,value\n")
            for t, v in zip(self.times, self.values):
                fh.write(f"{t:.17g},{v:.17g}\n")


def resolve_normalizer(req: VariationRequest, config) -> float:
    if req.normalizer is not None:
        return req.normalizer
    params = RegimeParams(r=req.r, gamma=config.params.gamma, domain=config.params.domain)
    return tau_n(params, config.delta)


def series_from_values(values: np.ndarray, delta: float) -> VariationSeries:
    """Assemble the cumulative series delta * cumsum(values) with a leading zero."""
    n = len(values)
    out = np.empty(n + 1)
    out[0] = 0.0
    np.cumsum(values, out=out[1:])
    out[1:] *= delta
    times = delta * np.arange(n + 1)
    return VariationSeries(times=times, values=out)


def series_from_norms(norms: np.ndarray, delta: float, tau: float, f: Callable[[float], float]) -> VariationSeries:
    normalized = norms / tau
    vals = np.empty(normalized.shape)
    for i, x in enumerate(normalized):
        try:
            vals[i] = f(x)
        except Exception as exc:
            raise RuntimeError(f"f evaluation failed at increment i = {i + 1} (argument {x!r})") from exc
    return series_from_values(vals, delta)


def f_variation(path: CoefficientPath, req: VariationRequest) -> VariationSeries:
    """Scalar-function variation: delta * sum f(||increment||_{H_r} / tau)."""
    if req.f is None:
        raise ValueError("request does not carry a scalar function")
    tau = resolve_normalizer(req, path.config)
    norms = increment_hr_norms(path, req.r)
    return series_from_norms(norms, path.config.delta, tau, req.f)


def power_variation(path: CoefficientPath, req: VariationRequest) -> VariationSeries:
    """Power variation of order p; identical to f_variation with f(x) = x**p."""
    if req.p is None:
        raise ValueError("request does not carry a power order")
    p = req.p
    tau = resolve_normalizer(req, path.config)
    norms = increment_hr_norms(path, req.r)
    series = series_from_norms(norms, path.config.delta, tau, lambda x: x**p)
    if np.any(np.diff(series.values) < 0.0):
        raise AssertionError("power variation series must be non-decreasing")
    return series


def general_F_variation(path: CoefficientPath, req: VariationRequest) -> VariationSeries:
    """General functional variation on normalized coefficient increments, r < -d/2 only."""
    if req.F is None:
        raise ValueError("request does not carry a functional")
    d = path.config.params.d
    if not req.r < -d / 2.0:
        raise ValueError(
            f"general functionals need r < -d/2 = {-d / 2.0}: above the transition the normalized "
            "increments admit no tight nondegenerate normalization"
        )
    tau = resolve_normalizer(req, path.config)
    lam = path.eigenvalues
    n = path.coeffs.shape[0] - 1
    vals = np.empty(n)
    for i in range(n):
        inc = (path.coeffs[i + 1] - path.coeffs[i]) / tau
        vals[i] = req.F(inc, lam, req.r)
    return series_from_values(vals, path.config.delta)


def compute_variation(path: CoefficientPath, req: VariationRequest) -> VariationSeries:
    """Dispatch on the request shape."""
    if req.p is not None:
        return power_variation(path, req)
    if req.f is not None:
        return f_variation(path, req)
    return general_F_variation(path, req)
