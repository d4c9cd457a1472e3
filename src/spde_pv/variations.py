"""What a normalized variation is: the request, its normalizer, and the series.

V(t) = delta * sum_{i <= [t/delta]} g(increment_i / tau) for the three shapes of g:
power of the H_r increment norm, function of it, or a general functional of the
normalized increment coefficients (the last only below the phase transition).  The
reduction of a path to these series is `harness.variation_levels`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._version import check_keys, file_name, json_float, write_csv
from .limits import RegimeParams, functional_values, tau_n

__all__ = [
    "VariationRequest",
    "VariationSeries",
    "grid_index",
]


def identity(x):
    return x


def square(x):
    return x * x


def min_square_one(x):
    return np.minimum(x * x, 1.0)


# the functions a config may name as "f", of an array or of a number; requests label and serialize them by name
F_PRESETS: dict[str, Callable] = {fn.__name__: fn for fn in (identity, square, min_square_one)}


def grid_index(t: float, delta: float) -> int:
    """[t/delta] with a relative guard so grid points are not lost to rounding at any step count."""
    return int(math.floor(t / delta * (1.0 + 1e-12)))


@dataclass(frozen=True)
class VariationRequest:
    """Exactly one of p (power), f (function of the norm), F (coefficient functional) is set.

    `normalizer` overrides tau_n(r); when None it is derived from the path's mesh.
    f and F are numpy functions of arrays (`limits.functional_values`): f maps normalized
    H_r norms to an array of their shape (the targets also call it on a number), and F
    maps normalized coefficient increments, shape (m, K), with the eigenvalues and r to m
    values.  F is only admissible below the transition (r < -d/2), where the normalized
    increments are tight in H_r.
    """

    r: float
    p: float | None = None
    f: Callable[[np.ndarray], np.ndarray] | None = None
    F: Callable[[np.ndarray, np.ndarray, float], np.ndarray] | None = None
    normalizer: float | None = None
    label: str = ""

    def __post_init__(self):
        set_count = sum(v is not None for v in (self.p, self.f, self.F))
        if set_count != 1:
            raise ValueError("exactly one of p, f, F must be set")
        if not math.isfinite(self.r):
            raise ValueError(f"smoothness r must be finite, got {self.r}")
        if self.p is not None and not 0.0 < self.p < math.inf:
            raise ValueError(f"variation order p must be positive and finite, got {self.p}")
        if self.normalizer is not None and not 0.0 < self.normalizer < math.inf:
            raise ValueError(f"normalizer must be positive and finite, got {self.normalizer}")
        if not self.label:
            object.__setattr__(self, "label", self._default_label())

    @property
    def even_order(self) -> int | None:
        """q for an even power p = 2q, whose summand has an exact conditional mean given some of the modes
        (`qform.conditional_power_means`); None for any other request."""
        return int(self.p // 2) if self.p is not None and (self.p / 2.0).is_integer() else None

    def _default_label(self) -> str:
        if self.p is not None:
            return f"r{self.r:g}_p{self.p:g}"
        if self.f is not None:
            return f"r{self.r:g}_f{getattr(self.f, '__name__', 'fn')}"
        return f"r{self.r:g}_F{getattr(self.F, '__name__', 'fn')}"

    def to_json(self) -> dict:
        name = getattr(self.f, "__name__", None)
        if self.p is None and (name not in F_PRESETS or F_PRESETS[name] is not self.f):
            raise ValueError("only power and f-preset requests serialize to JSON; other functions are library-only")
        out = {"r": self.r, "label": self.label, **({"p": self.p} if self.p is not None else {"f": name})}
        if self.normalizer is not None:
            out["normalizer"] = self.normalizer
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "VariationRequest":
        check_keys(obj, ("r", "p", "f", "label", "normalizer"), "variation")
        kwargs = dict(r=json_float(obj["r"], "r"), label=obj.get("label", ""))
        if "normalizer" in obj and obj["normalizer"] is not None:
            kwargs["normalizer"] = json_float(obj["normalizer"], "normalizer")
        if obj.get("p") is not None:
            if obj.get("f") is not None:
                raise ValueError("variation request sets both 'p' and 'f'; give exactly one")
            return cls(p=json_float(obj["p"], "p"), **kwargs)
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
        write_csv(path, ("t", "value"), zip(self.times, self.values))


def check_requests(requests) -> None:
    """The requests of one command: at least one, each label one file name (it names the request's rows and its
    file `variation_<label>.csv`), and no two labels alike."""
    if not requests:
        raise ValueError("'variations' is empty: list at least one variation request")
    labels = [file_name(req.label, "variation label") for req in requests]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ValueError(f"variation label {label!r} is given twice: each request needs a label of its own")


def resolve_normalizer(req: VariationRequest, config) -> float:
    if req.normalizer is not None:
        return req.normalizer
    params = RegimeParams(r=req.r, gamma=config.params.gamma, domain=config.params.domain)
    return tau_n(params, config.delta)


def series_from_values(values: np.ndarray, delta: float, times: np.ndarray) -> VariationSeries:
    """Assemble the cumulative series delta * cumsum(values) with a leading zero on the grid `times`,
    delta * arange(len(values) + 1), which the series of one mesh share."""
    out = np.empty(len(values) + 1)
    out[0] = 0.0
    np.cumsum(values, out=out[1:])
    out[1:] *= delta
    return VariationSeries(times=times, values=out)


def series_from_norms(norms: np.ndarray, delta: float, tau: float, f: Callable, times: np.ndarray) -> VariationSeries:
    where = f"increment i = 1..{len(norms)}, delta = {delta}"
    return series_from_values(functional_values("f", f, norms / tau, where=where), delta, times)

