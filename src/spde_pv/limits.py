"""Limit theory for normalized variations: regime classification, normalizers tau_n,
limit constants, increment-variance identities, Gaussian-functional means, and the
temporal Hölder exponent.

The phase transition sits at r = -d/2: below it the variation limits involve spectral
zeta values assembled through Bell polynomials; at and above it they reduce to powers
of a single constant K_r built from the domain volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.special import gamma as gamma_fn

from .combinatorics import complete_bell
from .spectrum import (
    DomainSpec,
    _model_tail,
    _power_tail,
    _weyl_scale,
    composite_gauss_legendre,
    eigenfunction_values,
    eigenvalues,
    hr_norm_sq,
    spectral_zeta,
)

__all__ = [
    "Regime",
    "RegimeParams",
    "MonteCarloEstimate",
    "tau_n",
    "k_r",
    "limit_constant_even_power",
    "limit_process_general_sigma",
    "mu_rF_estimate",
    "increment_variance",
    "increment_variance_tail",
    "expected_hr_norm_sq",
    "holder_exponent",
    "ou_law",
    "norm_power_functional",
    "basis_coordinate_functional",
]


class Regime(Enum):
    SUB = "sub"
    CRITICAL = "critical"
    SUPER = "super"


@dataclass(frozen=True)
class RegimeParams:
    """Smoothness r, fractional power gamma, and the domain; valid iff r < gamma - d/2."""

    r: float
    gamma: float
    domain: DomainSpec

    def __post_init__(self):
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if not self.r < self.gamma - self.d / 2.0:
            raise ValueError(
                f"r = {self.r} is out of range: the solution lives in H_r only for r < gamma - d/2 = "
                f"{self.gamma - self.d / 2.0}"
            )

    @property
    def d(self) -> int:
        return self.domain.dimension

    @property
    def regime(self) -> Regime:
        half_d = self.d / 2.0
        if self.r < -half_d:
            return Regime.SUB
        if self.r == -half_d:
            return Regime.CRITICAL
        return Regime.SUPER

    def to_json(self) -> dict:
        return {"domain": self.domain.to_json(), "gamma": self.gamma, "r": self.r}

    @classmethod
    def from_json(cls, obj: dict) -> "RegimeParams":
        return cls(r=float(obj["r"]), gamma=float(obj["gamma"]), domain=DomainSpec.from_json(obj["domain"]))


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    stderr: float
    samples: int


def tau_n(params: RegimeParams, delta: float) -> float:
    """Mesh-dependent normalizer: sqrt(delta) below the transition, sqrt(delta |log delta|)
    at it, and delta^alpha above it, with alpha = holder_exponent(params)."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    regime = params.regime
    if regime is Regime.SUB:
        return math.sqrt(delta)
    if regime is Regime.CRITICAL:
        return math.sqrt(delta * abs(math.log(delta)))
    return delta ** holder_exponent(params)


def k_r(params: RegimeParams, truncation: int = 20000) -> float:
    """Limit of the normalized squared increment norm.

    Below the transition this is the spectral zeta value zeta_D(-r); at and above it,
    a closed form in the domain volume, gamma, and r.
    """
    regime = params.regime
    d, g = params.d, params.gamma
    if regime is Regime.SUB:
        return spectral_zeta(params.domain, -params.r, truncation).value
    vol = params.domain.volume
    if regime is Regime.CRITICAL:
        return vol / (g * (4.0 * math.pi) ** (d / 2.0) * gamma_fn(d / 2.0))
    return (
        vol
        * gamma_fn((params.r + d / 2.0) / g)
        / ((4.0 * math.pi) ** (d / 2.0) * gamma_fn(d / 2.0) * (g - d / 2.0 - params.r))
    )


def limit_constant_even_power(params: RegimeParams, p: int, sigma: float = 1.0, truncation: int = 20000) -> float:
    """Per-unit-time limit of the order-2p variation for constant noise amplitude sigma.

    Below the transition: sigma^{2p} 2^p B_p(x_1, .., x_p) with x_l = (l-1)!/2 * zeta_D(-l r);
    otherwise sigma^{2p} K_r^p.
    """
    if p < 1 or int(p) != p:
        raise ValueError("p must be a positive integer (the variation order is 2p)")
    p = int(p)
    if params.regime is Regime.SUB:
        xs = [
            0.5 * math.factorial(l - 1) * spectral_zeta(params.domain, -l * params.r, truncation).value
            for l in range(1, p + 1)
        ]
        return sigma ** (2 * p) * 2.0**p * complete_bell(xs)
    return sigma ** (2 * p) * k_r(params, truncation) ** p


def limit_process_general_sigma(params: RegimeParams, p: float, sigma_sq_integral: Callable[[float], float]):
    """Limit process t -> (K_r/|D|)^{p/2} int_0^t (int_D sigma^2(s, y) dy)^{p/2} ds.

    `sigma_sq_integral(s)` must return int_D sigma^2(s, y) dy.  Only defined at and
    above the transition; below it the limit is the Gaussian-functional integral
    handled by `mu_rF_estimate`.
    """
    if params.regime is Regime.SUB:
        raise ValueError("closed-form limit process requires r >= -d/2; use mu_rF_estimate below the transition")
    if p < 0.0:
        raise ValueError("order p must be non-negative")
    prefactor = (k_r(params) / params.domain.volume) ** (p / 2.0)

    def limit(t: float) -> float:
        if t < 0.0:
            raise ValueError("time must be non-negative")
        if t == 0.0:
            return 0.0
        val, _ = integrate.quad(lambda s: sigma_sq_integral(s) ** (p / 2.0), 0.0, t, epsabs=1e-8, limit=200)
        return prefactor * val

    return limit


def norm_power_functional(p: float):
    """Functional h -> ||h||_{H_r}^p on raw coefficient vectors."""

    def functional(coeffs: np.ndarray, lam: np.ndarray, r: float) -> float:
        return float(hr_norm_sq(coeffs, lam, r)) ** (p / 2.0)

    return functional


def basis_coordinate_functional(k: int):
    """Functional h -> <h, b_k>_{H_r} for the orthonormal basis b_k = lam_k^{-r/2} phi_k."""

    def functional(coeffs: np.ndarray, lam: np.ndarray, r: float) -> float:
        return float(lam[k - 1] ** (r / 2.0) * coeffs[k - 1])

    return functional


def _covariance_factor(params: RegimeParams, w, truncation: int):
    """Square root (via clipped eigendecomposition) of the truncated covariance of the
    factor variables X_k with Cov(X_k, X_l) = lam_k^{r/2} lam_l^{r/2} int phi_k phi_l w."""
    lam = eigenvalues(params.domain, truncation)
    half = lam ** (params.r / 2.0)
    if w is None or isinstance(w, (int, float)):
        c = 1.0 if w is None else float(w)
        if c < 0.0:
            raise ValueError("weight must be non-negative")
        return lam, None, half * math.sqrt(c)
    if params.d != 1:
        raise NotImplementedError("non-constant weights are supported on intervals only")
    L = params.domain.sides[0]
    nodes, wts = composite_gauss_legendre(0.0, L, panels=truncation, order=10)
    gram = np.zeros((truncation, truncation))
    for start in range(0, nodes.size, 4096):
        sl = slice(start, min(start + 4096, nodes.size))
        phi = eigenfunction_values(params.domain, truncation, nodes[sl])
        wvals = np.asarray(w(nodes[sl]), dtype=float)
        if np.any(wvals < -1e-12):
            raise ValueError("weight function must be non-negative on the domain")
        gram += phi.T @ (phi * (wvals * wts[sl])[:, None])
    cov = gram * np.outer(half, half)
    vals, vecs = np.linalg.eigh(cov)
    if vals[0] < -1e-8 * max(1.0, vals[-1]):
        raise ValueError(
            f"covariance factorization failed: truncated operator is not PSD (min eigenvalue {vals[0]:.3e})"
        )
    factor = vecs * np.sqrt(np.clip(vals, 0.0, None))
    return lam, factor, None


def mu_rF_estimate(
    F: Callable[[np.ndarray, np.ndarray, float], float],
    w,
    params: RegimeParams,
    truncation: int = 1000,
    samples: int = 10000,
    seed: int = 0,
    batch: int = 20000,
) -> MonteCarloEstimate:
    """Monte Carlo estimate of mu_{r,F}(w) = E[F(H)] for H ~ N_r(0, Q_r(w)), r < -d/2.

    H is sampled in its factor form sum_k X_k lam_k^{-r/2} phi_k; F receives the raw
    coefficient vector of H together with the eigenvalues and r.  `w` may be a constant
    (diagonal covariance by orthonormality) or, on intervals, a non-negative function.
    """
    if params.regime is not Regime.SUB:
        raise ValueError("mu_{r,F} is defined only below the transition (r < -d/2)")
    if truncation > 2000:
        raise ValueError("truncation capped at 2000 (dense covariance factorization)")
    if samples < 1:
        raise ValueError("need at least one sample")
    lam, factor, diag_std = _covariance_factor(params, w, truncation)
    inv_half = lam ** (-params.r / 2.0)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    values = np.empty(samples)
    done = 0
    while done < samples:
        n = min(batch, samples - done)
        z = rng.standard_normal((n, truncation))
        x = z * diag_std if factor is None else z @ factor.T
        coeffs = x * inv_half
        for i in range(n):
            values[done + i] = F(coeffs[i], lam, params.r)
        done += n
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return MonteCarloEstimate(mean=mean, stderr=stderr, samples=samples)


def ou_law(lam: np.ndarray, gamma: float, delta: float):
    """Per-mode Ornstein-Uhlenbeck law of the unit-noise coefficients da = -lam^gamma a dt + dW:
    beta = lam^gamma, the one-step decay e^{-beta delta}, and s -> v(s) = (1 - e^{-2 beta s})/(2 beta),
    the variance at time s of a mode started at zero."""
    beta = lam**gamma
    return beta, np.exp(-beta * delta), lambda s: -np.expm1(-2.0 * beta * s) / (2.0 * beta)


def _increment_tail(params: RegimeParams, c: float, delta: float, start: float) -> float:
    """Model tail int_start^inf lam^{r - gamma} (1 - e^{-lam^gamma delta}) dx of the increment variance."""
    r, g, d = params.r, params.gamma, params.d
    if (c * start ** (2.0 / d)) ** g * delta > 40.0:
        # exponential factor saturated beyond the cutoff: pure power-law tail
        return _power_tail(c, r - g, d, start)
    return _model_tail(lambda lx: lx ** (r - g) * -np.expm1(-(lx**g) * delta), c, d, start)


def increment_variance(
    params: RegimeParams, delta: float, t_i: float, truncation: int = 100000, include_tail: bool = True
) -> float:
    """Exact E||u(t_i) - u(t_i - delta)||_{H_r}^2 for unit constant noise amplitude.

    Evaluates the closed-form series over the first `truncation` modes and, unless
    `include_tail` is disabled, adds an integral estimate of the omitted tail (disable
    it to get the exact value for a mode-truncated system).  Dividing by tau_n(r)^2
    converges to K_r as delta -> 0 for t_i bounded away from 0.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if t_i < delta - 1e-12 * max(1.0, delta):
        raise ValueError(f"t_i = {t_i} precedes the first increment at delta = {delta}")
    lam = eigenvalues(params.domain, truncation)
    r, g, d = params.r, params.gamma, params.d
    beta = lam**g
    one = -np.expm1(-beta * delta)
    first = float(np.sum(lam**r / beta * one))
    diff = np.exp(-beta * (t_i - delta)) - np.exp(-beta * t_i)
    second = 0.5 * float(np.sum(lam**r / beta * diff * diff))
    if not include_tail:
        return first - second
    c = _weyl_scale(lam, d)
    start = truncation + 0.5
    t1 = _increment_tail(params, c, delta, start)
    beta_start = (c * start ** (2.0 / d)) ** g
    if beta_start * (t_i - delta) > 40.0:
        t2 = 0.0
    elif beta_start * delta > 40.0 and t_i - delta <= 1e-12 * delta:
        # first increment with saturated exponentials: (1 - e^{-beta delta})^2 ~ 1
        t2 = 0.5 * t1
    else:

        def tail_second(lx):
            dx = np.exp(-(lx**g) * (t_i - delta)) - np.exp(-(lx**g) * t_i)
            return 0.5 * lx ** (r - g) * dx * dx

        t2 = _model_tail(tail_second, c, d, start)
    return first - second + t1 - t2


def increment_variance_tail(params: RegimeParams, delta: float, truncation: int) -> float:
    """Upper bound on the contribution of modes beyond `truncation` to the increment variance."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    lam = eigenvalues(params.domain, truncation)
    return _increment_tail(params, _weyl_scale(lam, params.d), delta, float(truncation))


def expected_hr_norm_sq(params: RegimeParams, t: float, truncation: int = 100000) -> float:
    """E||u(t)||_{H_r}^2 = sum_k lam_k^r v_k(t) for sigma = 1, with v the OU variance of `ou_law`; since
    lam^r v(t) = lam^{r - gamma} (1 - e^{-lam^gamma 2t})/2, its tail is half the increment tail at mesh 2t."""
    if t < 0.0:
        raise ValueError("time must be non-negative")
    if t == 0.0:
        return 0.0
    lam = eigenvalues(params.domain, truncation)
    _, _, variance = ou_law(lam, params.gamma, t)
    partial = float(np.sum(lam**params.r * variance(t)))
    return partial + 0.5 * _increment_tail(params, _weyl_scale(lam, params.d), 2.0 * t, truncation + 0.5)


def holder_exponent(params: RegimeParams) -> float:
    """Optimal temporal Hölder exponent of t -> u(t, .) in H_r: 1/2 up to the transition,
    (gamma - d/2 - r)/(2 gamma) above it; in every regime the delta-exponent of tau_n."""
    if params.regime is not Regime.SUPER:
        return 0.5
    return (params.gamma - params.d / 2.0 - params.r) / (2.0 * params.gamma)
