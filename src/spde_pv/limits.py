"""Limit theory for normalized variations: regime classification, normalizers tau_n, limit
constants, the limit process above the transition, the weights of the Gaussian norms below it,
the per-mode OU and increment laws, and the temporal Hölder exponent.

The phase transition sits at r = -d/2: below it the variation limits involve spectral zeta
values assembled through Bell polynomials, or the mean of a function of the norm of a Gaussian
field, a quadratic form with the weights of `norm_weights` whose law is `qform`; at and above
it they reduce to powers of a single constant K_r built from the domain volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from ._version import BLOCK_ELEMENTS, json_float
from .combinatorics import complete_bell
from .spectrum import (
    DomainSpec,
    _model_tail,
    _weyl_scale,
    adaptive_quad,
    composite_gauss_legendre,
    eigenfunction_values,
    eigenvalues,
    hr_norm_sq,
    hr_weights,
    spectral_zeta,
)

__all__ = [
    "Regime",
    "RegimeParams",
    "tau_n",
    "k_r",
    "limit_constant_even_power",
    "limit_process_general_sigma",
    "functional_values",
    "norm_weights",
    "ou_increment_variance",
    "increment_weights",
    "increment_power_sums",
    "increment_variance",
    "holder_exponent",
    "ou_law",
    "norm_power_functional",
    "ZETA_TRUNCATION",
]

ZETA_TRUNCATION = 20000  # modes summed by every spectral power sum behind a limit constant or a norm_weights tail


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
        for name in ("r", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} = {getattr(self, name)} is out of range: {name} must be finite")
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
        return cls(json_float(obj["r"], "r"), json_float(obj["gamma"], "gamma"), DomainSpec.from_json(obj["domain"]))


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


def k_r(params: RegimeParams) -> float:
    """Limit of the normalized squared increment norm.

    Below the transition this is the spectral zeta value zeta_D(-r); at and above it,
    a closed form in the domain volume, gamma, and r.
    """
    regime = params.regime
    d, g = params.d, params.gamma
    if regime is Regime.SUB:
        return spectral_zeta(params.domain, -params.r, ZETA_TRUNCATION).value
    vol = params.domain.volume
    if regime is Regime.CRITICAL:
        return vol / (g * (4.0 * math.pi) ** (d / 2.0) * math.gamma(d / 2.0))
    return (
        vol
        * math.gamma((params.r + d / 2.0) / g)
        / ((4.0 * math.pi) ** (d / 2.0) * math.gamma(d / 2.0) * (g - d / 2.0 - params.r))
    )


def limit_constant_even_power(params: RegimeParams, p: int) -> float:
    """Per-unit-time limit of the order-2p variation for unit noise amplitude.

    Below the transition: 2^p B_p(x_1, .., x_p) with x_l = (l-1)!/2 * zeta_D(-l r); otherwise K_r^p.
    This is the paper's explicit Bell-zeta formula, which `constants` and `validate --table` print; `converge`
    targets are `qform.norm_functional_mean` on `norm_weights` instead, and test_harness.py's
    `test_even_power_targets_are_the_zeta_constants` pins the two within 1e-14 on an interval, a square and a box.
    """
    if p < 1 or not float(p).is_integer():
        raise ValueError("p must be a positive integer (the variation order is 2p)")
    p = int(p)
    if params.regime is Regime.SUB:
        xs = [
            0.5 * math.factorial(l - 1) * spectral_zeta(params.domain, -l * params.r, ZETA_TRUNCATION).value
            for l in range(1, p + 1)
        ]
        return 2.0**p * complete_bell(xs)
    return k_r(params) ** p


def limit_process_general_sigma(params: RegimeParams, g, sigma_sq_integral: Callable[[float], float]):
    """Limit process t -> int_0^t g(sqrt(K_r/|D| int_D sigma^2(s, y) dy)) ds of the variation of g.

    `g` is a number p >= 0, meaning x -> x^p, or a function of an array of norms (`functional_values`),
    called once per quadrature round on the norms at its time nodes; `sigma_sq_integral(s)` must return
    int_D sigma^2(s, y) dy, and is called on one node at a time.  Only defined at and above the
    transition; below it the limit is a Gaussian-functional mean (`qform.norm_functional_mean`, or
    `rqmc.mu_rF_estimate` for a general F).
    """
    if params.regime is Regime.SUB:
        raise ValueError(
            "closed-form limit process requires r >= -d/2; below the transition use norm_functional_mean, "
            "or mu_rF_estimate for a general F"
        )
    if not callable(g):
        if g < 0.0:
            raise ValueError("order p must be non-negative")
        g = (lambda p: lambda x: x**p)(g)
    rate = math.sqrt(k_r(params) / params.domain.volume)

    def limit(t: float) -> float:
        if t < 0.0:
            raise ValueError("time must be non-negative")
        if t == 0.0:
            return 0.0
        where = lambda x: f"{x.size} time nodes in [{x.min():.6g}, {x.max():.6g}]"
        norms = lambda x: rate * np.sqrt([sigma_sq_integral(s) for s in x.tolist()])
        values = lambda x: functional_values("f", g, norms(x), where=where(x))
        return adaptive_quad(values, 0.0, t, epsabs=1e-14, epsrel=1e-12)

    return limit


def norm_power_functional(p: float):
    """Functional h -> ||h||_{H_r}^p on raw coefficient vectors (along the last axis)."""

    def functional(coeffs: np.ndarray, lam: np.ndarray, r: float):
        return hr_norm_sq(coeffs, lam, r) ** (p / 2.0)

    return functional


def _covariance_factor(params: RegimeParams, w, truncation: int):
    """The truncated covariance of the factor variables X_k, Cov(X_k, X_l) = lam_k^{r/2} lam_l^{r/2} int phi_k phi_l w,
    in its eigenbasis.  Returns the Dirichlet eigenvalues lam, the variances a of the independent coordinates
    of X (so that ||H||_{H_r}^2 = sum_k a_k xi_k^2), and the map from standard normals to the raw coefficients.

    A constant w is diagonal by orthonormality: a = w lam^r, and the map is the scalar sqrt(w).  A weight
    function (intervals only) is diagonalized with eigh: a holds the clipped eigenvalues, and the map is the
    eigenvector factor into X, which `rqmc.mu_rF_estimate` rescales by lam^{-r/2}."""
    lam = eigenvalues(params.domain, truncation)
    if w is None or isinstance(w, (int, float)):
        c = 1.0 if w is None else float(w)
        if c < 0.0:
            raise ValueError("weight must be non-negative")
        return lam, c * hr_weights(lam, params.r), math.sqrt(c)
    if params.d != 1:
        raise NotImplementedError("non-constant weights are supported on intervals only")
    half = hr_weights(lam, params.r / 2.0)
    L = params.domain.sides[0]
    nodes, wts = composite_gauss_legendre(0.0, L, panels=truncation, order=10)
    gram = np.zeros((truncation, truncation))
    # 4096 nodes at a time bound one Gram-matrix product, not a streamed array: not the budget BLOCK_ELEMENTS
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
    vals = np.clip(vals, 0.0, None)
    return lam, vals, vecs * np.sqrt(vals)


def functional_values(name: str, fn: Callable, x: np.ndarray, *args, where: str) -> np.ndarray:
    """`fn(x, *args)` under the array contract of f and F: m finite values, shape (m,), for the m points x
    (norms for f, the rows of an (m, K) block for F).  A failing call raises RuntimeError and a result that
    breaks the contract ValueError, each naming `where` the points lie."""
    try:
        values = np.asarray(fn(x, *args), dtype=float)
    except Exception as exc:
        raise RuntimeError(f"{name} evaluation failed at {where}") from exc
    points = "coefficient vectors" if x.ndim == 2 else "norms"
    if values.shape != (len(x),):
        raise ValueError(f"{name} returned shape {values.shape} for {len(x)} {points} ({where}); want ({len(x)},)")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} returned a non-finite value ({where})")
    return values


def norm_weights(params: RegimeParams, w, truncation: int = 1000):
    """Weights a_k and tail of Q = ||H||_{H_r}^2 = sum_k a_k xi_k^2 for H ~ N_r(0, Q_r(w)), r < -d/2,
    ready for `qform.norm_functional_mean`.

    A constant w gives a_k = w lam_k^r for the first `truncation` modes K, and the modes beyond enter
    through their power sums j -> w^j sum_{k>K} lam_k^{jr}, which `spectral_zeta` sums from K as it sums
    zeta_D(-jr): the computed spectrum up to max(ZETA_TRUNCATION, K), then its Euler-Maclaurin Weyl tail.
    Nothing is truncated, and E Q is k_r(params) w.  A weight function gives the eigenvalues of the truncated
    covariance that `rqmc.mu_rF_estimate` samples from, and no tail.
    """
    if params.regime is not Regime.SUB:
        raise ValueError("the norm of H_r is Gaussian-functional only below the transition (r < -d/2)")
    _, weights, factor = _covariance_factor(params, w, truncation)
    if np.ndim(factor) != 0:
        return weights, None
    c, n = factor * factor, max(ZETA_TRUNCATION, truncation)
    return weights, lambda j: [c**i * spectral_zeta(params.domain, -i * params.r, n, start=truncation).value
                               for i in j]


def ou_law(lam: np.ndarray, gamma: float, delta: float):
    """Per-mode Ornstein-Uhlenbeck law of the unit-noise coefficients da = -lam^gamma a dt + dW:
    beta = lam^gamma, the one-step decay e^{-beta delta}, and s -> v(s) = (1 - e^{-2 beta s})/(2 beta),
    the variance at time s of a mode started at zero."""
    beta = lam**gamma
    return beta, np.exp(-beta * delta), lambda s: -np.expm1(-2.0 * beta * s) / (2.0 * beta)


def ou_increment_variance(lam, gamma: float, delta: float, t: float):
    """Per-mode variance w = (e^{-beta delta} - 1)^2 v(t - delta) + v(delta) of the unit-noise increment
    a(t) - a(t - delta) started at zero (`ou_law`); t = inf gives the stationary (1 - e^{-beta delta})/beta."""
    beta, variance = ou_law(lam, gamma, delta)[::2]  # the one-step decay is not needed
    return np.expm1(-beta * delta) ** 2 * variance(t - delta) + variance(delta)


def increment_weights(params: RegimeParams, delta: float, t: float, modes: int, sigma: float = 1.0) -> np.ndarray:
    """Weights a_k = sigma^2 lam_k^r w_k of the first `modes` modes, w = `ou_increment_variance`: the increment
    a(t) - a(t - delta) of the additive solution started at zero is N(0, diag(sigma^2 w)), so its squared H_r
    norm has the law of sum_k a_k xi_k^2 with independent standard normals xi_k (`qform.norm_functional_mean`)."""
    lam = eigenvalues(params.domain, modes)
    return sigma**2 * hr_weights(lam, params.r) * ou_increment_variance(lam, params.gamma, delta, t)


def increment_power_sums(params: RegimeParams, delta: float, steps: int, modes: int, orders: int,
                         sigma: float = 1.0, start: int = 0) -> np.ndarray:
    """The power sums sum_{start < k <= modes} a_ik^j of the `increment_weights` a_ik at t_i = i delta, for the
    steps i = 1..`steps` (rows) and j = 1..`orders` (columns): the table behind the exact moments of the increment
    norms of the additive solution started at zero, or of the part of them that the modes past `start` carry.
    Once every mode has settled (below) each step is the same stationary sums, so the table stops at the first
    such step: every step past its last row equals that row.

    w_k(t) = A_k - B_k e^{-2 beta_k (t - delta)} (`ou_increment_variance`), with B_k = (e^{-beta_k delta} - 1)^2 /
    (2 beta_k), so the transient factor of step i is q_k^{2(i - 1)}, q_k the one-step decay, advanced by one
    multiply per step.  A mode whose transient term has fallen below half an ulp of its stationary weight has
    a_ik equal to that weight exactly from then on (the factor only falls): it has settled, long before the
    factor reaches the subnormal range, where a multiply costs about ten times more.  Each block of steps runs on
    the modes up to the last unsettled one, at most BLOCK_ELEMENTS numbers, and the settled modes past it add
    their stationary weights' powers.  No array holds more than BLOCK_ELEMENTS numbers or one vector of the modes.
    """
    out = np.empty((steps, orders))
    lam = eigenvalues(params.domain, modes)[start:]
    beta, decay, variance = ou_law(lam, params.gamma, delta)
    weight = sigma**2 * hr_weights(lam, params.r)
    transient = weight * np.expm1(-beta * delta) ** 2 / (2.0 * beta)
    stationary = transient + weight * variance(delta)
    threshold = stationary * 2.0**-54  # a transient term below it is under half an ulp of the stationary weight
    decay *= decay  # the factor's step
    factor = np.ones(lam.size)  # e^{-2 beta (t_i - delta)} of the next step
    settled = np.zeros(orders)  # the power sums of the settled modes past `live`
    work = [np.empty(min(max(BLOCK_ELEMENTS, lam.size), steps * lam.size)) for _ in range(2)]
    live, i = lam.size, 0
    while i < steps:
        unsettled = np.flatnonzero(transient[:live] * factor[:live] >= threshold[:live])
        alive = int(unsettled[-1]) + 1 if unsettled.size else 0
        if alive < live:
            dead = stationary[alive:live]
            settled += [np.sum(dead**j) for j in range(1, orders + 1)]
            live = alive
        if live == 0:
            out[i] = settled
            return out[: i + 1].copy()  # not a view, which would keep every row alive
        rows = min(steps - i, max(1, BLOCK_ELEMENTS // live))
        a, power = (buf[: rows * live].reshape(rows, live) for buf in work)
        a[0] = factor[:live]
        a[1:] = decay[:live]
        np.multiply.accumulate(a, axis=0, out=a)
        np.multiply(a[-1], decay[:live], out=factor[:live])
        a *= -transient[:live]
        a += stationary[:live]
        power[:] = a
        for j in range(orders):
            if j:
                power *= a
            np.sum(power, axis=1, out=out[i : i + rows, j])
            out[i : i + rows, j] += settled[j]
        i += rows
    return out


def increment_variance(params: RegimeParams, delta: float, t_i: float, truncation: int = 100000) -> float:
    """Exact E||u(t_i) - u(t_i - delta)||_{H_r}^2 = sum_k lam_k^r w_k (`increment_weights`), sigma = 1.

    Sums the first `truncation` modes plus the Weyl-model tail of the same series from K + 1/2; the
    exact value for a mode-truncated system is `increment_weights(...).sum()`.  Dividing by
    tau_n(r)^2 converges to K_r as delta -> 0 for t_i bounded away from 0.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if t_i < delta - 1e-12 * max(1.0, delta):
        raise ValueError(f"t_i = {t_i} precedes the first increment at delta = {delta}")
    r, g, t = params.r, params.gamma, max(t_i, delta)
    lam = eigenvalues(params.domain, truncation)
    partial = float(np.sum(increment_weights(params, delta, t, truncation)))
    # the per-mode law ends in a multiple of lam^{-gamma}, so the tail's integrand follows lam^{r - gamma}
    integrand = lambda x: x**r * ou_increment_variance(x, g, delta, t)
    return partial + _model_tail(integrand, _weyl_scale(lam, params.d), params.d, truncation + 0.5, r - g, g)


def holder_exponent(params: RegimeParams) -> float:
    """Optimal temporal Hölder exponent of t -> u(t, .) in H_r: 1/2 up to the transition,
    (gamma - d/2 - r)/(2 gamma) above it; in every regime the delta-exponent of tau_n."""
    if params.regime is not Regime.SUPER:
        return 0.5
    return (params.gamma - params.d / 2.0 - params.r) / (2.0 * params.gamma)
