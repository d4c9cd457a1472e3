"""Limit theory for normalized variations: regime classification, normalizers tau_n,
limit constants, increment-variance identities, Gaussian-functional means, and the
temporal Hölder exponent.

The phase transition sits at r = -d/2: below it the variation limits involve spectral
zeta values assembled through Bell polynomials, or the mean of a function of the norm of
a Gaussian field (`norm_functional_mean`); at and above it they reduce to powers of a
single constant K_r built from the domain volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

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
    "norm_functional_mean",
    "ou_increment_variance",
    "increment_weights",
    "increment_variance",
    "increment_variance_tail",
    "expected_hr_norm_sq",
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
        return cls(r=float(obj["r"]), gamma=float(obj["gamma"]), domain=DomainSpec.from_json(obj["domain"]))


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

    `g` is a number p >= 0, meaning x -> x^p, or a function, which is called here on one number at a time;
    `sigma_sq_integral(s)` must return int_D sigma^2(s, y) dy.  Only defined at and above the
    transition; below it the limit is a Gaussian-functional mean (`norm_functional_mean`, or
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
        values = lambda times: np.array([g(rate * math.sqrt(sigma_sq_integral(s))) for s in times.tolist()])
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
    ready for `norm_functional_mean`.

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


# The law of the norm comes from a Fourier series of the characteristic function when it decays within
# _FOURIER_NODES terms (many comparable weights), else from the Laplace transform on the modified Talbot
# contour z = (N/q) w(theta) of Trefethen, Weideman & Schmelzer (2006, BIT 46), error about 3.89^-N
# (a few dominant weights).
_FOURIER_NODES = 4096
_TALBOT_N = 24
_TALBOT_THETA = (np.arange(_TALBOT_N // 2) + 0.5) * (2.0 * math.pi / _TALBOT_N)
_TALBOT_W = 0.5017 * _TALBOT_THETA / np.tan(0.6407 * _TALBOT_THETA) - 0.6122 + 0.2645j * _TALBOT_THETA
_TALBOT_DW = (
    0.5017 * (1.0 / np.tan(0.6407 * _TALBOT_THETA) - 0.6407 * _TALBOT_THETA / np.sin(0.6407 * _TALBOT_THETA) ** 2)
    + 0.2645j
)


class _QuadraticForm:
    """Q = sum_k a_k xi_k^2 plus omitted modes k > K, known through their power sums S_j = tail(j).

    log E e^{-zQ} = -1/2 [sum_k log(1 + 2 a_k z) + T(z)], where T(z) = sum_{k>K} log(1 + 2 a_k z) is the
    series sum_j (-1)^{j+1} (2z)^j S_j / j; `reach` is the |z| up to which its first TERMS terms suffice.
    """

    TERMS = 40
    BLOCK = 32  # arguments per reduction: at most three (BLOCK, K) float64 temporaries, 256 KB each at K = 1000

    def __init__(self, weights, tail=None):
        self.a = np.asarray(weights, dtype=float)
        if self.a.ndim != 1 or not np.all(np.isfinite(self.a)) or np.any(self.a < 0.0):
            raise ValueError("weights must be a vector of finite non-negative numbers")
        j = np.arange(1, self.TERMS + 1)
        sums = np.zeros(self.TERMS) if tail is None else np.asarray(tail(j), dtype=float)
        if not np.all(np.isfinite(sums)) or np.any(sums < 0.0):
            raise ValueError("tail power sums must be finite and non-negative")
        coef = (-1.0) ** (j + 1) * 2.0**j * sums / j
        self.series = np.polynomial.Polynomial(np.concatenate([[0.0], coef]))
        last = np.flatnonzero(coef)
        # the last kept term stays below 1e-17; beyond, the terms shrink at least geometrically
        self.reach = math.inf if last.size == 0 else (1e-17 / abs(coef[last[-1]])) ** (1.0 / (last[-1] + 1))
        if self.reach < math.inf and float(self.log_laplace(self.reach)) > math.log(1e-16):
            raise ValueError(
                f"too few weights ahead of the tail: E e^(-sQ) is not negligible at s = {self.reach:.3g}, "
                "where the tail series stops converging"
            )

    def log_laplace(self, z):
        """log E e^{-zQ} at real or complex z (principal branch, Re(1 + 2 a z) > 0 or Im z != 0),
        in blocks of at most BLOCK arguments; -inf beyond the reach of the tail series."""
        z = np.asarray(z)
        out = np.full(z.shape, -np.inf, dtype=np.result_type(z.dtype, float))
        inside = np.abs(z) <= self.reach
        zs = z[inside]
        sums = np.empty(zs.shape, dtype=out.dtype)
        for i in range(0, zs.size, self.BLOCK):
            sums[i : i + self.BLOCK] = self._log_sums(zs[i : i + self.BLOCK])
        out[inside] = -0.5 * (sums + self.series(zs))
        return out

    def _log_sums(self, z):
        """sum_k log(1 + 2 a_k z) for each z.  Complex z is done in real arithmetic (complex log1p costs ten times
        more): with u + iv = 2 a_k z, the imaginary part is arctan2(v, 1 + u) and the real part
        1/2 log1p(u(2 + u) + v^2), or, where |1 + 2 a_k z|^2 < 1/2 and that sum cancels, 1/2 log((1 + u)^2 + v^2)."""
        if not np.iscomplexobj(z):
            return np.log1p(np.multiply.outer(2.0 * z, self.a)).sum(axis=1)
        u = np.multiply.outer(2.0 * z.real, self.a)
        v = np.multiply.outer(2.0 * z.imag, self.a)
        work = np.add(u, 1.0)
        imag = np.arctan2(v, work, out=work).sum(axis=1)
        np.add(u, 2.0, out=work)
        work *= u
        v *= v
        work += v
        near = work < -0.5
        one_plus_u = 1.0 + u[near]
        work[near] = np.log(one_plus_u * one_plus_u + v[near])
        np.log1p(work, out=work, where=~near)
        return 0.5 * work.sum(axis=1) + 1j * imag

    def cumulants(self, s, m: int) -> list:
        """y_j(s) = (-1)^j (d/ds)^j log E e^{-sQ} for j = 1..m, so that E[Q^m e^{-sQ}] = E e^{-sQ} B_m(y)
        and E Q^m = B_m(y(0)), with B_m the complete Bell polynomial; each y_j has the shape of s."""
        ratio = 2.0 * self.a / (1.0 + np.multiply.outer(s, 2.0 * self.a))
        return [
            0.5 * math.factorial(j - 1) * np.sum(ratio**j, axis=-1) + 0.5 * (-1) ** (j + 1) * self.series.deriv(j)(s)
            for j in range(1, m + 1)
        ]

    def power_mean(self, alpha: float) -> float:
        """E Q^alpha, alpha > 0: the Bell moment for integer alpha; otherwise, with m = floor(alpha) and
        beta = alpha - m, the Mellin-Laplace identity E Q^alpha = Gamma(1 - beta)^{-1} int_0^inf s^{-beta}
        E[Q^{m+1} e^{-sQ}] ds, whose integrand is positive (no cancellation)."""
        m = math.floor(alpha)
        beta = alpha - m
        if beta == 0.0:
            return complete_bell(self.cumulants(0.0, m))
        kernel = lambda s: np.exp(self.log_laplace(s)) * complete_bell(self.cumulants(s, m + 1))
        # split where E e^{-sQ} starts to fall: s^{-beta} near 0, removed by s = s1 x^{1/(1 - beta)}, which
        # turns s^{-beta} ds into s1^{1 - beta} dx / (1 - beta); then the decaying part in v = log s
        s1 = min(1.0 / self.cumulants(0.0, 1)[0], self.reach)
        head = adaptive_quad(lambda x: kernel(s1 * x ** (1.0 / (1.0 - beta))), 0.0, 1.0, epsabs=0.0, epsrel=1e-12)
        decay = lambda v: np.exp((1.0 - beta) * v) * kernel(np.exp(v))
        v_end = math.log(min(self.reach, 1e300))
        rest = adaptive_quad(decay, math.log(s1), v_end, epsabs=0.0, epsrel=1e-12)
        return (s1 ** (1.0 - beta) / (1.0 - beta) * head + rest) / math.gamma(1.0 - beta)

    def norm_density(self):
        """Chebyshev interpolant of the density of sqrt(Q) on [x_min, x_max], outside which Q has probability
        below e^-46 on either side, by Fourier (Gil-Pelaez) series of the characteristic function when it
        decays within _FOURIER_NODES terms, else by the Talbot contour; checked against the exact mass and mean."""
        mean = self.cumulants(0.0, 1)[0]
        # Chernoff bounds, each at the best u of a grid: P(Q > q) <= e^{-uq} E e^{uQ} for u < 1/(2 max a),
        # and P(Q < q) <= e^{uq} E e^{-uQ}; u stays within the reach, where log E e^{-uQ} is finite
        u = np.geomspace(1e-3, 0.98, 64) * min(0.5 / float(np.max(self.a)), self.reach)
        q_max = float(np.min((46.0 + self.log_laplace(-u)) / u))
        u = np.minimum(np.geomspace(1e-2, 1e4, 64) * min(1.0 / mean, self.reach / 1e4), self.reach)
        q_min = max(0.0, float(np.max((-46.0 - self.log_laplace(u)) / u)))
        dt = 2.0 * math.pi / (q_max - q_min)  # the aliases f(q + 2 pi k / dt) of q in [q_min, q_max] fall outside it
        n = 16
        while n <= _FOURIER_NODES and math.exp(float(self.log_laplace(-1j * n * dt).real)) > 1e-15:
            n *= 2
        if n <= _FOURIER_NODES:
            t = dt * np.arange(n)
            coef = np.exp(self.log_laplace(-1j * t)) * (dt / math.pi)
            coef[0] *= 0.5

            def density(q):
                rows = range(0, q.size, 512)  # 512 x 4096 terms at most per block
                return np.concatenate([(np.exp(-1j * np.outer(q[i : i + 512], t)) @ coef).real for i in rows])
        else:

            def density(q):
                z = (_TALBOT_N / q)[:, None] * _TALBOT_W
                with np.errstate(over="ignore", invalid="ignore"):
                    out = (2.0 / q) * (np.exp(z * q[:, None] + self.log_laplace(z)) * _TALBOT_DW).imag.sum(axis=1)
                if not np.all(np.isfinite(out)):
                    raise ValueError("the law of the norm could not be resolved for these weights (Talbot overflow)")
                return out

        x_min, x_max = math.sqrt(q_min), math.sqrt(q_max)
        for deg in (128, 256, 512):
            law = np.polynomial.Chebyshev.interpolate(lambda x: 2.0 * x * density(x * x), deg, domain=[x_min, x_max])
            if np.max(np.abs(law.coef[-8:])) < 1e-10 * np.max(np.abs(law.coef)):
                break
        x = np.polynomial.Chebyshev.identity(domain=[x_min, x_max])
        mass = law.integ(lbnd=x_min)(x_max)
        second = (x * x * law).integ(lbnd=x_min)(x_max)
        if not (abs(mass - 1.0) < 1e-8 and abs(second - mean) < 1e-8 * mean):
            raise ValueError(
                f"the law of the norm could not be resolved for these weights (mass {mass:.3e}, "
                f"mean {second:.6e} against {mean:.6e})"
            )
        return law


def norm_functional_mean(g, weights, tail=None) -> float:
    """E g(sqrt(Q)) for Q = sum_k a_k xi_k^2 with independent standard normals xi_k: the mean of a function
    of the H_r norm of a centred Gaussian H, whose squared norm has this law (`norm_weights`).

    `weights` are the a_k >= 0; `tail`, if given, maps an integer array j to the power sums sum_{k>K} a_k^j of
    further weights, which enter through the series of sum_{k>K} log(1 + 2 a_k z) (it needs enough explicit
    weights that E e^{-sQ} is negligible beyond its reach).  `g` is a number p > 0, meaning x -> x^p, or a
    function of at most polynomial growth that maps an array of norms to their values (`functional_values`).
    - A power p: the Bell moment of order p/2, or the Mellin-Laplace identity for fractional p/2 (see
      `_QuadraticForm.power_mean`); relative error about 1e-12.
    - A function: adaptive quadrature of g against the density of sqrt(Q), interpolated from a Fourier or
      Talbot inversion of E e^{-zQ} (`_QuadraticForm.norm_density`), g called once per quadrature round; error
      about 1e-10.  A law that fails its mass and mean check, or a non-finite value of g, raises ValueError.
    """
    form = _QuadraticForm(weights, tail)
    if form.cumulants(0.0, 1)[0] == 0.0:
        return float(g(0.0)) if callable(g) else 0.0
    if not callable(g):
        if not (math.isfinite(g) and g > 0.0):
            raise ValueError(f"power must be a positive number, got {g}")
        return float(form.power_mean(g / 2.0))
    law = form.norm_density()
    # T_k(y) = cos(k arccos y) at the mapped points, one matrix product instead of Chebyshev's Clenshaw loop
    off, scl = law.mapparms()
    k = np.arange(law.coef.size)
    density = lambda x: np.cos(np.multiply.outer(np.arccos(np.clip(off + scl * x, -1.0, 1.0)), k)) @ law.coef
    where = lambda x: f"{x.size} quadrature nodes in [{x.min():.6g}, {x.max():.6g}]"
    values = lambda x: functional_values("f", g, x, where=where(x)) * density(x)
    return adaptive_quad(values, *law.domain, epsabs=1e-14, epsrel=1e-13)


def ou_law(lam: np.ndarray, gamma: float, delta: float):
    """Per-mode Ornstein-Uhlenbeck law of the unit-noise coefficients da = -lam^gamma a dt + dW:
    beta = lam^gamma, the one-step decay e^{-beta delta}, and s -> v(s) = (1 - e^{-2 beta s})/(2 beta),
    the variance at time s of a mode started at zero."""
    beta = lam**gamma
    return beta, np.exp(-beta * delta), lambda s: -np.expm1(-2.0 * beta * s) / (2.0 * beta)


def ou_increment_variance(lam, gamma: float, delta: float, t: float):
    """Per-mode variance w = (e^{-beta delta} - 1)^2 v(t - delta) + v(delta) of the unit-noise increment
    a(t) - a(t - delta) started at zero (`ou_law`); t = inf gives the stationary (1 - e^{-beta delta})/beta."""
    beta, _, variance = ou_law(lam, gamma, delta)
    return np.expm1(-beta * delta) ** 2 * variance(t - delta) + variance(delta)


def increment_weights(params: RegimeParams, delta: float, t: float, modes: int, sigma: float = 1.0) -> np.ndarray:
    """Weights a_k = sigma^2 lam_k^r w_k of the first `modes` modes, w = `ou_increment_variance`: the increment
    a(t) - a(t - delta) of the additive solution started at zero is N(0, diag(sigma^2 w)), so its squared H_r
    norm has the law of sum_k a_k xi_k^2 with independent standard normals xi_k (`norm_functional_mean`)."""
    lam = eigenvalues(params.domain, modes)
    return sigma**2 * hr_weights(lam, params.r) * ou_increment_variance(lam, params.gamma, delta, t)


def _series_tail(params: RegimeParams, lam: np.ndarray, law, start: float) -> float:
    """Weyl-model tail from index `start` of sum_k lam_k^r law(lam_k), anchored at the last eigenvalue of
    `lam`; each per-mode law here ends in a multiple of lam^{-gamma}, so the integrand follows lam^{r - gamma}."""
    r, g = params.r, params.gamma
    return _model_tail(lambda x: x**r * law(x), _weyl_scale(lam, params.d), params.d, start, r - g, g)


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
    lam = eigenvalues(params.domain, truncation)
    law = lambda x: ou_increment_variance(x, params.gamma, delta, max(t_i, delta))
    partial = float(np.sum(increment_weights(params, delta, max(t_i, delta), truncation)))
    return partial + _series_tail(params, lam, law, truncation + 0.5)


def increment_variance_tail(params: RegimeParams, delta: float, truncation: int) -> float:
    """Upper bound on the contribution of modes beyond `truncation` to the increment variance: the
    model tail from K itself of the stationary law (t = inf), which bounds w at every t."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    law = lambda x: ou_increment_variance(x, params.gamma, delta, math.inf)
    return _series_tail(params, eigenvalues(params.domain, truncation), law, float(truncation))


def expected_hr_norm_sq(params: RegimeParams, t: float, truncation: int = 100000) -> float:
    """E||u(t)||_{H_r}^2 = sum_k lam_k^r v_k(t) for sigma = 1, with v the OU variance of `ou_law`,
    plus the Weyl-model tail of the same series from K + 1/2."""
    if t < 0.0:
        raise ValueError("time must be non-negative")
    lam = eigenvalues(params.domain, truncation)
    law = lambda x: ou_law(x, params.gamma, t)[2](t)
    return float(np.sum(hr_weights(lam, params.r) * law(lam))) + _series_tail(params, lam, law, truncation + 0.5)


def holder_exponent(params: RegimeParams) -> float:
    """Optimal temporal Hölder exponent of t -> u(t, .) in H_r: 1/2 up to the transition,
    (gamma - d/2 - r)/(2 gamma) above it; in every regime the delta-exponent of tau_n."""
    if params.regime is not Regime.SUPER:
        return 0.5
    return (params.gamma - params.d / 2.0 - params.r) / (2.0 * params.gamma)
