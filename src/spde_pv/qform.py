"""The law of the Gaussian quadratic form Q = sum_k a_k xi_k^2, the squared H_r norm of a centred Gaussian field
below the transition (weights from `limits.norm_weights` or `limits.increment_weights`): its Laplace transform,
with omitted modes entering through their power sums; its moments, Bell polynomials of its cumulants; and the
density of sqrt(Q), by Fourier or Talbot inversion.  `norm_functional_mean` gives E g(sqrt(Q)) from them."""

import math

import numpy as np

from ._version import BLOCK_ELEMENTS
from .combinatorics import complete_bell
from .limits import functional_values
from .spectrum import adaptive_quad

__all__ = ["conditional_power_means", "norm_functional_mean", "power_sum_moments"]


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
        """log E e^{-zQ} at real or complex z (principal branch, Re(1 + 2 a z) > 0 or Im z != 0), in blocks whose
        (arguments, K) temporaries hold at most BLOCK_ELEMENTS numbers; -inf beyond the reach of the tail series."""
        z = np.asarray(z)
        out = np.full(z.shape, -np.inf, dtype=np.result_type(z.dtype, float))
        inside = np.abs(z) <= self.reach
        zs = z[inside]
        sums = np.empty(zs.shape, dtype=out.dtype)
        rows = max(1, BLOCK_ELEMENTS // max(1, self.a.size))
        for i in range(0, zs.size, rows):
            sums[i : i + rows] = self._log_sums(zs[i : i + rows])
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
                rows = BLOCK_ELEMENTS // n  # (rows, n) terms per block; n <= _FOURIER_NODES < BLOCK_ELEMENTS
                return np.concatenate([(np.exp(-1j * np.outer(q[i : i + rows], t)) @ coef).real
                                       for i in range(0, q.size, rows)])
        else:

            def density(q):
                z = (_TALBOT_N / q)[:, None] * _TALBOT_W
                with np.errstate(over="ignore", invalid="ignore"):
                    out = (2.0 / q) * (np.exp(z * q[:, None] + self.log_laplace(z)) * _TALBOT_DW).imag.sum(axis=1)
                if not np.all(np.isfinite(out)):
                    raise ValueError("the law of the norm could not be resolved for these weights (Talbot overflow)")
                return out

        x_min, x_max = math.sqrt(q_min), math.sqrt(q_max)
        for deg in (256, 512):  # no law resolved at 128 on (0, pi) or (0, pi)^2 from r = -d/2 - 0.05 to -6
            law = np.polynomial.Chebyshev.interpolate(lambda x: 2.0 * x * density(x * x), deg, domain=[x_min, x_max])
            if np.max(np.abs(law.coef[-8:])) < 1e-10 * np.max(np.abs(law.coef)):
                break
        x = np.polynomial.Chebyshev.identity(domain=[x_min, x_max])
        mass = law.integ(lbnd=x_min)(x_max)
        second = (x * x * law).integ(lbnd=x_min)(x_max)
        mass_error, mean_error = mass - 1.0, (second - mean) / mean
        if not (abs(mass_error) < 1e-8 and abs(mean_error) < 1e-8):
            raise ValueError(
                f"the law of the norm could not be resolved for these weights (mass error {mass_error:.2e}, "
                f"relative mean error {mean_error:.2e}; each must be below 1e-8)"
            )
        return law


def power_sum_moments(sums) -> np.ndarray:
    """The moments E Q^j, j = 1..J, of Q = sum_k a_k xi_k^2 from its power sums S_j = sum_k a_k^j, the last axis of
    `sums`: complete Bell polynomials of the cumulants kappa_j = 2^{j-1} (j-1)! S_j (as in
    `_QuadraticForm.cumulants`), so E Q = S_1 and E Q^2 = S_1^2 + 2 S_2; elementwise over the leading axes, such as
    the steps of `limits.increment_power_sums`.  Every term is positive, so nothing cancels."""
    sums = np.asarray(sums, dtype=float)
    kappa = [2.0**j * math.factorial(j) * sums[..., j] for j in range(sums.shape[-1])]
    return np.stack([complete_bell(kappa[: j + 1]) for j in range(len(kappa))], axis=-1)


def conditional_power_means(s: np.ndarray, moments: np.ndarray, q: int) -> np.ndarray:
    """E (s_i + Q_i)^q = sum_j C(q, j) s_i^(q - j) E Q_i^j for each i, with Q_i independent of s_i and moments[i, j - 1]
    = E Q_i^j (`power_sum_moments`); a step past the last row of `moments` takes that row."""
    out = s**q
    for j in range(1, q + 1):
        mu = np.full(len(s), moments[-1, j - 1])
        mu[: len(moments)] = moments[:, j - 1]
        out += math.comb(q, j) * s ** (q - j) * mu
    return out


def norm_functional_mean(g, weights, tail=None) -> float:
    """E g(sqrt(Q)) for Q = sum_k a_k xi_k^2 with independent standard normals xi_k: the mean of a function
    of the H_r norm of a centred Gaussian H, whose squared norm has this law (`limits.norm_weights`).

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

