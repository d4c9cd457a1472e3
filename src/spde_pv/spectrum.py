"""Dirichlet spectra of boxes: eigenpairs, the Weyl tail model, zeta values, H_r norms, Green's kernel.

The spectra are closed-form: on a box prod_j (0, L_j) the Dirichlet Laplacian has
eigenvalues sum_j (pi m_j / L_j)^2 indexed by positive multi-indices m, with product-of-sines
eigenfunctions.  All operations are pure and reentrant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from ._version import check_keys

__all__ = [
    "DomainSpec",
    "EigenPair",
    "ZetaValue",
    "UNIT_PI_INTERVAL",
    "enumerate_eigenpairs",
    "eigenvalues",
    "eigenfunction_values",
    "weyl_constant",
    "spectral_zeta",
    "hr_norm_sq",
    "hr_weights",
    "greens_kernel",
    "cross_inner_product",
    "composite_gauss_legendre",
]


@dataclass(frozen=True)
class DomainSpec:
    """Open box prod_j (0, L_j); an interval when the dimension is 1."""

    sides: tuple[float, ...]

    def __post_init__(self):
        sides = tuple(float(L) for L in self.sides)
        if len(sides) == 0:
            raise ValueError("domain needs at least one side length")
        if any(not math.isfinite(L) or L <= 0.0 for L in sides):
            raise ValueError(f"side lengths must be positive and finite, got {sides}")
        object.__setattr__(self, "sides", sides)

    @property
    def dimension(self) -> int:
        return len(self.sides)

    @property
    def volume(self) -> float:
        return math.prod(self.sides)

    def contains(self, x) -> bool:
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        if pts.shape[-1] != self.dimension:
            raise ValueError(f"point dimension {pts.shape[-1]} != domain dimension {self.dimension}")
        return bool(np.all(pts >= 0.0) and np.all(pts <= np.asarray(self.sides)))

    def to_json(self) -> dict:
        return {"dim": self.dimension, "sides": list(self.sides)}

    @classmethod
    def from_json(cls, obj: dict) -> "DomainSpec":
        check_keys(obj, ("dim", "sides"), "domain")
        sides = tuple(obj["sides"])
        if "dim" in obj and obj["dim"] != len(sides):
            raise ValueError(f"dim={obj['dim']} inconsistent with {len(sides)} sides")
        return cls(sides)


UNIT_PI_INTERVAL = DomainSpec((math.pi,))


@dataclass(frozen=True)
class EigenPair:
    """k-th Dirichlet eigenvalue with its L^2-normalized eigenfunction."""

    index: int
    lam: float
    multi_index: tuple[int, ...]
    domain: DomainSpec

    def phi(self, x):
        """Evaluate the eigenfunction at x: a scalar for one point, an array for an array of points."""
        x = np.asarray(x, dtype=float)
        d = self.domain.dimension
        shape = x.shape if d == 1 else x.shape[:-1]
        vals = _sine_product(self.domain.sides, np.array([self.multi_index]), x.reshape(-1, d))
        return vals.reshape(shape)[()]

    @property
    def sup_bound(self) -> float:
        """Upper bound (2 e lam / (pi d))^{d/4} on the sup norm of the eigenfunction."""
        d = self.domain.dimension
        return (2.0 * math.e * self.lam / (math.pi * d)) ** (d / 4.0)


@dataclass(frozen=True)
class ZetaValue:
    """Spectral zeta evaluation: partial sum plus analytic tail estimate."""

    value: float
    truncation_index: int
    tail_bound: float

    def __post_init__(self):
        if self.tail_bound < 0.0:
            raise ValueError("tail bound must be non-negative")


def weyl_constant(domain: DomainSpec) -> float:
    """Constant C_D in the eigenvalue growth law lam_n ~ C_D n^{2/d}."""
    d = domain.dimension
    return 4.0 * math.pi * math.gamma(1.0 + d / 2.0) ** (2.0 / d) / domain.volume ** (2.0 / d)


@functools.lru_cache(maxsize=64)
def _sorted_spectrum(sides: tuple[float, ...], count: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted eigenvalues and multi-indices for a box; ties broken lexicographically."""
    d = len(sides)
    base = np.array([math.pi / L for L in sides])
    if d == 1:
        m = np.arange(1, count + 1)
        lam = (base[0] * m) ** 2
        return lam, m.reshape(-1, 1)
    domain = DomainSpec(sides)
    lam_cut = weyl_constant(domain) * (2.0 * count) ** (2.0 / d) + float(np.sum(base**2))
    while True:
        caps = [int(math.floor(math.sqrt(lam_cut) / b)) for b in base]
        axes = np.meshgrid(*(np.arange(1, c + 1) for c in caps), indexing="ij")
        multi = np.stack([m.ravel() for m in axes], axis=1)
        lam = sum((b * multi[:, j]) ** 2 for j, b in enumerate(base))
        if np.count_nonzero(lam <= lam_cut) >= count:
            order = np.lexsort((*multi.T[::-1], lam))[:count]
            return lam[order], multi[order]
        lam_cut *= 2.0


def eigenvalues(domain: DomainSpec, count: int) -> np.ndarray:
    """First `count` Dirichlet eigenvalues of the box, non-decreasing."""
    if count < 1:
        raise ValueError("count must be at least 1")
    lam, _ = _sorted_spectrum(domain.sides, int(count))
    return lam


def enumerate_eigenpairs(domain: DomainSpec, count: int) -> list[EigenPair]:
    """First `count` eigenpairs, sorted by eigenvalue with lexicographic tie-break."""
    if count < 1:
        raise ValueError("count must be at least 1")
    lam, multi = _sorted_spectrum(domain.sides, int(count))
    return [
        EigenPair(index=k + 1, lam=float(lam[k]), multi_index=tuple(int(m) for m in multi[k]), domain=domain)
        for k in range(count)
    ]


def eigenfunction_values(domain: DomainSpec, count: int, points) -> np.ndarray:
    """Matrix of eigenfunction values, shape (n_points, count)."""
    lam, multi = _sorted_spectrum(domain.sides, int(count))
    pts = np.asarray(points, dtype=float)
    if domain.dimension == 1:
        pts = pts.reshape(-1, 1)
    else:
        pts = np.atleast_2d(pts)
    if pts.shape[1] != domain.dimension:
        raise ValueError("points must match the domain dimension")
    return _sine_product(domain.sides, multi, pts)


def _sine_product(sides, multi: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """prod_j sqrt(2/L_j) sin(x_j m_j pi / L_j) at points (n, d) for multi-indices (count, d); shape (n, count)."""
    out = np.ones((pts.shape[0], multi.shape[0]))
    for j, L in enumerate(sides):
        out = out * (math.sqrt(2.0 / L) * np.sin(np.outer(pts[:, j], multi[:, j] * (math.pi / L))))
    return out


def _weyl_scale(lam: np.ndarray, d: int) -> float:
    """c in the tail model lam_k ~ c k^{2/d}, anchored at the last eigenvalue of `lam`."""
    return float(lam[-1]) / lam.size ** (2.0 / d)


def _power_tail(c: float, exponent: float, d: int, start: float) -> float:
    """Closed form of int_start^inf (c x^{2/d})^exponent dx, for (2/d) exponent < -1."""
    e = (2.0 / d) * exponent
    return c**exponent * start ** (e + 1.0) / (-e - 1.0)


def _model_tail(f, c: float, d: int, start: float, q: float, gamma: float) -> float:
    """int_start^inf f(c x^{2/d}) dx for a positive f of lam = c x^{2/d} that follows lam^q, (2/d) q < -1,
    beyond the cut lam_s: quadrature in u = log x to a relative tolerance up to x_s, then the closed form
    f(lam_s) x_s / (-(2/d) q - 1) of the power tail.  The cut is where lam^gamma reaches 1e100, or sooner
    where lam, lam^q or x would leave [1e-300, 1e300]; f must follow lam^q there, or the tail is refused."""
    big, log_c, u0 = math.log(1e300), math.log(c), math.log(start)
    u_s = max(u0, min(big, 0.5 * d * (min(math.log(1e100) / gamma, big, big / -q) - log_c)))
    lam_s = math.exp(log_c + 2.0 * u_s / d)
    if not math.isclose(f(2.0 * lam_s), 2.0**q * f(lam_s), rel_tol=1e-9):
        raise ValueError(f"tail integrand does not follow its power law lam^{q:g} at lam = {lam_s:g}")
    g = lambda u: f(math.exp(log_c + 2.0 * u / d)) * math.exp(u)
    # breakpoints doubling away from the start, so no feature near it hides in one long first panel
    ladder = [u0 + 2.0**k for k in range(-2, 9) if u0 + 2.0**k < u_s]
    body, _ = integrate.quad(g, u0, u_s, points=ladder, epsabs=0.0, epsrel=1e-12, limit=200)
    return float(body + f(lam_s) * math.exp(u_s) / (-2.0 * q / d - 1.0))


def spectral_zeta(domain: DomainSpec, z: float, truncation: int) -> ZetaValue:
    """zeta_D(z) = sum_k lam_k^{-z}, convergent for z > d/2.

    Returns the partial sum over the first `truncation` eigenvalues plus an analytic
    tail estimate based on the growth model lam_k ~ c k^{2/d} anchored at the last
    computed eigenvalue.  The reported tail bound comes from the monotone integral
    comparison around that estimate; it is sharp for intervals (where the model is
    exact) and asymptotic for boxes with d >= 2.
    """
    d = domain.dimension
    if z <= d / 2.0:
        raise ValueError(f"zeta_D divergent: need z > d/2 = {d / 2.0}, got z = {z}")
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    lam = eigenvalues(domain, truncation)
    partial = float(np.sum(lam ** (-z)))
    n = float(truncation)
    c = _weyl_scale(lam, d)
    upper = _power_tail(c, -z, d, n)
    lower = _power_tail(c, -z, d, n + 1.0)
    s = 2.0 * z / d
    scale = c ** (-z)
    est = upper - 0.5 * scale * n ** (-s) + (s / 12.0) * scale * n ** (-s - 1.0)
    est = min(max(est, lower), upper)
    # pairwise-summation rounding allowance so the bound stays honest once the
    # analytic tail drops below float64 resolution
    fp_slack = np.finfo(float).eps * (math.log2(n) + 4.0) * partial
    bound = max(upper - est, est - lower) + fp_slack
    return ZetaValue(value=partial + est, truncation_index=truncation, tail_bound=bound)


def hr_weights(lam: np.ndarray, r):
    """H_r weights lam_k^r; a tuple of r values gives one column per r."""
    if isinstance(r, tuple):
        return np.stack([lam**s for s in r], axis=1)
    return lam**r


def hr_norm_sq(x: np.ndarray, lam: np.ndarray, r):
    """Squared H_r norm sum_k lam_k^r x_k^2 along the last axis of x."""
    return (x * x) @ hr_weights(lam, r)


def greens_kernel(domain: DomainSpec, gamma: float, t: float, x, y, truncation: int = 1000) -> float:
    """Truncated Dirichlet Green's kernel sum_k phi_k(x) phi_k(y) exp(-lam_k^gamma t).

    The omitted tail is bounded by sum_{k>K} (2 e lam_k/(pi d))^{d/2} exp(-lam_k^gamma t),
    which decays faster than any power of the truncation level for t > 0.
    """
    if t <= 0.0:
        raise ValueError("Green's kernel is supported on t > 0")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    for p in (x, y):
        if not domain.contains(p):
            raise ValueError(f"point {p!r} outside the closed domain")
    lam = eigenvalues(domain, truncation)
    phix = eigenfunction_values(domain, truncation, [x] if domain.dimension > 1 else x)
    phiy = eigenfunction_values(domain, truncation, [y] if domain.dimension > 1 else y)
    return float(np.sum(phix[0] * phiy[0] * np.exp(-(lam**gamma) * t)))


def cross_inner_product(k: int, l: int, sub: tuple[float, float]) -> float:
    """Exact integral of phi_k phi_l over a subinterval of (0, pi), for k != l.

    Uses the closed-form antiderivative of sin(ky) sin(ly); satisfies the decay bound
    |integral| <= 2 lam_k^{1/2} / (lam_k - lam_l) for k > l.
    """
    k, l = int(k), int(l)
    if k < 1 or l < 1:
        raise ValueError("mode indices must be positive")
    if k == l:
        raise ValueError("k = l is handled by orthonormality, not the cross formula")
    a, b = float(sub[0]), float(sub[1])
    if not (0.0 <= a < b <= math.pi + 1e-15):
        raise ValueError(f"subinterval {sub!r} must satisfy 0 <= a < b <= pi")

    def antideriv(y: float) -> float:
        return (k * math.sin(l * y) * math.cos(k * y) - l * math.sin(k * y) * math.cos(l * y)) / (l * l - k * k)

    return (2.0 / math.pi) * (antideriv(b) - antideriv(a))


def composite_gauss_legendre(a: float, b: float, panels: int, order: int = 10):
    """Nodes and weights of panel-wise Gauss-Legendre quadrature on [a, b]."""
    if panels < 1 or order < 1:
        raise ValueError("panels and order must be positive")
    ref_x, ref_w = np.polynomial.legendre.leggauss(order)
    h = (b - a) / panels
    starts = a + h * np.arange(panels)
    nodes = (starts[:, None] + 0.5 * h * (ref_x[None, :] + 1.0)).ravel()
    weights = np.tile(0.5 * h * ref_w, panels)
    return nodes, weights
