"""Independent reference implementations used as test oracles.

Everything here is deliberately written with different algorithms than the package:
brute-force enumeration, closed-form zeta values, minor expansion, pairing/partition sums, and
closed-form Gaussian reductions.  Oracles stay independent of the code paths they check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate


def brute_force_box_eigenvalues(sides, count, m_cap=200):
    """All box eigenvalues from a plain multi-index grid, sorted with lexicographic ties."""
    entries = []
    for m in itertools.product(range(1, m_cap + 1), repeat=len(sides)):
        lam = sum((math.pi * mj / L) ** 2 for mj, L in zip(m, sides))
        entries.append((lam, m))
    entries.sort()
    return entries[:count]


def box_eigenfunctions(sides, multi_indices, pts):
    """Normalized sine products prod_j sqrt(2/L_j) sin(pi m_j x_j / L_j) at points (n, d), one column per multi-index."""
    pts = np.asarray(pts, dtype=float)
    out = np.empty((pts.shape[0], len(multi_indices)))
    for col, m in enumerate(multi_indices):
        vals = np.ones(pts.shape[0])
        for j, (mj, L) in enumerate(zip(m, sides)):
            vals *= math.sqrt(2.0 / L) * np.sin(math.pi * mj * pts[:, j] / L)
        out[:, col] = vals
    return out


def permanent_minor_expansion(a):
    """Permanent via Laplace-style expansion along the first row."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0])
    total = 0.0
    rest = a[1:]
    for j in range(n):
        minor = np.delete(rest, j, axis=1)
        total += a[0, j] * permanent_minor_expansion(minor)
    return total


def perfect_matchings(indices):
    indices = list(indices)
    if not indices:
        yield []
        return
    first = indices[0]
    for k in range(1, len(indices)):
        pair = (first, indices[k])
        rest = indices[1:k] + indices[k + 1 :]
        for rest_pairs in perfect_matchings(rest):
            yield [pair] + rest_pairs


def wick_even_moment(c):
    """E[X_1^2 .. X_p^2] by summing over all pairings of the 2p coordinates."""
    c = np.asarray(c, dtype=float)
    p = c.shape[0]
    owner = [i // 2 for i in range(2 * p)]
    total = 0.0
    for matching in perfect_matchings(range(2 * p)):
        prod = 1.0
        for a, b in matching:
            prod *= c[owner[a], owner[b]]
        total += prod
    return total


def set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1 :]
        yield [[first]] + smaller


def bell_by_partitions(xs):
    """Complete Bell polynomial as a sum over set partitions of {1..p}."""
    p = len(xs)
    total = 0.0
    for partition in set_partitions(range(p)):
        prod = 1.0
        for block in partition:
            prod *= xs[len(block) - 1]
        total += prod
    return total


def bell_by_multinomial(xs):
    """Complete Bell polynomial through the multinomial partition-count formula:
    B_p = sum over (r_1, .., r_p) with sum l r_l = p of p! / prod((l!)^{r_l} r_l!) prod x_l^{r_l}."""
    p = len(xs)
    total = 0.0
    for counts in _partition_counts(p):
        coeff = math.factorial(p)
        for l, r_l in enumerate(counts, start=1):
            coeff //= math.factorial(l) ** r_l * math.factorial(r_l)
        total += coeff * math.prod(xs[l - 1] ** r_l for l, r_l in enumerate(counts, start=1))
    return total


def _partition_counts(p):
    """All (r_1, .., r_p) with sum l * r_l = p."""

    def rec(remaining, max_part):
        if remaining == 0:
            yield {}
            return
        for part in range(min(remaining, max_part), 0, -1):
            for rest in rec(remaining - part, part):
                counts = dict(rest)
                counts[part] = counts.get(part, 0) + 1
                yield counts

    for counts in rec(p, p):
        yield [counts.get(l, 0) for l in range(1, p + 1)]


def expected_quadratic_variation(delta, modes, r, horizon=1.0, gamma=1.0, tau_sq=None):
    """Exact E[sum_i ||increment_i||^2] * delta / tau^2 for the interval (0, pi), sigma = 1.

    Sums the per-increment variance series in closed form over the time index.
    """
    k = np.arange(1, modes + 1, dtype=float)
    lam = k**2
    beta = lam**gamma
    n = int(round(horizon / delta))
    one = -np.expm1(-beta * delta)
    em = np.exp(-2.0 * beta * delta)
    geom = np.where(em < 1.0, (1.0 - em**n) / (1.0 - em), float(n))
    q1 = lam**r / beta * one
    q2 = 0.5 * lam**r / beta * one**2 * geom
    total = n * float(np.sum(q1)) - float(np.sum(q2))
    if tau_sq is None:
        tau_sq = delta
    return delta * total / tau_sq


def quadratic_variation_std(delta, modes, r, horizon=1.0, gamma=1.0, tau_sq=None):
    """Exact standard deviation of sum_i ||increment_i||^2 * delta / tau^2 for the interval
    (0, pi), sigma = 1.

    Modes are independent, so Var = 2 (delta / tau^2)^2 sum_k lambda_k^{2r} tr(C_k^2), with C_k
    the n x n covariance of mode k's increments started from zero.  With q = e^{-beta delta},
    C_k = S - u u^T: a stationary Toeplitz part s_0 = (1 - q)/beta,
    s_l = -(1 - q)^2 q^{l-1} / (2 beta), minus the rank-one start-at-zero term
    u_i = -(1 - q) q^i / sqrt(2 beta).  Off the diagonal C_{i,i+l} = s_l (1 + q^{2i+1}), so the sum
    along each diagonal is a geometric series and tr(C_k^2) costs O(n).
    """
    n = int(round(horizon / delta))
    if tau_sq is None:
        tau_sq = delta
    lags = np.arange(1, n, dtype=float)
    rest = n - lags

    def geom(c, m):
        # sum_{i < m} e^{-c i}
        return np.expm1(-c * m) / math.expm1(-c)

    total = 0.0
    for k in range(1, modes + 1):
        lam = float(k * k)
        beta = lam**gamma
        a = beta * delta
        q = math.exp(-a)
        w = -math.expm1(-a)
        diag = (w / beta) ** 2 * (n - w * geom(2.0 * a, n) + 0.25 * w * w * geom(4.0 * a, n))
        per_lag = np.exp(-2.0 * a * (lags - 1.0)) * (rest + 2.0 * q * geom(2.0 * a, rest) + q * q * geom(4.0 * a, rest))
        off = 2.0 * (w * w / (2.0 * beta)) ** 2 * float(np.sum(per_lag))
        total += lam ** (2.0 * r) * (diag + off)
    return delta / tau_sq * math.sqrt(2.0 * total)


def variation_series(coeffs, lam, req, tau, delta):
    """Normalized variation series of a stored path (row 0 at t = 0) by a plain loop over
    increments: Delta_i = a_{i+1} - a_i, then sum_k lam_k^r Delta_ik^2, then g, then
    delta * cumsum with a leading zero.  g is x^p or f(x) of the normalized norm x, or
    F(Delta_i / tau, lam, r) for a general functional."""
    values = [0.0]
    total = 0.0
    for i in range(len(coeffs) - 1):
        inc = [float(coeffs[i + 1][k]) - float(coeffs[i][k]) for k in range(len(lam))]
        if req.F is not None:
            g = req.F(np.array(inc) / tau, lam, req.r)
        else:
            x = math.sqrt(sum(float(lam[k]) ** req.r * inc[k] ** 2 for k in range(len(lam)))) / tau
            g = x**req.p if req.p is not None else req.f(x)
        total += g
        values.append(delta * total)
    return np.array(values)


def interval_field_value(coeffs, length, x):
    """Field value sum_k a_k sqrt(2/L) sin(k pi x / L) on (0, L), by a plain loop over the modes."""
    return sum(float(a) * math.sqrt(2.0 / length) * math.sin(k * math.pi * x / length) for k, a in enumerate(coeffs, 1))


def increment_hr_norm_sq(prev, cur, lam, r):
    """Squared H_r norm sum_k lam_k^r (cur_k - prev_k)^2 of one increment, by a plain loop over the modes."""
    return sum(float(lk) ** r * (float(b) - float(a)) ** 2 for a, b, lk in zip(prev, cur, lam))


def basis_coordinate(k):
    """Coefficient functional h -> <h, b_k>_{H_r} = lam_k^{r/2} h_k for the orthonormal basis b_k = lam_k^{-r/2} phi_k,
    on a block of raw coefficient vectors (rows)."""
    return lambda coeffs, lam, r: lam[k - 1] ** (r / 2.0) * coeffs[:, k - 1]


def exact_mean_norm(weights):
    """E sqrt(sum w_k xi_k^2) for independent standard normals xi via a Laplace identity."""
    w = np.asarray(weights, dtype=float)

    def integrand(s):
        return (1.0 - math.exp(-0.5 * float(np.sum(np.log1p(2.0 * s * w))))) * s**-1.5

    val, _ = integrate.quad(integrand, 0.0, np.inf, limit=400)
    return val / (2.0 * math.sqrt(math.pi))


def model_series_reference(lam, r, gamma, d, delta, s, start, partial=True):
    """Exact series of the mode-truncated model: sum_k lam_k^r m(lam_k) over `lam` (unless `partial`
    is off) plus the Weyl-model tail int_start^inf lam^r m(lam) dx, lam = c x^{2/d}, c = lam_K / K^{2/d}.

    m is the variance of the unit-noise OU increment a(s + delta) - a(s) of a mode started at zero,
    written through the covariance as v(s + delta) + v(s) - 2 e^{-beta delta} v(s) (s = inf: the
    stationary increment).  The tail is Gauss-Legendre on panels of u = log x up to the eigenvalue
    where every exponential in m is below e^{-60}, plus the exact power tail a c^q x^{e+1} / (-e - 1)
    beyond it, q = r - gamma, e = 2q/d, with a = 1/2 for the first increment (s = 0) and a = 1 otherwise.
    """
    lam = np.asarray(lam, dtype=float)

    def v(beta, t):
        return -np.expm1(-2.0 * beta * t) / (2.0 * beta)

    def m(x):
        beta = x**gamma
        return v(beta, s + delta) + v(beta, s) * (1.0 - 2.0 * np.exp(-beta * delta))

    scales = [t for t in (s, delta) if 0.0 < t < math.inf]
    c = lam[-1] / lam.size ** (2.0 / d)
    lam_sat = max((60.0 / min(scales)) ** (1.0 / gamma), c * start ** (2.0 / d))
    u0, u1 = math.log(start), 0.5 * d * math.log(lam_sat / c)
    panels = max(1, int(math.ceil((u1 - u0) / 0.25)))
    ref_u, ref_w = np.polynomial.legendre.leggauss(20)
    h = (u1 - u0) / panels
    u = (u0 + h * np.arange(panels)[:, None] + 0.5 * h * (ref_u[None, :] + 1.0)).ravel()
    x_lam = c * np.exp(2.0 * u / d)
    body = float(np.sum(np.tile(0.5 * h * ref_w, panels) * x_lam**r * m(x_lam) * np.exp(u)))
    q = r - gamma
    e = 2.0 * q / d
    a = 0.5 if s == 0.0 else 1.0
    power = a * c**q * math.exp(u1 * (e + 1.0)) / (-e - 1.0)
    head = float(np.sum(lam**r * m(lam))) if partial else 0.0
    return head + body + power


def riemann_zeta(z):
    from scipy.special import zeta

    return float(zeta(z, 1))


def square_zeta(s):
    """Dirichlet spectral zeta of the square (0, pi)^2: sum_{m,n>=1} (m^2 + n^2)^{-s} = zeta(s) beta(s) - zeta(2s),
    with the Dirichlet beta function beta(s) = 4^{-s} (zeta(s, 1/4) - zeta(s, 3/4)) from Hurwitz zeta values."""
    from scipy.special import zeta

    beta = 4.0**-s * (zeta(s, 0.25) - zeta(s, 0.75))
    return float(zeta(s, 1) * beta - zeta(2.0 * s, 1))
