"""Randomized quasi-Monte Carlo means mu_{r,F}(w) = E[F(H)] of Gaussian functionals below the transition: scrambled
Sobol points from Joe and Kuo's direction numbers (shipped as `_joe_kuo.npz`), mapped to normals in numpy.

Every array of the sampler keeps to the block budget `BLOCK_ELEMENTS`: the bit matrices of a scrambling are drawn
and reduced a chunk of dimensions at a time, and the points and their normals are made block by block in buffers
allocated once per call, so a yielded block of points is a reused buffer (copy it to keep it)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ._version import BLOCK_ELEMENTS, rng_for
from .limits import Regime, RegimeParams, _covariance_factor, functional_values
from .spectrum import hr_weights

__all__ = ["MonteCarloEstimate", "mu_rF_estimate", "SCRAMBLINGS", "MAX_DIMENSIONS"]

SCRAMBLINGS = 16  # independent scramblings behind every estimate and its error bar (8 were too few for heavy-tailed F)
MAX_DIMENSIONS = 2000  # the rows of the direction-number table, and the cap of the dense covariance factorization
_BITS = 30  # digits of a Sobol point, as in scipy's engine
_SOBOL_TABLE = Path(__file__).with_name("_joe_kuo.npz")
_HALF_CELL = 2.0**-31  # Sobol points are multiples of 2^-30, and 0 among them; the cell midpoint keeps ndtri finite
_DIGIT_BIT = np.uint32(1) << np.arange(_BITS - 1, -1, -1, dtype=np.uint32)  # digit j of a point is bit 29 - j
_BELOW_DIAGONAL = np.tril(np.broadcast_to(_DIGIT_BIT, (_BITS, _BITS)), -1)  # row p: the bits of digits j < p


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    stderr: float
    samples: int


def _direction_numbers(d: int, n: int) -> np.ndarray:
    """Sobol direction numbers V_b, b < log2(n), of d <= MAX_DIMENSIONS dimensions as 30-bit integers, (d, log2 n).

    The primitive polynomials and initial numbers are Joe and Kuo's (2008): the first rows of scipy's copy of their
    table, shipped as `_joe_kuo.npz` (provenance and license in `_joe_kuo_LICENSE.txt`).  Column b follows scipy's
    recurrence (Bratley and Fox 1988): for b >= m, the degree of the polynomial p, v_b = v_{b-m} ^ XOR over the set
    bits m-1-k of p of 2^(k+1) v_{b-k-1}; V_b = v_b 2^(29-b)."""
    if d > MAX_DIMENSIONS:
        raise ValueError(f"the Sobol direction-number table has {MAX_DIMENSIONS} dimensions, {d} were asked for")
    try:
        with np.load(_SOBOL_TABLE) as table:
            poly, vinit = table["poly"][:d], table["vinit"][:d]
    except FileNotFoundError:
        raise FileNotFoundError(f"the Sobol direction number table {_SOBOL_TABLE} is missing") from None
    degree = np.frexp(poly)[1] - 1
    v = np.zeros((d, n.bit_length() - 1), dtype=np.int64)
    for b in range(v.shape[1]):
        rec = degree <= b
        v[:, b] = np.where(rec, v[np.arange(d), np.maximum(b - degree, 0)], vinit[:, min(b, vinit.shape[1] - 1)])
        for k in range(min(b, degree.max())):
            term = rec & (k < degree) & (poly >> np.maximum(degree - 1 - k, 0) & 1 == 1)
            v[term, b] ^= v[term, b - k - 1] << (k + 1)
    v[degree == 0] = 1  # the first dimension, polynomial 1, has every v_b = 1
    return (v << (_BITS - 1 - np.arange(v.shape[1]))).astype(np.uint32)


def _parity(x: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each unsigned integer, as uint8."""
    return np.bitwise_count(x) & np.uint8(1)


def _block_rows(d: int) -> int:
    """Rows of a block of d-dimensional points: the largest power of two with rows * d <= BLOCK_ELEMENTS (at
    least 1).  A power of two, so that every block starts at a multiple of its length, as the Gray-code offsets
    of `_scrambled_sobol` need."""
    return 1 << max(0, (BLOCK_ELEMENTS // d).bit_length() - 1)


def _scrambled_sobol(v: np.ndarray, n: int, g: np.random.Generator):
    """The first n points of one LMS + digital-shift scrambling (Matousek 1998) of the Sobol sequence with
    direction numbers v, in blocks of at most `_block_rows(d)` rows; bit for bit the points of scipy's
    `qmc.Sobol(d, scramble=True)` whose own generator is g.  Every block is the same reused buffer, overwritten
    by the next: copy it to keep it.

    As scipy does, g draws the shift bits (bit j of weight 2^j) and then all 30 x 30 bits of each matrix, of
    which the lower-triangular matrix keeps those below the diagonal and has a unit diagonal.  The matrices are
    drawn and reduced `BLOCK_ELEMENTS // 900` dimensions at a time, in dimension order: a uint32 draw takes the
    same numbers from g in chunks as in one call, so the points do not change.  Row p of a matrix,
    as an integer with column 0 the most significant bit, is its drawn bits weighted by `_BELOW_DIAGONAL` plus
    bit 29 - p.  Bit 29 - p of a scrambled direction number is the parity of row p and the number.  The points
    follow in Gray-code order: x_0 is the shift and, with s = 2^b, x_{s+i} = x_{s-1-i} ^ V'_b.  Block c of B
    rows is the first block XOR the V' of the set bits of gray(c B)."""
    d = v.shape[0]
    shift = g.integers(2, size=(d, _BITS), dtype=np.uint32) @ _DIGIT_BIT[::-1]
    sv = np.empty_like(v)
    chunk = max(1, BLOCK_ELEMENTS // (_BITS * _BITS))  # dimensions whose bit matrices fit the block budget
    for lo in range(0, d, chunk):
        bits = g.integers(2, size=(min(chunk, d - lo), _BITS, _BITS), dtype=np.uint32)
        rows = np.einsum("dpj,pj->dp", bits, _BELOW_DIAGONAL)
        rows |= _DIGIT_BIT  # the unit diagonal
        parity = _parity(rows[:, :, None] & v[lo : lo + chunk, None, :])  # (chunk, 30, log2 n)
        np.einsum("dpb,p->db", parity, _DIGIT_BIT, out=sv[lo : lo + chunk])
    first = np.empty((min(n, _block_rows(d)), d), dtype=np.uint32)
    first[0] = shift
    s = 1
    while s < len(first):
        np.bitwise_xor(first[s - 1 :: -1], sv[:, s.bit_length() - 1], out=first[s : 2 * s])
        s *= 2
    block, points = np.empty_like(first), np.empty(first.shape)
    for start in range(0, n, len(first)):
        gray = start ^ (start >> 1)
        offset = np.bitwise_xor.reduce(sv[:, [b for b in range(sv.shape[1]) if gray >> b & 1]], axis=1)
        np.bitwise_xor(first, offset, out=block)
        yield np.multiply(block, 2.0**-_BITS, out=points)


# Cephes' ndtri (S. L. Moshier), the inverse normal scipy.special runs: for exp(-2) < y <= 1 - exp(-2) a rational
# in (y - 1/2)^2, else in z = 1/sqrt(-2 log y) of the tail probability y (P1/Q1, for z > 1/8).  Cell midpoints
# reach down to y = 2^-31, where sqrt(-2 log y) = 6.56 < 8, so Cephes' third branch (P2/Q2) is never needed.
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)


def _horner(x: np.ndarray, coeffs: tuple, monic: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """The polynomial with `coeffs` (highest degree first, after a leading 1 left out if `monic`) at x, rounded
    step by step as Cephes' polevl and p1evl round it; into `out` if given."""
    if monic:
        out = np.add(x, coeffs[0], out=out)
    else:
        out = np.multiply(x, coeffs[0], out=out)
        out += coeffs[1]
    for c in coeffs[1 if monic else 2 :]:
        out *= x
        out += c
    return out


def _normals(u: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """Standard normals, in place, at the midpoints of the 2^-30 cells whose left ends are the Sobol points u (a
    C-contiguous array of multiples of 2^-30 in [0, 1)), in one pass: the sampler passes one block at a time.
    `work`, a float64 array of shape (5, m) with m >= u.size, holds the temporaries of both branches, so that a
    caller mapping many blocks allocates them once; without it they are allocated here.

    The map is Cephes' ndtri in numpy, with the tail formula evaluated only on the points in the tails.  It is
    exactly odd about 1/2, and the central branch (73% of the cells) is bit for bit scipy.special.ndtri; in the
    tails numpy's log may round otherwise than the C library's, which moves fewer than one point in 10^4, by at
    most 5 ulps."""
    y = u.reshape(-1)
    t, y2, num, den, q = np.empty((5, y.size)) if work is None else work[:, : y.size]
    y += _HALF_CELL
    tail = np.flatnonzero((y <= _EXP_M2) | (y > 1.0 - _EXP_M2))
    t = np.take(y, tail, out=t[: tail.size])
    # sqrt(2 pi) (y' + y' y'^2 P0(y'^2) / Q0(y'^2)) with y' = y - 1/2, at every point, rounded as
    # y' + y' * ((y'^2 * P0) / Q0) rounds
    y -= 0.5
    np.multiply(y, y, out=y2)
    _horner(y2, _NDTRI_P0, out=num)
    _horner(y2, _NDTRI_Q0, monic=True, out=den)
    num *= y2
    num /= den
    num *= y
    y += num
    y *= _SQRT_2PI
    if tail.size:
        # s - log(s)/s - z P1(z) / Q1(z) with s = sqrt(-2 log m) = 1/z, m the smaller tail mass, signed as t - 1/2,
        # in the rows the central branch is done with
        s, z, x, q = (row[: tail.size] for row in (y2, num, den, q))
        np.minimum(t, np.subtract(1.0, t, out=s), out=s)
        np.log(s, out=s)
        s *= -2.0
        np.sqrt(s, out=s)
        np.divide(1.0, s, out=z)
        np.subtract(s, np.divide(np.log(s, out=x), s, out=x), out=x)
        p = _horner(z, _NDTRI_P1, out=s)  # s is spent
        p *= z
        p /= _horner(z, _NDTRI_Q1, monic=True, out=q)
        x -= p
        t -= 0.5
        y[tail] = np.copysign(x, t, out=x)
    return u


def mu_rF_estimate(
    F: Callable[[np.ndarray, np.ndarray, float], np.ndarray],
    w,
    params: RegimeParams,
    truncation: int = 1000,
    samples: int = 2**14,
    seed: int = 0,
) -> MonteCarloEstimate:
    """Randomized quasi-Monte Carlo estimate of mu_{r,F}(w) = E[F(H)] for H ~ N_r(0, Q_r(w)), r < -d/2.

    H is drawn in its factor form sum_k X_k lam_k^{-r/2} phi_k from SCRAMBLINGS independent LMS + digital-shift
    scramblings of the Sobol sequence in `truncation` <= MAX_DIMENSIONS dimensions, scrambling k drawn by child k
    of `rng_for(seed).spawn(SCRAMBLINGS)`.  The scrambling is done in numpy (`_scrambled_sobol`), bit for bit the
    points of scipy's `qmc.Sobol(scramble=True)` engine on that child, from the same direction numbers
    (`_direction_numbers`, the rows of Joe and Kuo's table shipped with the package).  Each scrambling takes n
    points, n the largest power of two with SCRAMBLINGS * n <= `samples` (at least 1), mapped to normals at their
    cell midpoints, `_block_rows(truncation)` at a time, by `_normals`, a numpy port of the ndtri that
    scipy.special runs.  The set-up draws the LMS bit matrices a chunk of dimensions at a time, within the block
    budget, and every block goes through buffers allocated once per call.  F follows the array contract of
    `functional_values`, as in the variation kernel: it receives a block of raw coefficient vectors, shape
    (m, K), with the eigenvalues and r, and returns the m values; the block is a reused buffer, so F must copy
    what it keeps.  The mean is the mean of the scrambling means and the standard error their spread over
    sqrt(SCRAMBLINGS).  `w` may be a constant (diagonal covariance by orthonormality) or, on intervals, a
    non-negative function.  For F a function of the norm, `qform.norm_functional_mean` gives the mean exactly.
    """
    if params.regime is not Regime.SUB:
        raise ValueError("mu_{r,F} is defined only below the transition (r < -d/2)")
    if truncation > MAX_DIMENSIONS:
        raise ValueError(f"truncation capped at {MAX_DIMENSIONS} (Sobol table rows, dense covariance factorization)")
    if samples < 1:
        raise ValueError("need at least one sample")
    lam, _, factor = _covariance_factor(params, w, truncation)
    inv_half = hr_weights(lam, -params.r / 2.0)
    n = 1 << max(0, (samples // SCRAMBLINGS).bit_length() - 1)
    v = _direction_numbers(truncation, n)
    rows = min(n, _block_rows(truncation))
    work = np.empty((5, rows * truncation))
    mixed = np.empty((rows, truncation)) if np.ndim(factor) else None
    means = np.zeros(SCRAMBLINGS)
    for rep, g in enumerate(rng_for(seed).spawn(SCRAMBLINGS)):
        for block, points in enumerate(_scrambled_sobol(v, n, g)):
            coeffs = _normals(points, work)
            if mixed is None:
                coeffs *= factor  # X = sqrt(c) lam^{r/2} z, so the coefficients X lam^{-r/2} are sqrt(c) z
            else:
                coeffs = np.matmul(coeffs, factor.T, out=mixed)
                coeffs *= inv_half
            means[rep] += functional_values("F", F, coeffs, lam, params.r, where=f"scrambling {rep}, block {block}").sum()
    means /= n
    stderr = float(np.std(means, ddof=1) / math.sqrt(SCRAMBLINGS))
    return MonteCarloEstimate(mean=float(np.mean(means)), stderr=stderr, samples=SCRAMBLINGS * n)
