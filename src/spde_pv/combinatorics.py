"""Exact combinatorial primitives: alpha-permanents, cycle counts, Bell polynomials,
and the Gaussian even-moment identity E[X_1^2 .. X_p^2] = 2^p per_{1/2}(C)."""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = [
    "MAX_PERMANENT_SIZE",
    "cycle_count",
    "alpha_permanent",
    "gaussian_even_moment",
    "complete_bell",
]

MAX_PERMANENT_SIZE = 10


def cycle_count(perm) -> int:
    """Number of disjoint cycles of a permutation of {1, .., p}, fixed points included.

    `perm[i]` is the image of i + 1; values must be a rearrangement of 1..p.
    """
    images = list(perm)
    p = len(images)
    if p < 1 or sorted(images) != list(range(1, p + 1)):
        raise ValueError(f"not a permutation of 1..{p}: {perm!r}")
    return _cycles([v - 1 for v in images])


def _cycles(images) -> int:
    """Cycle count of the permutation i -> images[i] of {0, .., p - 1}; the input is not checked."""
    seen = [False] * len(images)
    cycles = 0
    for start in range(len(images)):
        if seen[start]:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = images[j]
    return cycles


def _check_symmetric(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.max(np.abs(a))))
    if np.max(np.abs(a - a.T)) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    return a


def alpha_permanent(a, alpha: float) -> float:
    """per_alpha(A) = sum over permutations sigma of alpha^{#cycles(sigma)} prod_i A[i, sigma(i)].

    Exact enumeration over all p! permutations; alpha = 1 gives the permanent and
    alpha = -1 gives (-1)^p det(A).  The cycle weighting rules out Ryser-style
    inclusion-exclusion, so the size is capped at p = 10.
    """
    a = _check_symmetric(a)
    p = a.shape[0]
    if p > MAX_PERMANENT_SIZE:
        raise ValueError(f"permanent enumeration capped at p = {MAX_PERMANENT_SIZE}, got p = {p}")
    rows = [list(map(float, row)) for row in a]
    total = 0.0
    for sigma in itertools.permutations(range(p)):
        prod = 1.0
        for i in range(p):
            prod *= rows[i][sigma[i]]
        if prod != 0.0:
            prod *= alpha ** _cycles(sigma)
        total += prod
    return total


def gaussian_even_moment(c) -> float:
    """E[X_1^2 .. X_p^2] for centered jointly Gaussian X with covariance C."""
    c = _check_symmetric(c)
    eigs = np.linalg.eigvalsh(c)
    if eigs[0] < -1e-10:
        raise ValueError(f"covariance is not positive semidefinite (min eigenvalue {eigs[0]:.3e})")
    p = c.shape[0]
    return 2.0**p * alpha_permanent(c, 0.5)


def complete_bell(x):
    """Complete Bell polynomial B_p(x_1, .., x_p) via the binomial recurrence, a float for numbers x_i,
    and elementwise, an array, for arrays x_i of one shape.

    B_0 = 1 and B_{n+1} = sum_{i=0}^{n} C(n, i) B_{n-i} x_{i+1}.
    """
    xs = np.asarray(x, dtype=float)
    p = len(xs)
    if p < 1:
        raise ValueError("need at least one variable")
    b = [1.0]
    for n in range(p):
        b.append(sum(math.comb(n, i) * b[n - i] * xs[i] for i in range(n + 1)))
    return b[p] if xs.ndim > 1 else float(b[p])
