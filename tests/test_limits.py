import itertools
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gamma as gamma_fn
from scipy.special import ndtri
from scipy.stats import qmc

from spde_pv import limits, qform, rqmc, spectrum
from spde_pv._version import BLOCK_ELEMENTS, rng_for
from spde_pv.limits import (
    Regime,
    RegimeParams,
    holder_exponent,
    increment_power_sums,
    increment_variance,
    increment_weights,
    k_r,
    limit_constant_even_power,
    limit_process_general_sigma,
    norm_power_functional,
    norm_weights,
    ou_increment_variance,
    tau_n,
)
from spde_pv.combinatorics import complete_bell
from spde_pv.qform import norm_functional_mean, power_sum_moments
from spde_pv.rqmc import (
    MAX_DIMENSIONS,
    SCRAMBLINGS,
    _block_rows,
    _direction_numbers,
    _normals,
    _parity,
    _scrambled_sobol,
    mu_rF_estimate,
)
from spde_pv.spectrum import UNIT_PI_INTERVAL, DomainSpec, eigenvalues, hr_norm_sq
from spde_pv.variations import F_PRESETS

import oracles

PI = math.pi
ZETA2 = PI**2 / 6.0
ZETA4 = PI**4 / 90.0
BELL4 = 4.0 * ((ZETA2 / 2.0) ** 2 + ZETA4 / 2.0)  # 2^2 B_2(zeta(2)/2, zeta(4)/2) = 4.87045455..


def params(r, gamma=1.0, domain=UNIT_PI_INTERVAL):
    return RegimeParams(r=r, gamma=gamma, domain=domain)


class TestRegimeParams:
    def test_regime_classification(self):
        assert params(-1.0).regime is Regime.SUB
        assert params(-0.5).regime is Regime.CRITICAL
        assert params(0.2).regime is Regime.SUPER
        two_d = DomainSpec((PI, PI))
        assert RegimeParams(r=-1.0, gamma=2.0, domain=two_d).regime is Regime.CRITICAL

    @pytest.mark.parametrize("r,gamma", [(0.5, 1.0), (0.6, 1.0), (1.0, 1.0), (0.0, 0.5)])
    def test_rejects_out_of_range(self, r, gamma):
        with pytest.raises(ValueError, match="H_r"):
            params(r, gamma)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            params(-1.0, gamma=0.0)

    def test_out_of_range_r_rejected_at_construction(self):
        with pytest.raises(ValueError):
            params(0.6)

    @pytest.mark.parametrize("r,gamma,field", [(-math.inf, 1.0, "r"), (math.nan, 1.0, "r"), (-1.0, math.inf, "gamma"),
                                               (-1.0, math.nan, "gamma"), (math.inf, math.nan, "r")])
    def test_rejects_non_finite_with_the_field_named(self, r, gamma, field):
        with pytest.raises(ValueError, match=f"^{field} = .* {field} must be finite"):
            params(r, gamma)


class TestTau:
    def test_sub(self):
        assert tau_n(params(-1.0), 1e-4) == pytest.approx(1e-2, rel=1e-14)

    def test_critical(self):
        assert tau_n(params(-0.5), 1e-4) == pytest.approx(math.sqrt(1e-4 * math.log(1e4)), rel=1e-12)
        assert tau_n(params(-0.5), 1e-4) == pytest.approx(0.030348, rel=1e-4)

    def test_super(self):
        assert tau_n(params(0.0), 1e-4) == pytest.approx(0.1, rel=1e-14)

    @pytest.mark.parametrize("delta", [0.0, -0.1, 1.0, 2.0])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(ValueError):
            tau_n(params(-1.0), delta)

    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6])
    def test_ordering_at_transition(self, delta):
        # sub-regime normalizer is delta-independent of r and smaller than the critical one
        assert tau_n(params(-0.5001), delta) == math.sqrt(delta)
        assert math.sqrt(delta) < tau_n(params(-0.5), delta)


class TestKr:
    def test_sub_is_zeta(self):
        assert k_r(params(-1.0)) == pytest.approx(ZETA2, abs=1e-10)

    def test_super_r0(self):
        assert k_r(params(0.0)) == pytest.approx(math.sqrt(PI), rel=1e-12)

    def test_critical_is_half(self):
        assert k_r(params(-0.5)) == pytest.approx(0.5, rel=1e-12)

    def test_interval_closed_form_identity(self):
        # acceptance criterion: K_r == Gamma(r + 1/2) / (2 (1/2 - r)) on (0, pi), d=1, gamma=1
        rng = np.random.Generator(np.random.Philox(17))
        for r in rng.uniform(-0.5, 0.5, size=20):
            if r <= -0.5 or r >= 0.5:
                continue
            ref = gamma_fn(r + 0.5) / (2.0 * (0.5 - r))
            assert k_r(params(float(r))) == pytest.approx(ref, abs=1e-10)


class TestLimitConstants:
    def test_quadratic_sub(self):
        assert limit_constant_even_power(params(-1.0), 1) == pytest.approx(ZETA2, abs=1e-10)

    def test_fourth_order_sub(self):
        assert limit_constant_even_power(params(-1.0), 2) == pytest.approx(BELL4, abs=1e-8)

    def test_fourth_order_super(self):
        assert limit_constant_even_power(params(0.0), 2) == pytest.approx(PI, rel=1e-12)

    def test_p1_equals_k_r_exactly(self):
        for r in (-0.8, -1.3, -2.0):
            assert limit_constant_even_power(params(r), 1) == k_r(params(r))

    def test_sub_constants_match_riemann_bell_form(self):
        # Theorem-A style cross-check through the classical zeta function
        for r in (-0.8, -1.0, -1.5):
            for p in (1, 2, 3):
                xs = [0.5 * math.factorial(l - 1) * oracles.riemann_zeta(-2.0 * l * r) for l in range(1, p + 1)]
                ref = 2.0**p * oracles.bell_by_partitions(xs)
                assert limit_constant_even_power(params(r), p) == pytest.approx(ref, rel=1e-9)

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            limit_constant_even_power(params(-1.0), 0)


class TestLimitProcess:
    def test_constant_sigma_reduces_to_power_law(self):
        limit = limit_process_general_sigma(params(0.0), 2.0, lambda s: PI)
        assert limit(1.7) == pytest.approx(math.sqrt(PI) * 1.7, rel=1e-8)

    def test_time_ramp_closed_form(self):
        limit = limit_process_general_sigma(params(0.0), 2.0, lambda s: s * PI)
        for t in (0.5, 1.0, 2.0):
            assert limit(t) == pytest.approx(math.sqrt(PI) * t * t / 2.0, rel=1e-8)

    def test_degenerate_order_zero(self):
        limit = limit_process_general_sigma(params(0.0), 0.0, lambda s: 42.0)
        assert limit(0.8) == pytest.approx(0.8, rel=1e-10)
        assert limit(0.0) == 0.0

    def test_rejects_sub_regime(self):
        with pytest.raises(ValueError, match="mu_rF"):
            limit_process_general_sigma(params(-1.0), 2.0, lambda s: 1.0)

    @pytest.mark.parametrize("p", [0.5, 4.0])
    @pytest.mark.parametrize(
        "sigma_sq",
        [lambda s: PI, lambda s: s * PI, lambda s: PI * (1.0 + math.sin(3.0 * s) ** 2)],
        ids=["constant", "ramp", "oscillating"],
    )
    def test_callable_g_agrees_with_the_power(self, p, sigma_sq):
        power = limit_process_general_sigma(params(0.0), p, sigma_sq)
        function = limit_process_general_sigma(params(0.0), lambda x: x**p, sigma_sq)
        for t in (0.3, 1.0, 2.0):
            assert function(t) == pytest.approx(power(t), rel=1e-14, abs=0.0)

    def test_bounded_g_saturates(self):
        # g(x) = min(x^2, 1) at r = 0 and unit sigma: x^2 = K_0/|D| * |D| = sqrt(pi) > 1, so g is 1 at every time
        limit = limit_process_general_sigma(params(0.0), lambda x: np.minimum(x * x, 1.0), lambda s: PI)
        for t in (0.5, 1.0, 2.0):
            assert limit(t) == pytest.approx(t, rel=1e-12)


class TestMuRF:
    def test_constant_functional_is_exact(self):
        constant = lambda a, lam, r: np.full(len(a), 4.5)
        est = mu_rF_estimate(constant, 1.0, params(-1.0), truncation=50, samples=500, seed=1)
        assert est.mean == 4.5
        assert est.stderr == 0.0

    def test_norm_squared_hits_zeta(self):
        est = mu_rF_estimate(norm_power_functional(2.0), 1.0, params(-1.0), truncation=1000, samples=40000, seed=2)
        slack = 1.0 / 1000.0  # omitted diagonal tail sum_{k>K} k^{-2}
        assert abs(est.mean - ZETA2) < 3.0 * est.stderr + slack

    def test_norm_fourth_hits_bell_constant(self):
        est = mu_rF_estimate(norm_power_functional(4.0), 1.0, params(-1.0), truncation=1000, samples=40000, seed=3)
        assert abs(est.mean - BELL4) < 3.0 * est.stderr + 2e-2

    def test_first_basis_coordinate_squared(self):
        fn = oracles.basis_coordinate(1)
        sq = lambda a, lam, r: fn(a, lam, r) ** 2
        est = mu_rF_estimate(sq, 1.0, params(-1.0), truncation=200, samples=40000, seed=4)
        assert abs(est.mean - 1.0) < 3.0 * est.stderr  # lam_1^r = 1 on (0, pi)

    def test_linear_functional_is_centered(self):
        est = mu_rF_estimate(oracles.basis_coordinate(1), 1.0, params(-1.0), truncation=200, samples=40000, seed=5)
        assert abs(est.mean) < 3.0 * est.stderr

    def test_nonconstant_weight_diagonal_value(self):
        # w(y) = sin(y)^2: Var X_1 = lam_1^r int phi_1^2 w = (2/pi) int sin^2 sin^2 = 3/4
        fn = oracles.basis_coordinate(1)
        sq = lambda a, lam, r: fn(a, lam, r) ** 2
        est = mu_rF_estimate(sq, lambda y: np.sin(y) ** 2, params(-1.0), truncation=64, samples=40000, seed=6)
        assert abs(est.mean - 0.75) < 3.0 * est.stderr

    def test_reproducible(self):
        a = mu_rF_estimate(norm_power_functional(2.0), 1.0, params(-1.0), truncation=100, samples=2000, seed=11)
        b = mu_rF_estimate(norm_power_functional(2.0), 1.0, params(-1.0), truncation=100, samples=2000, seed=11)
        assert a == b

    def test_norm_squared_at_the_default_size_has_the_truncated_mean(self):
        # 16 scramblings of 1024 points: no slack for the omitted modes, which the sampler does not have
        est = mu_rF_estimate(norm_power_functional(2.0), 1.0, params(-1.0), truncation=1000, samples=2**14, seed=7)
        exact = float(np.sum(np.arange(1, 1001.0) ** -2.0))
        assert est.samples == 2**14
        assert est.stderr < 1e-3
        assert abs(est.mean - exact) < 3.0 * est.stderr

    @pytest.mark.parametrize(
        "samples,points", [(1, 1), (15, 1), (500, 16), (2**14, 1024), (40000, 2048), (100000, 4096)]
    )
    def test_points_per_scrambling(self, samples, points):
        # n is the largest power of two with 16 n <= samples, fed to F in blocks of at most _block_rows(2)
        blocks = []
        rows_per_block = _block_rows(2)

        def rows(a, lam, r):
            blocks.append(len(a))
            return a[:, 0]

        est = mu_rF_estimate(rows, 1.0, params(-1.0), truncation=2, samples=samples, seed=8)
        assert est.samples == SCRAMBLINGS * points
        assert blocks == [min(points, rows_per_block)] * (SCRAMBLINGS * max(1, points // rows_per_block))

    @pytest.mark.parametrize("n", [1, 2, 1024, 4096, 16384])
    @pytest.mark.parametrize("d", [1, 5, 1000, 2000])
    def test_scrambled_points_are_scipys_bit_for_bit(self, d, n):
        # past B = _block_rows(d) points, block c is the first block XOR the scrambled direction numbers of
        # gray(c B), checked against scipy's continuing sequence; each block is a reused buffer, so it is copied
        v = _direction_numbers(d, n)
        rows_per_block = _block_rows(d)
        for seed in (0, 17, 90210):
            sobol = qmc.Sobol(d, scramble=True, rng=rng_for(seed))
            blocks = [block.copy() for block in _scrambled_sobol(v, n, rng_for(seed).spawn(1)[0])]
            assert [len(b) for b in blocks] == [min(n, rows_per_block)] * max(1, n // rows_per_block)
            for block in blocks:
                assert np.array_equal(block, sobol.random(len(block)))

    def test_parity_counts_set_bits_mod_2(self):
        x = np.concatenate([np.array([0, 1, 2**31, 2**32 - 1], dtype=np.uint32),
                            rng_for(5).integers(2**32, size=10**4, dtype=np.uint32)])
        assert _parity(x).tolist() == [bin(int(value)).count("1") & 1 for value in x]

    def test_missing_direction_table_is_named(self, monkeypatch, tmp_path):
        missing = tmp_path / "_joe_kuo.npz"
        monkeypatch.setattr(rqmc, "_SOBOL_TABLE", missing)
        with pytest.raises(FileNotFoundError, match=re.escape(str(missing))):
            _direction_numbers(5, 16)

    def test_shipped_table_is_the_first_rows_of_scipys(self):
        # the rows scipy's engine reads for the first MAX_DIMENSIONS dimensions, with their int64 dtype
        full = Path(qmc.__file__).with_name("_sobol_direction_numbers.npz")
        with np.load(rqmc._SOBOL_TABLE) as shipped, np.load(full) as table:
            assert sorted(shipped.files) == ["poly", "vinit"]
            for key in ("poly", "vinit"):
                assert shipped[key].dtype == table[key].dtype
                assert len(shipped[key]) == MAX_DIMENSIONS
                assert np.array_equal(shipped[key], table[key][:MAX_DIMENSIONS])

    def test_direction_numbers_stop_at_the_table(self):
        assert _direction_numbers(MAX_DIMENSIONS, 16).shape == (MAX_DIMENSIONS, 4)
        with pytest.raises(ValueError, match=f"table has {MAX_DIMENSIONS} dimensions, {MAX_DIMENSIONS + 1} were"):
            _direction_numbers(MAX_DIMENSIONS + 1, 16)

    def test_blocks_hold_at_most_2_15_coordinates(self):
        assert [_block_rows(d) for d in (1, 2, 1000, 2000, 2**18, 2**19)] == [2**15, 2**14, 32, 16, 1, 1]
        blocks = []

        def rows(a, lam, r):
            blocks.append(a.shape)
            return a[:, 0]

        mu_rF_estimate(rows, 1.0, params(-1.0), truncation=1000, samples=SCRAMBLINGS * 512, seed=4)
        assert blocks == [(32, 1000)] * (16 * SCRAMBLINGS)

    def test_scrambling_k_is_scipys_kth_engine_on_one_generator(self):
        # w = 1: the coefficients are the normals of the points; scipy spawns each engine's generator from the one
        # it is given
        blocks = []

        def record(coeffs, lam, r):
            blocks.append(coeffs.copy())
            return coeffs[:, 0]

        mu_rF_estimate(record, 1.0, params(-1.0), truncation=7, samples=SCRAMBLINGS * 64, seed=31)
        rng = rng_for(31)
        for block in blocks:
            points = qmc.Sobol(d=7, scramble=True, rng=rng).random(64)
            assert np.array_equal(block, _normals(points))

    def test_midpoint_map_keeps_the_grid_ends_finite(self):
        ends = _normals(np.array([0.0, 1.0 - 2.0**-30]))
        assert np.all(np.isfinite(ends)) and ends[0] < 0.0 and ends[0] == -ends[1]

    def test_midpoint_map_is_scipys_ndtri(self):
        # the first and last 2e6 cells of the 2^-30 grid and every 97th cell: scipy's ndtri bit for bit where
        # exp(-2) < u <= 1 - exp(-2), at most 5 ulps from it in the tails (5 measured: numpy's log is not the C
        # library's), exactly odd (the cell k <-> 2^30 - 1 - k), and increasing
        n, ends, piece = 2**30, 2 * 10**6, 2**19
        spans = [(0, ends, 1), (-(-ends // 97) * 97, n - ends, 97), (n - ends, n, 1)]
        pieces = (np.arange(start, min(start + piece * step, stop), step)
                  for first, stop, step in spans for start in range(first, stop, piece * step))
        last, worst = -np.inf, 0
        for cells in pieces:
            u = cells * 2.0**-30
            x, mirrored = _normals(u.copy()), _normals((n - 1 - cells) * 2.0**-30)
            reference = ndtri(u + 2.0**-31)
            assert np.array_equal(mirrored, -x)
            assert x[0] > last and np.all(np.diff(x) > 0.0)
            last = x[-1]
            central = (u + 2.0**-31 > rqmc._EXP_M2) & (u + 2.0**-31 <= 1.0 - rqmc._EXP_M2)
            assert np.array_equal(x[central], reference[central])
            assert np.array_equal(np.sign(x), np.sign(reference))
            worst = max(worst, int(np.abs(x.view(np.int64) - reference.view(np.int64)).max()))
        assert 0 < worst <= 5

    def test_rejects_a_bad_F_result(self):
        # 4096 points per scrambling, in blocks of min(4096, _block_rows(2))
        rows_per_block = min(4096, _block_rows(2))
        blocks_per_scrambling = 4096 // rows_per_block

        def scalar(a, lam, r):
            return float(np.sum(a[:, 0]))

        message = rf"shape \(\) for {rows_per_block} coefficient vectors \(scrambling 0, block 0\)"
        with pytest.raises(ValueError, match=message):
            mu_rF_estimate(scalar, 1.0, params(-1.0), truncation=2, samples=16 * 4096, seed=9)
        calls = []

        def nan_in_fourth_block(a, lam, r):
            calls.append(len(a))
            values = a[:, 0].copy()
            if len(calls) == 4:
                values[100] = np.nan
            return values

        scrambling, block = divmod(3, blocks_per_scrambling)
        with pytest.raises(ValueError, match=rf"non-finite value \(scrambling {scrambling}, block {block}\)"):
            mu_rF_estimate(nan_in_fourth_block, 1.0, params(-1.0), truncation=2, samples=16 * 4096, seed=9)

    def test_rejects_super_regime_and_oversize(self):
        with pytest.raises(ValueError, match="-d/2"):
            mu_rF_estimate(norm_power_functional(2.0), 1.0, params(0.0), truncation=10, samples=10)
        with pytest.raises(ValueError, match="capped"):
            mu_rF_estimate(norm_power_functional(2.0), 1.0, params(-1.0), truncation=MAX_DIMENSIONS + 1, samples=10)


class TestNormFunctionalMean:
    """E g(||H||_{H_r}) from the law of Q = sum_k a_k xi_k^2, against references that share none of its code."""

    def test_even_powers_with_tail_are_the_bell_constants(self):
        a, tail = norm_weights(params(-1.0), 1.0, truncation=1000)
        assert norm_functional_mean(2.0, a, tail) == pytest.approx(ZETA2, rel=1e-9)
        assert norm_functional_mean(4.0, a, tail) == pytest.approx(BELL4, rel=1e-9)
        # the function route (law of the norm) agrees with the moments
        assert norm_functional_mean(F_PRESETS["square"], a, tail) == pytest.approx(ZETA2, rel=1e-9)

    def test_sigma_scales_the_weights_and_the_tail(self):
        a, tail = norm_weights(params(-1.0), 4.0, truncation=1000)
        assert norm_functional_mean(2.0, a, tail) == pytest.approx(4.0 * ZETA2, rel=1e-9)
        unit = norm_functional_mean(1.0, *norm_weights(params(-1.0), 1.0))
        assert norm_functional_mean(1.0, a, tail) == pytest.approx(2.0 * unit, rel=1e-10)

    def test_first_power_without_tail_is_the_laplace_oracle(self):
        a = np.arange(1, 1001.0) ** -2.0
        ref = oracles.exact_mean_norm(a)
        assert norm_functional_mean(1.0, a) == pytest.approx(ref, rel=1e-8)
        assert norm_functional_mean(F_PRESETS["identity"], a) == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("seed,functional,g", [
        (21, norm_power_functional(3.0), 3.0),
        (22, lambda c, lam, r: np.minimum(hr_norm_sq(c, lam, r), 1.0), F_PRESETS["min_square_one"]),
    ])
    def test_matches_the_sampler_at_matched_truncation(self, seed, functional, g):
        a, _ = norm_weights(params(-1.0), 1.0, truncation=200)
        est = mu_rF_estimate(functional, 1.0, params(-1.0), truncation=200, samples=40000, seed=seed)
        assert abs(norm_functional_mean(g, a) - est.mean) < 3.0 * est.stderr

    @pytest.mark.parametrize("r", [-0.6, -1.0, -2.0])
    def test_function_route_reproduces_the_power_route(self, r):
        # r = -0.6 inverts by Fourier series, r = -1 and -2 by the Talbot contour
        a = np.arange(1, 1001.0) ** (2.0 * r)
        exact = norm_functional_mean(3.0, a)
        assert norm_functional_mean(lambda x: x**3, a) == pytest.approx(exact, rel=1e-8)

    def test_function_route_near_the_transition(self):
        # r = -0.501: the tail carries 493 of the mean 500.6 and the law is a narrow peak (sd 1.8)
        a, tail = norm_weights(params(-0.501), 1.0, truncation=1000)
        exact = norm_functional_mean(1.0, a, tail)
        assert norm_functional_mean(F_PRESETS["identity"], a, tail) == pytest.approx(exact, rel=1e-8)

    def test_field_sigma_second_moment_is_the_covariance_trace(self):
        # w = sin^2: lam_k^r int phi_k^2 w = k^{-2} (1/2 + [k = 1]/4)
        a, tail = norm_weights(params(-1.0), lambda y: np.sin(y) ** 2, truncation=64)
        assert tail is None
        k = np.arange(1, 65.0)
        assert norm_functional_mean(2.0, a) == pytest.approx(0.5 * np.sum(k**-2.0) + 0.25, abs=1e-10)

    def test_degenerate_and_invalid_inputs(self):
        assert norm_functional_mean(lambda x: 7.0 + x, np.zeros(5)) == 7.0
        assert norm_functional_mean(2.0, np.zeros(5)) == 0.0
        with pytest.raises(ValueError, match="non-negative"):
            norm_functional_mean(2.0, np.array([1.0, -0.5]))
        with pytest.raises(ValueError, match="positive"):
            norm_functional_mean(-1.0, np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="below the transition"):
            norm_weights(params(-0.25), 1.0)
        with pytest.raises(ValueError, match="too few weights"):
            norm_functional_mean(1.0, *norm_weights(params(-1.0), 1.0, truncation=10))

    def test_function_is_called_on_each_round_of_nodes(self):
        # g gets the nodes of a quadrature round as one array, and a non-finite value is reported at those nodes
        a = np.arange(1, 1001.0) ** -2.0
        calls = []

        def g(x):
            calls.append(np.shape(x))
            return x * x

        assert norm_functional_mean(g, a) == norm_functional_mean(F_PRESETS["square"], a)
        assert calls and all(len(shape) == 1 and shape[0] % 10 == 0 for shape in calls)
        with pytest.raises(ValueError, match=r"f returned a non-finite value \(\d+ quadrature nodes in \["):
            norm_functional_mean(lambda x: np.where(x > 1.0, np.inf, x), a)

    def test_laplace_transform_in_blocks_is_the_transform_one_argument_at_a_time(self):
        form = qform._QuadraticForm(*norm_weights(params(-1.0), 1.0, truncation=1000))
        z = np.concatenate([np.geomspace(1e-3, 0.9 * form.reach, 700), 0.5 - 1j * np.linspace(0.0, 300.0, 600),
                            [2.0 * form.reach]])
        assert z.size > 2 * (BLOCK_ELEMENTS // form.a.size)
        blocked = form.log_laplace(z)
        assert np.array_equal(blocked, [form.log_laplace(x) for x in z])
        assert blocked[-1] == -np.inf and np.all(np.isfinite(blocked[:-1]))

    @pytest.mark.parametrize("r", [-0.55, -1.0, -2.0])
    def test_complex_laplace_transform_is_the_complex_log1p_sum(self, r):
        # the real-arithmetic terms against numpy's complex log1p, on the Fourier line -it, the Talbot nodes,
        # a shifted line, and arguments up to 1e-8 from the branch point of the largest weight
        form = qform._QuadraticForm(*norm_weights(params(r), 1.0, truncation=1000))
        a_max = float(np.max(form.a))
        t = np.linspace(0.0, min(form.reach, 1e4), 257)
        q = np.geomspace(1e-2, 1e2, 64)
        eps = np.geomspace(1e-8, 0.7, 40)[:, None] * np.exp(1j * np.linspace(-3.1, 3.1, 21))
        z = np.concatenate([-1j * t, ((qform._TALBOT_N / q)[:, None] * qform._TALBOT_W).ravel(), 0.5 - 1j * t,
                            ((eps - 1.0) / (2.0 * a_max)).ravel()])
        z = z[np.abs(z) <= form.reach]
        assert np.min(np.abs(1.0 + 2.0 * a_max * z)) < 1.1e-8
        ref = -0.5 * (np.log1p(np.multiply.outer(2.0 * z, form.a)).sum(axis=1) + form.series(z))
        got = form.log_laplace(z)
        assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize("r", [-0.55, -1.0, -2.0])
    def test_real_laplace_transform_is_the_real_log1p_sum(self, r):
        form = qform._QuadraticForm(*norm_weights(params(r), 1.0, truncation=1000))
        x = np.concatenate([-np.geomspace(1e-4, 0.49, 50) / np.max(form.a), np.geomspace(1e-4, form.reach, 200)])
        ref = -0.5 * (np.log1p(np.multiply.outer(2.0 * x, form.a)).sum(axis=1) + form.series(x))
        assert np.array_equal(form.log_laplace(x), ref)

    @pytest.mark.parametrize("r,target", [
        (-0.55, 1.0000000000000004), (-0.7, 0.9999889986122494), (-1.0, 0.8438025461809622), (-2.0, 0.5702262359786945),
    ])
    def test_min_square_one_targets_are_pinned(self, r, target):
        # the mean against the interpolated density of the norm (1000 modes and the tail) in closed form: the
        # Chebyshev series of x^2 law(x) integrated up to the kink x = 1, and of law(x) beyond it; the pins hold
        # the law, and the quadrature must reach its closed form
        a, tail = norm_weights(params(r), 1.0, truncation=1000)
        form = qform._QuadraticForm(a, tail)
        # the law's mean E Q is the zeta value zeta_D(-r) that k_r sums: zeta(2) at r = -1
        assert form.cumulants(0.0, 1)[0] == pytest.approx(ZETA2 if r == -1.0 else k_r(params(r)), rel=1e-14, abs=0.0)
        law = form.norm_density()
        lo, hi = law.domain
        x = np.polynomial.Chebyshev.identity(domain=law.domain)
        kink = min(max(1.0, lo), hi)
        exact = (x * x * law).integ(lbnd=lo)(kink) + law.integ(lbnd=kink)(hi)
        assert exact == pytest.approx(target, rel=1e-12, abs=0.0)
        value = norm_functional_mean(F_PRESETS["min_square_one"], a, tail)
        assert value == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_unresolved_law_names_its_mass_and_mean_errors(self):
        # at r = -6.5 the mass check fails by about -1.5e-8 while the mean is within 1e-10 (ROADMAP item 17); a
        # message that printed both means to 7 digits hid which check failed
        form = qform._QuadraticForm(*norm_weights(params(-6.5), 1.0, truncation=1000))
        with pytest.raises(ValueError) as info:
            form.norm_density()
        found = re.search(r"mass error (\S+), relative mean error (\S+);", str(info.value))
        assert found is not None, str(info.value)
        mass_error, mean_error = (float(v) for v in found.groups())
        assert abs(mass_error) >= 1e-8 > abs(mean_error)

    def test_tail_makes_the_mean_independent_of_the_truncation(self):
        # without the tail the two differ by about 4e-3; with it, both sum the same spectrum up to ZETA_TRUNCATION
        # and the same Euler-Maclaurin tail beyond, so they differ by rounding alone
        coarse, fine = norm_weights(params(-1.0), 1.0, truncation=100), norm_weights(params(-1.0), 1.0, truncation=1000)
        assert norm_functional_mean(1.0, *coarse) == pytest.approx(norm_functional_mean(1.0, *fine), rel=1e-12)


class TestQuadratureSites:
    """Each integral the limits take with `adaptive_quad`, against scipy's QUADPACK `quad` on the same integrand."""

    @staticmethod
    def quadpack(monkeypatch):
        """Route every `adaptive_quad` call through `quad` at a relative tolerance of 1e-13."""

        def quad(f, a, b, *, epsabs, epsrel, points=()):
            scalar = lambda x: float(f(np.array([x]))[0])
            return integrate.quad(scalar, a, b, points=list(points) or None, epsabs=0.0, epsrel=1e-13, limit=400)[0]

        monkeypatch.setattr(limits, "adaptive_quad", quad)
        monkeypatch.setattr(qform, "adaptive_quad", quad)
        monkeypatch.setattr(spectrum, "adaptive_quad", quad)

    @pytest.mark.parametrize("domain,r", [(UNIT_PI_INTERVAL, -0.7), (UNIT_PI_INTERVAL, -2.0), (DomainSpec((PI, PI)), -1.5)])
    @pytest.mark.parametrize("p", [0.5, 1.0, 3.0])
    def test_fractional_power_mean_against_the_qaws_rule(self, domain, r, p):
        # the head int_0^s1 s^-beta kernel(s) ds by QUADPACK's QAWS rule for the algebraic weight, which the
        # substitution s = s1 x^{1/(1 - beta)} removes
        form = qform._QuadraticForm(*norm_weights(params(r, domain=domain), 1.0, truncation=1000))
        m = math.floor(p / 2.0)
        beta = p / 2.0 - m
        kernel = lambda s: math.exp(float(form.log_laplace(s))) * complete_bell(form.cumulants(s, m + 1))
        s1 = min(1.0 / form.cumulants(0.0, 1)[0], form.reach)
        head, _ = integrate.quad(kernel, 0.0, s1, weight="alg", wvar=(-beta, 0.0), epsabs=0.0, epsrel=1e-12)
        decay = lambda v: math.exp((1.0 - beta) * v) * kernel(math.exp(v))
        rest, _ = integrate.quad(decay, math.log(s1), math.log(min(form.reach, 1e300)), epsabs=0.0, epsrel=1e-12,
                                 limit=200)
        assert form.power_mean(p / 2.0) == pytest.approx((head + rest) / gamma_fn(1.0 - beta), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("domain,r", [(UNIT_PI_INTERVAL, -0.7), (UNIT_PI_INTERVAL, -2.0), (DomainSpec((PI, PI)), -1.5)])
    @pytest.mark.parametrize("f", ["min_square_one", "identity"])
    def test_function_mean(self, monkeypatch, domain, r, f):
        a, tail = norm_weights(params(r, domain=domain), 1.0, truncation=1000)
        value = norm_functional_mean(F_PRESETS[f], a, tail)
        self.quadpack(monkeypatch)
        assert value == pytest.approx(norm_functional_mean(F_PRESETS[f], a, tail), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("g", [0.5, 4.0, lambda x: np.minimum(x * x, 3.0)], ids=["p0.5", "p4", "min"])
    @pytest.mark.parametrize("sigma_sq", [lambda s: s * PI, lambda s: PI * (1.0 + math.sin(3.0 * s) ** 2)],
                             ids=["ramp", "oscillating"])
    def test_limit_process(self, monkeypatch, g, sigma_sq):
        limit = limit_process_general_sigma(params(0.0), g, sigma_sq)
        values = [limit(t) for t in (0.3, 2.0)]
        self.quadpack(monkeypatch)
        limit = limit_process_general_sigma(params(0.0), g, sigma_sq)
        assert values == pytest.approx([limit(t) for t in (0.3, 2.0)], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("r,gamma", [(-1.5, 1.0), (-0.2, 1.0), (-0.05, 2.0)])
    def test_model_tail_on_the_square(self, monkeypatch, r, gamma):
        p = params(r, gamma, domain=DomainSpec((PI, PI)))
        value = increment_variance(p, 1e-4, 0.5, truncation=400)
        self.quadpack(monkeypatch)
        assert value == pytest.approx(increment_variance(p, 1e-4, 0.5, truncation=400), rel=1e-12, abs=0.0)


def stationary_tail(p, delta, modes):
    """Weyl-model integral from K itself of lam^r times the stationary increment variance, which bounds the
    variance at every t: an upper bound on what the modes beyond K add to the increment variance."""
    lam = eigenvalues(p.domain, modes)
    return oracles.model_series_reference(lam, p.r, p.gamma, p.d, delta, math.inf, modes, partial=False)


class TestIncrementVariance:
    def test_sub_regime_near_zeta_times_delta(self):
        p = params(-1.0)
        delta = 1e-4
        val = increment_variance(p, delta, 0.5, truncation=100000)
        ratio = val / delta / ZETA2
        assert 0.99 <= ratio <= 1.0

    def test_first_increment_formula_instantiation(self):
        p = params(-1.0)
        delta = 1e-3
        k = np.arange(1, 50001, dtype=float)
        lam, beta = k**2, k**2
        one = -np.expm1(-beta * delta)
        direct = float(np.sum(lam**-1.0 / beta * one) - 0.5 * np.sum(lam**-1.0 / beta * one**2))
        assert increment_variance(p, delta, delta, truncation=50000) == pytest.approx(direct, rel=1e-6)

    def test_super_regime_richardson_limit(self):
        # value / tau^2 -> K_0 = sqrt(pi); Richardson in sqrt(delta) sharpens the estimate
        p = params(0.0)
        deltas = [2.0**-e for e in range(8, 17, 2)]
        ratios = [increment_variance(p, d, 0.5, truncation=400000) / tau_n(p, d) ** 2 for d in deltas]
        extrapolated = [
            (math.sqrt(2.0) ** 2 * b - a) / (math.sqrt(2.0) ** 2 - 1.0) for a, b in zip(ratios, ratios[1:])
        ]
        errors = [abs(x - math.sqrt(PI)) for x in ratios]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert abs(extrapolated[-1] - math.sqrt(PI)) < 2e-3

    def test_truncation_tail_invariant(self):
        for r in (-1.0, -0.5, 0.2):
            p = params(r)
            coarse = increment_variance(p, 1e-3, 0.25, truncation=2000)
            fine = increment_variance(p, 1e-3, 0.25, truncation=8000)
            assert abs(coarse - fine) <= stationary_tail(p, 1e-3, 2000)

    @pytest.mark.parametrize("r", [-1.0, -0.5, 0.0])
    @pytest.mark.parametrize("delta", [1e-3, 1e-6])  # lam_K delta above and below 1 at K = 1000
    def test_tail_bounded_by_increment_variance_tail(self, r, delta):
        # the tail is the model integral of lam^r w(t_i) from K + 1/2, and w grows with t_i to its
        # stationary value, whose integral from K is stationary_tail
        p, modes = params(r), 1000
        gap = increment_variance(p, delta, 0.5, truncation=modes) - float(increment_weights(p, delta, 0.5, modes).sum())
        assert 0.0 <= gap <= stationary_tail(p, delta, modes)

    def test_rejects_time_before_first_increment(self):
        with pytest.raises(ValueError):
            increment_variance(params(-1.0), 1e-2, 5e-3)


class TestIncrementWeights:
    @pytest.mark.parametrize("r,delta", [(-1.0, 2.0**-6), (0.0, 2.0**-9), (0.25, 2.0**-4)])
    def test_mean_norm_matches_the_laplace_oracle(self, r, delta):
        # the increment over [1, 1 + delta] through its covariance, v(t + delta) + v(t) - 2 e^{-lam delta} v(t)
        # with v(s) = (1 - e^{-2 lam s}) / (2 lam), sigma = 3
        lam = np.arange(1, 201, dtype=float) ** 2
        v = lambda s: -np.expm1(-2.0 * lam * s) / (2.0 * lam)
        hand = 9.0 * lam**r * (v(1.0 + delta) + v(1.0) - 2.0 * np.exp(-lam * delta) * v(1.0))
        weights = increment_weights(params(r), delta, 1.0 + delta, 200, sigma=3.0)
        assert weights == pytest.approx(hand, rel=1e-9, abs=1e-300)
        assert norm_functional_mean(1.0, weights) == pytest.approx(oracles.exact_mean_norm(weights), rel=1e-8)

    def test_increment_variance_sums_them_bit_for_bit(self):
        # the series is the weights' sum plus the Weyl-model tail of the same law from K + 1/2
        p = params(0.0)
        integrand = lambda x: x**p.r * ou_increment_variance(x, p.gamma, 1e-3, 0.5)
        scale = spectrum._weyl_scale(eigenvalues(UNIT_PI_INTERVAL, 5000), p.d)
        tail = spectrum._model_tail(integrand, scale, p.d, 5000.5, p.r - p.gamma, p.gamma)
        partial = float(increment_weights(p, 1e-3, 0.5, 5000).sum())
        assert increment_variance(p, 1e-3, 0.5, truncation=5000) == partial + tail


class TestIncrementPowerSums:
    @pytest.mark.parametrize("r", [-1.0, 0.0])
    @pytest.mark.parametrize("e", [8, 12])
    @pytest.mark.parametrize("start,modes", [(512, 4096), (0, 512)], ids=["past-K0", "first-K0"])
    def test_rows_are_the_power_sums_of_the_increment_weights(self, r, e, start, modes):
        # converge_main's table, past K0 = 512 and up to it, against the weights summed step by step: the first 64
        # steps, where the transient settles past K0, and then every 61st step.  Past K0 every mode settles within
        # a few steps, and each step past the table's last row equals it; below K0 mode 1 never settles
        delta = 2.0**-e
        table = increment_power_sums(params(r), delta, 2**e, modes, 3, start=start)
        assert table.shape[1] == 3 and (table.shape[0] < 16 if start else table.shape[0] == 2**e)
        for i in [*range(1, 65), *range(65, 2**e + 1, 61)]:
            a = increment_weights(params(r), delta, i * delta, modes)[start:]
            want = [float(np.sum(a**j)) for j in (1, 2, 3)]
            assert table[min(i, len(table)) - 1] == pytest.approx(want, rel=1e-13, abs=0.0), i

    @pytest.mark.parametrize("start", [0, 37])
    def test_box_table_matches_a_dense_brute_force(self, start):
        # a 2-D box at gamma = 0.75 and sigma = 1.5: the box's eigenvalues from a plain multi-index grid, every step's
        # weights from the OU covariance, v(t) + v(t - delta) (1 - 2 e^{-beta delta}), in one dense (steps, modes) array
        sides, gamma, r, modes, delta, steps = (PI, 2.0), 0.75, -0.6, 300, 2.0**-6, 64
        p = params(r, gamma=gamma, domain=DomainSpec(sides))
        lam = np.array([lam for lam, _ in oracles.brute_force_box_eigenvalues(sides, modes, m_cap=60)])[start:]
        beta = lam**gamma
        v = lambda s: -np.expm1(-2.0 * beta * s) / (2.0 * beta)
        t = delta * np.arange(1, steps + 1)[:, None]
        dense = 2.25 * lam**r * (v(t) + v(t - delta) * (1.0 - 2.0 * np.exp(-beta * delta)))
        want = np.stack([np.sum(dense**j, axis=1) for j in (1, 2, 3)], axis=1)
        got = increment_power_sums(p, delta, steps, modes, 3, sigma=1.5, start=start)
        assert got.shape == (steps, 3)  # no mode settles within 64 steps at this gamma
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        # and the exact means of p = 2 and 4 over the steps, from the Bell moments of the rows
        moments = power_sum_moments(got)
        assert np.sum(moments[:, 0]) == pytest.approx(np.sum(want[:, 0]), rel=1e-12)
        assert np.sum(moments[:, 1]) == pytest.approx(np.sum(want[:, 0] ** 2 + 2.0 * want[:, 1]), rel=1e-12)

    def test_traced_peak_stays_within_a_few_blocks(self):
        # the whole table of the first 512 and of the last 3584 of 4096 modes at n = 4096 steps: one (n, K - K0) array
        # of its weights would be 117 MB, and the blocks of the loop hold at most BLOCK_ELEMENTS numbers each
        def peak(start):
            tracemalloc.start()
            try:
                increment_power_sums(params(0.0), 2.0**-12, 4096, 512 if start == 0 else 4096, 2, start=start)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert max(peak(0), peak(512)) < 4 * BLOCK_ELEMENTS * 8 + 12 * 4096 * 8  # 1.4 MB

    def test_bell_moments_of_the_power_sums(self):
        # E Q^j of Q = sum_k a_k xi_k^2: E Q = S_1, E Q^2 = S_1^2 + 2 S_2, E Q^3 = S_1^3 + 6 S_1 S_2 + 8 S_3,
        # elementwise over the leading axes
        a = np.array([[0.3, 0.2, 0.05], [1.0, 0.0, 0.0]])
        sums = np.stack([np.sum(a**j, axis=1) for j in (1, 2, 3)], axis=1)
        s1, s2, s3 = sums.T
        want = np.stack([s1, s1**2 + 2.0 * s2, s1**3 + 6.0 * s1 * s2 + 8.0 * s3], axis=1)
        np.testing.assert_allclose(power_sum_moments(sums), want, rtol=1e-15)
        assert power_sum_moments(sums[1])[2] == pytest.approx(15.0)  # E xi^6 = 15


class TestExactModelSeries:
    """The exact series of the mode-truncated model (mode sum plus Weyl-model tail) against the
    Gauss-Legendre oracle, on boxes (0, pi)^d.  The grid holds the cases where a tail quadrature on
    [K + 1/2, inf) in x lost its accuracy (d = 2, gamma = 1, r = -0.2, K = 400, delta = 1e-6 read
    -0.016 against 0.157); at r = gamma - d/2 - 0.02 the closed power tail beyond the cut is a few percent."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_series_match_oracle(self, d):
        domain = DomainSpec((PI,) * d)
        for gamma, modes, delta in itertools.product((0.8, 1.0, 1.7), (50, 400), (1e-6, 1e-4, 1e-2)):
            lam = eigenvalues(domain, modes)
            for r in (-d / 2.0 - 0.3, -d / 2.0 + 0.1, gamma - d / 2.0 - 0.2, gamma - d / 2.0 - 0.02):
                p = params(r, gamma=gamma, domain=domain)
                for t in (delta, 2.0 * delta, 0.5):
                    ref = oracles.model_series_reference(lam, r, gamma, d, delta, t - delta, modes + 0.5)
                    assert increment_variance(p, delta, t, truncation=modes) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("gamma", [0.05, 3.5, 6.0])
    def test_extreme_gamma_matches_oracle(self, gamma):
        # the power-law cut sits where lam^gamma = 1e100, or where lam, lam^q or x reach their bounds
        for d in (1, 3):
            domain = DomainSpec((PI,) * d)
            lam = eigenvalues(domain, 400)
            r = gamma - d / 2.0 - 0.2
            for delta in (1e-6, 1e-2):
                ref = oracles.model_series_reference(lam, r, gamma, d, delta, 0.5 - delta, 400.5)
                got = increment_variance(params(r, gamma, domain), delta, 0.5, truncation=400)
                assert got == pytest.approx(ref, rel=1e-10)

    def test_cut_keeps_the_integrand_normal(self):
        # gamma = 0.2, r = -0.85, first increment: at lam = 1e300 the integrand lam^{-1.05} / 2 would be
        # subnormal, too coarse to show its power law
        lam = eigenvalues(UNIT_PI_INTERVAL, 100)
        ref = oracles.model_series_reference(lam, -0.85, 0.2, 1, 1e-6, 0.0, 100.5)
        got = increment_variance(params(-0.85, gamma=0.2), 1e-6, 1e-6, truncation=100)
        assert got == pytest.approx(ref, rel=1e-10)

    def test_tail_without_power_law_at_the_cut_raises(self):
        # gamma = 0.02: lam^gamma delta is still 1 at lam = 1e300, the last cut float64 allows
        with pytest.raises(ValueError, match="power law"):
            increment_variance(params(-0.8, gamma=0.02), 1e-6, 0.5, truncation=100)


class TestHolderExponent:
    def test_paper_values(self):
        assert holder_exponent(params(-1.0)) == 0.5
        assert holder_exponent(params(-1.0, gamma=2.0)) == 0.5
        assert holder_exponent(params(0.0)) == 0.25
        assert holder_exponent(params(0.25)) == 0.125

    def test_vanishes_at_upper_boundary(self):
        assert holder_exponent(params(0.4999)) < 1e-3
