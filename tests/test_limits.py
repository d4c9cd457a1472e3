import math

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from spde_pv.limits import (
    MonteCarloEstimate,
    Regime,
    RegimeParams,
    basis_coordinate_functional,
    expected_hr_norm_sq,
    holder_exponent,
    increment_variance,
    increment_variance_tail,
    k_r,
    limit_constant_even_power,
    limit_process_general_sigma,
    mu_rF_estimate,
    norm_power_functional,
    tau_n,
)
from spde_pv.spectrum import UNIT_PI_INTERVAL, DomainSpec

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

    def test_sigma_scaling(self):
        base = limit_constant_even_power(params(-1.0), 2, sigma=1.0)
        assert limit_constant_even_power(params(-1.0), 2, sigma=2.0) == pytest.approx(16.0 * base, rel=1e-12)

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


class TestMuRF:
    def test_constant_functional_is_exact(self):
        est = mu_rF_estimate(lambda a, lam, r: 4.5, 1.0, params(-1.0), truncation=50, samples=500, seed=1)
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
        fn = basis_coordinate_functional(1)
        sq = lambda a, lam, r: fn(a, lam, r) ** 2
        est = mu_rF_estimate(sq, 1.0, params(-1.0), truncation=200, samples=40000, seed=4)
        assert abs(est.mean - 1.0) < 3.0 * est.stderr  # lam_1^r = 1 on (0, pi)

    def test_linear_functional_is_centered(self):
        est = mu_rF_estimate(basis_coordinate_functional(1), 1.0, params(-1.0), truncation=200, samples=40000, seed=5)
        assert abs(est.mean) < 3.0 * est.stderr

    def test_nonconstant_weight_diagonal_value(self):
        # w(y) = sin(y)^2: Var X_1 = lam_1^r int phi_1^2 w = (2/pi) int sin^2 sin^2 = 3/4
        fn = basis_coordinate_functional(1)
        sq = lambda a, lam, r: fn(a, lam, r) ** 2
        est = mu_rF_estimate(sq, lambda y: np.sin(y) ** 2, params(-1.0), truncation=64, samples=40000, seed=6)
        assert abs(est.mean - 0.75) < 3.0 * est.stderr

    def test_reproducible(self):
        a = mu_rF_estimate(norm_power_functional(2.0), 1.0, params(-1.0), truncation=100, samples=2000, seed=11)
        b = mu_rF_estimate(norm_power_functional(2.0), 1.0, params(-1.0), truncation=100, samples=2000, seed=11)
        assert a == b

    def test_rejects_super_regime_and_oversize(self):
        with pytest.raises(ValueError, match="-d/2"):
            mu_rF_estimate(norm_power_functional(2.0), 1.0, params(0.0), truncation=10, samples=10)
        with pytest.raises(ValueError, match="capped"):
            mu_rF_estimate(norm_power_functional(2.0), 1.0, params(-1.0), truncation=4000, samples=10)


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
            assert abs(coarse - fine) <= increment_variance_tail(p, 1e-3, 2000)

    @pytest.mark.parametrize("r", [-1.0, -0.5, 0.0])
    @pytest.mark.parametrize("delta", [1e-3, 1e-6])  # saturated (lam_K delta > 40) and quadrature branch
    def test_tail_bounded_by_increment_variance_tail(self, r, delta):
        # the tail term is t1 - t2 with 0 <= t2 <= t1 / 2, and t1 from K + 1/2 is at most the tail from K
        p, modes = params(r), 1000
        gap = increment_variance(p, delta, 0.5, truncation=modes) - increment_variance(
            p, delta, 0.5, truncation=modes, include_tail=False
        )
        assert 0.0 <= gap <= increment_variance_tail(p, delta, modes)

    def test_rejects_time_before_first_increment(self):
        with pytest.raises(ValueError):
            increment_variance(params(-1.0), 1e-2, 5e-3)


class TestExpectedNormSq:
    def test_zero_at_time_zero(self):
        assert expected_hr_norm_sq(params(-1.0), 0.0) == 0.0

    def test_stationary_value(self):
        val = expected_hr_norm_sq(params(-1.0), 50.0, truncation=50000)
        assert val == pytest.approx(0.5 * ZETA4, rel=1e-9)

    def test_out_of_range_r_rejected_at_construction(self):
        with pytest.raises(ValueError):
            params(0.6)

    def test_monotone_in_time(self):
        p = params(-1.0)
        vals = [expected_hr_norm_sq(p, t, truncation=20000) for t in (0.1, 0.5, 1.0, 5.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestHolderExponent:
    def test_paper_values(self):
        assert holder_exponent(params(-1.0)) == 0.5
        assert holder_exponent(params(-1.0, gamma=2.0)) == 0.5
        assert holder_exponent(params(0.0)) == 0.25
        assert holder_exponent(params(0.25)) == 0.125

    def test_vanishes_at_upper_boundary(self):
        assert holder_exponent(params(0.4999)) < 1e-3
