import math
import re

import numpy as np
import pytest

from spde_pv.harness import variation_levels
from spde_pv.limits import RegimeParams, tau_n
from spde_pv.rqmc import mu_rF_estimate
from spde_pv.simulator import CoefficientPath, ConstantSigma, SimConfig, simulate
from spde_pv.spectrum import UNIT_PI_INTERVAL, DomainSpec
from spde_pv.variations import F_PRESETS, VariationRequest, VariationSeries, grid_index

PI = math.pi
PARAMS = RegimeParams(r=-1.0, gamma=1.0, domain=UNIT_PI_INTERVAL)


def toy_path(coeff_rows, delta=0.5):
    rows = np.asarray(coeff_rows, dtype=float)
    cfg = SimConfig(
        params=PARAMS,
        modes=rows.shape[1],
        delta=delta,
        horizon=delta * (rows.shape[0] - 1),
        sigma=ConstantSigma(1.0),
    )
    return CoefficientPath(config=cfg, coeffs=rows)


def variation(path, req):
    """The series of one request on a stored path, from the streaming kernel at the path's mesh."""
    return variation_levels(path.config, [path.coeffs[1:]], (req,), (path.config.delta,))[0][0]


def sim_path(**kwargs):
    base = dict(params=PARAMS, modes=32, delta=1.0 / 128.0, horizon=1.0, seed=2024)
    base.update(kwargs)
    return simulate(SimConfig(**base))


class TestRequestValidation:
    def test_exactly_one_shape(self):
        with pytest.raises(ValueError, match="exactly one"):
            VariationRequest(r=-1.0)
        with pytest.raises(ValueError, match="exactly one"):
            VariationRequest(r=-1.0, p=2.0, f=lambda x: x)

    def test_rejects_nonpositive_order_or_normalizer(self):
        with pytest.raises(ValueError):
            VariationRequest(r=-1.0, p=0.0)
        with pytest.raises(ValueError):
            VariationRequest(r=-1.0, p=2.0, normalizer=-1.0)

    def test_labels(self):
        assert VariationRequest(r=-1.0, p=2.0).label == "r-1_p2"
        assert VariationRequest(r=-1.0, p=2.0, label="qv").label == "qv"

    def test_json_roundtrip(self):
        req = VariationRequest(r=-1.0, p=4.0, normalizer=0.25)
        again = VariationRequest.from_json(req.to_json())
        assert (again.r, again.p, again.normalizer) == (req.r, req.p, req.normalizer)

    def test_json_f_preset(self):
        req = VariationRequest.from_json({"r": 0.0, "f": "min_square_one"})
        assert req.f is not None and req.f(3.0) == 1.0

    def test_f_preset_serializes_by_name(self):
        req = VariationRequest(r=0.0, f=F_PRESETS["min_square_one"])
        assert req.label == "r0_fmin_square_one"
        assert req.to_json() == {"r": 0.0, "f": "min_square_one", "label": "r0_fmin_square_one"}
        assert VariationRequest.from_json(req.to_json()).f is F_PRESETS["min_square_one"]
        renamed = lambda x: x * x
        renamed.__name__ = "square"
        with pytest.raises(ValueError, match="library-only"):
            VariationRequest(r=0.0, f=renamed).to_json()

    def test_functional_requests_do_not_serialize(self):
        with pytest.raises(ValueError):
            VariationRequest(r=-1.0, f=lambda x: x).to_json()


class TestPowerVariation:
    def test_zero_path(self):
        path = toy_path(np.zeros((5, 2)))
        series = variation(path, VariationRequest(r=-1.0, p=2.0, normalizer=1.0))
        assert np.all(series.values == 0.0)

    def test_handcrafted_two_steps(self):
        # increment H_r norms are {1, 2} (single mode with lam = 1, so r-independent)
        path = toy_path([[0.0], [1.0], [-1.0]], delta=0.5)
        series = variation(path, VariationRequest(r=-1.0, p=2.0, normalizer=1.0))
        assert np.allclose(series.values, [0.0, 0.5 * 1.0, 0.5 * 5.0])
        assert np.allclose(series.times, [0.0, 0.5, 1.0])

    def test_default_normalizer_is_tau(self):
        path = sim_path()
        by_default = variation(path, VariationRequest(r=-1.0, p=2.0))
        tau = tau_n(PARAMS, path.config.delta)
        explicit = variation(path, VariationRequest(r=-1.0, p=2.0, normalizer=tau))
        assert np.array_equal(by_default.values, explicit.values)

    def test_normalizer_covariance(self):
        path = sim_path()
        for p in (1.0, 2.0, 3.5):
            base = variation(path, VariationRequest(r=-1.0, p=p, normalizer=0.125))
            scaled = variation(path, VariationRequest(r=-1.0, p=p, normalizer=0.25))
            assert np.allclose(scaled.values, base.values * 2.0**-p, rtol=1e-12)

    def test_monotone_for_positive_order(self):
        path = sim_path(seed=5)
        series = variation(path, VariationRequest(r=-1.0, p=2.0))
        assert np.all(np.diff(series.values) >= 0.0)


class TestFVariation:
    def test_power_law_f_is_bitwise_power_variation(self):
        path = sim_path(seed=6)
        p = 2.0
        via_f = variation(path, VariationRequest(r=-1.0, f=lambda x: x**p))
        via_p = variation(path, VariationRequest(r=-1.0, p=p))
        assert np.array_equal(via_f.values, via_p.values)

    def test_constant_f_counts_grid(self):
        path = sim_path(seed=7)
        series = variation(path, VariationRequest(r=-1.0, f=lambda x: np.ones_like(x)))
        delta = path.config.delta
        n = path.config.n_steps
        assert series.values[-1] == pytest.approx(delta * n, rel=1e-12)
        assert series.value_at(0.5) == pytest.approx(delta * grid_index(0.5, delta), rel=1e-12)

    def test_f_evaluation_failure_carries_context(self):
        path = sim_path(seed=8)

        def bad(x):
            raise ValueError("boom")

        with pytest.raises(RuntimeError, match="increment i = 1"):
            variation(path, VariationRequest(r=-1.0, f=bad))
        with pytest.raises(RuntimeError, match=r"F evaluation failed at increment i = 1\b"):
            variation(path, VariationRequest(r=-1.0, F=lambda coeffs, lam, r: bad(coeffs)))

        # an F failure names the block of increments on its own level's grid: one holding increment 37 at stride 2
        delta = path.config.delta
        target = (path.coeffs[74] - path.coeffs[72]) / tau_n(PARAMS, 2.0 * delta)

        def bad_at_target(coeffs, lam, r):
            hit = np.all(np.isclose(coeffs, target, rtol=1e-12, atol=0.0), axis=-1)
            return bad(coeffs) if hit.any() else np.zeros(len(coeffs))

        req = VariationRequest(r=-1.0, F=bad_at_target)
        pattern = rf"F evaluation failed at increment i = (\d+)\.\.(\d+), delta = {2.0 * delta}$"
        with pytest.raises(RuntimeError, match=pattern) as info:
            variation_levels(path.config, [path.coeffs[1:]], (req,), (2.0 * delta, delta))
        first, last = map(int, re.match(pattern, str(info.value)).groups())
        assert first <= 37 <= last


class TestGeneralFVariation:
    def test_norm_squared_reproduces_quadratic_variation(self):
        path = sim_path(seed=9)
        F = lambda coeffs, lam, r: np.sum(lam**r * coeffs * coeffs, axis=-1)
        via_F = variation(path, VariationRequest(r=-1.0, F=F))
        via_p = variation(path, VariationRequest(r=-1.0, p=2.0))
        assert np.allclose(via_F.values, via_p.values, rtol=1e-12)

    def test_linear_functional_is_centered(self):
        path = sim_path(seed=10, modes=64, delta=1.0 / 256.0)
        F = lambda coeffs, lam, r: lam[0] ** (r / 2.0) * coeffs[..., 0]
        series = variation(path, VariationRequest(r=-1.0, F=F))
        # V(1) is a centered Gaussian average with sd ~ sqrt(delta)
        assert abs(series.values[-1]) < 5.0 * math.sqrt(path.config.delta)

    def test_rejected_at_and_above_transition(self):
        path = sim_path(seed=11)
        F = lambda coeffs, lam, r: 0.0
        for r in (-0.5, 0.0):
            with pytest.raises(ValueError, match="r < -d/2"):
                variation(path, VariationRequest(r=r, F=F))

    def test_two_dimensional_threshold(self):
        dom2 = DomainSpec((PI, PI))
        params2 = RegimeParams(r=-1.5, gamma=2.0, domain=dom2)
        cfg = SimConfig(params=params2, modes=4, delta=0.25, horizon=0.5)
        path = CoefficientPath(config=cfg, coeffs=np.zeros((3, 4)))
        F = lambda coeffs, lam, r: np.ones(len(coeffs))
        series = variation(path, VariationRequest(r=-1.5, F=F))
        assert series.values[-1] == pytest.approx(0.5)
        with pytest.raises(ValueError):
            variation(path, VariationRequest(r=-0.9, F=F))


class TestArrayContract:
    def test_F_reads_each_level_in_blocks(self):
        # K = 2^12 gives sub-blocks of 8 fine rows, 8, 8 and 4 of the 20: stride 1 reads 8, 8 and 4 of them,
        # stride 2 reads 4, 4 and 2
        modes, n = 4096, 20
        cfg = SimConfig(params=PARAMS, modes=modes, delta=1.0 / n, horizon=1.0)
        rows = np.cumsum(np.random.default_rng(3).standard_normal((n, modes)), axis=0)
        sizes = []

        def F(coeffs, lam, r):
            sizes.append(len(coeffs))
            return np.sum(lam**r * coeffs * coeffs, axis=-1)

        deltas = (2.0 / n, 1.0 / n)
        got = variation_levels(cfg, [rows], (VariationRequest(r=-1.0, F=F),), deltas)
        assert sizes == [4, 8, 4, 8, 2, 4]
        lam = np.arange(1.0, modes + 1.0) ** 2
        for (series,), delta, s in zip(got, deltas, (2, 1)):
            path = np.vstack([np.zeros(modes), rows[s - 1 :: s]])
            by_row = [float(np.sum(lam**-1.0 * inc * inc)) for inc in np.diff(path, axis=0) / tau_n(PARAMS, delta)]
            np.testing.assert_allclose(series.values[1:], delta * np.cumsum(by_row), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("name", sorted(F_PRESETS))
    def test_presets_on_arrays_are_the_scalar_values(self, name):
        fn = F_PRESETS[name]
        x = np.concatenate([[0.0, 1.0, 1.0 - 2.0**-53, 1.0 + 2.0**-52], np.random.default_rng(4).exponential(1.0, 64)])
        np.testing.assert_array_equal(fn(x), [fn(float(v)) for v in x])

    def test_non_finite_f_rejected(self):
        path = sim_path(seed=13)
        req = VariationRequest(r=-1.0, f=lambda x: np.full_like(x, np.nan))
        with pytest.raises(ValueError, match=r"f returned a non-finite value \(increment i = 1\.\.128, delta = 0\.0078125\)"):
            variation(path, req)

    def test_non_finite_F_rejected(self):
        path = sim_path(seed=14)
        req = VariationRequest(r=-1.0, F=lambda c, lam, r: np.full(len(c), np.nan))
        with pytest.raises(ValueError, match=r"F returned a non-finite value \(increment i = 1\.\.128, delta = 0\.0078125\)"):
            variation(path, req)

    def test_scalar_F_fails_alike_in_kernel_and_sampler(self):
        F = lambda c, lam, r: float(np.sum(lam**r * c * c))
        shape = r"F returned shape \(\) for \d+ coefficient vectors \(.*\); want \(\d+,\)$"
        with pytest.raises(ValueError, match=shape):
            variation(sim_path(seed=15), VariationRequest(r=-1.0, F=F))
        with pytest.raises(ValueError, match=shape):
            mu_rF_estimate(F, 1.0, PARAMS, truncation=4, samples=32)


class TestSeries:
    def test_grid_index_epsilon_guard(self):
        assert grid_index(0.3, 0.1) == 3
        assert grid_index(1.0, 1.0 / 3.0) == 3

    def test_grid_index_guard_is_relative(self):
        # from about 22 000 steps on, T/delta can fall one ULP short of the step count, which is
        # more than an absolute guard of 1e-12
        assert 1.0 / (1.0 / 23238) < 23238 and 0.9 / (0.9 / 22235) < 22235
        assert grid_index(1.0, 1.0 / 23238) == 23238
        assert grid_index(0.9, 0.9 / 22235) == 22235

    def test_value_at_bounds(self):
        series = VariationSeries(times=np.array([0.0, 0.5, 1.0]), values=np.array([0.0, 1.0, 3.0]))
        assert series.value_at(0.5) == 1.0
        assert series.value_at(0.74) == 1.0
        with pytest.raises(ValueError):
            series.value_at(1.6)

    def test_csv_export(self, tmp_path):
        series = VariationSeries(times=np.array([0.0, 0.5]), values=np.array([0.0, 2.0]))
        out = tmp_path / "series.csv"
        series.write_csv(out)
        assert out.read_text().splitlines() == ["t,value", "0,0", "0.5,2"]

    def test_dispatch(self):
        path = sim_path(seed=12)
        assert variation(path, VariationRequest(r=-1.0, p=2.0)).values[-1] > 0.0
        assert variation(path, VariationRequest(r=-1.0, f=lambda x: np.zeros_like(x))).values[-1] == 0.0
        F = lambda coeffs, lam, r: np.ones(len(coeffs))
        assert variation(path, VariationRequest(r=-1.0, F=F)).values[-1] == pytest.approx(1.0)
