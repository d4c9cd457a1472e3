import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from spde_pv._version import rng_for
from spde_pv.harness import variation_levels
from spde_pv.limits import RegimeParams, increment_variance, ou_increment_variance, ou_law
from spde_pv.simulator import (
    SIGMA_PRESETS,
    CoefficientPath,
    ConstantSigma,
    FieldSigma,
    SimConfig,
    StateSigma,
    iter_additive_states,
    iter_field_states,
    normal_stream,
    sample_additive_increments,
    simulate,
)
from spde_pv.spectrum import UNIT_PI_INTERVAL, eigenvalues, hr_norm_sq
from spde_pv.variations import VariationRequest

import oracles

PI = math.pi
PARAMS = RegimeParams(r=-1.0, gamma=1.0, domain=UNIT_PI_INTERVAL)


def config(**kwargs):
    base = dict(params=PARAMS, modes=8, delta=1.0 / 64.0, horizon=1.0, seed=12345)
    base.update(kwargs)
    return SimConfig(**base)


def variations_of(path, requests):
    """The series of each request on a stored path, from the streaming kernel at the path's mesh."""
    return variation_levels(path.config, [path.coeffs[1:]], requests, (path.config.delta,))[0]


def batch_final_states(cfg, replicates):
    """Final coefficient rows over independent replicates (seeds derived per index)."""
    out = np.empty((replicates, cfg.modes))
    for m in range(replicates):
        path = simulate(SimConfig(**{**cfg.__dict__, "seed": cfg.seed + m}))
        out[m] = path.coeffs[-1]
    return out


class TestSimConfig:
    def test_grid_properties(self):
        cfg = config(delta=0.1, horizon=1.0)
        assert cfg.n_steps == 10
        assert np.allclose(cfg.times, 0.1 * np.arange(11))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            config(modes=0)
        with pytest.raises(ValueError):
            config(delta=2.0, horizon=1.0)
        with pytest.raises(ValueError, match="spatial_grid"):
            config(sigma=FieldSigma(fn=lambda t, x: x), spatial_grid=4)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_constant_sigma(self, value):
        with pytest.raises(ValueError, match="constant sigma value must be finite"):
            ConstantSigma(value)

    def test_long_grid_reaches_the_horizon(self):
        # T/delta = 23237.999999999996 here; the path must still end at t = T
        cfg = config(modes=1, delta=1.0 / 23238)
        assert cfg.n_steps == 23238
        assert cfg.times[-1] == pytest.approx(1.0, rel=1e-12)

    def test_json_roundtrip_constant(self):
        cfg = config(sigma=ConstantSigma(2.5))
        assert SimConfig.from_json(cfg.to_json()) == cfg

    def test_json_preset_roundtrip(self):
        from spde_pv.simulator import SIGMA_PRESETS

        cfg = config(sigma=SIGMA_PRESETS["sin_x"], spatial_grid=16)
        again = SimConfig.from_json(cfg.to_json())
        assert again.sigma is SIGMA_PRESETS["sin_x"]

    def test_json_default_r_is_valid_in_three_dimensions(self):
        # -1 is not below gamma - d/2 = -1 here, so the default r drops to gamma - d/2 - 1
        obj = {"domain": {"dim": 3, "sides": [math.pi] * 3}, "gamma": 0.5, "modes": 8, "delta": 0.1, "horizon": 1.0}
        assert SimConfig.from_json(obj).params.r == -2.0
        assert SimConfig.from_json({**obj, "gamma": 1.0}).params.r == -1.0
        assert SimConfig.from_json({**obj, "r": -1.25, "gamma": 1.0}).params.r == -1.25

    def test_json_rejects_unknown_preset(self):
        with pytest.raises(ValueError, match="preset"):
            SimConfig.from_json({**config().to_json(), "sigma": {"mode": "field", "preset": "nope"}})


class TestAdditive:
    def test_zero_amplitude_gives_zero_path(self):
        path = simulate(config(sigma=ConstantSigma(0.0)))
        assert np.all(path.coeffs == 0.0)

    def test_deterministic_replay(self):
        a = simulate(config())
        b = simulate(config())
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_power_of_two_amplitude_scales_exactly(self):
        base = simulate(config(sigma=ConstantSigma(1.0)))
        doubled = simulate(config(sigma=ConstantSigma(2.0)))
        assert np.array_equal(doubled.coeffs, 2.0 * base.coeffs)

    def test_general_amplitude_scales(self):
        base = simulate(config(sigma=ConstantSigma(1.0)))
        scaled = simulate(config(sigma=ConstantSigma(3.0)))
        assert np.allclose(scaled.coeffs, 3.0 * base.coeffs, rtol=1e-12)

    def test_iterator_matches_full_path(self):
        cfg = config()
        rows = np.vstack([block.copy() for block in iter_additive_states(cfg)])
        path = simulate(cfg)
        assert np.array_equal(rows, path.coeffs[1:])

    def test_blocks_are_the_one_step_recursion(self):
        # K = 3000 gives blocks of 10 rows, so 64 steps end in a partial block; the copies stacked are the
        # stored path and, bit for bit, a(t_i+1) = decay a(t_i) + scale xi taken one step at a time
        cfg = config(modes=3000)
        blocks = [block.copy() for block in iter_additive_states(cfg)]
        assert [len(block) for block in blocks] == [10] * 6 + [4]
        rows = np.vstack(blocks)
        assert np.array_equal(rows, simulate(cfg).coeffs[1:])
        _, decay, variance = ou_law(eigenvalues(UNIT_PI_INTERVAL, cfg.modes), 1.0, cfg.delta)
        scale = np.sqrt(variance(cfg.delta))
        rng, state = rng_for(cfg.seed), np.zeros(cfg.modes)
        for row in rows:
            state = decay * state + scale * rng.standard_normal(cfg.modes)
            assert np.array_equal(row, state)

    def test_modes_whose_decay_is_zero_skip_the_recursion_bit_for_bit(self):
        # at K = 64, delta = 1/4 the decay e^{-k^2 / 4} underflows to 0.0 past mode 54, so the recursion runs on the
        # first 54 modes only; the states are still, bit for bit, those of the recursion over every mode
        cfg = config(modes=64, delta=0.25, horizon=4.0)
        _, decay, variance = ou_law(eigenvalues(UNIT_PI_INTERVAL, cfg.modes), 1.0, cfg.delta)
        assert np.count_nonzero(decay) == 54 and not decay[54:].any()
        scale = np.sqrt(variance(cfg.delta))
        rng, state = rng_for(cfg.seed), np.zeros(cfg.modes)
        full = np.empty((cfg.n_steps, cfg.modes))
        for row in full:
            row[:] = state = decay * state + scale * rng.standard_normal(cfg.modes)
        np.testing.assert_array_equal(np.vstack([block.copy() for block in iter_additive_states(cfg)]), full)

    def test_marginal_variances_match_ou_law(self):
        cfg = config(modes=4, delta=1.0 / 64.0, horizon=1.0, seed=777)
        finals = batch_final_states(cfg, 1500)
        lam = eigenvalues(UNIT_PI_INTERVAL, 4)
        target = -np.expm1(-2.0 * lam) / (2.0 * lam)
        sample_var = finals.var(axis=0, ddof=1)
        se = target * math.sqrt(2.0 / 1499)
        assert np.all(np.abs(sample_var - target) < 3.5 * se)

    def test_modes_uncorrelated(self):
        cfg = config(modes=4, seed=888)
        finals = batch_final_states(cfg, 1500)
        corr = np.corrcoef(finals.T)
        off = corr[~np.eye(4, dtype=bool)]
        assert np.max(np.abs(off)) < 3.5 / math.sqrt(1500)

    def test_two_steps_compose_to_exact_law(self):
        # KS test: a_1(2 delta) from two exact steps vs one exact draw at mesh 2 delta
        delta = 0.25
        cfg = config(modes=1, delta=delta, horizon=2.0 * delta, seed=999)
        samples = np.empty(4000)
        for m in range(4000):
            path = simulate(SimConfig(**{**cfg.__dict__, "seed": 5000 + m}))
            samples[m] = path.coeffs[2, 0]
        lam = 1.0
        sd = math.sqrt(-math.expm1(-2.0 * lam * 2.0 * delta) / (2.0 * lam))
        _, pval = stats.kstest(samples / sd, "norm")
        assert pval > 1e-3

    def test_rejects_nonconstant_sigma(self):
        with pytest.raises(ValueError):
            next(iter_additive_states(config(sigma=FieldSigma(fn=lambda t, x: x), spatial_grid=16)))


class TestFieldSigma:
    def test_zero_state_sigma_gives_zero_path(self):
        cfg = config(sigma=StateSigma(fn=lambda u: np.zeros_like(u)), spatial_grid=16)
        path = simulate(cfg)
        assert np.all(path.coeffs == 0.0)

    def test_unit_field_matches_additive_covariance(self):
        # one-step variance of a_1: the scheme's OU gain gives the exact (1 - e^{-2 lam d})/(2 lam)
        delta = 1.0 / 64.0
        cfg = config(modes=4, delta=delta, horizon=delta * 2, spatial_grid=64)
        var_field = np.empty((800, 4))
        for m in range(800):
            c = SimConfig(**{**cfg.__dict__, "sigma": FieldSigma(fn=lambda t, x: np.ones_like(x), name="field"), "seed": m})
            var_field[m] = simulate(c).coeffs[1]
        lam = eigenvalues(UNIT_PI_INTERVAL, 4)
        exact = -np.expm1(-2.0 * lam * delta) / (2.0 * lam)
        sample = var_field.var(axis=0, ddof=1)
        bias_allowance = 2.0 * lam * delta * exact  # O(delta) freezing bias
        se = exact * math.sqrt(2.0 / 799)
        assert np.all(np.abs(sample - exact) < 4.0 * se + bias_allowance)

    def test_constant_field_matches_additive_scheme(self):
        # at midpoint nodes with spatial_grid >= 2K, discrete sine orthogonality makes the projected shot
        # exactly N(0, c^2 delta I), so FieldSigma == c has the law of ConstantSigma(c) in every regime
        c, replicates = 1.5, 16
        base = SimConfig(params=PARAMS, modes=512, delta=2.0**-8, horizon=1.0, spatial_grid=1024)
        field = FieldSigma(fn=lambda t, x: np.full_like(x, c), name="constant_field")
        requests = [VariationRequest(r=-1.0, p=2.0), VariationRequest(r=-0.5, p=2.0), VariationRequest(r=0.0, p=4.0)]

        def finals(sigma, first_seed):
            paths = [simulate(SimConfig(**{**base.__dict__, "sigma": sigma, "seed": first_seed + m})) for m in range(replicates)]
            return np.array([[series.values[-1] for series in variations_of(path, requests)] for path in paths])

        additive, fielded = finals(ConstantSigma(c), 100), finals(field, 200)
        se = np.sqrt((additive.var(axis=0, ddof=1) + fielded.var(axis=0, ddof=1)) / replicates)
        assert np.all(np.abs(fielded.mean(axis=0) - additive.mean(axis=0)) < 4.0 * se)

    def test_sine_amplitude_first_mode_variance(self):
        # Var a_1(delta) = v_1(delta) int phi_1^2 sin^2 = (1 - e^{-2 d})/2 * 3/4, within a relative O(d) of e^{-2 d} d * 3/4
        delta = 1.0 / 128.0
        cfg = config(modes=4, delta=delta, horizon=2 * delta, spatial_grid=128)
        vals = np.empty(800)
        from spde_pv.simulator import SIGMA_PRESETS

        for m in range(800):
            c = SimConfig(**{**cfg.__dict__, "sigma": SIGMA_PRESETS["sin_x"], "seed": 4000 + m})
            vals[m] = simulate(c).coeffs[1, 0]
        target = math.exp(-2.0 * delta) * delta * 0.75
        sample = vals.var(ddof=1)
        assert abs(sample - target) < 4.0 * target * math.sqrt(2.0 / 799)

    @pytest.mark.parametrize("preset", ["sin_x", "cos_state"])
    def test_iterator_matches_full_path(self, preset):
        # the blocks are views of one reused buffer, so each is copied as it arrives
        cfg = config(sigma=SIGMA_PRESETS[preset], spatial_grid=16)
        rows = np.vstack([block.copy() for block in iter_field_states(cfg)])
        assert np.array_equal(rows, simulate(cfg).coeffs[1:])

    def test_state_dependent_requires_supercritical_gamma(self):
        # the rule is checked when the config is built, before any scheme runs
        params = RegimeParams(r=-1.0, gamma=0.4, domain=UNIT_PI_INTERVAL)
        with pytest.raises(ValueError, match="gamma > d/2"):
            SimConfig(params=params, modes=4, delta=0.01, horizon=0.1, sigma=StateSigma(fn=lambda u: u), spatial_grid=8)

    def test_rejects_constant_sigma_and_multid(self):
        with pytest.raises(ValueError):
            next(iter_field_states(config()))
        from spde_pv.spectrum import DomainSpec

        params2 = RegimeParams(r=-1.5, gamma=1.0, domain=DomainSpec((PI, PI)))
        with pytest.raises(ValueError, match="d = 1"):
            SimConfig(params=params2, modes=4, delta=0.01, horizon=0.1, sigma=FieldSigma(fn=lambda t, x: x), spatial_grid=8)

    def test_dispatch(self):
        assert isinstance(simulate(config()), CoefficientPath)
        cfg = config(sigma=StateSigma(fn=lambda u: np.cos(u)), spatial_grid=16, delta=0.05, horizon=0.2)
        assert isinstance(simulate(cfg), CoefficientPath)

    def test_state_mode_grid_refinement_stability(self):
        # best-effort scheme: halving the mesh moves the endpoint variance only slightly
        vals = {}
        for delta in (0.02, 0.01):
            finals = np.empty(400)
            for m in range(400):
                cfg = SimConfig(
                    params=PARAMS, modes=8, delta=delta, horizon=0.2,
                    sigma=StateSigma(fn=lambda u: np.cos(u), name="cos_state"), spatial_grid=16, seed=9000 + m,
                )
                finals[m] = simulate(cfg).coeffs[-1, 0]
            vals[delta] = finals.var(ddof=1)
        rel_gap = abs(vals[0.02] - vals[0.01]) / vals[0.01]
        assert rel_gap < 0.25


class TestNormsAndField:
    def test_hr_norm_zero_row(self):
        path = simulate(config(sigma=ConstantSigma(0.0)))
        assert hr_norm_sq(path.coeffs[3], path.eigenvalues, -1.0) == 0.0

    def test_single_mode_norm_is_r_free(self):
        cfg = config(modes=1, delta=0.5, horizon=1.0)
        coeffs = np.array([[0.0], [2.0], [2.0]])
        path = CoefficientPath(config=cfg, coeffs=coeffs)
        for r in (-1.0, 0.0, 0.7):
            assert hr_norm_sq(path.coeffs[1], path.eigenvalues, r) == pytest.approx(4.0)

    def test_r_zero_is_euclidean(self):
        path = simulate(config())
        for i in (1, 5, 30):
            norm_sq = hr_norm_sq(path.coeffs[i], path.eigenvalues, 0.0)
            assert math.sqrt(norm_sq) == pytest.approx(float(np.linalg.norm(path.coeffs[i])), rel=1e-12)

    def test_midpoint_variance_series(self):
        cfg = config(modes=16, delta=1.0 / 32.0, horizon=0.5, seed=31)
        t_idx = cfg.n_steps
        vals = np.empty(1200)
        for m in range(1200):
            path = simulate(SimConfig(**{**cfg.__dict__, "seed": 7000 + m}))
            vals[m] = oracles.interval_field_value(path.coeffs[t_idx], PI, PI / 2.0)
        k = np.arange(1, 17)
        target = float(np.sum((2.0 / PI) * np.sin(k * PI / 2.0) ** 2 * -np.expm1(-2.0 * k**2 * 0.5) / (2.0 * k**2)))
        sample = vals.var(ddof=1)
        assert abs(sample - target) < 3.5 * target * math.sqrt(2.0 / 1199)


class TestExactIncrementSampling:
    def test_matches_increment_variance_series(self):
        cfg = config(modes=128, delta=2.0**-8, horizon=1.0)
        incs = sample_additive_increments(replace(cfg, seed=555), 0.5, 4000)
        lam = eigenvalues(UNIT_PI_INTERVAL, 128)
        sq = (incs * incs) @ lam ** (-1.0)
        ref = increment_variance(PARAMS, cfg.delta, 0.5 + cfg.delta, truncation=128)
        se = float(np.std(sq, ddof=1) / math.sqrt(sq.size))
        assert abs(float(np.mean(sq)) - ref) < 3.0 * se

    def test_full_path_increment_agrees_with_series(self):
        # the spec oracle: E||increment||^2 from simulated paths vs the closed-form series
        cfg = config(modes=64, delta=1.0 / 64.0, horizon=0.5, seed=1234)
        i = 16
        vals = np.empty(1000)
        for m in range(1000):
            path = simulate(SimConfig(**{**cfg.__dict__, "seed": 100 + m}))
            vals[m] = oracles.increment_hr_norm_sq(path.coeffs[i - 1], path.coeffs[i], path.eigenvalues, -1.0)
        ref = increment_variance(PARAMS, cfg.delta, i * cfg.delta, truncation=64)
        se = float(np.std(vals, ddof=1) / math.sqrt(vals.size))
        assert abs(float(np.mean(vals)) - ref) < 3.0 * se

    def test_rejects_nonconstant_sigma(self):
        cfg = config(sigma=FieldSigma(fn=lambda t, x: x), spatial_grid=16)
        with pytest.raises(ValueError):
            sample_additive_increments(cfg, 0.5, 10)

    @pytest.mark.parametrize(
        "modes,count",
        [(2048, 256), (2048, 300), (2048, 50), (2048, 1), (2**18 + 5, 3)],
        ids=["whole-blocks", "partial-block", "below-one-block", "one-row", "one-row-per-block"],
    )
    def test_stream_collects_to_the_bulk_draw(self, modes, count):
        cfg = config(modes=modes, delta=2.0**-8, horizon=1.0, sigma=ConstantSigma(1.5), seed=99)
        lam = eigenvalues(UNIT_PI_INTERVAL, modes)
        std = 1.5 * np.sqrt(ou_increment_variance(lam, 1.0, cfg.delta, 0.5 + cfg.delta))
        bulk = std * rng_for(99).standard_normal((count, modes))
        assert np.array_equal(sample_additive_increments(cfg, 0.5, count), bulk)


class TestNormalBlocks:
    @pytest.mark.parametrize(
        "rows,width,streams",
        [((256,), 128, 1), ((300,), 2048, 1), ((50,), 2048, 1), ((1,), 7, 1), ((3,), 2**15, 1),
         ((20, 0, 31, 17), 2048, 1), ((20, 0, 31, 17), 2048, 2)],
        ids=["whole-blocks", "partial-block", "below-one-block", "one-row", "one-row-per-block", "successive-draws",
             "interleaved-streams"],
    )
    def test_blocks_are_the_bulk_draw_in_one_reused_buffer(self, rows, width, streams):
        # each draw continues its stream, and streams that take turns on one flat buffer, each block used up
        # before the next block of any of them is drawn (as the levels of `estimate_holder` do), stay their own
        shared = np.empty(max(2**15, width)) if streams > 1 else None
        draws = [normal_stream(99 + i, width, shared) for i in range(streams)]
        blocks = [[] for _ in draws]
        for count in rows:
            for draw, kept in zip(draws, blocks):
                buffer = shared  # given no buffer, a draw allocates one for its blocks
                for block in draw(count):
                    assert block.size <= 2**15
                    buffer = block.base if buffer is None else buffer
                    assert block.base is buffer
                    kept.append(block.copy())
        for i, kept in enumerate(blocks):
            assert len(kept) == sum(math.ceil(count / (2**15 // width)) for count in rows)
            assert np.array_equal(np.concatenate(kept), rng_for(99 + i).standard_normal((sum(rows), width)))


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        path = simulate(config(modes=4, delta=0.125, horizon=0.5))
        npy, sidecar = path.save(tmp_path / "demo")
        assert npy.exists() and sidecar.exists()
        assert SimConfig.from_json(json.loads(sidecar.read_text())["config"]) == path.config
        assert np.array_equal(np.load(npy), path.coeffs)

    def test_norm_csv(self, tmp_path):
        path = simulate(config(modes=4, delta=0.25, horizon=0.5))
        out = tmp_path / "norms.csv"
        path.write_norm_csv(out, -1.0)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,hr_norm"
        assert len(lines) == path.config.n_steps + 2

    def test_path_invariants_enforced(self):
        cfg = config(modes=2, delta=0.5, horizon=1.0)
        with pytest.raises(ValueError, match="zero initial"):
            CoefficientPath(config=cfg, coeffs=np.ones((3, 2)))
        bad = np.zeros((3, 2))
        bad[1, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            CoefficientPath(config=cfg, coeffs=bad)
        with pytest.raises(ValueError, match="shape"):
            CoefficientPath(config=cfg, coeffs=np.zeros((4, 2)))
