import json
import math

import numpy as np
import pytest

from spde_pv.harness import (
    ConvergenceRow,
    ExperimentSpec,
    HolderEstimate,
    LimitReport,
    _replicate_value_arrays,
    derive_seed,
    estimate_holder,
    report_constants,
    run_convergence,
    theoretical_limit_rate,
    write_report,
)
from spde_pv.limits import RegimeParams, increment_variance, k_r, norm_power_functional, tau_n
from spde_pv.simulator import SIGMA_PRESETS, CoefficientPath, ConstantSigma, SimConfig, StateSigma, simulate_additive
from spde_pv.spectrum import UNIT_PI_INTERVAL
from spde_pv.variations import (
    F_PRESETS,
    VariationRequest,
    f_variation,
    general_F_variation,
    power_variation,
    resolve_normalizer,
)

import oracles

PI = math.pi
ZETA2 = PI**2 / 6.0
PARAMS = RegimeParams(r=-1.0, gamma=1.0, domain=UNIT_PI_INTERVAL)


def tiny_spec(tmp_path=None, **kwargs):
    base = dict(
        name="tiny",
        sim=SimConfig(params=PARAMS, modes=32, delta=1.0 / 32.0, horizon=1.0, seed=77),
        variations=(VariationRequest(r=-1.0, p=2.0),),
        delta_grid=(1.0 / 16.0, 1.0 / 32.0),
        replicates=4,
        output_dir=tmp_path,
    )
    base.update(kwargs)
    return ExperimentSpec(**base)


class TestExperimentSpec:
    def test_valid(self):
        spec = tiny_spec()
        assert spec.delta_grid == (1.0 / 16.0, 1.0 / 32.0)

    def test_rejects_nondecreasing_grid(self):
        with pytest.raises(ValueError, match="decreasing"):
            tiny_spec(delta_grid=(1.0 / 32.0, 1.0 / 16.0))

    def test_rejects_nondivisible_delta(self):
        with pytest.raises(ValueError, match="divide"):
            tiny_spec(delta_grid=(0.3,))

    def test_rejects_zero_replicates(self):
        with pytest.raises(ValueError):
            tiny_spec(replicates=0)

    def test_json_roundtrip(self):
        spec = tiny_spec()
        again = ExperimentSpec.from_json(spec.to_json())
        assert again.sim == spec.sim
        assert again.delta_grid == spec.delta_grid
        assert again.variations[0].p == 2.0


class TestSeeds:
    def test_derive_seed_deterministic_and_distinct(self):
        a = derive_seed(123, 0)
        assert a == derive_seed(123, 0)
        assert len({derive_seed(123, m) for m in range(100)}) == 100
        assert derive_seed(124, 0) != a


class TestTheoreticalTargets:
    def test_sub_quadratic(self):
        spec = tiny_spec()
        assert theoretical_limit_rate(spec.variations[0], spec.sim) == pytest.approx(ZETA2, abs=1e-9)

    def test_sub_sigma_scaling(self):
        sim = SimConfig(params=PARAMS, modes=8, delta=0.25, horizon=1.0, sigma=ConstantSigma(2.0))
        assert theoretical_limit_rate(VariationRequest(r=-1.0, p=2.0), sim) == pytest.approx(4.0 * ZETA2, abs=1e-8)

    def test_super_fourth_order(self):
        sim = SimConfig(params=PARAMS, modes=8, delta=0.25, horizon=1.0)
        assert theoretical_limit_rate(VariationRequest(r=0.0, p=4.0), sim) == pytest.approx(PI, rel=1e-7)

    def test_super_bounded_f(self):
        # f(x) = min(x^2, 1); K_0 = sqrt(pi) > 1 so the limit saturates at 1
        sim = SimConfig(params=PARAMS, modes=8, delta=0.25, horizon=1.0)
        req = VariationRequest(r=0.0, f=lambda x: min(x * x, 1.0))
        assert theoretical_limit_rate(req, sim) == pytest.approx(1.0, rel=1e-8)

    def test_super_unbounded_f_matches_k_r(self):
        sim = SimConfig(params=PARAMS, modes=8, delta=0.25, horizon=1.0)
        req = VariationRequest(r=0.0, f=lambda x: x * x)
        assert theoretical_limit_rate(req, sim) == pytest.approx(k_r(RegimeParams(r=0.0, gamma=1.0, domain=UNIT_PI_INTERVAL)), rel=1e-7)

    def test_sub_general_functional_via_sampler(self):
        sim = SimConfig(params=PARAMS, modes=8, delta=0.25, horizon=1.0)
        F = lambda coeffs, lam, r: float(np.sum(lam**r * coeffs * coeffs))
        got = theoretical_limit_rate(VariationRequest(r=-1.0, F=F), sim, mu_samples=20000, mu_seed=3)
        assert abs(got - ZETA2) < 0.05

    def test_sub_odd_power_via_sampler(self):
        sim = SimConfig(params=PARAMS, modes=8, delta=0.25, horizon=1.0)
        got = theoretical_limit_rate(VariationRequest(r=-1.0, p=1.0), sim, mu_samples=20000, mu_seed=4)
        # E||H||_{H_r} for the diagonal Gaussian: exact via the Laplace identity
        lam = np.arange(1, 1001.0) ** 2
        ref = oracles.exact_mean_norm(lam**-1.0)
        assert abs(got - ref) < 0.02

    def test_state_sigma_has_no_target(self):
        sim = SimConfig(params=PARAMS, modes=8, delta=0.25, horizon=1.0, sigma=StateSigma(fn=lambda u: u), spatial_grid=16)
        with pytest.raises(ValueError):
            theoretical_limit_rate(VariationRequest(r=0.0, p=2.0), sim)

    def test_functional_above_transition_rejected(self):
        sim = SimConfig(params=PARAMS, modes=8, delta=0.25, horizon=1.0)
        F = lambda coeffs, lam, r: 0.0
        with pytest.raises(ValueError):
            theoretical_limit_rate(VariationRequest(r=0.0, F=F), sim)


class TestRunConvergence:
    def test_row_shape_and_sanity(self, tmp_path):
        spec = tiny_spec(tmp_path / "out")
        rows = run_convergence(spec)
        assert len(rows) == 2
        for row in rows:
            assert row.std_error > 0.0
            assert math.isfinite(row.abs_error)
            assert row.sup_error_over_grid >= 0.0
            assert row.theoretical_limit == pytest.approx(ZETA2, abs=1e-9)
        assert (tmp_path / "out" / "tiny_convergence.csv").exists()
        summary = json.loads((tmp_path / "out" / "tiny_summary.json").read_text())
        assert summary["meta"]["version"].startswith("spde-pv-")
        assert len(summary["meta"]["spec_sha256"]) == 64
        assert "truncation" in summary

    def test_mean_tracks_series_oracle(self):
        spec = tiny_spec(replicates=48, delta_grid=(1.0 / 64.0,), sim=SimConfig(params=PARAMS, modes=64, delta=1.0 / 64.0, horizon=1.0, seed=99))
        rows = run_convergence(spec)
        expected = oracles.expected_quadratic_variation(1.0 / 64.0, 64, -1.0)
        assert rows[0].mean_V_at_T == pytest.approx(expected, abs=4.0 * rows[0].std_error)

    def test_mean_oracle_matches_increment_variance_sum(self):
        # the time-summed closed form equals the sum of the library's per-increment series
        params = RegimeParams(r=-0.5, gamma=1.0, domain=UNIT_PI_INTERVAL)
        delta, modes = 2.0**-8, 2048
        tau_sq = tau_n(params, delta) ** 2
        summed = sum(
            increment_variance(params, delta, i * delta, truncation=modes, include_tail=False)
            for i in range(1, int(round(1.0 / delta)) + 1)
        )
        expected = oracles.expected_quadratic_variation(delta, modes, -0.5, tau_sq=tau_sq)
        assert expected == pytest.approx(summed * delta / tau_sq, rel=1e-12)

    @pytest.mark.parametrize("r", [-1.0, -0.5, 0.0])
    def test_std_oracle_matches_dense_covariance(self, r):
        # Var sum_i Delta_i^2 = 2 tr(C^2) per mode, with C built densely from the OU covariance
        # (e^{-beta|t-s|} - e^{-beta(t+s)}) / (2 beta) and a difference matrix
        delta, modes, n = 0.05, 6, 20
        t = delta * np.arange(n + 1)
        diff = np.eye(n, n + 1, k=1) - np.eye(n, n + 1)
        var = 0.0
        for k in range(1, modes + 1):
            beta = float(k * k)
            cov = (np.exp(-beta * np.abs(t[:, None] - t[None, :])) - np.exp(-beta * (t[:, None] + t[None, :]))) / (2.0 * beta)
            c = diff @ cov @ diff.T
            var += 2.0 * beta ** (2.0 * r) * float(np.sum(c * c))
        assert oracles.quadratic_variation_std(delta, modes, r) == pytest.approx(math.sqrt(var), rel=1e-13)

    def test_coarse_levels_track_series_oracle(self):
        # coarse levels are read from the finest path; each must still have the exact law of its mesh
        grid = (2.0**-4, 2.0**-5, 2.0**-6)
        m = 48
        spec = tiny_spec(replicates=m, delta_grid=grid, sim=SimConfig(params=PARAMS, modes=64, delta=grid[-1], horizon=1.0, seed=99))
        rows = run_convergence(spec)
        assert [row.delta for row in rows] == list(grid)
        for row in rows:
            expected = oracles.expected_quadratic_variation(row.delta, 64, -1.0)
            se = oracles.quadratic_variation_std(row.delta, 64, -1.0) / math.sqrt(m)
            assert abs(row.mean_V_at_T - expected) <= 3.0 * se, (row.delta, row.mean_V_at_T, expected, se)

    def test_finest_level_keeps_its_seed(self):
        # replicate idx of an L-level grid is seeded with derive_seed(seed, (L - 1) * M + idx)
        spec = tiny_spec(replicates=3)
        rows = run_convergence(spec)
        fine = spec.delta_grid[-1]
        req = spec.variations[0]
        finals = []
        for idx in range(3):
            cfg = SimConfig(params=PARAMS, modes=32, delta=fine, horizon=1.0, seed=derive_seed(77, 3 + idx))
            finals.append(power_variation(simulate_additive(cfg), req).values[-1])
        assert rows[-1].delta == fine
        assert rows[-1].mean_V_at_T == pytest.approx(float(np.mean(finals)), rel=1e-12)

    def test_non_nested_grid_rejected(self):
        spec = tiny_spec(delta_grid=(1.0 / 2.0, 1.0 / 3.0), sim=SimConfig(params=PARAMS, modes=8, delta=1.0 / 3.0, horizon=1.0))
        with pytest.raises(ValueError, match=r"delta grid \[0\.5, 0\.333"):
            run_convergence(spec)

    def test_single_replicate_flags_se(self):
        spec = tiny_spec(replicates=1, delta_grid=(1.0 / 16.0,))
        rows = run_convergence(spec)
        assert math.isnan(rows[0].std_error)

    def test_multiple_requests_share_paths(self):
        spec = tiny_spec(variations=(VariationRequest(r=-1.0, p=2.0), VariationRequest(r=-1.0, p=4.0)))
        rows = run_convergence(spec)
        assert len(rows) == 4
        labels = {row.request_label for row in rows}
        assert labels == {"r-1_p2", "r-1_p4"}

    def test_thread_count_does_not_change_output(self, tmp_path):
        spec1 = tiny_spec(tmp_path / "a", replicates=6)
        spec2 = tiny_spec(tmp_path / "b", replicates=6)
        run_convergence(spec1, threads=1)
        run_convergence(spec2, threads=3)
        csv1 = (tmp_path / "a" / "tiny_convergence.csv").read_bytes()
        csv2 = (tmp_path / "b" / "tiny_convergence.csv").read_bytes()
        assert csv1 == csv2

    def test_rerun_is_byte_identical(self, tmp_path):
        spec1 = tiny_spec(tmp_path / "a")
        run_convergence(spec1)
        first = (tmp_path / "a" / "tiny_convergence.csv").read_bytes()
        run_convergence(spec1)
        assert (tmp_path / "a" / "tiny_convergence.csv").read_bytes() == first

    def test_field_sigma_experiment(self):
        sim = SimConfig(
            params=PARAMS, modes=8, delta=1.0 / 16.0, horizon=0.5,
            sigma=SIGMA_PRESETS["sin_x"], spatial_grid=16, seed=5,
        )
        spec = ExperimentSpec(
            name="field", sim=sim, variations=(VariationRequest(r=-1.0, p=2.0),),
            delta_grid=(1.0 / 16.0,), replicates=3,
        )
        rows = run_convergence(spec)
        assert rows[0].mean_V_at_T > 0.0
        # sigma^2-weighted quadratic variation: sum_k lam_k^r int phi_k^2 sin^2 = zeta(2)/2 + 1/4
        ref = ZETA2 / 2.0 + 0.25
        assert rows[0].theoretical_limit == pytest.approx(ref * 0.5, rel=0.02)


class TestLevelKernel:
    def test_levels_match_variation_engines_on_subsampled_path(self):
        # level s of the streaming kernel equals the full-matrix engines on coeffs[::s] at mesh s * delta;
        # a block of 50 rows puts the level rows at a different offset in each block
        delta = 2.0**-8
        cfg = SimConfig(params=PARAMS, modes=32, delta=delta, horizon=1.0, seed=2024)
        requests = (
            VariationRequest(r=0.0, p=4.0),
            VariationRequest(r=-0.75, f=F_PRESETS["min_square_one"]),
            VariationRequest(r=-1.0, F=norm_power_functional(2.0)),
        )
        engines = (power_variation, f_variation, general_F_variation)
        strides = (4, 2, 1)
        level_cfgs = [SimConfig(params=PARAMS, modes=32, delta=delta * s, horizon=1.0, seed=2024) for s in strides]
        taus = [[resolve_normalizer(req, c) for req in requests] for c in level_cfgs]
        got = _replicate_value_arrays(cfg, requests, [c.delta for c in level_cfgs], taus, block=50)
        path = simulate_additive(cfg)
        for level, s, level_cfg in zip(got, strides, level_cfgs):
            sub = CoefficientPath(config=level_cfg, coeffs=path.coeffs[::s])
            for series, req, engine in zip(level, requests, engines):
                ref = engine(sub, req)
                np.testing.assert_array_equal(series.times, ref.times)
                np.testing.assert_allclose(series.values, ref.values, rtol=1e-12, atol=0.0)


class TestHolder:
    def test_estimate_close_to_half_for_sub(self):
        sim = SimConfig(params=PARAMS, modes=256, delta=1.0 / 16.0, horizon=2.0, seed=42)
        spec = ExperimentSpec(
            name="holder", sim=sim, variations=(VariationRequest(r=-1.0, p=2.0),),
            delta_grid=tuple(2.0**-e for e in range(4, 9)), replicates=400,
        )
        est = estimate_holder(spec, -1.0)
        assert abs(est.slope - 0.5) < 0.05
        assert est.ci_low < est.slope < est.ci_high
        assert len(est.mean_norms) == 5

    def test_mean_norms_match_laplace_identity_oracle(self):
        sim = SimConfig(params=PARAMS, modes=128, delta=1.0 / 16.0, horizon=2.0, seed=21)
        grid = tuple(2.0**-e for e in range(4, 8))
        spec = ExperimentSpec(
            name="holder", sim=sim, variations=(VariationRequest(r=-1.0, p=2.0),),
            delta_grid=grid, replicates=3000,
        )
        est = estimate_holder(spec, -1.0, t=1.0)
        k = np.arange(1, 129.0)
        lam = k**2
        for delta, mean in zip(grid, est.mean_norms):
            v0 = -np.expm1(-2.0 * lam * 1.0) / (2.0 * lam)
            q = -np.expm1(-2.0 * lam * delta) / (2.0 * lam)
            w = lam**-1.0 * (np.expm1(-lam * delta) ** 2 * v0 + q)
            ref = oracles.exact_mean_norm(w)
            assert mean == pytest.approx(ref, rel=0.02)

    def test_requires_enough_levels_and_constant_sigma(self):
        sim = SimConfig(params=PARAMS, modes=16, delta=1.0 / 16.0, horizon=2.0)
        spec = ExperimentSpec(
            name="h", sim=sim, variations=(VariationRequest(r=-1.0, p=2.0),),
            delta_grid=(1.0 / 4.0, 1.0 / 8.0, 1.0 / 16.0), replicates=5,
        )
        with pytest.raises(ValueError, match="4 mesh levels"):
            estimate_holder(spec, -1.0)
        sim2 = SimConfig(params=PARAMS, modes=8, delta=1.0 / 16.0, horizon=2.0, sigma=SIGMA_PRESETS["sin_x"], spatial_grid=16)
        spec2 = ExperimentSpec(
            name="h2", sim=sim2, variations=(VariationRequest(r=-1.0, p=2.0),),
            delta_grid=(1.0 / 4.0, 1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0), replicates=5,
        )
        with pytest.raises(ValueError, match="additive"):
            estimate_holder(spec2, -1.0)


class TestReportConstants:
    def test_sub_report(self):
        report = report_constants(PARAMS, orders=[1, 2])
        assert report.regime == "sub"
        assert report.k_r == pytest.approx(1.6449340668, abs=1e-9)
        assert report.constants_by_order[2] == pytest.approx(4.8704545517, abs=1e-8)
        assert report.holder_alpha == 0.5
        assert report.tau_delta_exponent == 0.5 and not report.tau_log_factor
        assert [z["z"] for z in report.zeta_values] == [1.0, 2.0]
        assert all(z["tail_bound"] >= 0.0 for z in report.zeta_values)

    def test_critical_report(self):
        params = RegimeParams(r=-0.5, gamma=1.0, domain=UNIT_PI_INTERVAL)
        report = report_constants(params, orders=[1, 2, 3])
        assert report.k_r == pytest.approx(0.5, rel=1e-12)
        for p in (1, 2, 3):
            assert report.constants_by_order[p] == pytest.approx(2.0**-p, rel=1e-12)
        assert report.tau_log_factor

    def test_super_report(self):
        params = RegimeParams(r=0.0, gamma=1.0, domain=UNIT_PI_INTERVAL)
        report = report_constants(params, orders=[2])
        assert report.constants_by_order[2] == pytest.approx(PI, rel=1e-10)
        assert report.tau_delta_exponent == 0.25
        assert report.zeta_values == []
        assert report.holder_alpha == 0.25

    def test_out_of_range_params_raise(self):
        with pytest.raises(ValueError):
            RegimeParams(r=0.5, gamma=1.0, domain=UNIT_PI_INTERVAL)

    def test_write_report_sidecar(self, tmp_path):
        report = report_constants(PARAMS, orders=[1])
        out = tmp_path / "report.json"
        write_report(report, PARAMS, out)
        payload = json.loads(out.read_text())
        assert payload["meta"]["version"].startswith("spde-pv-")
        assert payload["report"]["k_r"] == pytest.approx(ZETA2, abs=1e-9)
