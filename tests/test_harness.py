import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2

from spde_pv import harness, simulator
from spde_pv._version import BLOCK_ELEMENTS, aligned_empty, rng_for
from spde_pv.harness import (
    ConvergenceRow,
    ExperimentSpec,
    HolderEstimate,
    LimitReport,
    _t_quantile,
    derive_seed,
    estimate_holder,
    report_constants,
    run_convergence,
    theoretical_limit_rate,
    variation_levels,
    write_report,
)
from spde_pv.limits import (
    RegimeParams,
    increment_weights,
    k_r,
    limit_constant_even_power,
    norm_power_functional,
    ou_increment_variance,
    tau_n,
)
from spde_pv.qform import power_sum_moments
from spde_pv.simulator import SIGMA_PRESETS, ConstantSigma, SimConfig, StateSigma, iter_additive_states, simulate
from spde_pv.spectrum import UNIT_PI_INTERVAL, DomainSpec, eigenvalues
from spde_pv.variations import F_PRESETS, VariationRequest

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
        req = VariationRequest(r=0.0, f=lambda x: np.minimum(x * x, 1.0))
        assert theoretical_limit_rate(req, sim) == pytest.approx(1.0, rel=1e-8)

    def test_super_unbounded_f_matches_k_r(self):
        sim = SimConfig(params=PARAMS, modes=8, delta=0.25, horizon=1.0)
        req = VariationRequest(r=0.0, f=lambda x: x * x)
        assert theoretical_limit_rate(req, sim) == pytest.approx(k_r(RegimeParams(r=0.0, gamma=1.0, domain=UNIT_PI_INTERVAL)), rel=1e-7)

    def test_sub_general_functional_via_sampler(self):
        sim = SimConfig(params=PARAMS, modes=8, delta=0.25, horizon=1.0)
        F = lambda coeffs, lam, r: np.sum(lam**r * coeffs * coeffs, axis=-1)
        got = theoretical_limit_rate(VariationRequest(r=-1.0, F=F), sim)
        assert abs(got - ZETA2) < 0.05

    def test_sub_odd_power_exact(self):
        sim = SimConfig(params=PARAMS, modes=8, delta=0.25, horizon=1.0)
        got = theoretical_limit_rate(VariationRequest(r=-1.0, p=1.0), sim)
        # E||H||_{H_r} for the diagonal Gaussian via the Laplace identity on 10^5 modes; the target has no
        # truncation, and the oracle's, sum_{k > 10^5} k^-2 E[1/(2||H||)], is about 5e-6
        lam = np.arange(1, 100001.0) ** 2
        ref = oracles.exact_mean_norm(lam**-1.0)
        assert 0.0 < got - ref < 1e-5

    @pytest.mark.parametrize("sigma", [ConstantSigma(1.5), SIGMA_PRESETS["sin_x"]])
    @pytest.mark.parametrize("request_", [VariationRequest(r=-1.0, p=1.0), VariationRequest(r=-1.0, p=3.0),
                                          VariationRequest(r=-1.0, f=F_PRESETS["min_square_one"])])
    def test_norm_requests_are_exact_and_never_sampled(self, monkeypatch, sigma, request_):
        from spde_pv import harness

        calls = []
        monkeypatch.setattr(harness, "mu_rF_estimate", lambda *args, **kwargs: calls.append(kwargs))
        sim = SimConfig(params=PARAMS, modes=8, delta=0.25, horizon=1.0, sigma=sigma, spatial_grid=16)
        first = theoretical_limit_rate(request_, sim)
        assert theoretical_limit_rate(request_, sim) == first
        assert calls == [] and math.isfinite(first) and first > 0.0

    def test_general_functional_is_the_only_sampled_target(self, monkeypatch):
        from spde_pv import harness
        from spde_pv.rqmc import MonteCarloEstimate

        calls = []

        def recording(F, w, params, truncation, samples, seed):
            calls.append((w, truncation, samples, seed))
            return MonteCarloEstimate(mean=2.5, stderr=0.0, samples=samples)

        monkeypatch.setattr(harness, "mu_rF_estimate", recording)
        sim = SimConfig(params=PARAMS, modes=8, delta=0.25, horizon=1.0, sigma=ConstantSigma(2.0))
        F = norm_power_functional(2.0)
        assert theoretical_limit_rate(VariationRequest(r=-1.0, F=F), sim) == 2.5
        assert calls == [(4.0, 1000, 2**14, 7)]

    def test_state_sigma_has_no_target(self):
        sim = SimConfig(params=PARAMS, modes=8, delta=0.25, horizon=1.0, sigma=StateSigma(fn=lambda u: u), spatial_grid=16)
        with pytest.raises(ValueError):
            theoretical_limit_rate(VariationRequest(r=0.0, p=2.0), sim)

    def test_functional_above_transition_rejected(self):
        sim = SimConfig(params=PARAMS, modes=8, delta=0.25, horizon=1.0)
        F = lambda coeffs, lam, r: 0.0
        with pytest.raises(ValueError):
            theoretical_limit_rate(VariationRequest(r=0.0, F=F), sim)

    @pytest.mark.parametrize(
        "preset,r,p,expected",
        [("sin_x", -0.5, 2.0, 0.25), ("sin_x", 0.0, 4.0, PI / 4.0),
         ("time_ramp", 0.0, 4.0, PI / 3.0), ("time_ramp", 0.0, 2.0, math.sqrt(PI) / 2.0)],
    )
    def test_field_sigma_targets_at_and_above_the_transition(self, preset, r, p, expected):
        # the limit is int_0^1 (K_r m(s))^{p/2} ds with m(s) the domain mean of sigma^2(s, .): sin_x has
        # m = 1/2 and time_ramp m = s, and on (0, pi) K_{-1/2} = 1/2 and K_0 = sqrt(pi)
        sim = SimConfig(params=PARAMS, modes=8, delta=0.25, horizon=1.0, sigma=SIGMA_PRESETS[preset], spatial_grid=16)
        assert theoretical_limit_rate(VariationRequest(r=r, p=p), sim) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "domain,r",
        [
            # on (0, pi)^2 near r = -1 the Chernoff grid of the law of the norm, scaled to the reach of the tail
            # series, can round one ulp past it
            pytest.param(DomainSpec((PI, PI)), -1.05, id="square"),
            pytest.param(DomainSpec((PI, PI)), -1.04, id="square-grid-at-reach"),
            pytest.param(UNIT_PI_INTERVAL, -1.0, id="interval"),
            pytest.param(DomainSpec((PI, 2.0, 1.0)), -1.6, id="box"),
        ],
    )
    def test_p2_and_f_square_targets_agree(self, domain, r):
        # both are E||H||_{H_r}^2 from the same weights and tail power sums: the p = 2 target as a Bell moment, the
        # f target against the law of the norm, whose accuracy is about 1e-10
        sim = SimConfig(params=RegimeParams(r=r, gamma=1.0, domain=domain), modes=8, delta=0.25, horizon=1.0)
        power = theoretical_limit_rate(VariationRequest(r=r, p=2.0), sim)
        square = theoretical_limit_rate(VariationRequest(r=r, f=F_PRESETS["square"]), sim)
        assert square == pytest.approx(power, rel=1e-10)

    @pytest.mark.parametrize("domain,r", [(UNIT_PI_INTERVAL, -1.0), (DomainSpec((PI, PI)), -1.05),
                                          (DomainSpec((PI, 2.0, 1.0)), -1.6)], ids=["interval", "square", "box"])
    def test_even_power_targets_are_the_zeta_constants(self, monkeypatch, domain, r):
        # the targets are Bell moments of the norm_weights power sums, which are the zeta values that k_r and
        # limit_constant_even_power sum; the harness never calls the closed form for a target
        from spde_pv import harness

        params = RegimeParams(r=r, gamma=1.0, domain=domain)
        k2 = limit_constant_even_power(params, 2)

        def refused(*args, **kwargs):
            raise AssertionError("a target called limit_constant_even_power")

        monkeypatch.setattr(harness, "limit_constant_even_power", refused)
        sim = SimConfig(params=params, modes=8, delta=0.25, horizon=1.0)
        assert theoretical_limit_rate(VariationRequest(r=r, p=2.0), sim) == pytest.approx(k_r(params), rel=1e-14)
        assert theoretical_limit_rate(VariationRequest(r=r, p=4.0), sim) == pytest.approx(k2, rel=1e-14)


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

    def test_non_finite_target_rejected_before_any_replicate(self, monkeypatch):
        from spde_pv import harness

        def unread(cfg):
            raise AssertionError("a replicate was simulated")

        monkeypatch.setattr(harness, "iter_additive_states", unread)
        blows_up = lambda x: np.where(x > 1, math.inf, x)
        # below the transition the law of the norm names its quadrature nodes, above it the limit process its
        # time nodes (the r = 0 rate, pi^{1/4}, is past the threshold)
        req = VariationRequest(r=-1.0, f=blows_up, label="blows_up")
        with pytest.raises(ValueError, match=r"f returned a non-finite value \(\d+ quadrature nodes in \["):
            run_convergence(tiny_spec(variations=(req,)))
        req = VariationRequest(r=0.0, f=blows_up, label="blows_up")
        with pytest.raises(ValueError, match=r"f returned a non-finite value \(\d+ time nodes in \[0\.\d+, 0\.\d+\]\)"):
            run_convergence(tiny_spec(variations=(req,)))
        # a scalar-only f breaks the array contract above the transition too, though its value there is finite
        req = VariationRequest(r=0.0, f=lambda x: math.inf if x > 2 else x, label="scalar_only")
        with pytest.raises(RuntimeError, match=r"f evaluation failed at \d+ time nodes in \["):
            run_convergence(tiny_spec(variations=(req,)))

    def test_mean_tracks_series_oracle(self):
        spec = tiny_spec(replicates=48, delta_grid=(1.0 / 64.0,), sim=SimConfig(params=PARAMS, modes=64, delta=1.0 / 64.0, horizon=1.0, seed=99))
        rows = run_convergence(spec)
        expected = oracles.expected_quadratic_variation(1.0 / 64.0, 64, -1.0)
        assert rows[0].mean_V_at_T == pytest.approx(expected, abs=4.0 * rows[0].std_error)

    def test_sup_error_reads_the_coarsest_grid(self):
        # the sup deviation of every level is taken over the coarsest grid, here a non-dyadic one
        # on a horizon that is not 1; the reference reads each grid point with value_at
        horizon, m = 0.9, 2
        grid = tuple(horizon / n for n in (64, 128, 192, 384))
        sim = SimConfig(params=PARAMS, modes=16, delta=grid[-1], horizon=horizon, seed=31)
        requests = (VariationRequest(r=-1.0, p=2.0), VariationRequest(r=0.0, p=4.0))
        spec = tiny_spec(sim=sim, variations=requests, delta_grid=grid, replicates=m)
        rows = run_convergence(spec)
        targets = [theoretical_limit_rate(req, sim) for req in requests]
        common = grid[0] * np.arange(1, 65)
        sup = np.empty((len(grid), m, len(requests)))
        for idx in range(m):
            cfg = replace(sim, seed=derive_seed(sim.seed, (len(grid) - 1) * m + idx))
            for lv, level in enumerate(variation_levels(cfg, iter_additive_states(cfg), requests, grid)):
                for j, series in enumerate(level):
                    sup[lv, idx, j] = max(abs(series.value_at(t) - targets[j] * t) for t in common)
        got = [row.sup_error_over_grid for row in rows]
        assert got == [float(np.mean(sup[lv, :, j])) for lv in range(len(grid)) for j in range(len(requests))]

    def test_mean_oracle_matches_increment_variance_sum(self):
        # the time-summed closed form equals the sum of the library's per-increment series
        params = RegimeParams(r=-0.5, gamma=1.0, domain=UNIT_PI_INTERVAL)
        delta, modes = 2.0**-8, 2048
        tau_sq = tau_n(params, delta) ** 2
        summed = sum(
            float(increment_weights(params, delta, i * delta, modes).sum())
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
            path = simulate(cfg)
            finals.append(oracles.variation_series(path.coeffs, path.eigenvalues, req, tau_n(PARAMS, fine), fine)[-1])
        assert rows[-1].delta == fine
        assert rows[-1].mean_V_at_T == pytest.approx(float(np.mean(finals)), rel=1e-12)

    def test_non_nested_grid_rejected(self):
        spec = tiny_spec(delta_grid=(1.0 / 2.0, 1.0 / 3.0), sim=SimConfig(params=PARAMS, modes=8, delta=1.0 / 3.0, horizon=1.0))
        with pytest.raises(ValueError, match=r"delta grid \[0\.5, 0\.333"):
            run_convergence(spec)

    def test_long_non_dyadic_grid_is_nested(self):
        # 1/23238 steps 23238 times to the horizon although T/delta rounds just below 23238
        grid = (2.0 / 23238, 1.0 / 23238)
        spec = tiny_spec(delta_grid=grid, replicates=1, sim=SimConfig(params=PARAMS, modes=1, delta=grid[-1], horizon=1.0))
        rows = run_convergence(spec)
        assert [row.delta for row in rows] == list(grid)
        assert all(math.isfinite(row.mean_V_at_T) for row in rows)

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

    @pytest.mark.parametrize("threads", [1, 3])
    def test_replicates_reuse_one_kernel_workspace_per_thread(self, monkeypatch, threads):
        # a kernel workspace freed and allocated again per replicate lets glibc trim the heap and fault it back in
        made = []
        workspace = harness._kernel_workspace
        monkeypatch.setattr(harness, "_kernel_workspace", lambda modes: made.append(modes) or workspace(modes))
        run_convergence(tiny_spec(replicates=6), threads=threads)
        assert 1 <= len(made) <= threads and set(made) == {32}

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


def two_level_spec(tmp_path=None, **kwargs):
    """A two-level experiment: its base level has 1024 // LEVEL_RATIO = 128 modes.  Its rows are f rows, which keep
    the coupled level: an even power takes its exact conditional mean from the base level alone."""
    base = dict(
        name="two",
        sim=SimConfig(params=PARAMS, modes=1024, delta=2.0**-8, horizon=1.0, seed=808),
        # sub_f is the quadratic variation ||D||^2 / tau^2 as an f row; at r = 0.25 the capped square varies little
        # on the base level, so the rule asks for more coupled replicates than the pilots
        variations=(VariationRequest(r=-1.0, f=F_PRESETS["square"], label="sub_f"),
                    VariationRequest(r=0.25, f=F_PRESETS["min_square_one"], label="super_f")),
        delta_grid=(2.0**-6, 2.0**-7, 2.0**-8),
        replicates=40,
        output_dir=tmp_path,
    )
    base.update(kwargs)
    return ExperimentSpec(**base)


class TestTwoLevels:
    def test_two_levels_run_only_where_they_can_pay(self):
        spec = two_level_spec()
        assert harness._mode_ladder(spec) == [1024 // harness.LEVEL_RATIO, 1024] == [128, 1024]
        assert harness._mode_ladder(two_level_spec(replicates=3)) == [128, 1024]  # 3 * 128 / 1024 + 2 pilots < 3
        # the smallest two-level experiment has K = 512, whose base level has MIN_BASE_MODES modes
        smallest = replace(spec.sim, modes=512)
        assert harness._mode_ladder(two_level_spec(sim=smallest)) == [harness.MIN_BASE_MODES, 512] == [64, 512]
        # one level under a field sigma, with a base level below the crossover, and with too few replicates
        field = replace(spec.sim, sigma=SIGMA_PRESETS["sin_x"], spatial_grid=2048)
        assert harness._mode_ladder(two_level_spec(sim=field)) == [1024]
        assert harness._mode_ladder(two_level_spec(sim=replace(spec.sim, modes=504))) == [504]  # K0 = 63
        assert harness._mode_ladder(two_level_spec(replicates=2)) == [1024]
        assert harness._mode_ladder(two_level_spec(sim=smallest, replicates=2)) == [512]

    def test_smallest_two_level_run_with_f_and_F_requests(self, monkeypatch, tmp_path):
        # K = 512 takes two levels: the M base replicates at 64 modes, and the coupled level reduces f and F on the
        # first 64 columns of each K-mode path as well.  A general F does not serialize to JSON, so the summary's
        # `levels` block is taken where it is handed to the writer
        written = []
        monkeypatch.setattr(harness, "_write_convergence", lambda spec, rows, mc_levels, exact: written.append(mc_levels))
        sim = SimConfig(params=PARAMS, modes=512, delta=2.0**-8, horizon=1.0, seed=31)
        spec = ExperimentSpec(
            name="small",
            sim=sim,
            variations=(
                VariationRequest(r=-1.0, f=F_PRESETS["min_square_one"], label="sub_f"),
                VariationRequest(r=-1.0, F=norm_power_functional(2.0), label="sub_F"),
            ),
            delta_grid=(2.0**-7, 2.0**-8),
            replicates=4,
            output_dir=tmp_path,
        )
        rows = run_convergence(spec)
        (k0, m), (k, m1) = ((level["modes"], level["replicates"]) for level in written[0])
        assert (k0, m, k) == (64, 4, 512) and harness.PILOT_REPLICATES <= m1 <= 4
        assert len(rows) == 4
        for row in rows:
            assert all(math.isfinite(v) for v in (row.mean_V_at_T, row.std_error, row.theoretical_limit,
                                                   row.abs_error, row.sup_error_over_grid)), row

    def test_correction_level_follows_giles_rule(self):
        # M1 = M sqrt(max_rows V1 / V0 * K0 / K), at least the pilots, at most M
        base = np.random.default_rng(3).standard_normal((2, 10, 2))
        v0 = np.var(base, axis=1, ddof=1)
        pilots = np.zeros((2, 2, 2))
        assert harness._correction_replicates(1 / 8, base, pilots) == (harness.PILOT_REPLICATES, 0.0)
        # V1 / V0 = 1.62 on one row and 0.5 on another: 10 sqrt(1.62 / 8) = 4.5 rounds up to 5
        pilots[0, 1, 1] = math.sqrt(2.0 * 1.62 * v0[0, 1])
        pilots[1, 1, 0] = math.sqrt(2.0 * 0.5 * v0[1, 0])
        m1, ratio = harness._correction_replicates(1 / 8, base, pilots)
        assert ratio == pytest.approx(1.62, rel=1e-12)
        assert m1 == 5
        assert harness._correction_replicates(1.0, base, pilots)[0] == 10
        base[1, :, 1] = 1.0  # a row whose base values do not vary, and whose pilots do
        pilots[1, 1, 1] = 1e-9
        assert harness._correction_replicates(1 / 8, base, pilots) == (10, math.inf)

    def test_coupled_pass_reduces_the_first_K0_columns(self):
        # the K0-mode series of a coupled pass are those of the K0-mode path made of the same path's first K0
        # columns, and its K-mode series those of the plain pass, each within rounding
        cfg = SimConfig(params=PARAMS, modes=64, delta=1.0 / 128.0, horizon=1.0, seed=2024)
        requests = (
            VariationRequest(r=0.0, p=4.0),
            VariationRequest(r=-0.75, f=F_PRESETS["min_square_one"]),
            VariationRequest(r=-1.0, F=norm_power_functional(2.0)),
        )
        deltas = (1.0 / 32.0, 1.0 / 64.0, 1.0 / 128.0)
        rows = simulate(cfg).coeffs[1:]
        coupled = variation_levels(cfg, [rows], requests, deltas, base_modes=8)
        plain = variation_levels(cfg, [rows], requests, deltas)
        base = variation_levels(replace(cfg, modes=8), [rows[:, :8]], requests, deltas)
        for got, ref_k, ref_k0 in zip(coupled, plain, base):
            assert len(got) == 2 * len(requests)
            for series, ref in zip(got, ref_k + ref_k0):
                np.testing.assert_array_equal(series.times, ref.times)
                np.testing.assert_allclose(series.values, ref.values, rtol=1e-13, atol=0.0)
        with pytest.raises(ValueError, match=r"base_modes must lie in \[1, 64\), got 64"):
            variation_levels(cfg, [rows], requests, deltas, base_modes=64)

    @staticmethod
    def count_draws(monkeypatch) -> list:
        """The sizes of the normal draws of every generator built from here on."""
        drawn = []

        class Counting:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, *args, **kwargs):
                out = self.rng.standard_normal(*args, **kwargs)
                drawn.append(np.size(out))
                return out

        real = simulator._rng_for
        monkeypatch.setattr(simulator, "_rng_for", lambda seed: Counting(real(seed)))
        return drawn

    def test_draws_M_n_K0_plus_M1_n_K_normals(self, monkeypatch, tmp_path):
        drawn = self.count_draws(monkeypatch)
        run_convergence(two_level_spec(tmp_path))
        levels = json.loads((tmp_path / "two_summary.json").read_text())["levels"]
        (k0, m), (k, m1) = ((level["modes"], level["replicates"]) for level in levels)
        # the rule takes more than the pilots here, so the correction level runs in two rounds
        assert (k0, m, k) == (128, 40, 1024) and harness.PILOT_REPLICATES < m1 < m
        # the summary names the V1 / V0 that fixed M1 = ceil(M sqrt(V1 / V0 * K0 / K))
        assert "variance_ratio" not in levels[0]
        assert m1 == math.ceil(m * math.sqrt(levels[1]["variance_ratio"] * k0 / k))
        assert sum(drawn) == m * 256 * k0 + m1 * 256 * k == sum(level["normals"] for level in levels)

    def test_estimator_telescopes_the_coupled_differences(self):
        # the rows from the replicates' own series: base replicate idx is seeded derive_seed(seed, (L - 1) M + idx)
        # at K0 modes, coupled replicate j derive_seed(seed, L M + j) at K, and M1 follows from the first two
        spec = two_level_spec(replicates=5)
        sim, m, grid, requests = spec.sim, 5, spec.delta_grid, spec.variations
        rows = run_convergence(spec)
        targets = [theoretical_limit_rate(req, sim) for req in requests]
        common = grid[0] * np.arange(1, 65)

        def reduce(idx, modes, base_modes=None):
            cfg = replace(sim, seed=derive_seed(sim.seed, 2 * m + idx), modes=modes)
            levels = variation_levels(cfg, iter_additive_states(cfg), requests, grid, base_modes=base_modes)
            v = np.array([[series.value_at(1.0) for series in level] for level in levels])
            sup = np.array([[max(abs(series.value_at(t) - targets[j % 2] * t) for t in common)
                             for j, series in enumerate(level)] for level in levels])
            return (v, sup) if base_modes is None else (v[:, :2] - v[:, 2:], sup[:, :2] - sup[:, 2:])

        base = [reduce(idx, 128) for idx in range(m)]
        coupled = [reduce(m + j, 1024, 128) for j in range(harness.PILOT_REPLICATES)]
        m1, _ = harness._correction_replicates(1 / 8, *(np.stack([v for v, _ in part], 1) for part in (base, coupled)))
        coupled += [reduce(m + j, 1024, 128) for j in range(harness.PILOT_REPLICATES, m1)]
        for i, row in enumerate(rows):
            lv, j = divmod(i, 2)
            v0, v1 = (np.array([v[lv, j] for v, _ in part]) for part in (base, coupled))
            s0, s1 = (np.array([s[lv, j] for _, s in part]) for part in (base, coupled))
            assert row.mean_V_at_T == pytest.approx(v0.mean() + v1.mean(), rel=1e-12)
            se = math.sqrt(np.var(v0, ddof=1) / m + np.var(v1, ddof=1) / m1)
            assert row.std_error == pytest.approx(se, rel=1e-12)
            assert row.sup_error_over_grid == pytest.approx(s0.mean() + s1.mean(), rel=1e-12)

    def test_all_even_power_spec_draws_exactly_M_n_K0_normals(self, monkeypatch, tmp_path):
        # even powers integrate the modes past K0 out exactly: no pilot and no coupled replicate is drawn
        drawn = self.count_draws(monkeypatch)
        spec = two_level_spec(tmp_path, variations=(VariationRequest(r=-1.0, p=2.0, label="sub_p2"),
                                                    VariationRequest(r=0.25, p=4.0, label="super_p4")))
        run_convergence(spec)
        summary = json.loads((tmp_path / "two_summary.json").read_text())
        assert summary["levels"] == [{"modes": 128, "replicates": 40, "normals": 40 * 256 * 128,
                                      "integrated_modes": [129, 1024]}]
        assert sum(drawn) == 40 * 256 * 128
        assert all("exact_mean" in row for row in summary["rows"])

    def test_mixed_spec_variance_ratio_reads_only_its_f_and_F_rows(self, tmp_path):
        # super_p4 at r = 0.25 asked for more coupled replicates than the pilots in 0.7.0, but it is an
        # even power: Giles' rule reads the f row alone, whose ratio here keeps M1 at the pilots
        sub_f = VariationRequest(r=-1.0, f=F_PRESETS["square"], label="sub_f")
        super_p4 = VariationRequest(r=0.25, p=4.0, label="super_p4")
        ratios = {}
        for name, variations in (("mixed", (super_p4, sub_f)), ("f_only", (sub_f,))):
            run_convergence(two_level_spec(tmp_path / name, variations=variations))
            levels = json.loads((tmp_path / name / "two_summary.json").read_text())["levels"]
            assert [level["modes"] for level in levels] == [128, 1024]
            assert levels[1]["replicates"] == harness.PILOT_REPLICATES
            ratios[name] = levels[1]["variance_ratio"]
        # the f row's base values come from a product with one more weight column in the mixed pass
        assert ratios["mixed"] == pytest.approx(ratios["f_only"], rel=1e-9)
        assert "integrated_modes" in json.loads((tmp_path / "mixed" / "two_summary.json").read_text())["levels"][0]

    def test_even_power_rows_are_the_base_replicates_conditional_means(self):
        # an even-power row of a two-level run reads its M base replicates alone: the mean, the plain standard error
        # and the sup deviation of their conditional series, and the f row beside it keeps the coupled level
        spec = two_level_spec(replicates=5, variations=(VariationRequest(r=0.25, p=4.0, label="super_p4"),
                                                        VariationRequest(r=-1.0, f=F_PRESETS["square"], label="sub_f")))
        sim, m, grid = spec.sim, 5, spec.delta_grid
        rows = run_convergence(spec)
        high = harness._increment_power_sums(spec, 128, 1024)
        moments = [{r: power_sum_moments(sums) for r, sums in level.items()} for level in high]
        target = theoretical_limit_rate(spec.variations[0], sim)
        common = grid[0] * np.arange(1, 65)
        v, sup = np.empty((len(grid), m)), np.empty((len(grid), m))
        for idx in range(m):
            cfg = replace(sim, seed=derive_seed(sim.seed, 2 * m + idx), modes=128)
            levels = variation_levels(cfg, iter_additive_states(cfg), spec.variations[:1], grid, high_moments=moments)
            v[:, idx] = [level[0].value_at(1.0) for level in levels]
            sup[:, idx] = [max(abs(level[0].value_at(t) - target * t) for t in common) for level in levels]
        for lv, row in enumerate(rows[::2]):
            assert row.request_label == "super_p4"
            assert row.mean_V_at_T == pytest.approx(v[lv].mean(), rel=1e-12)
            assert row.std_error == pytest.approx(np.std(v[lv], ddof=1) / math.sqrt(m), rel=1e-12)
            assert row.sup_error_over_grid == pytest.approx(sup[lv].mean(), rel=1e-12)

    @pytest.mark.parametrize("p,r", [(2.0, -1.0), (4.0, 0.0), (6.0, -0.75)])
    def test_conditional_series_is_the_mean_over_the_modes_past_K0(self, p, r):
        # fix the first K0 = 4 modes of one path and draw the modes 5..12, which are independent of them, 4000 times
        # by their exact OU step: the mean of V_K(T) over those draws lies within 4 standard errors of the
        # conditional series at T, at every mesh level
        k, k0, draws = 12, 4, 4000
        cfg = SimConfig(params=PARAMS, modes=k, delta=1.0 / 32.0, horizon=0.5, seed=41)
        grid = (1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0)
        req = VariationRequest(r=r, p=p)
        spec = ExperimentSpec(name="c", sim=cfg, variations=(req,), delta_grid=grid, replicates=4)
        moments = [{r: power_sum_moments(sums) for r, sums in level.items()}
                   for level in harness._increment_power_sums(spec, k0, k)]
        low = simulate(replace(cfg, modes=k0)).coeffs
        cond = variation_levels(replace(cfg, modes=k0), [low[1:]], (req,), grid, high_moments=moments)
        lam = eigenvalues(UNIT_PI_INTERVAL, k)
        decay, scale = np.exp(-lam[k0:] * cfg.delta), np.sqrt(-np.expm1(-2.0 * lam[k0:] * cfg.delta) / (2.0 * lam[k0:]))
        xi = np.random.default_rng(7).standard_normal((cfg.n_steps, draws, k - k0))
        high = np.zeros((cfg.n_steps + 1, draws, k - k0))
        for i in range(cfg.n_steps):
            high[i + 1] = decay * high[i] + scale * xi[i]
        for level, delta in zip(cond, grid):
            s = int(round(delta / cfg.delta))
            tau = tau_n(RegimeParams(r=r, gamma=1.0, domain=UNIT_PI_INTERVAL), delta)
            d_low, d_high = np.diff(low[::s], axis=0), np.diff(high[::s], axis=0)
            sq = (d_low**2 @ lam[:k0] ** r)[:, None] + d_high**2 @ lam[k0:] ** r  # (steps, draws)
            v = delta * np.sum((sq / tau**2) ** (p / 2.0), axis=0)
            se = np.std(v, ddof=1) / math.sqrt(draws)
            assert abs(level[0].value_at(0.5) - v.mean()) <= 4.0 * se, (delta, level[0].value_at(0.5), v.mean(), se)

    def test_exact_mean_of_the_quadratic_variation_is_the_closed_form(self, tmp_path):
        # the summary's exact_mean of a p = 2 row, from the table over all K modes (two levels: the K0 modes' sums
        # plus those past them; one level: all K at once), against the oracle's sum in closed form over the steps
        for name, replicates in (("two", 40), ("one", 2)):
            spec = two_level_spec(tmp_path / name, replicates=replicates,
                                  variations=(VariationRequest(r=-1.0, p=2.0, label="sub_p2"),
                                              VariationRequest(r=-0.5, p=2.0, label="crit_p2"),
                                              VariationRequest(r=-1.0, f=F_PRESETS["square"], label="sub_f")))
            run_convergence(spec)
            rows = json.loads((tmp_path / name / "two_summary.json").read_text())["rows"]
            assert len(rows) == 9 and all(("exact_mean" in row) == (row["request"] != "sub_f") for row in rows)
            for row in (row for row in rows if row["request"] != "sub_f"):
                r = -1.0 if row["request"] == "sub_p2" else -0.5
                tau_sq = tau_n(RegimeParams(r=r, gamma=1.0, domain=UNIT_PI_INTERVAL), row["delta"]) ** 2
                exact = oracles.expected_quadratic_variation(row["delta"], 1024, r, tau_sq=tau_sq)
                assert row["exact_mean"] == pytest.approx(exact, rel=1e-12)

    def test_thread_count_does_not_change_output(self, tmp_path):
        for threads in (1, 3):
            run_convergence(two_level_spec(tmp_path / str(threads)), threads=threads)
        one, three = ((tmp_path / t / "two_convergence.csv").read_bytes() for t in ("1", "3"))
        assert one == three
        one, three = (json.loads((tmp_path / t / "two_summary.json").read_text()) for t in ("1", "3"))
        assert one["levels"] == three["levels"] and one["rows"] == three["rows"]

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("make_spec", [tiny_spec, two_level_spec], ids=["one-level", "two-level"])
    def test_replicates_reuse_one_stream_buffer_per_thread(self, monkeypatch, threads, make_spec):
        # a stream buffer allocated per replicate is trimmed from the heap at its end and faulted in again; one flat
        # buffer per thread serves both levels' widths, as one kernel workspace of the top width does
        buffers, made = [], []
        real = simulator.normal_stream

        def spy(seed, width, buffer=None):
            buffers.append(buffer)
            return real(seed, width, buffer)

        monkeypatch.setattr(simulator, "normal_stream", spy)
        workspace = harness._kernel_workspace
        monkeypatch.setattr(harness, "_kernel_workspace", lambda modes: made.append(modes) or workspace(modes))
        spec = make_spec(replicates=12)
        run_convergence(spec, threads=threads)
        assert len(buffers) >= 12 and all(buffer is not None for buffer in buffers)
        assert 1 <= len({id(buffer) for buffer in buffers}) <= threads
        assert 1 <= len(made) <= threads and set(made) == {spec.sim.modes}

    def test_kernel_and_stream_buffers_start_on_64_byte_lines(self, monkeypatch):
        # numpy's binary loops write up to twice as slowly into an `out=` that does not start on a 64-byte boundary
        for modes in (32, 1000, 4096, 40001):
            work = harness._kernel_workspace(modes)
            assert work.shape[1] >= max(BLOCK_ELEMENTS, modes)
            assert all(buffer.ctypes.data % 64 == 0 for buffer in work)
        buffers = []
        real = simulator.normal_stream

        def spy(seed, width, buffer=None):
            buffers.append(buffer)
            return real(seed, width, buffer)

        monkeypatch.setattr(simulator, "normal_stream", spy)
        run_convergence(two_level_spec(replicates=4))
        assert buffers and all(buffer.ctypes.data % 64 == 0 for buffer in buffers)
        assert all(aligned_empty(size).ctypes.data % 64 == 0 for size in (1, 7, BLOCK_ELEMENTS))

    def test_sub_p2_means_lie_within_three_standard_errors_of_the_exact_model_mean(self):
        # the telescoped mean of the quadratic variation, here the f row sub_f, estimates the K-mode model's, whose
        # exact mean the oracle sums in closed form
        spec = two_level_spec(replicates=16)
        for seed in (1, 2, 3, 4, 5):
            rows = run_convergence(replace(spec, sim=replace(spec.sim, seed=seed)))
            for row in (row for row in rows if row.request_label == "sub_f"):
                tau_sq = tau_n(PARAMS, row.delta) ** 2
                exact = oracles.expected_quadratic_variation(row.delta, 1024, -1.0, tau_sq=tau_sq)
                assert abs(row.mean_V_at_T - exact) <= 3.0 * row.std_error, (seed, row)

    def test_coupled_replicate_peak_stays_within_the_single_level_budget(self):
        # one coupled replicate of converge_main's setup (K = 4096, K0 = 512), with its thread's kernel workspace and
        # stream buffer: one replicate of one level peaked at 1.35 MB before the two-level estimator, when its stream
        # allocated its own 256 KiB block, every series its own grid, and the norms outlived their series
        cfg = SimConfig(params=PARAMS, modes=4096, delta=2.0**-12, horizon=1.0, seed=1)
        requests = (VariationRequest(r=-1.0, p=2.0), VariationRequest(r=-1.0, p=4.0), VariationRequest(r=0.0, p=4.0))
        deltas = [2.0**-e for e in range(8, 13)]
        work, normals = harness._kernel_workspace(4096), np.empty(BLOCK_ELEMENTS)
        tracemalloc.start()
        try:
            variation_levels(cfg, iter_additive_states(cfg, normals), requests, deltas, work, 512)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.35e6 + 2**16


class TestLevelKernel:
    @pytest.mark.parametrize(
        "strides", [pytest.param((4, 2, 1), id="dyadic"), pytest.param((6, 3, 2, 1), id="odd")]
    )
    def test_levels_match_series_oracle_on_subsampled_path(self, strides):
        # level s of the streaming kernel equals the per-increment oracle on coeffs[::s] at mesh s * delta;
        # with strides 3 and 2 neither level reads a subset of the other's states
        delta = 1.0 / 384.0
        cfg = SimConfig(params=PARAMS, modes=32, delta=delta, horizon=1.0, seed=2024)
        requests = (
            VariationRequest(r=0.0, p=4.0),
            VariationRequest(r=-0.75, f=F_PRESETS["min_square_one"]),
            VariationRequest(r=-1.0, F=norm_power_functional(2.0)),
        )
        deltas = [delta * s for s in strides]
        path = simulate(cfg)
        got = variation_levels(cfg, iter_additive_states(cfg), requests, deltas)
        for level, s, level_delta in zip(got, strides, deltas):
            for series, req in zip(level, requests):
                tau = tau_n(RegimeParams(r=req.r, gamma=1.0, domain=UNIT_PI_INTERVAL), level_delta)
                ref = oracles.variation_series(path.coeffs[::s], path.eigenvalues, req, tau, level_delta)
                np.testing.assert_array_equal(series.times, level_delta * np.arange(len(ref)))
                np.testing.assert_allclose(series.values, ref, rtol=1e-12, atol=0.0)

    def test_series_do_not_depend_on_block_boundaries(self):
        # K = 512 gives sub-blocks of 64 fine rows; one block, 1-row blocks and 7-row blocks put the
        # sub-block edges at different states of every level.  The small blocks come through one reused
        # buffer, as from a stream, so a kernel that kept a view of a yielded state would read it overwritten
        delta = 1.0 / 384.0
        cfg = SimConfig(params=PARAMS, modes=512, delta=delta, horizon=1.0, seed=606)
        requests = (
            VariationRequest(r=-1.0, p=2.0),
            VariationRequest(r=-0.75, f=F_PRESETS["min_square_one"]),
            VariationRequest(r=-1.0, F=norm_power_functional(2.0)),
        )
        deltas = [delta * s for s in (6, 3, 2, 1)]
        rows = simulate(cfg).coeffs[1:]
        whole = variation_levels(cfg, [rows], requests, deltas)

        def reused(height):
            buf = np.empty((height, cfg.modes))
            for i in range(0, len(rows), height):
                block = buf[: len(rows) - i]
                block[:] = rows[i : i + height]
                yield block

        for height in (1, 7):
            got = variation_levels(cfg, reused(height), requests, deltas)
            for level, ref_level in zip(got, whole):
                for series, ref in zip(level, ref_level):
                    np.testing.assert_allclose(series.values, ref.values, rtol=1e-12, atol=0.0)

    def test_F_rule_checked_before_any_row_is_read(self):
        def unread():
            raise AssertionError("the kernel read a row")
            yield

        cfg = SimConfig(params=PARAMS, modes=8, delta=1.0 / 16.0, horizon=1.0)
        for r in (-0.5, 0.0):
            req = VariationRequest(r=r, F=norm_power_functional(2.0))
            with pytest.raises(ValueError, match=r"r < -d/2 = -0.5"):
                variation_levels(cfg, unread(), (req,), (cfg.delta,))

    @pytest.mark.parametrize("state,bad,message", [
        pytest.param(12, np.nan, r"increment i = 3 at delta = 0\.25$", id="nan-at-coarse-level"),
        pytest.param(13, np.inf, r"increment i = 13 at delta = 0\.0625$", id="inf-at-finest-level"),
    ])
    def test_non_finite_state_rejected(self, state, bad, message):
        # a streamed path has no finite check of its own; the kernel names the first bad increment of the
        # coarsest level that reads the state (state 12 is increment 3 at stride 4; state 13 is read at stride 1 only)
        cfg = SimConfig(params=PARAMS, modes=8, delta=1.0 / 16.0, horizon=1.0)
        rows = np.vstack([block.copy() for block in iter_additive_states(cfg)])
        rows[state - 1] = bad
        with pytest.raises(ValueError, match=message):
            variation_levels(cfg, [rows], (VariationRequest(r=-1.0, p=2.0),), (0.25, 0.125, cfg.delta))

    def test_non_finite_state_is_named_before_F_reads_it(self):
        # F would see the bad increment in its block; the path check names it instead, as for a power request
        cfg = SimConfig(params=PARAMS, modes=8, delta=1.0 / 16.0, horizon=1.0)
        rows = np.vstack([block.copy() for block in iter_additive_states(cfg)])
        rows[11] = np.nan
        req = VariationRequest(r=-1.0, F=norm_power_functional(2.0))
        with pytest.raises(ValueError, match=r"the path is not finite: increment i = 3 at delta = 0\.25$"):
            variation_levels(cfg, [rows], (req,), (0.25, 0.125, cfg.delta))

    def test_short_path_rejected(self):
        cfg = SimConfig(params=PARAMS, modes=8, delta=1.0 / 16.0, horizon=1.0)
        path = simulate(cfg)
        with pytest.raises(ValueError, match="ended after 10 of its 16 states"):
            variation_levels(cfg, [path.coeffs[1:11]], (VariationRequest(r=-1.0, p=2.0),), (cfg.delta,))


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
        # 5 levels: the 95% interval is the slope -+ t_{3, 0.975} standard errors
        assert est.ci_high - est.slope == pytest.approx(3.182446305283708 * est.stderr, rel=1e-12)

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

    @staticmethod
    def level_weights(modes, grid, t, r=-1.0):
        """The exact weights lam^r w(delta_l), shape (modes, levels), built here."""
        lam = eigenvalues(UNIT_PI_INTERVAL, modes)
        return np.stack([lam**r * ou_increment_variance(lam, 1.0, delta, t + delta) for delta in grid], axis=1)

    @staticmethod
    def reduce(xi, a, starts):
        """(xi o xi) @ a, one product per row group starting at `starts`, so that each product keeps the BLAS row
        grouping of the harness's: the 256 KiB blocks of the stream."""
        ends = [*starts[1:], len(xi)]
        return np.concatenate([(xi[i:j] * xi[i:j]) @ a for i, j in zip(starts, ends)])

    @classmethod
    def shared_draw(cls, seed, replicates, modes, grid, t):
        """Per-sample level norms ||Delta_l|| = sqrt((xi o xi) @ A[:, l]), xi one rng_for(seed) draw of
        (replicates, modes) normals: the one-level estimator."""
        a = cls.level_weights(modes, grid, t)
        xi = rng_for(seed).standard_normal((replicates, modes))
        return a, cls.reduce(xi, a, range(0, replicates, 2**15 // modes))

    @staticmethod
    def slope_gradient(spec, means):
        x = np.log(np.asarray(spec.delta_grid))
        return (x - x.mean()) / (np.sum((x - x.mean()) ** 2) * means)

    @classmethod
    def ladder_draw(cls, spec, t, r):
        """The ladder estimator's per-sample terms, recomputed: K_0 < .. < K_L = K at a ratio of 8 while K_0 >= 64
        and M >= 3; the norms of level 0's samples at K_0 modes from rng_for(seed), and the differences
        ||Delta||_K_l - ||Delta||_K_(l-1) of level l's rows of K_l normals from rng_for(derive_seed(seed, l)),
        the K_(l-1) norm from a row's first K_(l-1) columns.  Level 0 first draws M rows and level l
        max(2, ceil(M K_0 / (8 K_l))); Giles' rule then sizes each level twice for the variance V_0 / M of M base
        samples, V_l the variance of its terms times the slope's gradient, and each draw is a row group of its
        own.  Returns the ladder, the terms and the V_l of the last rule."""
        seed, m, grid = spec.sim.seed, spec.replicates, spec.delta_grid
        ladder = [spec.sim.modes]
        while ladder[0] // 8 >= 64 and m >= 3:
            ladder.insert(0, ladder[0] // 8)
        a = cls.level_weights(ladder[-1], grid, t, r)
        rngs = [rng_for(derive_seed(seed, l) if l else seed) for l in range(len(ladder))]
        terms = [np.empty((0, len(grid))) for _ in ladder]

        def draw(l, rows):
            k = ladder[l]
            xi = rngs[l].standard_normal((rows, k))
            starts = range(0, rows, 2**15 // k)
            new = np.sqrt(cls.reduce(xi, a[:k], starts))
            if l:
                new -= np.sqrt(cls.reduce(xi[:, : ladder[l - 1]], a[: ladder[l - 1]], starts))
            terms[l] = np.concatenate([terms[l], new])

        want = [m] + [max(2, math.ceil(m * ladder[0] / (8 * k))) for k in ladder[1:]]
        v = None
        for rule in range(3 if len(ladder) > 1 else 1):
            if rule:
                g = cls.slope_gradient(spec, sum(part.mean(axis=0) for part in terms))
                v = [float(np.var(part @ g, ddof=1)) for part in terms]
                scale = sum(math.sqrt(vl * k) for vl, k in zip(v, ladder)) * m / v[0]
                want = [max(len(part), math.ceil(scale * math.sqrt(vl / k))) for part, vl, k in zip(terms, v, ladder)]
            for l, rows in enumerate(want):
                if rows > len(terms[l]):
                    draw(l, rows - len(terms[l]))
        return ladder, terms, v

    @pytest.fixture(scope="class")
    def shared(self):
        # 400 rows and 504 modes, K0 = 63 below MIN_BASE_MODES: one level, blocks of 65 rows
        sim = SimConfig(params=PARAMS, modes=504, delta=1.0 / 16.0, horizon=2.0, seed=8)
        grid = tuple(2.0**-e for e in range(4, 8))
        spec = ExperimentSpec(
            name="holder", sim=sim, variations=(VariationRequest(r=-1.0, p=2.0),),
            delta_grid=grid, replicates=400,
        )
        return spec, estimate_holder(spec, -1.0), *self.shared_draw(8, 400, 504, grid, 1.0)

    @pytest.fixture(scope="class", params=[
        # the shipped holder_super shape at r = 0.25: base rows at 256 modes, coupled rows at 2048
        pytest.param((2048, 0.25, range(8, 12)), id="two-levels"),
        # 64, 512 and 4096 modes, the ladder of the criterion-5 config at r = 0
        pytest.param((4096, 0.0, range(6, 10)), id="three-levels"),
    ])
    def ladder(self, request):
        modes, r, exponents = request.param
        sim = SimConfig(params=replace(PARAMS, r=r), modes=modes, delta=1.0 / 64.0, horizon=2.0, seed=8)
        spec = ExperimentSpec(
            name="holder", sim=sim, variations=(VariationRequest(r=r, p=2.0),),
            delta_grid=tuple(2.0**-e for e in exponents), replicates=400,
        )
        return spec, estimate_holder(spec, r), *self.ladder_draw(spec, 1.0, r)

    def test_mean_norms_match_the_bulk_draw_bit_for_bit(self, shared):
        spec, est, _, sq = shared
        norms = np.sqrt(sq)
        variance = float(np.var(norms @ self.slope_gradient(spec, norms.mean(axis=0)), ddof=1))
        assert est.levels == ({"modes": 504, "replicates": 400, "normals": 504 * 400, "variance": variance},)
        assert est.mean_norms == tuple(float(v) for v in norms.mean(axis=0))

    def test_too_few_replicates_for_two_levels_is_the_bulk_draw_bit_for_bit(self):
        # M = 2 at K = 4096: one level, whose two samples are the first two rows of the seed's stream
        sim = SimConfig(params=PARAMS, modes=4096, delta=1.0 / 16.0, horizon=2.0, seed=8)
        grid = tuple(2.0**-e for e in range(4, 8))
        spec = ExperimentSpec(
            name="holder", sim=sim, variations=(VariationRequest(r=-1.0, p=2.0),),
            delta_grid=grid, replicates=2,
        )
        est = estimate_holder(spec, -1.0)
        norms = np.sqrt(self.shared_draw(8, 2, 4096, grid, 1.0)[1])
        assert [(lv["modes"], lv["replicates"]) for lv in est.levels] == [(4096, 2)]
        assert est.mean_norms == tuple(float(v) for v in norms.mean(axis=0))

    def test_ladder_mean_norms_telescope_every_stream_bit_for_bit(self, ladder):
        spec, est, modes, terms, variances = ladder
        assert modes == harness._mode_ladder(spec) == [spec.sim.modes // 8 ** (len(modes) - 1 - l)
                                                       for l in range(len(modes))]
        assert len(modes) == (2 if spec.sim.modes == 2048 else 3)
        assert [{**lv, "variance": pytest.approx(lv["variance"], rel=1e-12)} for lv in est.levels] == [
            {"modes": k, "replicates": len(part), "normals": k * len(part), "variance": v}
            for k, part, v in zip(modes, terms, variances)]
        assert est.mean_norms == tuple(float(v) for v in sum(part.mean(axis=0) for part in terms))
        # level 0 takes at least the M samples whose variance the rule aims at, and each level keeps its pilots
        assert len(terms[0]) >= spec.replicates
        assert all(len(part) >= max(2, math.ceil(400 * modes[0] / (8 * k))) for part, k in zip(terms[1:], modes[1:]))

    def test_every_level_matches_its_exact_moments(self, shared):
        # ||Delta_l||^2 = sum_k a_lk xi_k^2 has mean sum_k a_lk (the increment weights' sum at K modes) and
        # variance 2 sum_k a_lk^2
        spec, _, a, sq = shared
        m = spec.replicates
        for level, delta in enumerate(spec.delta_grid):
            exact = float(increment_weights(PARAMS, delta, 1.0 + delta, spec.sim.modes).sum())
            se = math.sqrt(2.0 * float(np.sum(a[:, level] ** 2)) / m)
            assert abs(float(np.mean(sq[:, level])) - exact) < 3.0 * se, delta

    def test_mc_stderr_is_the_delta_method_error_of_the_slope(self, shared):
        spec, est, _, sq = shared
        norms = np.sqrt(sq)
        g = self.slope_gradient(spec, norms.mean(axis=0))
        cov = np.cov(norms, rowvar=False)
        assert est.mc_stderr == pytest.approx(math.sqrt(g @ cov @ g / spec.replicates), rel=1e-10)
        assert est.mean_norm_stderr == pytest.approx(np.sqrt(np.diag(cov) / spec.replicates), rel=1e-10)
        assert est.to_json()["mc_stderr"] == est.mc_stderr
        assert est.to_json()["mean_norm_stderr"] == list(est.mean_norm_stderr)
        one = estimate_holder(replace(spec, replicates=1), -1.0)
        assert math.isnan(one.mc_stderr) and one.to_json()["mc_stderr"] is None
        assert one.to_json()["mean_norm_stderr"] == [None] * 4 and one.levels[0]["variance"] is None

    def test_ladder_mc_stderr_telescopes_the_delta_method_error(self, ladder):
        # sqrt(sum_l g' C_l g / M_l), C_l the covariance of level l's terms and g the slope's gradient at the
        # telescoped means; each mean norm's error telescopes the diagonals the same way
        spec, est, _, terms, _ = ladder
        g = self.slope_gradient(spec, sum(part.mean(axis=0) for part in terms))
        covs = [np.cov(part, rowvar=False) / len(part) for part in terms]
        assert est.mc_stderr == pytest.approx(math.sqrt(sum(g @ cov @ g for cov in covs)), rel=1e-10)
        assert est.mean_norm_stderr == pytest.approx(np.sqrt(sum(np.diag(cov) for cov in covs)), rel=1e-10)
        assert est.to_json()["mc_stderr"] == est.mc_stderr
        assert est.to_json()["levels"] == list(est.levels)

    def test_giles_counts_size_the_levels_for_the_variance_of_M_base_samples(self):
        # terms whose slope terms have the variances V = (2.25, 1, 0.25) at K = (1, 4, 16): sum_j sqrt(V_j K_j) =
        # 5.5 and eps^2 = 2.25 / M, so M_l = 5.5 sqrt(V_l / K_l) M / 2.25 = (3.667, 1.222, 0.306) M
        x = np.log(np.array([0.5, 0.25]))
        rng = np.random.default_rng(1)
        g = harness._slope_gradient(x, np.ones(2))
        terms = []
        for v in (2.25, 1.0, 0.25):
            z = rng.standard_normal(50)
            z = (z - z.mean()) / z.std(ddof=1) * math.sqrt(v)  # slope terms of sample variance v, mean 0
            terms.append(np.outer(z, g) / (g @ g))
        terms[0] += 1.0  # the telescoped means are 1, where g was taken
        counts, variances = harness._giles_counts(terms, [1, 4, 16], 40, x)
        assert variances == pytest.approx([2.25, 1.0, 0.25], rel=1e-12)
        assert counts == [147, 50, 50]  # 49 and 13 are fewer than the 50 rows drawn
        assert harness._giles_counts(terms, [1, 4, 16], 400, x)[0] == [1467, 489, 123]
        terms[0][:] = 1.0  # a base level whose samples do not vary: the rows drawn
        assert harness._giles_counts(terms, [1, 4, 16], 40, x)[0] == [50, 50, 50]

    @staticmethod
    def count_normals(monkeypatch):
        drawn = []

        class Counting:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, *args, **kwargs):
                out = self.rng.standard_normal(*args, **kwargs)
                drawn.append(np.size(out))
                return out

        real = simulator._rng_for
        monkeypatch.setattr(simulator, "_rng_for", lambda seed: Counting(real(seed)))
        return drawn

    @pytest.mark.parametrize("levels", [4, 7])
    def test_draws_replicates_times_modes_normals_whatever_the_levels(self, monkeypatch, levels):
        drawn = self.count_normals(monkeypatch)
        sim = SimConfig(params=PARAMS, modes=300, delta=1.0 / 16.0, horizon=2.0, seed=5)
        spec = ExperimentSpec(
            name="holder", sim=sim, variations=(VariationRequest(r=-1.0, p=2.0),),
            delta_grid=tuple(2.0**-e for e in range(4, 4 + levels)), replicates=250,
        )
        est = estimate_holder(spec, -1.0)
        assert sum(drawn) == 250 * 300 == est.levels[0]["normals"] and len(est.levels) == 1

    @pytest.mark.parametrize("levels", [4, 7])
    def test_ladder_draws_samples_times_modes_normals_whatever_the_levels(self, monkeypatch, levels):
        # sum_l M_l K_l normals, as the levels block says
        drawn = self.count_normals(monkeypatch)
        sim = SimConfig(params=PARAMS, modes=4096, delta=1.0 / 16.0, horizon=2.0, seed=5)
        spec = ExperimentSpec(
            name="holder", sim=sim, variations=(VariationRequest(r=0.0, p=2.0),),
            delta_grid=tuple(2.0**-e for e in range(4, 4 + levels)), replicates=250,
        )
        est = estimate_holder(spec, 0.0)
        assert [lv["modes"] for lv in est.levels] == [64, 512, 4096] and est.levels[0]["replicates"] >= 250
        assert sum(drawn) == sum(lv["modes"] * lv["replicates"] for lv in est.levels)
        assert sum(drawn) == sum(lv["normals"] for lv in est.levels)

    @pytest.mark.parametrize(("modes", "replicates", "want"), [
        (504, 400, [504]),  # K0 = 63 < MIN_BASE_MODES
        (512, 400, [64, 512]),
        (4096, 2, [4096]),  # M K0 / K + 2 >= M
        (4096, 3, [64, 512, 4096]),
        (16384, 3, [256, 2048, 16384]),  # 32 < MIN_BASE_MODES
        # both sides of each edge: K0 = 63 against 64 at K = 511 and 512, a third rung of 63 against 64 at K = 4095
        # and 4096, and M = 2 against 3
        (511, 2, [511]),
        (511, 3, [511]),
        (512, 2, [512]),
        (512, 3, [64, 512]),
        (4095, 2, [4095]),
        (4095, 3, [511, 4095]),
    ])
    def test_ladder_runs_where_base_modes_allows(self, modes, replicates, want):
        sim = SimConfig(params=PARAMS, modes=modes, delta=1.0 / 16.0, horizon=2.0, seed=13)
        spec = ExperimentSpec(
            name="holder", sim=sim, variations=(VariationRequest(r=-1.0, p=2.0),),
            delta_grid=tuple(2.0**-e for e in range(4, 8)), replicates=replicates,
        )
        assert [lv["modes"] for lv in estimate_holder(spec, -1.0).levels] == want == harness._mode_ladder(spec)

    def test_smallest_two_level_run_matches_the_exact_mean_norms(self):
        # K = 512, M = 400: every level's mean norm lies within 3 telescoped standard errors
        # sqrt(s0^2 / M0 + s1^2 / M1) of the exact E||Delta_l|| of the 512-mode model
        sim = SimConfig(params=PARAMS, modes=512, delta=1.0 / 16.0, horizon=2.0, seed=29)
        grid = tuple(2.0**-e for e in range(4, 8))
        spec = ExperimentSpec(
            name="holder", sim=sim, variations=(VariationRequest(r=-1.0, p=2.0),),
            delta_grid=grid, replicates=400,
        )
        est = estimate_holder(spec, -1.0, t=1.0)
        assert [lv["modes"] for lv in est.levels] == [64, 512]
        a = self.level_weights(512, grid, 1.0)
        for level, (mean, se) in enumerate(zip(est.mean_norms, est.mean_norm_stderr)):
            assert abs(mean - oracles.exact_mean_norm(a[:, level])) < 3.0 * se, grid[level]

    def test_mc_stderr_is_calibrated_on_the_three_level_config(self):
        # the criterion-5 config at r = 0 (K = 4096 on 64 / 512 / 4096 modes, M = 800, T = 4) on 40 seeds:
        # (n - 1) (slope sd / mean mc_stderr)^2 lies in the 99.9% band of chi^2 with n - 1 = 39 degrees
        n = 40
        slopes, errors = [], []
        for seed in range(2000, 2000 + n):
            sim = SimConfig(params=replace(PARAMS, r=0.0), modes=4096, delta=2.0**-4, horizon=4.0, seed=seed)
            spec = ExperimentSpec(
                name="holder", sim=sim, variations=(VariationRequest(r=0.0, p=2.0),),
                delta_grid=tuple(2.0**-e for e in range(6, 13)), replicates=800,
            )
            est = estimate_holder(spec, 0.0)
            assert len(est.levels) == 3
            slopes.append(est.slope)
            errors.append(est.mc_stderr)
        stat = (n - 1) * (np.std(slopes, ddof=1) / np.mean(errors)) ** 2
        assert chi2.ppf(0.0005, n - 1) < stat < chi2.ppf(0.9995, n - 1), stat

    def test_coupled_k0_norms_are_the_norms_of_the_first_k0_columns(self):
        xi = rng_for(31).standard_normal((40, 600))
        w = rng_for(32).uniform(0.5, 1.5, (600, 5))
        out = np.empty((2, 40, 5))
        assert harness._reduce_normals([xi[:24].copy(), xi[24:].copy()], w, out, 75) == 40
        for rows in (slice(0, 24), slice(24, 40)):
            assert np.array_equal(out[1, rows], (xi[rows, :75] * xi[rows, :75]) @ w[:75])
            assert np.array_equal(out[0, rows], (xi[rows] * xi[rows]) @ w)

    def test_memory_does_not_grow_with_replicates(self):
        # one (400, 8192) float64 array is 26 MB; the stream holds one 256 KiB block at a time
        sim = SimConfig(params=PARAMS, modes=8192, delta=1.0 / 16.0, horizon=2.0, seed=3)
        spec = ExperimentSpec(
            name="holder", sim=sim, variations=(VariationRequest(r=-1.0, p=2.0),),
            delta_grid=tuple(2.0**-e for e in range(4, 8)), replicates=400,
        )
        tracemalloc.start()
        try:
            estimate_holder(spec, -1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6

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


class TestTQuantile:
    """`_t_quantile` solves the closed-form Student t distribution of integer degrees of freedom."""

    @pytest.mark.parametrize("p", [0.9, 0.975, 0.995])
    def test_matches_scipys_stdtrit(self, p):
        # the worst relative gap is 1.2e-14 (df = 1, p = 0.995: the quantile 63.7 sits where t = tan theta
        # magnifies the rounding of theta); against a 40-digit root it is 103 ulps there and at most 37 ulps
        # elsewhere up to df = 200, and stdtrit is itself 62 ulps off at df = 6, p = 0.995.  Taking log c^2 as
        # 2 log cos theta also where theta is small would miss by 1.6e-13 at df = 5000
        from scipy.special import stdtrit

        for df in [*range(1, 201), 500, 1000, 2000, 5000]:
            want = float(stdtrit(df, p))
            assert _t_quantile(p, df) == pytest.approx(want, rel=2e-14, abs=0.0), df
            assert _t_quantile(1.0 - p, df) == -_t_quantile(p, df)

    @pytest.mark.parametrize("p", [0.6, 0.9, 0.975, 0.995])
    def test_closed_forms_of_one_and_two_degrees(self, p):
        assert _t_quantile(p, 1) == pytest.approx(math.tan(math.pi * (p - 0.5)), rel=2e-14, abs=0.0)
        assert _t_quantile(p, 2) == pytest.approx((2.0 * p - 1.0) / math.sqrt(2.0 * p * (1.0 - p)), rel=2e-14,
                                                  abs=0.0)

    def test_median_is_zero(self):
        assert [_t_quantile(0.5, df) for df in (1, 2, 7)] == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("df", [0, -3, 2.5, math.nan, math.inf])
    def test_rejects_degrees_of_freedom_that_are_not_positive_integers(self, df):
        with pytest.raises(ValueError, match="degrees of freedom"):
            _t_quantile(0.975, df)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, math.nan])
    def test_rejects_a_probability_outside_the_open_unit_interval(self, p):
        with pytest.raises(ValueError, match="probability"):
            _t_quantile(p, 3)


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
