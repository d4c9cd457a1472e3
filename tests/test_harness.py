import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

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
    """A two-level experiment: its base level has 1024 // LEVEL_RATIO = 128 modes."""
    base = dict(
        name="two",
        sim=SimConfig(params=PARAMS, modes=1024, delta=2.0**-8, horizon=1.0, seed=808),
        # at r = 0.25 the modes past K0 weigh enough in V_K - V_K0 that the rule asks for more than the pilots
        variations=(VariationRequest(r=-1.0, p=2.0, label="sub_p2"), VariationRequest(r=0.25, p=4.0, label="super_p4")),
        delta_grid=(2.0**-6, 2.0**-7, 2.0**-8),
        replicates=40,
        output_dir=tmp_path,
    )
    base.update(kwargs)
    return ExperimentSpec(**base)


class TestTwoLevels:
    def test_two_levels_run_only_where_they_can_pay(self):
        spec = two_level_spec()
        assert harness._base_modes(spec) == 1024 // harness.LEVEL_RATIO == 128
        assert harness._base_modes(two_level_spec(replicates=3)) == 128  # 3 * 128 / 1024 + 2 pilots < 3
        # the smallest two-level experiment has K = 512, whose base level has MIN_BASE_MODES modes
        smallest = replace(spec.sim, modes=512)
        assert harness._base_modes(two_level_spec(sim=smallest)) == harness.MIN_BASE_MODES == 64
        # one level under a field sigma, with a base level below the crossover, and with too few replicates
        field = replace(spec.sim, sigma=SIGMA_PRESETS["sin_x"], spatial_grid=2048)
        assert harness._base_modes(two_level_spec(sim=field)) is None
        assert harness._base_modes(two_level_spec(sim=replace(spec.sim, modes=504))) is None  # K0 = 63
        assert harness._base_modes(two_level_spec(replicates=2)) is None
        assert harness._base_modes(two_level_spec(sim=smallest, replicates=2)) is None

    def test_smallest_two_level_run_with_f_and_F_requests(self, monkeypatch, tmp_path):
        # K = 512 takes two levels: the M base replicates at 64 modes, and the coupled level reduces f and F on the
        # first 64 columns of each K-mode path as well.  A general F does not serialize to JSON, so the summary's
        # `levels` block is taken where it is handed to the writer
        written = []
        monkeypatch.setattr(harness, "_write_convergence", lambda spec, rows, mc_levels: written.append(mc_levels))
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
        assert harness._correction_replicates(1 / 8, base, pilots) == harness.PILOT_REPLICATES
        # V1 / V0 = 1.62 on one row and 0.5 on another: 10 sqrt(1.62 / 8) = 4.5 rounds up to 5
        pilots[0, 1, 1] = math.sqrt(2.0 * 1.62 * v0[0, 1])
        pilots[1, 1, 0] = math.sqrt(2.0 * 0.5 * v0[1, 0])
        assert harness._correction_replicates(1 / 8, base, pilots) == 5
        assert harness._correction_replicates(1.0, base, pilots) == 10
        base[1, :, 1] = 1.0  # a row whose base values do not vary, and whose pilots do
        pilots[1, 1, 1] = 1e-9
        assert harness._correction_replicates(1 / 8, base, pilots) == 10

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

    def test_draws_M_n_K0_plus_M1_n_K_normals(self, monkeypatch, tmp_path):
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
        run_convergence(two_level_spec(tmp_path))
        levels = json.loads((tmp_path / "two_summary.json").read_text())["levels"]
        (k0, m), (k, m1) = ((level["modes"], level["replicates"]) for level in levels)
        # the rule takes more than the pilots here, so the correction level runs in two rounds
        assert (k0, m, k) == (128, 40, 1024) and harness.PILOT_REPLICATES < m1 < m
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
        m1 = harness._correction_replicates(1 / 8, *(np.stack([v for v, _ in part], 1) for part in (base, coupled)))
        coupled += [reduce(m + j, 1024, 128) for j in range(harness.PILOT_REPLICATES, m1)]
        for i, row in enumerate(rows):
            lv, j = divmod(i, 2)
            v0, v1 = (np.array([v[lv, j] for v, _ in part]) for part in (base, coupled))
            s0, s1 = (np.array([s[lv, j] for _, s in part]) for part in (base, coupled))
            assert row.mean_V_at_T == pytest.approx(v0.mean() + v1.mean(), rel=1e-12)
            se = math.sqrt(np.var(v0, ddof=1) / m + np.var(v1, ddof=1) / m1)
            assert row.std_error == pytest.approx(se, rel=1e-12)
            assert row.sup_error_over_grid == pytest.approx(s0.mean() + s1.mean(), rel=1e-12)

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
        real = simulator.iter_normal_blocks

        def spy(seed, rows, width, buffer=None):
            buffers.append(buffer)
            return real(seed, rows, width, buffer)

        monkeypatch.setattr(simulator, "iter_normal_blocks", spy)
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
        real = simulator.iter_normal_blocks

        def spy(seed, rows, width, buffer=None):
            buffers.append(buffer)
            return real(seed, rows, width, buffer)

        monkeypatch.setattr(simulator, "iter_normal_blocks", spy)
        run_convergence(two_level_spec(replicates=4))
        assert buffers and all(buffer.ctypes.data % 64 == 0 for buffer in buffers)
        assert all(aligned_empty(size).ctypes.data % 64 == 0 for size in (1, 7, BLOCK_ELEMENTS))

    def test_sub_p2_means_lie_within_three_standard_errors_of_the_exact_model_mean(self):
        # the telescoped mean estimates the K-mode model's, whose exact mean the oracle sums in closed form
        spec = two_level_spec(replicates=16)
        for seed in (1, 2, 3, 4, 5):
            rows = run_convergence(replace(spec, sim=replace(spec.sim, seed=seed)))
            for row in (row for row in rows if row.request_label == "sub_p2"):
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

    @classmethod
    def two_level_draw(cls, seed, replicates, modes, grid, t, m1, r=-1.0):
        """The two-level estimator's per-sample terms: the base norms of M draws of K0 = K / 8 normals from
        rng_for(seed), and the differences ||Delta||_K - ||Delta||_K0 of M1 rows of K normals from
        rng_for(derive_seed(seed, 1)), the K0 norm from a row's first K0 columns; the pilots' 2 rows are a
        row group of their own."""
        k0 = modes // 8
        a = cls.level_weights(modes, grid, t, r)
        base = np.sqrt(cls.reduce(rng_for(seed).standard_normal((replicates, k0)), a[:k0],
                                  range(0, replicates, 2**15 // k0)))
        xi = rng_for(derive_seed(seed, 1)).standard_normal((m1, modes))
        starts = [0, *range(2, m1, 2**15 // modes)]
        full = np.sqrt(cls.reduce(xi, a, starts))
        head = np.sqrt(cls.reduce(xi[:, :k0], a[:k0], starts))
        return base, full - head

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

    @pytest.fixture(scope="class")
    def two_level(self):
        # 400 rows and 2048 modes (the shipped holder_super shape): base blocks of 128 rows at 256 modes, and at
        # r = 0.25 M1 = 30 coupled rows at 2048, the 2 pilots and then blocks of 16 and 12 rows
        sim = SimConfig(params=replace(PARAMS, r=0.25), modes=2048, delta=1.0 / 256.0, horizon=2.0, seed=8)
        grid = tuple(2.0**-e for e in range(8, 12))
        spec = ExperimentSpec(
            name="holder", sim=sim, variations=(VariationRequest(r=0.25, p=2.0),),
            delta_grid=grid, replicates=400,
        )
        est = estimate_holder(spec, 0.25)
        m1 = est.levels[1]["replicates"]
        return spec, est, *self.two_level_draw(8, 400, 2048, grid, 1.0, m1, r=0.25)

    def test_mean_norms_match_the_bulk_draw_bit_for_bit(self, shared):
        _, est, _, sq = shared
        assert est.levels == ({"modes": 504, "replicates": 400, "normals": 504 * 400},)
        assert est.mean_norms == tuple(float(v) for v in np.sqrt(sq).mean(axis=0))

    def test_two_level_mean_norms_telescope_the_two_streams_bit_for_bit(self, two_level):
        spec, est, base, diff = two_level
        m1 = len(diff)
        assert m1 == 30
        assert est.levels == ({"modes": 256, "replicates": 400, "normals": 256 * 400},
                              {"modes": 2048, "replicates": m1, "normals": 2048 * m1})
        assert est.mean_norms == tuple(float(v) for v in base.mean(axis=0) + diff.mean(axis=0))
        # the 2 pilot rows fix M1 by Giles' rule, and are kept
        assert m1 == harness._correction_replicates(256 / 2048, base.T[:, :, None], diff[:2].T[:, :, None])

    def test_every_level_matches_its_exact_moments(self, shared):
        # ||Delta_l||^2 = sum_k a_lk xi_k^2 has mean sum_k a_lk (the increment weights' sum at K modes) and
        # variance 2 sum_k a_lk^2
        spec, _, a, sq = shared
        m = spec.replicates
        for level, delta in enumerate(spec.delta_grid):
            exact = float(increment_weights(PARAMS, delta, 1.0 + delta, spec.sim.modes).sum())
            se = math.sqrt(2.0 * float(np.sum(a[:, level] ** 2)) / m)
            assert abs(float(np.mean(sq[:, level])) - exact) < 3.0 * se, delta

    @staticmethod
    def slope_gradient(spec, means):
        x = np.log(np.asarray(spec.delta_grid))
        return (x - x.mean()) / (np.sum((x - x.mean()) ** 2) * means)

    def test_mc_stderr_is_the_delta_method_error_of_the_slope(self, shared):
        spec, est, _, sq = shared
        norms = np.sqrt(sq)
        g = self.slope_gradient(spec, norms.mean(axis=0))
        cov = np.cov(norms, rowvar=False)
        assert est.mc_stderr == pytest.approx(math.sqrt(g @ cov @ g / spec.replicates), rel=1e-10)
        assert est.to_json()["mc_stderr"] == est.mc_stderr
        one = estimate_holder(replace(spec, replicates=1), -1.0)
        assert math.isnan(one.mc_stderr) and one.to_json()["mc_stderr"] is None

    def test_two_level_mc_stderr_telescopes_the_delta_method_error(self, two_level):
        # sqrt(g' C0 g / M + g' C1 g / M1), C0 the covariance of the base norms, C1 that of the coupled
        # differences, and g the slope's gradient at the two-level means
        spec, est, base, diff = two_level
        g = self.slope_gradient(spec, base.mean(axis=0) + diff.mean(axis=0))
        var = [g @ np.cov(part, rowvar=False) @ g / len(part) for part in (base, diff)]
        assert est.mc_stderr == pytest.approx(math.sqrt(sum(var)), rel=1e-10)
        assert est.to_json()["mc_stderr"] == est.mc_stderr
        assert est.to_json()["levels"] == list(est.levels)

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
    def test_two_levels_draw_base_and_coupled_normals_whatever_the_levels(self, monkeypatch, levels):
        # M K0 + M1 K normals, as the levels block says; M1 is the same at every block size
        drawn = self.count_normals(monkeypatch)
        sim = SimConfig(params=PARAMS, modes=4096, delta=1.0 / 16.0, horizon=2.0, seed=5)
        spec = ExperimentSpec(
            name="holder", sim=sim, variations=(VariationRequest(r=0.0, p=2.0),),
            delta_grid=tuple(2.0**-e for e in range(4, 4 + levels)), replicates=250,
        )
        est = estimate_holder(spec, 0.0)
        (k0, m), (k, m1) = ((lv["modes"], lv["replicates"]) for lv in est.levels)
        assert (k0, m, k) == (512, 250, 4096) and 2 <= m1 <= 250
        assert sum(drawn) == m * k0 + m1 * k == sum(lv["normals"] for lv in est.levels)

    @pytest.mark.parametrize(("modes", "replicates", "want"), [
        (504, 400, [504]),  # K0 = 63 < MIN_BASE_MODES
        (512, 400, [64, 512]),
        (4096, 2, [4096]),  # M K0 / K + 2 >= M
        (4096, 3, [512, 4096]),
    ])
    def test_two_levels_run_where_base_modes_allows(self, modes, replicates, want):
        sim = SimConfig(params=PARAMS, modes=modes, delta=1.0 / 16.0, horizon=2.0, seed=13)
        spec = ExperimentSpec(
            name="holder", sim=sim, variations=(VariationRequest(r=-1.0, p=2.0),),
            delta_grid=tuple(2.0**-e for e in range(4, 8)), replicates=replicates,
        )
        assert [lv["modes"] for lv in estimate_holder(spec, -1.0).levels] == want
        assert harness._base_modes(spec) == (want[0] if len(want) == 2 else None)

    def test_smallest_two_level_run_matches_the_exact_mean_norms(self):
        # K = 512, M = 400: every level's mean norm lies within 3 two-level standard errors
        # sqrt(s0^2 / M + s1^2 / M1) of the exact E||Delta_l|| of the 512-mode model
        sim = SimConfig(params=PARAMS, modes=512, delta=1.0 / 16.0, horizon=2.0, seed=29)
        grid = tuple(2.0**-e for e in range(4, 8))
        spec = ExperimentSpec(
            name="holder", sim=sim, variations=(VariationRequest(r=-1.0, p=2.0),),
            delta_grid=grid, replicates=400,
        )
        est = estimate_holder(spec, -1.0, t=1.0)
        assert [lv["modes"] for lv in est.levels] == [64, 512]
        base, diff = self.two_level_draw(29, 400, 512, grid, 1.0, est.levels[1]["replicates"])
        a = self.level_weights(512, grid, 1.0)
        for level, mean in enumerate(est.mean_norms):
            se = math.hypot(*(np.std(part[:, level], ddof=1) / math.sqrt(len(part)) for part in (base, diff)))
            assert abs(mean - oracles.exact_mean_norm(a[:, level])) < 3.0 * se, grid[level]

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
