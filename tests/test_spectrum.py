import math

import numpy as np
import pytest
from scipy import integrate, special

from spde_pv import spectrum
from spde_pv._version import rng_for
from spde_pv.spectrum import (
    DomainSpec,
    UNIT_PI_INTERVAL,
    adaptive_quad,
    composite_gauss_legendre,
    eigenfunction_values,
    eigenvalues,
    spectral_zeta,
    weyl_constant,
)

import oracles

PI = math.pi
BOX_2D = DomainSpec((PI, PI))


def box_points(sides, n=200):
    """n uniform points in the box, shape (n, d); random, so no mode vanishes or aliases on all of them."""
    return rng_for(3).uniform(0.0, np.asarray(sides), size=(n, len(sides)))


def assert_matches_oracle(dom, count, pts):
    """Eigenvalues and eigenfunction columns of the package against the brute-force multi-index order."""
    expected = oracles.brute_force_box_eigenvalues(dom.sides, count, m_cap=40)
    assert eigenvalues(dom, count) == pytest.approx([lam for lam, _ in expected], rel=1e-12)
    phi = eigenfunction_values(dom, count, pts)
    ref = oracles.box_eigenfunctions(dom.sides, [m for _, m in expected], pts)
    assert np.max(np.abs(phi - ref)) < 1e-12
    return expected, phi


class TestDomainSpec:
    def test_volume_is_product_of_sides(self):
        dom = DomainSpec((2.0, 0.5, 3.0))
        assert dom.volume == pytest.approx(3.0)
        assert dom.dimension == 3

    @pytest.mark.parametrize("sides", [(), (0.0,), (-1.0, 2.0), (math.nan,)])
    def test_rejects_bad_sides(self, sides):
        with pytest.raises(ValueError):
            DomainSpec(sides)

    def test_json_roundtrip(self):
        dom = DomainSpec((PI, 1.5))
        assert DomainSpec.from_json(dom.to_json()) == dom
        with pytest.raises(ValueError):
            DomainSpec.from_json({"dim": 3, "sides": [1.0]})


class TestEnumeration:
    def test_unit_pi_interval_squares(self):
        assert np.allclose(eigenvalues(UNIT_PI_INTERVAL, 3), [1.0, 4.0, 9.0])

    def test_unit_interval_first_eigenvalue(self):
        assert eigenvalues(DomainSpec((1.0,)), 1)[0] == pytest.approx(PI**2, rel=1e-14)

    def test_square_box_first_two(self):
        expected, _ = assert_matches_oracle(BOX_2D, 2, box_points(BOX_2D.sides))
        assert eigenvalues(BOX_2D, 2) == pytest.approx([2.0, 5.0])
        assert [m for _, m in expected] == [(1, 1), (1, 2)]  # lexicographic tie-break against (2, 1)

    @pytest.mark.parametrize("sides,count", [((PI, PI), 40), ((1.0, 2.0), 25), ((1.0, 1.0, 1.5), 20)])
    def test_matches_brute_force(self, sides, count):
        assert_matches_oracle(DomainSpec(sides), count, box_points(sides))

    def test_rejects_zero_count(self):
        for dom in (UNIT_PI_INTERVAL, BOX_2D):
            for count in (0, -3):
                with pytest.raises(ValueError, match="count must be at least 1"):
                    eigenvalues(dom, count)
                with pytest.raises(ValueError, match="count must be at least 1"):
                    eigenfunction_values(dom, count, box_points(dom.sides))

    def test_deterministic_across_calls(self):
        pts = box_points(BOX_2D.sides)
        a = eigenvalues(BOX_2D, 300)
        _, phi_a = assert_matches_oracle(BOX_2D, 50, pts)
        spectrum._sorted_spectrum.cache_clear()
        assert np.array_equal(eigenvalues(BOX_2D, 300), a)
        _, phi_b = assert_matches_oracle(BOX_2D, 50, pts)
        assert np.array_equal(phi_a, phi_b)

    def test_cached_spectrum_is_read_only(self):
        # the cache hands every caller the same arrays, so an in-place edit would change every later result
        for dom in (UNIT_PI_INTERVAL, BOX_2D):
            lam = eigenvalues(dom, 3)
            before = lam.copy()
            with pytest.raises(ValueError, match="read-only"):
                lam *= 2.0
            with pytest.raises(ValueError, match="read-only"):
                spectrum._sorted_spectrum(dom.sides, 3)[1][0] = 7
            assert np.array_equal(eigenvalues(dom, 3), before)

    @pytest.mark.parametrize("shape", [(4, 2), (2, 4), (4, 1, 1)])
    def test_interval_rejects_points_of_another_dimension(self, shape):
        with pytest.raises(ValueError, match="domain dimension"):
            eigenfunction_values(UNIT_PI_INTERVAL, 3, np.ones(shape))

    def test_interval_takes_a_vector_or_a_column_of_points(self):
        column = eigenfunction_values(UNIT_PI_INTERVAL, 3, np.full((4, 1), 0.5))
        assert column.shape == (4, 3)
        assert np.array_equal(eigenfunction_values(UNIT_PI_INTERVAL, 3, np.full(4, 0.5)), column)

    def test_sorted_nondecreasing(self):
        lam = eigenvalues(DomainSpec((1.0, 2.0, 0.7)), 200)
        assert np.all(np.diff(lam) >= 0.0)


class TestOrthonormality:
    def test_gram_identity_interval(self):
        count = 50
        nodes, weights = composite_gauss_legendre(0.0, PI, panels=count + 10, order=10)
        phi = eigenfunction_values(UNIT_PI_INTERVAL, count, nodes)
        gram = phi.T @ (phi * weights[:, None])
        assert np.max(np.abs(gram - np.eye(count))) < 1e-10

    def test_gram_identity_box(self):
        count = 16
        dom = DomainSpec((PI, 1.5))
        expected = oracles.brute_force_box_eigenvalues(dom.sides, count, m_cap=40)
        max_freq = max(max(m) for _, m in expected)
        nx, wx = composite_gauss_legendre(0.0, PI, panels=max_freq + 4, order=10)
        ny, wy = composite_gauss_legendre(0.0, 1.5, panels=max_freq + 4, order=10)
        xx, yy = np.meshgrid(nx, ny, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        wts = np.outer(wx, wy).ravel()
        _, phi = assert_matches_oracle(dom, count, pts)
        gram = phi.T @ (phi * wts[:, None])
        assert np.max(np.abs(gram - np.eye(count))) < 1e-8


class TestWeyl:
    def test_interval_constants(self):
        assert weyl_constant(UNIT_PI_INTERVAL) == pytest.approx(1.0, rel=1e-14)
        assert weyl_constant(DomainSpec((1.0,))) == pytest.approx(PI**2, rel=1e-14)

    def test_square_constant(self):
        assert weyl_constant(BOX_2D) == pytest.approx(4.0 / PI, rel=1e-14)

    def test_interval_growth_exact(self):
        lam = eigenvalues(UNIT_PI_INTERVAL, 10000)
        n = np.arange(1, 10001)
        assert np.max(np.abs(lam / n**2 - 1.0)) < 1e-12

    def test_box_growth_improves(self):
        lam = eigenvalues(BOX_2D, 10000)
        cd = weyl_constant(BOX_2D)
        ratio_err = np.abs(lam / (cd * np.arange(1, 10001)) - 1.0)
        assert np.max(ratio_err[999:2000]) > np.max(ratio_err[8999:10000])


class TestSpectralZeta:
    @pytest.mark.parametrize("z", [0.75, 1.0, 1.5, 2.0, 3.0])
    def test_matches_riemann_within_reported_bound(self, z):
        zv = spectral_zeta(UNIT_PI_INTERVAL, z, truncation=1500)
        assert abs(zv.value - oracles.riemann_zeta(2.0 * z)) <= zv.tail_bound

    def test_known_values(self):
        assert spectral_zeta(UNIT_PI_INTERVAL, 1.0, 2000).value == pytest.approx(PI**2 / 6.0, abs=1e-12)
        assert spectral_zeta(UNIT_PI_INTERVAL, 2.0, 2000).value == pytest.approx(PI**4 / 90.0, abs=1e-12)

    def test_divergence_rejected(self):
        with pytest.raises(ValueError, match="divergent"):
            spectral_zeta(UNIT_PI_INTERVAL, 0.5, 100)
        with pytest.raises(ValueError, match="divergent"):
            spectral_zeta(BOX_2D, 1.0, 100)

    @pytest.mark.parametrize("z", [1.0, 3.0, 40.0])
    def test_sum_after_start_is_the_hurwitz_zeta(self, z):
        # sum_{k > 1000} k^{-2z} = zeta(2z, 1001), also where k = 1001 alone fills the float64 result
        zv = spectral_zeta(UNIT_PI_INTERVAL, z, 20000, start=1000)
        ref = float(special.zeta(2.0 * z, 1001.0))
        assert abs(zv.value - ref) <= zv.tail_bound
        assert zv.value == pytest.approx(ref, rel=1e-13)

    def test_start_beyond_truncation_rejected(self):
        with pytest.raises(ValueError, match="start"):
            spectral_zeta(UNIT_PI_INTERVAL, 1.0, 100, start=101)

    def test_truncation_refinement_stays_within_bound(self):
        coarse = spectral_zeta(UNIT_PI_INTERVAL, 0.8, 100)
        fine = spectral_zeta(UNIT_PI_INTERVAL, 0.8, 20000)
        assert abs(coarse.value - fine.value) <= coarse.tail_bound

    def test_box_value_against_direct_sum(self):
        zv = spectral_zeta(BOX_2D, 2.5, truncation=5000)
        lam = eigenvalues(BOX_2D, 200000)
        direct = float(np.sum(lam**-2.5))
        assert zv.value == pytest.approx(direct, rel=1e-6)

    def test_square_closed_form_against_direct_sum(self):
        direct = float(np.sum(eigenvalues(BOX_2D, 200000) ** -2.5))
        assert oracles.square_zeta(2.5) == pytest.approx(direct, rel=1e-6)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
    @pytest.mark.parametrize("z", [1.1, 1.5, 2.0, 3.0])
    def test_box_value_within_reported_bound(self, z):
        zv = spectral_zeta(BOX_2D, z, 20000)
        assert abs(zv.value - oracles.square_zeta(z)) <= zv.tail_bound


class TestAdaptiveQuad:
    @staticmethod
    def counted(f, sizes):
        """f, recording the number of nodes of each call."""
        return lambda x: (sizes.append(x.size), f(x))[1]

    def test_polynomial_is_exact_on_one_panel(self):
        # degree 19 is the reach of the 10-point rule: the whole panel and its halves agree, one round
        sizes = []
        f = self.counted(lambda x: 7.0 * x**19 - 3.0 * x**4 + 2.0, sizes)
        exact = 7.0 * (2.0**20 - 1.0) / 20.0 - 3.0 * (2.0**5 + 1.0) / 5.0 + 6.0
        assert adaptive_quad(f, -1.0, 2.0, epsabs=0.0, epsrel=1e-14) == pytest.approx(exact, rel=1e-14)
        assert sizes == [10, 20]

    def test_kink(self):
        value = adaptive_quad(lambda x: np.minimum(x * x, 1.0), 0.0, 3.0, epsabs=0.0, epsrel=1e-13)
        assert value == pytest.approx(7.0 / 3.0, rel=1e-13)

    def test_endpoint_singularity(self):
        assert adaptive_quad(np.sqrt, 0.0, 1.0, epsabs=0.0, epsrel=1e-13) == pytest.approx(2.0 / 3.0, rel=1e-13)

    def test_breakpoint_starts_a_panel(self):
        # |x - 0.3| is linear on both panels, so the first round is exact; without the breakpoint the kink is
        # halved in on for dozens of rounds
        sizes, f = [], lambda x: np.abs(x - 0.3)
        value = adaptive_quad(self.counted(f, sizes), 0.0, 1.0, epsabs=0.0, epsrel=1e-14, points=[0.3, 2.0, 0.3])
        assert value == pytest.approx(0.29, rel=1e-14)
        assert sizes == [20, 40]
        sizes.clear()
        assert adaptive_quad(self.counted(f, sizes), 0.0, 1.0, epsabs=0.0, epsrel=1e-14) == pytest.approx(0.29, rel=1e-13)
        assert len(sizes) > 10

    def test_empty_and_reversed_intervals(self):
        assert adaptive_quad(np.exp, 2.0, 2.0, epsabs=0.0, epsrel=1e-14) == 0.0
        with pytest.raises(ValueError, match="a <= b"):
            adaptive_quad(np.exp, 1.0, 0.0, epsabs=0.0, epsrel=1e-14)

    def test_agrees_with_quadpack(self):
        f = lambda x: np.cos(40.0 * x) * np.exp(-x) + 1.0 / (1.0 + 100.0 * (x - 0.7) ** 2)
        ref, _ = integrate.quad(f, 0.0, 3.0, epsabs=0.0, epsrel=1e-13, limit=200)
        assert adaptive_quad(f, 0.0, 3.0, epsabs=0.0, epsrel=1e-13) == pytest.approx(ref, rel=1e-13)

    def test_non_finite_value_gives_a_non_finite_result_and_no_warning(self):
        # warnings are errors in this suite, so the numpy warnings of inf * 0 and log(-1) would fail here
        blows_up = lambda x: np.where(x > 0.5, np.inf, x) * np.where(x > 0.9, 0.0, 1.0)
        assert math.isnan(adaptive_quad(blows_up, 0.0, 1.0, epsabs=0.0, epsrel=1e-12))
        assert adaptive_quad(lambda x: np.where(x > 0.5, np.inf, x), 0.0, 1.0, epsabs=0.0, epsrel=1e-12) == math.inf
        assert math.isnan(adaptive_quad(lambda x: np.log(x - 0.5), 0.0, 1.0, epsabs=0.0, epsrel=1e-12))

    def test_no_convergence_raises(self):
        with pytest.raises(ValueError, match="did not converge"):
            adaptive_quad(lambda x: (x - 0.5) ** -2, 0.0, 1.0, epsabs=0.0, epsrel=1e-12)
        with pytest.raises(ValueError, match="did not converge"):
            adaptive_quad(lambda x: 1.0 / x, 0.0, 1.0, epsabs=0.0, epsrel=1e-12)
