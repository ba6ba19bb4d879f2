"""Grid densities, cross-correlation and the MAD sandwich inequalities.

The MAD of the cross-correlation is checked against the correlation grid
built by numpy FFT (`fft_correlation`).
"""

import math

import numpy as np
import pytest

from chargebit.madgrid import (GRID_STEP, AsymmetricInput, GridPdf,
                               StepMismatch, _correlation_median_mad,
                               grid_mad, grid_median, random_grid_pdf,
                               random_symmetric_grid_pdf, verify_lemma1,
                               verify_lemma2)


def uniform_pdf(lo, hi, step=1e-3):
    xs = np.arange(lo + step / 2, hi, step)
    return GridPdf(xs[0], step, np.full(xs.size, 1.0 / (hi - lo)))


def gaussian_pdf(mean, sigma, lo, hi, step=1e-3):
    xs = np.arange(lo, hi + step / 2, step)
    vals = np.exp(-0.5 * ((xs - mean) / sigma) ** 2)
    return GridPdf.from_samples(lo, step, vals)


def triangle_pdf(centre, width, step=1e-3):
    xs = np.arange(centre - width, centre + width + step / 2, step)
    vals = np.clip(1.0 - np.abs(xs - centre) / width, 0, None)
    return GridPdf.from_samples(xs[0], step, vals)


class TestGridPdf:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            GridPdf(0.0, 0.1, np.array([1.0, -0.5]))

    def test_rejects_unnormalised(self):
        with pytest.raises(ValueError):
            GridPdf(0.0, 0.1, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("args, field", [
        ((0.0, math.nan, [1.0]), "step"),
        ((math.nan, 1.0, [1.0]), "origin"),
        ((math.inf, 1.0, [1.0]), "origin"),
        ((0.0, 1.0, [math.nan]), "densities"),
        ((0.0, 0.5, [math.inf, 1.0]), "densities")])
    def test_rejects_non_finite_naming_field(self, args, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            GridPdf(*args)

    @pytest.mark.parametrize("step", [0.0, -0.1])
    def test_rejects_non_positive_step(self, step):
        with pytest.raises(ValueError, match="step must be strictly positive"):
            GridPdf(0.0, step, np.array([1.0]))

    @pytest.mark.parametrize("densities", [[], [[1.0, 1.0]]])
    def test_rejects_empty_or_2d_densities(self, densities):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            GridPdf(0.0, 0.5, np.array(densities))

    def test_from_samples_rejects_zero_mass(self):
        # negative samples are clipped to 0, so these carry none
        with pytest.raises(ValueError, match="samples carry no mass"):
            GridPdf.from_samples(0.0, 0.5, np.array([0.0, -1.0]))

    def test_from_samples_normalises(self):
        pdf = GridPdf.from_samples(0.0, 0.5, np.array([3.0, 1.0]))
        assert pdf.step * pdf.densities.sum() == pytest.approx(1.0)


class TestGridMedian:
    def test_uniform(self):
        assert grid_median(uniform_pdf(0.0, 1.0)) == pytest.approx(0.5, abs=1e-3)

    def test_symmetric_triangle(self):
        assert grid_median(triangle_pdf(0.0, 1.0)) == pytest.approx(0.0, abs=1e-3)

    def test_two_box_mixture(self):
        step = 1e-3
        xs = np.arange(-0.5 + step / 2, 3.5, step)
        vals = np.where(xs < 1.5, 0.25 * ((xs > 0) & (xs < 1)),
                        0.75 * ((xs > 2) & (xs < 3)))
        pdf = GridPdf.from_samples(xs[0], step, vals)
        assert grid_median(pdf) == pytest.approx(2.0 + 1.0 / 3.0, abs=step)


class TestGridMad:
    def test_uniform(self):
        pdf = uniform_pdf(0.0, 1.0)
        assert grid_mad(pdf) == pytest.approx(0.25, abs=2e-3)

    def test_discretised_gaussian(self):
        pdf = gaussian_pdf(0.0, 1.0, -10.0, 10.0)
        assert grid_mad(pdf) == pytest.approx(math.sqrt(2 / math.pi), abs=1e-4)

    def test_discretised_logistic_derivative(self):
        step = 1e-3
        xs = np.arange(-14.0, 14.0 + step / 2, step)
        vals = 0.25 / np.cosh(0.5 * xs) ** 2
        pdf = GridPdf.from_samples(-14.0, step, vals)
        assert grid_mad(pdf) == pytest.approx(2.0 * math.log(2.0), abs=1e-4)

    def test_minimised_at_median(self, rng):
        for _ in range(50):
            pdf = random_grid_pdf(rng)
            med = grid_median(pdf)
            base = grid_mad(pdf)
            for off in rng.uniform(-4, 4, 20):
                if abs(off) < 2 * pdf.step:
                    continue
                deviation = pdf.step * np.abs(pdf.xs - med - off).dot(
                    pdf.densities)
                assert deviation >= base - pdf.step

    def test_reflection_invariance(self, rng):
        for _ in range(20):
            pdf = random_grid_pdf(rng)
            flipped = GridPdf(-(pdf.origin + pdf.step * (pdf.densities.size - 1)),
                              pdf.step, pdf.densities[::-1])
            assert grid_mad(flipped) == pytest.approx(grid_mad(pdf),
                                                      abs=2 * pdf.step)


def fft_correlation(f, g):
    """Reference: the renormalised correlation grid by numpy FFT."""
    n = f.densities.size + g.densities.size - 1
    size = 1 << (n - 1).bit_length()
    vals = np.fft.irfft(np.fft.rfft(f.densities, size)
                        * np.fft.rfft(g.densities[::-1], size), size)[:n]
    origin = f.origin - g.origin - (g.densities.size - 1) * f.step
    return GridPdf.from_samples(origin, f.step, vals)


def two_boxes(bridge):
    """Two 400-cell boxes of equal mass, split by one cell of mass bridge."""
    box = np.full(400, 0.5 * (1.0 - bridge) / 0.4)
    return GridPdf(-0.4, 1e-3, np.concatenate((box, [bridge / 1e-3], box)))


def assert_matches_fft(f, g, median=True):
    ref = fft_correlation(f, g)
    m, d = _correlation_median_mad(f, g)
    assert d == pytest.approx(grid_mad(ref), rel=1e-11, abs=1e-14)
    if median:
        assert m == pytest.approx(grid_median(ref), abs=1e-9 * f.step)


class TestCrossCorrelate:
    def test_near_delta_identity(self):
        f = triangle_pdf(1.0, 0.8)
        spike = GridPdf.from_samples(-1e-3, 1e-3, np.array([0.0, 1.0, 0.0]))
        assert _correlation_median_mad(f, spike)[1] == pytest.approx(
            grid_mad(f), abs=2e-3)

    def test_gaussian_variance_additivity(self):
        f = gaussian_pdf(0.0, 0.6, -6.0, 6.0)
        g = gaussian_pdf(0.0, 0.8, -6.0, 6.0)
        assert _correlation_median_mad(f, g)[1] == pytest.approx(
            math.sqrt(2 / math.pi), abs=1e-3)

    def test_median_shift(self):
        # asymmetric f against a narrow symmetric g: median(h) = m_f - m_g
        step = 1e-3
        xs = np.arange(0.0, 2.0 + step / 2, step)
        f = GridPdf.from_samples(0.0, step, np.exp(-2.0 * xs))
        g = gaussian_pdf(0.5, 0.02, 0.4, 0.6)
        assert _correlation_median_mad(f, g)[0] == pytest.approx(
            grid_median(f) - grid_median(g), abs=2e-3)

    def test_step_mismatch(self):
        with pytest.raises(StepMismatch):
            verify_lemma1(uniform_pdf(0, 1, 1e-3), uniform_pdf(0, 1, 2e-3))

    def test_matches_fft_on_random_pairs(self, rng):
        for _ in range(200):
            assert_matches_fft(random_grid_pdf(rng), random_grid_pdf(rng))

    @pytest.mark.parametrize("f, g", [
        (GridPdf(0.3, 0.1, [10.0]), GridPdf(-0.2, 0.1, [10.0])),
        (triangle_pdf(0.3, 0.7), gaussian_pdf(-0.2, 0.3, -1.0003, 0.9)),
        (gaussian_pdf(0.1, 0.2, -0.5, 2.5), triangle_pdf(-1.1, 0.05)),
        (uniform_pdf(-3.0, -2.0), uniform_pdf(2.0, 4.5)),
        (triangle_pdf(0.2, 0.5), GridPdf.from_samples(
            0.0417, 1e-3, np.array([1.0, 3.0, 1.0]))),
        (GridPdf.from_samples(-1e-3, 1e-3, np.array([1.0, 2.0, 1.0])),
         triangle_pdf(0.2, 0.5)),
    ], ids=["single-cells", "unaligned", "unequal-lengths", "disjoint",
            "spike-right", "spike-left"])
    def test_matches_fft_on_edge_cases(self, f, g):
        assert_matches_fft(f, g)

    def test_flat_half_cdf(self):
        # the CDF of h is 1/2 across the gap: only the MAD is determined
        f = two_boxes(0.0)
        g = GridPdf(0.25, 1e-3, [1e3])
        assert_matches_fft(f, g, median=False)
        assert_matches_fft(g, f, median=False)

    def test_tiny_bridge_cell_holds_median(self):
        f = two_boxes(1e-12)
        g = GridPdf(0.0, 1e-3, [1e3])
        m, _ = _correlation_median_mad(f, g)
        assert abs(m - f.xs[400]) <= 0.5 * f.step
        assert_matches_fft(f, g, median=False)


class TestLemma1:
    def test_near_delta_tight(self):
        f = triangle_pdf(0.0, 1.0, GRID_STEP)
        spike = GridPdf.from_samples(-GRID_STEP, GRID_STEP,
                                     np.array([0.0, 1.0, 0.0]))
        rep = verify_lemma1(f, spike)
        assert rep.ok
        assert rep.values["d_fg"] == pytest.approx(rep.values["d_f"],
                                                   abs=2 * GRID_STEP)

    def test_two_gaussians(self):
        f = gaussian_pdf(0.0, 0.6, -6, 6, GRID_STEP)
        g = gaussian_pdf(0.0, 0.8, -6, 6, GRID_STEP)
        rep = verify_lemma1(f, g)
        assert rep.ok
        assert all(type(v) is float for v in rep.values.values())
        k = math.sqrt(2 / math.pi)
        assert rep.values["d_fg"] == pytest.approx(k, abs=1e-3)
        assert rep.values["lower"] == pytest.approx(0.8 * k, abs=1e-3)
        assert rep.values["upper"] == pytest.approx(1.4 * k, abs=1e-3)

    def test_random_pairs(self, rng):
        for _ in range(60):
            rep = verify_lemma1(random_grid_pdf(rng), random_grid_pdf(rng))
            assert rep.ok, rep.values


class TestLemma2:
    def test_equal_medians(self):
        f = gaussian_pdf(0.0, 0.5, -6, 6, GRID_STEP)
        g = triangle_pdf(0.0, 1.5, GRID_STEP)
        rep = verify_lemma2(f, g, 0.4)
        assert rep.ok
        # with equal medians the separation term vanishes and the mixture MAD
        # is the convex combination (use the report's weights: it may swap)
        p_f = rep.values["p_f"]
        expected = p_f * rep.values["d_f"] + (1 - p_f) * rep.values["d_g"]
        assert rep.values["d_mix"] == pytest.approx(expected, abs=rep.values["tol"])
        assert rep.values["lower"] == pytest.approx(rep.values["upper"],
                                                    abs=rep.values["tol"])

    def test_separated_unit_mad_pair(self):
        # two symmetric densities with MAD 1, medians 10 apart, p_f = 0.3:
        # the mixture MAD must land in [3, 4]
        sigma = math.sqrt(math.pi / 2)
        f = gaussian_pdf(10.0, sigma, 4.0, 16.0, GRID_STEP)
        g = gaussian_pdf(0.0, sigma, -6.0, 6.0, GRID_STEP)
        rep = verify_lemma2(f, g, 0.3)
        assert rep.ok
        assert 3.0 - rep.values["tol"] <= rep.values["d_mix"] <= 4.0 + rep.values["tol"]

    def test_asymmetric_input_rejected(self):
        step = GRID_STEP
        xs = np.arange(0.0, 2.0 + step / 2, step)
        skew = GridPdf.from_samples(0.0, step, np.exp(-2.0 * xs))
        sym = gaussian_pdf(0.0, 0.5, -4, 4, step)
        with pytest.raises(AsymmetricInput):
            verify_lemma2(skew, sym, 0.5)

    def test_grids_of_different_steps_rejected(self):
        f = gaussian_pdf(0.0, 0.5, -4, 4, GRID_STEP)
        g = gaussian_pdf(0.0, 0.5, -4, 4, 2.0 * GRID_STEP)
        with pytest.raises(StepMismatch, match="steps differ"):
            verify_lemma2(f, g, 0.5)

    def test_misaligned_grids_rejected(self):
        f = gaussian_pdf(0.0, 0.5, -4, 4, GRID_STEP)
        g = gaussian_pdf(0.5 * GRID_STEP, 0.5, -4 + 0.5 * GRID_STEP,
                         4 + 0.5 * GRID_STEP, GRID_STEP)
        with pytest.raises(StepMismatch, match="not aligned"):
            verify_lemma2(f, g, 0.5)

    @pytest.mark.parametrize("p_f", [0.0, 1.0, -0.2, 1.5])
    def test_weight_outside_the_open_unit_interval_rejected(self, p_f):
        f = gaussian_pdf(0.0, 0.5, -4, 4, GRID_STEP)
        with pytest.raises(ValueError, match=r"p_f must lie strictly"):
            verify_lemma2(f, f, p_f)

    def test_random_pairs(self, rng):
        for _ in range(60):
            rep = verify_lemma2(random_symmetric_grid_pdf(rng),
                                random_symmetric_grid_pdf(rng),
                                float(rng.uniform(0.05, 0.95)))
            assert rep.ok, rep.values
