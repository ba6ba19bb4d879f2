"""The fixed-panel occupation core and the W0/W1 integrals against tight
adaptive quadrature.

The reference integrates each lead's kernel cdf (or pdf) against the
logistic density in energy with scipy's QUADPACK, breakpoints at the kernel
centre, and kernel functions written out here rather than taken from the
package. W0/W1 are checked against the kernel-weighted softplus tails,
integral of g(u) * P0(mu_half + u) du. The curvature d2p/dmu2 takes the
same quadrature over the narrower of the two variables, and the logistic
tail beyond the thermal rule's window is checked against 40-digit mpmath.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from chargebit import erasure_costs, half_occupation_level
from chargebit.dot_model import _combined, _lead_values, occupation
from chargebit.kernels import Delta, Gaussian, Lorentzian

from conftest import make_system, occupation_density, random_system

TIGHT = dict(epsabs=1e-16, epsrel=1e-13, limit=2000)
TOL = 1e-10


def _kernel_cdf(x, k):
    if isinstance(k, Gaussian):
        return float(ndtr(x / k.sigma))
    return 0.5 + math.atan(x / k.scale) / math.pi


def _kernel_pdf(x, k):
    if isinstance(k, Gaussian):
        z = x / k.sigma
        return math.exp(-0.5 * z * z) / (k.sigma * math.sqrt(2.0 * math.pi))
    return k.scale / (math.pi * (k.scale ** 2 + x * x))


def _logistic(y, kt):
    e = math.exp(-abs(y) / kt)
    return e / (kt * (1.0 + e) ** 2)


def _reference_lead(mu, lead, k, fn):
    """E_Y[fn(Y - d)], d = mu - mu_lead, by adaptive quadrature over Y."""
    kt = lead.thermal_energy
    d = mu - lead.chemical_potential
    if kt == 0.0:
        return fn(-d, k)
    w = k.sigma if isinstance(k, Gaussian) else k.scale
    lo, hi = -45.0 * kt, 45.0 * kt
    # split at the kernel centre and at decades of its width around it
    near = [d + sign * w * 10.0 ** k for sign in (-1, 1) for k in range(7)]
    pts = sorted({min(max(p, lo), hi) for p in [0.0, d] + near} - {lo, hi})
    return quad(lambda y: fn(y - d, k) * _logistic(y, kt), lo, hi,
                points=pts, **TIGHT)[0]


def _reference(mu, sys_, fn):
    return sum(g * _reference_lead(mu, lead, sys_.kernel, fn)
               for g, lead in ((sys_.rates.gamma_source, sys_.source),
                               (sys_.rates.gamma_drain, sys_.drain)))


def _levels(sys_, n=9):
    reach = 8.0 * max(sys_.source.thermal_energy, sys_.drain.thermal_energy,
                      sys_.kernel.width)
    return np.linspace(sys_.drain.chemical_potential - reach,
                       sys_.source.chemical_potential + reach, n)


def _assert_core_matches(sys_):
    mus = _levels(sys_)
    p = occupation(mus, sys_)
    dens = occupation_density(mus, sys_)
    for mu, pi, di in zip(mus, p, dens):
        assert abs(pi - _reference(mu, sys_, _kernel_cdf)) <= TOL, mu
        assert abs(di - _reference(mu, sys_, _kernel_pdf)) <= TOL, mu


def _criterion5_corpus():
    """Eight of 200 ``random_system`` draws (default_rng(42)): three decades
    of each scale, not the 12-decade corpus of ``conftest.corpus_device``."""
    rng = np.random.default_rng(42)
    systems = [random_system(rng) for _ in range(200)]
    return systems[::25]


@pytest.mark.parametrize("sys_", _criterion5_corpus())
def test_criterion5_corpus(sys_):
    _assert_core_matches(sys_)


@pytest.mark.parametrize("sys_", [
    make_system(0.4, 0.9, 3.0, 0.6, Lorentzian(0.7)),
    make_system(1e-3, 0.5, 30.0, 0.3, Lorentzian(2.0)),
    make_system(0.2, 0.2, 0.0, 0.5, Lorentzian(1e-3)),
    make_system(15.94, 11.8, 308.6, 0.0339, Lorentzian(7.2e-5)),
], ids=["comparable", "sharp-lead", "narrow", "khz-rate"])
def test_lorentzian_devices(sys_):
    _assert_core_matches(sys_)


@pytest.mark.parametrize("kernel", [Gaussian(0.8), Lorentzian(0.8),
                                    Gaussian(1e-4), Lorentzian(40.0)],
                         ids=["gauss", "lorentz", "gauss-narrow",
                              "lorentz-wide"])
def test_zero_temperature_leads(kernel):
    _assert_core_matches(make_system(0.0, 0.7, 5.0, 0.45, kernel))
    _assert_core_matches(make_system(0.0, 0.0, 5.0, 0.45, kernel))


# a Gaussian lead is integrated over its kernel for sigma < 2 kT and over its
# thermal variable above: 1.999, 2 and 2.001 sit at the switch
@pytest.mark.parametrize("ratio", [1e-6, 1e-4, 1e-2, 0.25, 0.5, 1.0, 1.99,
                                   1.999, 2.0, 2.001, 4.0, 10.0, 1e3, 1e6])
@pytest.mark.parametrize("kernel_type", [Gaussian, Lorentzian])
def test_width_ratio_range(ratio, kernel_type):
    kt = 0.7
    sys_ = make_system(kt, kt, 2.5, 0.35, kernel_type(ratio * kt))
    mus = np.concatenate((_levels(sys_, 7),
                          [0.0, 1e-7, 2.5 + 3e-7, 2.5 + 0.5 * ratio * kt]))
    p = occupation(mus, sys_)
    dens = occupation_density(mus, sys_)
    for mu, pi, di in zip(mus, p, dens):
        assert abs(pi - _reference(mu, sys_, _kernel_cdf)) <= TOL, mu
        assert abs(di - _reference(mu, sys_, _kernel_pdf)) <= TOL, mu


def _reference_costs(sys_, mu_half):
    """W0, W1 as kernel-weighted softplus tails, by adaptive quadrature."""
    sigma = sys_.kernel.sigma
    leads = ((sys_.rates.gamma_source, sys_.source),
             (sys_.rates.gamma_drain, sys_.drain))

    def tail(y, sign):
        total = 0.0
        for g, lead in leads:
            d = sign * (lead.chemical_potential - y)
            kt = lead.thermal_energy
            total += g * (max(d, 0.0) if kt == 0.0 else
                          kt * (max(d / kt, 0.0)
                                + math.log1p(math.exp(-abs(d / kt)))))
        return total

    pts = [0.0]
    for _, lead in leads:
        c = lead.chemical_potential - mu_half
        pts += [c - 40 * lead.thermal_energy, c, c + 40 * lead.thermal_energy]
    lo, hi = -38.0 * sigma, 38.0 * sigma
    pts = sorted({p for p in pts if lo < p < hi})
    return [quad(lambda u: _kernel_pdf(u, sys_.kernel)
                 * tail(mu_half + u, sign), lo, hi, points=pts, **TIGHT)[0]
            for sign in (1.0, -1.0)]


@pytest.mark.parametrize("sys_", _criterion5_corpus() + [
    make_system(0.0, 0.6, 4.0, 0.3, Gaussian(0.5)),
    make_system(0.0, 0.0, 4.0, 0.7, Gaussian(2.0)),
    make_system(0.7, 0.7, 2.0, 0.4, Gaussian(0.7e-4)),
    make_system(0.7, 1e-3, 2.0, 0.6, Gaussian(7e2)),
])
def test_erasure_costs_match_kernel_weighted_tails(sys_):
    costs = erasure_costs(sys_, mad_check=False)
    w0, w1 = _reference_costs(sys_, costs.mu_half)
    assert costs.w_zero == pytest.approx(w0, rel=TOL)
    assert costs.w_one == pytest.approx(w1, rel=TOL)


class TestShapes:
    SYS = make_system(0.5, 0.2, 3.0, 0.4, Gaussian(0.3))

    @pytest.mark.parametrize("sys_", [
        SYS, make_system(0.5, 0.2, 3.0, 0.4),
        make_system(0.0, 0.2, 3.0, 0.4, Lorentzian(0.3))])
    def test_float_in_float_out(self, sys_):
        for fn in (occupation, occupation_density):
            assert type(fn(1.3, sys_)) is float
            assert type(fn(np.float64(1.3), sys_)) is float

    @pytest.mark.parametrize("kernel", [Gaussian(0.3), Delta(),
                                        Lorentzian(2.0)])
    def test_array_keeps_shape(self, kernel):
        sys_ = make_system(0.5, 0.0, 3.0, 0.4, kernel)
        mus = np.linspace(-2.0, 5.0, 12).reshape(3, 4)
        for fn in (occupation, occupation_density):
            out = fn(mus, sys_)
            assert isinstance(out, np.ndarray) and out.shape == (3, 4)
            assert out[1, 2] == pytest.approx(fn(float(mus[1, 2]), sys_),
                                              abs=1e-15)

    @pytest.mark.parametrize("kernel", [Delta(), Gaussian(0.3),
                                        Lorentzian(2.0)])
    @pytest.mark.parametrize("mu", [math.nan, math.inf, np.float64(-math.inf),
                                    np.array([0.5, math.nan]),
                                    np.array([[1.0], [-math.inf]])])
    def test_non_finite_levels_raise_naming_mu(self, kernel, mu):
        sys_ = make_system(0.5, 0.0, 3.0, 0.4, kernel)
        for fn in (occupation, occupation_density):
            with pytest.raises(ValueError, match="mu must be finite"):
                fn(mu, sys_)

    @pytest.mark.parametrize("sigma", [0.3, 1e-5],
                             ids=["uniform-panels", "graded-panels"])
    def test_no_levels_give_empty_arrays(self, sigma):
        sys_ = make_system(0.5, 0.2, 3.0, 0.4, Gaussian(sigma))
        for fn in (occupation, occupation_density):
            assert fn(np.empty((0, 4)), sys_).shape == (0, 4)

    @pytest.mark.parametrize("sigma", [0.3, 1e-5],
                             ids=["uniform-panels", "graded-panels"])
    def test_blocks_match_single_levels(self, sigma):
        # 10k levels span many node-matrix blocks of at most ~128 kB
        sys_ = make_system(0.5, 0.2, 3.0, 0.4, Gaussian(sigma))
        mus = np.linspace(-6.0, 9.0, 10_000)
        p = occupation(mus, sys_)
        dens = occupation_density(mus, sys_)
        single_p = np.array([occupation(float(m), sys_) for m in mus])
        single_d = np.array([occupation_density(float(m), sys_)
                             for m in mus])
        np.testing.assert_allclose(p, single_p, rtol=0, atol=1e-15)
        np.testing.assert_allclose(dens, single_d, rtol=0, atol=1e-14)


def test_newton_half_level_on_corpus():
    for sys_ in _criterion5_corpus():
        mu = half_occupation_level(sys_)
        assert abs(occupation(mu, sys_) - 0.5) <= 1e-12


# -- the curvature d2p/dmu2, the core name "dpdf" -----------------------------

def _kernel_dpdf(x, k):
    if isinstance(k, Gaussian):
        z = x / k.sigma
        return -z * math.exp(-0.5 * z * z) / (k.sigma ** 2
                                              * math.sqrt(2.0 * math.pi))
    return -2.0 * x * k.scale / (math.pi * (k.scale ** 2 + x * x) ** 2)


def _logistic_slope(y, kt):
    """d/dy of the logistic density of scale kt."""
    e = math.exp(-abs(y) / kt)
    return -math.copysign(1.0, y) * e * (1.0 - e) / (kt * kt * (1.0 + e) ** 3)


def _reference_curvature(d, kt, k):
    """E_Y[K''(Y - d)] by adaptive quadrature over the narrower variable.

    For a kernel at least kT wide, over Y, of the logistic pdf times the
    kernel's dpdf. A narrower kernel's dpdf is large and odd, and that
    integral cancels to about 1e-7 of its peak at w/kT = 1e-9, so it is the
    same expectation over the kernel instead, -E_U[rho'(d + U)], with rho'
    the logistic density's slope.
    """
    w = k.width
    tight = dict(epsabs=1e-14 / max(kt, w) ** 2, epsrel=1e-13, limit=2000)
    if w >= kt:
        lo, hi = -45.0 * kt, 45.0 * kt
        near = [d + s * w * 10.0 ** j for s in (-1, 1) for j in range(-1, 7)]
        pts = sorted({min(max(p, lo), hi) for p in [0.0, d] + near}
                     - {lo, hi})
        return quad(lambda y: _kernel_dpdf(y - d, k) * _logistic(y, kt),
                    lo, hi, points=pts, **tight)[0]
    # breakpoints at the kernel centre, decades of its width about it and
    # decades of kT about the logistic centre -d; the Lorentzian's tails
    # run to infinity
    reach = 40.0 * w if isinstance(k, Gaussian) else math.inf
    near = ([-d + s * kt * 10.0 ** j for s in (-1, 1) for j in range(-1, 3)]
            + [s * w * 10.0 ** j for s in (-1, 1) for j in range(13)])
    pts = sorted({p for p in near + [-d] if -reach < p < reach} | {0.0})
    edges = [-reach] + pts + [reach]

    def f(u):
        return -_kernel_pdf(u, k) * _logistic_slope(d + u, kt)
    return sum(quad(f, a, b, **tight)[0] for a, b in zip(edges, edges[1:]))


def _curvature_leads():
    """(kT, kernel) over 12 decades of both, Gaussian and Lorentzian by
    turns."""
    rng = np.random.default_rng(7)
    leads = []
    for i in range(40):
        kt, w = 10.0 ** rng.uniform(-6, 6, 2)
        leads.append((kt, (Gaussian(w), Lorentzian(w))[i % 2]))
    return leads


class TestCurvature:
    """+d2p_i/dmu2 of one lead, the core name "dpdf", at offsets 0 to 4
    scales from it, within 1e-10 of its largest reference value."""

    OFFSETS = np.array([0.0, 0.1, -0.3, 1.0, -2.0, 4.0])

    @pytest.mark.parametrize("kt, kernel", _curvature_leads())
    def test_twelve_decades(self, kt, kernel):
        ds = self.OFFSETS * max(kt, kernel.width)
        (got,) = _lead_values(ds, kt, kernel, ("dpdf",))
        want = np.array([_reference_curvature(d, kt, kernel) for d in ds])
        assert np.max(np.abs(got - want)) <= TOL * np.max(np.abs(want))

    def test_sharp_lorentzian_at_the_end_of_the_window(self):
        # a kernel a millionth of kT wide centred on |s| = 40: taken
        # straight, half of its odd derivative falls beyond the window and
        # the rest is 13% off; by parts it is within the e^-40 cut
        kernel = Lorentzian(1e-6)
        ds = np.array([40.0 - 1e-6, 40.0, 40.0 + 3e-6, -40.0])
        (got,) = _lead_values(ds, 1.0, kernel, ("dpdf",))
        want = [_reference_curvature(d, 1.0, kernel) for d in ds]
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("kernel", [Gaussian(0.8), Lorentzian(0.8),
                                        Gaussian(1e-4), Lorentzian(40.0)])
    def test_zero_temperature_leads(self, kernel):
        # p_i = K(-d), so d2p_i/dmu2 = K''(-d); without a kernel, 0
        ds = np.array([-3.0, -0.5, 0.0, 1e-5, 0.7, 6.0]) * kernel.width
        (got,) = _lead_values(ds, 0.0, kernel, ("dpdf",))
        want = [_kernel_dpdf(-d, kernel) for d in ds]
        np.testing.assert_allclose(got, want, rtol=TOL, atol=0.0)
        (atom,) = _lead_values(ds, 0.0, Delta(), ("dpdf",))
        assert not np.any(atom)

    @pytest.mark.parametrize("kt", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_delta_kernel(self, kt):
        # the Fermi function's second derivative, -rho'(d)
        ds = np.array([-50.0, -3.0, -0.2, 0.0, 1e-9, 0.5, 2.0, 35.0]) * kt
        (got,) = _lead_values(ds, kt, Delta(), ("dpdf",))
        want = [-_logistic_slope(d, kt) for d in ds]
        np.testing.assert_allclose(got, want, rtol=TOL, atol=0.0)

    def test_device_sums_its_leads(self):
        # a T = 0 source and a warm drain, through _combined
        sys_ = make_system(0.0, 0.7, 5.0, 0.45, Lorentzian(0.8))
        mus = np.array([-2.0, 0.3, 2.5, 5.2, 8.0])
        (got,) = _combined(mus, sys_, ("dpdf",))
        want = [0.45 * _kernel_dpdf(5.0 - mu, sys_.kernel)
                + 0.55 * _reference_curvature(mu, 0.7, sys_.kernel)
                for mu in mus]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=TOL)


class TestWideGaussianTail:
    """Far above a lead under a Gaussian of sigma >= 2 kT, p is carried by
    the logistic tail beyond the thermal rule's window |s| <= 40, once
    d - sigma^2/kT exceeds about 40 kT. Gaussian(3), kT = 1 on both leads at
    mu = 0: p, -dp/dmu and d2p/dmu2 against 40-digit mpmath (the logistic
    density times the kernel's cdf, pdf and dpdf, over 0.5-wide intervals
    on |y| <= 250 and the two infinite tails)."""

    SYS = make_system(1.0, 1.0, 0.0, 0.5, Gaussian(3.0))

    @pytest.mark.parametrize("mu, expected", [
        (40.0, (3.8242466280852847036e-16, 3.8242466280734340556e-16,
                3.8242466280497327601e-16)),
        (50.0, (1.7362052831002944812e-20, 1.7362052831002942369e-20,
                1.7362052831002937484e-20)),
        (60.0, (7.8823597906008507933e-25, 7.8823597906008507932e-25,
                7.8823597906008507931e-25)),
        (120.0, (6.902196834184516544e-51, 6.902196834184516544e-51,
                 6.902196834184516544e-51)),
        # below the lead p is 1 to rounding; -dp/dmu and d2p/dmu2 mirror
        (-60.0, (1.0, 7.8823597906008507932e-25,
                 -7.8823597906008507931e-25)),
    ])
    def test_matches_mpmath(self, mu, expected):
        # at the parent's cut, p was 3.80e-16, 4.59e-21, 4.13e-29 and
        # 3.08e-175 at mu = 40, 50, 60 and 120
        assert occupation(mu, self.SYS) == pytest.approx(
            expected[0], rel=TOL, abs=0.0)
        got = _combined(mu, self.SYS, ("cdf", "pdf", "dpdf"))
        for value, want in zip(got, expected):
            assert value == pytest.approx(want, rel=TOL, abs=0.0)

    def test_between_two_leads_far_apart(self):
        # leads at 0 and 200: at 100 the pdf is pdf_i(100) of one lead
        # (40-digit mpmath as above); the parent's was 1.4e-106
        sys_ = make_system(1.0, 1.0, 200.0, 0.5, Gaussian(3.0))
        p, dens = _combined(100.0, sys_, ("cdf", "pdf"))
        assert p == pytest.approx(0.5, rel=1e-15, abs=0.0)
        assert dens == pytest.approx(3.3487056758139667943e-42, rel=TOL,
                                     abs=0.0)

    def test_only_far_rows_take_the_tail(self, monkeypatch):
        # the tail is at most e^-40 = 4e-18, below the rounding of p above
        # about 0.02: levels there compute no special function, also where
        # d2p/dmu2 crosses zero at mu_1/2 = 0
        import scipy.special
        rows = []
        log_ndtr = scipy.special.log_ndtr

        def counted(x):
            rows.append(np.size(x))
            return log_ndtr(x)
        monkeypatch.setattr(scipy.special, "log_ndtr", counted)
        occupation(np.linspace(-2.0, 2.0, 9), self.SYS)
        _combined(np.linspace(-2.0, 2.0, 9), self.SYS, ("cdf", "pdf", "dpdf"))
        _combined(0.0, self.SYS, ("cdf", "pdf", "dpdf"))
        assert rows == []
        occupation(np.array([-1.0, 0.0, 40.0, 60.0]), self.SYS)
        assert rows == [2, 2]  # the two far levels, once for each lead


class TestNarrowLorentzianTail:
    """Under a Lorentzian narrower than 2 kT, p near d = 40 kT above a lead
    is the kernel's algebraic tail, about w/(pi d), plus the Fermi part
    e^(-d/kT), and the thermal rule's window |s| <= 40 cuts the e^(-40) of
    the latter. kT = 1 on both leads at mu = 0: p, -dp/dmu and d2p/dmu2 at
    mu = 30, 39, 40, 40 + 3e-6, 41, 45 and 60 against 50-digit mpmath (the
    logistic density times the kernel's cdf and pdf, and d2p/dmu2 as
    -E_U[rho'(mu + U)] over the kernel, with rho' the logistic slope; over
    intervals graded by factors of 4 about the kernel's centre down to w,
    5-wide ones on |y| <= 300, 2-wide ones within 60 of the logistic's
    centre, and the two infinite tails; 40 digits agreed to 1e-28)."""

    MU = np.array([30.0, 39.0, 40.0, 40.0 + 3e-6, 41.0, 45.0, 60.0])

    @pytest.mark.parametrize("w, expected", [
        (1.0, [
            (0.01064571548451735, 0.00035725295926634877,
             2.4061529469232833e-05),
            (0.008177797688469103, 0.00021051530037122622,
             1.0860135340558894e-05),
            (0.007972575647440722, 0.00020006213631735065,
             1.005983281796045e-05),
            (0.007972575047254358, 0.00020006210613785562,
             1.0059830537232573e-05),
            (0.007777419839704917, 0.00019037002462560124,
             9.336409913147808e-06),
            (0.007083948997773726, 0.00015788622300438868,
             7.048453581082831e-06),
            (0.005309537822890273, 8.863860803323365e-05,
             2.9619723054403055e-06),
        ]),
        (0.001, [
            (1.0649732290141234e-05, 3.5766076519841134e-07,
             2.4117026618539472e-08),
            (8.179609409338126e-06, 2.1065587274713472e-07,
             1.0874711059651195e-08),
            (7.974253780093616e-06, 2.001890326001739e-07,
             1.0072654365106533e-08),
            (7.974253179526564e-06, 2.0018900238221425e-07,
             1.0072652079509914e-08),
            (7.77897722630282e-06, 1.9048487140128147e-07,
             9.347725106149643e-09),
            (7.0851245633667996e-06, 1.5796510038274152e-07,
             7.055521964952124e-09),
            (5.310031678043608e-06, 8.866338953263267e-08,
             2.9636318583198755e-09),
        ]),
        (1e-06, [
            (1.0649825776814224e-08, 3.5775424826010234e-10,
             2.4210509327545857e-11),
            (8.179609422687252e-09, 2.106558844244778e-10,
             1.0874722610917666e-11),
            (7.974253786016496e-09, 2.0018903697125727e-10,
             1.0072658622046343e-11),
            (7.97425318544943e-09, 2.0018900675328484e-10,
             1.0072656336436987e-11),
            (7.778977229422092e-09, 1.904848730775174e-10,
             9.347726678794514e-12),
            (7.085124564571315e-09, 1.5796510049025512e-10,
             7.0555220006224204e-12),
            (5.310031678537546e-09, 8.866338955742114e-11,
             2.963631859980137e-12),
        ]),
        (1e-12, [
            (1.0422596188897753e-13, 9.393389036041465e-14,
             9.360034662146457e-14),
            (8.191157635312047e-15, 2.222040970492695e-16,
             2.2422935235709294e-17),
            (7.978502136023435e-15, 2.0443738697819474e-16,
             1.432100862898369e-17),
            (7.978501522711338e-15, 2.044373440151914e-16,
             1.4320993598343433e-17),
            (7.780540110048546e-15, 1.920477537039703e-16,
             1.0910607305247324e-17),
            (7.085153189728497e-15, 1.5799372564743552e-16,
             7.084147157802736e-18),
            (5.310031678546303e-15, 8.866338956617767e-17,
             2.9636318687366407e-18),
        ]),
    ])
    def test_matches_mpmath(self, w, expected):
        # without the tail, p was 5.3e-10 low at w = 1e-6, mu = 40, and
        # 5.3e-4 low at w = 1e-12; a graded block's d2p/dmu2 that took the
        # edge term K'(a) with the tail was 13% off at w = 1e-6, mu = 40
        sys_ = make_system(1.0, 1.0, 0.0, 0.5, Lorentzian(w))
        got = _combined(self.MU, sys_, ("cdf", "pdf", "dpdf"))
        for g, want, rtol in zip(got, np.array(expected).T,
                                 (1e-12, 1e-10, 1e-10)):
            np.testing.assert_allclose(g, want, rtol=rtol, atol=0.0)
        for mu, want in zip(self.MU, np.array(expected)[:, 0]):
            assert occupation(float(mu), sys_) == pytest.approx(
                want, rel=1e-12, abs=0.0)
