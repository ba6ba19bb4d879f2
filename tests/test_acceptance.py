"""End-to-end acceptance checks, one test per shipping criterion.

Each test prints a single PASS line when its assertions hold, so running
``pytest -v -s tests/test_acceptance.py`` yields one line per criterion.
"""

import math

import numpy as np
import pytest

from chargebit import (DotSystem, TunnelRates, check_bound, energy_scales,
                       erasure_costs, eta_erasure_work)
from chargebit.cli import DeviceSpec, run_lemma_suite, sweep
from chargebit.dynamics import make_erasure_schedule, simulate
from chargebit.erasure import absolute_deviation_integral
from chargebit.kernels import Delta, Gaussian, Lorentzian
from chargebit.units import broadening_energy_uev, thermal_energy_uev

from conftest import make_system, random_system, reference_quad

LN2 = math.log(2.0)


def test_criterion_01_landauer_recovery():
    sys_ = make_system(1.0, 1.0, 0.0, 0.5)
    costs = erasure_costs(sys_)
    assert costs.w_bar == pytest.approx(LN2, rel=1e-8)
    print("criterion 1 PASS: zero-bias sharp-level cost is kT*ln2")


def test_criterion_02_weighted_landauer():
    sys_ = make_system(2.0, 1.0, 0.0, 0.3)
    expected = LN2 * (0.3 * 2.0 + 0.7 * 1.0)
    costs = erasure_costs(sys_)
    assert costs.w_bar == pytest.approx(expected, rel=1e-8)
    print("criterion 2 PASS: two-temperature cost is the rate-weighted kT*ln2")


def _device(temp_k, bias_uev, rate_s, rate_d):
    kt = thermal_energy_uev(temp_k)
    width = broadening_energy_uev(rate_s + rate_d)
    return make_system(kt, kt, bias_uev, rate_s / (rate_s + rate_d),
                       Gaussian(width))


def test_criterion_03_device1_regression():
    sys_ = _device(0.040, 200.0, 6.3e9, 250e9)
    scales = energy_scales(sys_)
    assert abs(scales.e_therm - 2.4) <= 0.05
    assert abs(scales.e_bias - 2.5) <= 0.05
    assert abs(scales.e_broad - 67.0) <= 0.5
    costs = erasure_costs(sys_)
    assert abs(costs.w_bar - 68.0) <= 1.5
    print("criterion 3 PASS: 40 mK / 200 ueV / GHz-rate device reproduces "
          "(2.4, 2.5, 67) ueV scales and 68 ueV average cost")


def test_criterion_04_device2_regression():
    sys_ = _device(0.350, 500.0, 1.75e3, 1.45e3)
    scales = energy_scales(sys_)
    assert scales.e_therm == pytest.approx(21.0, rel=0.02)
    assert scales.e_bias == pytest.approx(113.0, rel=0.02)
    assert scales.e_broad == pytest.approx(8.4e-7, rel=0.02)
    costs = erasure_costs(sys_)
    assert abs(costs.w_bar - 117.0) <= 1.5
    print("criterion 4 PASS: 350 mK / 500 ueV / kHz-rate device reproduces "
          "(21, 113, 8.4e-7) ueV scales and 117 ueV average cost")


def test_criterion_05_bound_over_random_systems():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        sys_ = random_system(rng)
        costs = erasure_costs(sys_, mad_check=False)
        report = check_bound(costs, energy_scales(sys_))
        assert report.satisfied, (sys_, report)
    print("criterion 5 PASS: max/sum energy-scale sandwich held on 1000 "
          "random devices spanning three decades per scale")


def test_criterion_06_mad_form_identity():
    rng = np.random.default_rng(7)
    for i in range(50):
        kernel = Delta() if i % 2 else Gaussian(10.0 ** rng.uniform(-1, 2))
        sys_ = random_system(rng, kernel)
        costs = erasure_costs(sys_, mad_check=False)
        mad = absolute_deviation_integral(sys_, costs.mu_half)
        assert costs.w_bar == pytest.approx(0.5 * mad, rel=1e-8)
    print("criterion 6 PASS: ramp-integral average cost equals half the "
          "absolute deviation of -dp/dmu on 50 random devices")


def test_criterion_07_gaussian_kernel_mad():
    for sigma in (0.5, 1.0, 3.7):
        kernel = Gaussian(sigma)
        numeric = 2.0 * reference_quad(
            lambda x: x * math.exp(-0.5 * (x / sigma) ** 2)
            / (sigma * math.sqrt(2.0 * math.pi)),
            0.0, 12.0 * sigma)
        assert kernel.mad == pytest.approx(numeric, rel=1e-9)
        assert kernel.mad == pytest.approx(
            sigma * math.sqrt(2.0 / math.pi), rel=1e-12)
    print("criterion 7 PASS: Gaussian kernel MAD matches sigma*sqrt(2/pi) "
          "and its quadrature evaluation")


def test_criterion_08_lorentzian_eta_erasure():
    sys_ = make_system(0.0, 0.0, 0.0, 0.5, Lorentzian(1.0))
    for eta in (0.25, 0.1, 0.01):
        closed = (1.0 / (2.0 * math.pi)) * math.log(
            1.0 / math.cos(math.pi * (0.5 - eta)) ** 2)
        assert eta_erasure_work(sys_, eta) == pytest.approx(closed, rel=1e-8)
    print("criterion 8 PASS: Lorentzian partial-erasure work matches the "
          "log-secant closed form at eta = 0.25, 0.1, 0.01")


def test_criterion_09_lemma_suite():
    ok, lines = run_lemma_suite(trials=500, seed=42)
    assert ok, "\n".join(lines)
    print("criterion 9 PASS: 500 random pairs satisfied both MAD sandwich "
          "inequalities at grid step 1/512")


def test_criterion_10_dynamics_limits():
    # quench work is exactly (mu_f - mu_i) * p(mu_i)
    sys_ = make_system(1.0, 1.0, 0.0, 0.5)
    from chargebit.dynamics import INSTANTANEOUS, ProtocolSchedule, Segment
    from chargebit.dot_model import occupation
    sched = ProtocolSchedule((Segment(1.0, 7.5, 0.0, INSTANTANEOUS),))
    traj = simulate(sys_, sched, 0.05)
    p_i = occupation(1.0, sys_)
    assert traj.total_work == pytest.approx(6.5 * p_i, rel=1e-12)

    # slow ramp (200 relaxation times) reproduces the quasistatic cost to 2%
    biased = make_system(1.0, 1.0, 36.0, 0.35)
    w0 = erasure_costs(biased, mad_check=False).w_zero
    slow = simulate(biased, make_erasure_schedule(
        biased, "zero", 200.0, cutoff_multiplier=20.0), 0.05)
    assert abs(slow.total_work / w0 - 1.0) <= 0.02

    # a one-relaxation-time ramp dissipates: work strictly above the optimum
    w0_sym = erasure_costs(sys_, mad_check=False).w_zero
    fast = simulate(sys_, make_erasure_schedule(sys_, "zero", 1.0), 0.05)
    assert fast.total_work > w0_sym
    print("criterion 10 PASS: quench work exact, 200/Gamma ramp within 2% "
          "of quasistatic, 1/Gamma ramp strictly dissipative")


def test_criterion_11_median_minimization():
    rng = np.random.default_rng(11)
    for _ in range(20):
        sys_ = random_system(rng, Delta())
        costs = erasure_costs(sys_, mad_check=False)
        scale = max(sys_.source.thermal_energy, sys_.drain.thermal_energy,
                    sys_.bias, 1.0)
        for _ in range(20):
            offset = rng.uniform(-3.0, 3.0) * scale
            if offset == 0.0:
                continue
            dev = absolute_deviation_integral(sys_, costs.mu_half + offset)
            assert dev >= 2.0 * costs.w_bar - 1e-8 * (1.0 + 2.0 * costs.w_bar)
    print("criterion 11 PASS: absolute deviation about off-median points "
          "never beat the median value on 20 devices x 20 offsets")


def test_criterion_12_sweep_corner_consistency(tmp_path):
    kt = thermal_energy_uev(0.040)
    spec = DeviceSpec(temperature_source=0.040, temperature_drain=0.040,
                      bias=0.0, rate_source=1e9, rate_drain=1e9,
                      kernel="gaussian")
    out = tmp_path / "sweep.csv"
    sweep(spec, bias_max=60.0 * kt, width_max=60.0 * kt, points=9,
          out=str(out))
    rows = np.genfromtxt(out, delimiter=",", names=True)
    corner = rows[(rows["bias"] == 0.0) & (rows["hbar_gamma_tot"] == 0.0)]
    assert corner["w_bar"] == pytest.approx(kt * LN2, rel=1e-8)
    dominated = 0
    for row in rows:
        if row["hbar_gamma_tot"] == 0.0 and row["e_bias"] >= 5.0 * row["e_therm"]:
            assert abs(row["w_bar"] / row["e_bias"] - 1.0) <= 0.15
            dominated += 1
        if row["bias"] == 0.0 and row["e_broad"] >= 5.0 * row["e_therm"]:
            assert abs(row["w_bar"] / row["e_broad"] - 1.0) <= 0.15
            dominated += 1
    assert dominated >= 6  # both axes actually reached their dominated regime
    print("criterion 12 PASS: sweep corner equals the zero-bias cost and "
          "each axis approaches its dominant scale within 15%")
