"""Each output check of the benchmark accepts chargebit's real output and
rejects a perturbed copy; the reference occupation matches tight quadrature;
the tracer's counts repeat exactly. Kept fast: tier-1 collects this file."""

import math

import numpy as np
import pytest

import chargebit.dot_model
import chargebit.erasure
from chargebit.numerics import NumericsConfig

import oracle
import workloads
from oracle import CheckFailed
from tracer import Tracer

TIGHT = NumericsConfig(rel_tol=1e-13, abs_tol=1e-16, max_subdivisions=400)


@pytest.fixture(scope="module")
def sweep_case():
    wl = workloads.WORKLOADS["sweep"]
    item = wl.make_round(3, 0)[0]
    return wl, item, wl.run(item)


@pytest.mark.parametrize("kt_s,kt_d,sigma", [
    (1e-3, 0.5, 30.0),   # both leads much sharper than the kernel
    (2.0, 0.7, 0.05),    # kernel much narrower than both leads
    (0.8, 1e-3, 0.8),    # one sharp lead, one comparable
    (0.4, 0.9, 0.0),     # no broadening
])
def test_reference_occupation_matches_tight_quadrature(kt_s, kt_d, sigma):
    dev = oracle.Device(kt_s, kt_d, 7.0, 0.0, 0.3, sigma)
    sys_ = workloads._core_system(dev)
    mus = np.array([-40.0, -2.0, 0.3, 3.5, 6.9, 7.2, 12.0])
    mine = oracle.occupation(mus, dev)
    for mu, p in zip(mus, mine):
        ref = chargebit.dot_model.occupation(float(mu), sys_, TIGHT)
        assert abs(p - ref) < 1e-11


def test_sweep_checks_accept_real_output(sweep_case):
    wl, item, out = sweep_case
    wl.check(item, out)


def test_steady_state_checks_reject_perturbations(sweep_case):
    _, item, (_, costs, _) = sweep_case
    dev = item.device
    w0, w1, mu = costs.w_zero, costs.w_one, costs.mu_half
    upper = sum(oracle.energy_scales(dev))
    with pytest.raises(CheckFailed, match="outside"):
        oracle.check_steady_state(dev, w0 + upper, w1 + upper,
                                  0.5 * (w0 + w1) + upper, mu)
    d = 1e-7 * max(w0, w1)
    with pytest.raises(CheckFailed, match="W0 - W1"):
        oracle.check_steady_state(dev, w0 + d, w1 - d, costs.w_bar, mu)
    shift = 1e-6 * dev.sigma
    with pytest.raises(CheckFailed, match="not 1/2"):
        oracle.check_steady_state(dev, w0 - shift / 2, w1 + shift / 2,
                                  costs.w_bar, mu + shift)


def test_scale_and_mad_checks_reject_perturbations(sweep_case):
    _, item, (scales, costs, _) = sweep_case
    with pytest.raises(CheckFailed, match="e_therm"):
        oracle.check_scales(item.device, scales.e_therm * (1 + 1e-9),
                            scales.e_bias, scales.e_broad)
    oracle.check_mad_discrepancy(costs.w_bar, 1e-12)
    with pytest.raises(CheckFailed, match="MAD/2"):
        oracle.check_mad_discrepancy(costs.w_bar, 1e-6 * (1 + costs.w_bar))


def test_analyze_delta_item_checks():
    wl = workloads.WORKLOADS["analyze"]
    spec = wl.make_round(5, 0)[0]
    assert spec.kernel == "delta"
    report = wl.run(spec)
    wl.check(spec, report)
    bad = dict(report, mad_form_discrepancy_ueV=1e-3)
    with pytest.raises(CheckFailed):
        wl.check(spec, bad)


def test_eta_check():
    good = {0.1: 1.0, 0.01: 2.5, 0.001: 4.0}
    oracle.check_eta_works(good)
    for bad in ({0.1: 1.0, 0.01: 0.9, 0.001: 4.0},
                {0.1: -1.0, 0.01: 2.5, 0.001: 4.0},
                {0.1: 1.0, 0.01: 2.5, 0.001: math.inf}):
        with pytest.raises(CheckFailed):
            oracle.check_eta_works(bad)


@pytest.fixture(scope="module")
def ramp_case():
    dev = oracle.Device(0.8, 1.3, 4.0, 0.0, 0.35)
    item = workloads.RampItem(dev, workloads._core_system(dev), "zero", 18.0)
    return item, workloads.WORKLOADS["protocol"].run(item)


def test_ramp_checks_accept_real_output(ramp_case):
    item, out = ramp_case
    workloads.WORKLOADS["protocol"].check(item, out)


def test_ramp_checks_reject_perturbations(ramp_case):
    item, (sched, traj) = ramp_case
    ramp = sched.segments[0]
    span = ramp.mu_end - ramp.mu_start
    args = (item.device, 1.0, ramp.mu_start, ramp.mu_end, ramp.duration)
    with pytest.raises(CheckFailed, match="total work"):
        oracle.check_ramp(*args, traj.total_work + 1e-5 * span,
                          traj.final_occupation)
    with pytest.raises(CheckFailed, match="final occupation"):
        oracle.check_ramp(*args, traj.total_work,
                          traj.final_occupation + 1e-6)
    mine = oracle.integrate_ramp(*args)
    oracle.check_linear_response(item.device, ramp.mu_start, ramp.mu_end,
                                 18.0, traj.total_work,
                                 mine.occupation_integral)
    excess = traj.total_work - (mine.occupation_integral
                                - span * traj.final_occupation)
    with pytest.raises(CheckFailed, match="linear-response"):
        oracle.check_linear_response(item.device, ramp.mu_start,
                                     ramp.mu_end, 18.0,
                                     traj.total_work + 0.01 * excess,
                                     mine.occupation_integral)


def test_lemma_checks():
    wl = workloads.WORKLOADS["lemmas"]
    rng = wl.make_round(9, 0)[0]
    out = wl.run(rng)
    wl.check(rng, out)
    wl.check_round(9, 0)
    f, g, rep1, fs, gs, p_f, rep2 = out
    bad1 = dict(rep1.values, d_fg=rep1.values["d_fg"] * (1 + 1e-7))
    with pytest.raises(CheckFailed, match="d_fg"):
        oracle.check_lemma1(f, g, bad1, True)
    with pytest.raises(CheckFailed, match="violation"):
        oracle.check_lemma1(f, g, rep1.values, False)
    bad2 = dict(rep2.values, d_mix=rep2.values["d_mix"] * (1 + 1e-7))
    with pytest.raises(CheckFailed, match="mixture"):
        oracle.check_lemma2(fs, gs, p_f, bad2, True)
    with pytest.raises(CheckFailed, match="closed form"):
        oracle.check_gaussian_cross_mad(0.3, 0.4, 0.4 + 1e-4)


def test_inputs_depend_only_on_seed():
    for wl in workloads.WORKLOADS.values():
        if wl.name == "lemmas":
            continue
        assert wl.make_round(4, 2) == wl.make_round(4, 2)
        assert wl.make_round(4, 2) != wl.make_round(5, 2)


def test_tracer_counts_repeat_and_uninstall_restores(sweep_case):
    wl, item, _ = sweep_case
    original = chargebit.erasure.integrate
    runs = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        assert chargebit.erasure.integrate is not original
        assert chargebit.dot_model.integrate is chargebit.erasure.integrate
        tracer.run_item(0, wl.run, item)
        tracer.uninstall()
        runs.append({k: v for k, v in tracer.per_layer(1).items()
                     if not k.endswith(".ms")})
    assert chargebit.erasure.integrate is original
    assert runs[0] == runs[1]
    assert runs[0]["dot_model.half_occupation_level.calls"] == 1
    assert runs[0]["numerics.integrate.evals"] > runs[0][
        "numerics.integrate.calls"] > 0
