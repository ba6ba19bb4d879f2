"""Finite-time protocol simulation and work accounting."""

import math

import numpy as np
import pytest

from chargebit.dot_model import occupation
from chargebit.dynamics import (INSTANTANEOUS, LINEAR, ProtocolSchedule,
                                Segment, StepTooLarge, make_erasure_schedule,
                                reversibility_check, simulate)
from chargebit.erasure import erasure_costs
from chargebit.kernels import Gaussian
from chargebit.numerics import integrate

from conftest import make_system

SYM = make_system(1.0, 1.0, 0.0, 0.5)  # total rate exactly 1


class TestSegments:
    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Segment(0.0, 1.0, -1.0)

    def test_instantaneous_must_be_zero_length(self):
        with pytest.raises(ValueError):
            Segment(0.0, 1.0, 2.0, INSTANTANEOUS)

    def test_schedule_contiguity(self):
        with pytest.raises(ValueError):
            ProtocolSchedule((Segment(0.0, 1.0, 1.0),
                              Segment(2.0, 3.0, 1.0)))

    def test_bad_initial_occupation(self):
        with pytest.raises(ValueError):
            simulate(SYM, ProtocolSchedule((Segment(0.0, 1.0, 1.0),),
                                           initial_occupation=1.5), 0.05)


class TestSimulate:
    def test_step_cap_enforced(self):
        sched = ProtocolSchedule((Segment(0.0, 1.0, 1.0),))
        with pytest.raises(StepTooLarge):
            simulate(SYM, sched, 0.2)

    def test_constant_level_exponential_relaxation(self):
        sched = ProtocolSchedule((Segment(3.0, 3.0, 6.0),),
                                 initial_occupation=0.9)
        traj = simulate(SYM, sched, 0.05)
        p_ss = occupation(3.0, SYM)
        exact = p_ss + (0.9 - p_ss) * np.exp(-traj.t)
        assert np.max(np.abs(traj.p - exact)) < 1e-7
        assert traj.total_work == 0.0

    def test_pure_quench_work(self):
        sched = ProtocolSchedule((Segment(1.0, 7.5, 0.0, INSTANTANEOUS),))
        traj = simulate(SYM, sched, 0.05)
        assert traj.total_work == pytest.approx(
            6.5 * occupation(1.0, SYM), rel=1e-12)
        assert traj.final_occupation == pytest.approx(occupation(1.0, SYM))

    def test_quench_work_linear_in_distance(self):
        for d in (2.0, 4.0):
            sched = ProtocolSchedule((Segment(0.0, d, 0.0, INSTANTANEOUS),),
                                     initial_occupation=0.3)
            traj = simulate(SYM, sched, 0.05)
            assert traj.total_work == pytest.approx(0.3 * d, rel=1e-12)

    def test_occupation_stays_physical(self):
        sched = make_erasure_schedule(SYM, "zero", 3.0)
        traj = simulate(SYM, sched, 0.05)
        assert np.all(traj.p >= 0.0) and np.all(traj.p <= 1.0)
        assert np.all(np.diff(traj.t) > 0)

    def test_work_additivity(self):
        full = ProtocolSchedule((Segment(0.0, 4.0, 5.0),
                                 Segment(4.0, 1.0, 3.0)),
                                initial_occupation=0.5)
        traj = simulate(SYM, full, 0.05)
        first = simulate(SYM, ProtocolSchedule(
            (Segment(0.0, 4.0, 5.0),), initial_occupation=0.5), 0.05)
        second = simulate(SYM, ProtocolSchedule(
            (Segment(4.0, 1.0, 3.0),),
            initial_occupation=first.final_occupation), 0.05)
        assert traj.total_work == pytest.approx(
            first.total_work + second.total_work, abs=1e-9)


class TestErasureSchedules:
    def test_zero_target_geometry(self):
        sched = make_erasure_schedule(SYM, "zero", 10.0, cutoff_multiplier=30)
        up, down = sched.segments
        assert up.mu_start == pytest.approx(0.0, abs=1e-9)
        assert up.mu_end == pytest.approx(30.0, abs=1e-6)
        assert down.shape == INSTANTANEOUS
        traj = simulate(SYM, sched, 0.05)
        assert traj.mu[-1] == pytest.approx(up.mu_start)
        assert traj.final_occupation < 1e-4

    def test_targets_symmetric(self):
        tz = simulate(SYM, make_erasure_schedule(SYM, "zero", 50.0), 0.05)
        to = simulate(SYM, make_erasure_schedule(SYM, "one", 50.0), 0.05)
        assert tz.total_work == pytest.approx(to.total_work, rel=1e-3)

    def test_zero_duration_erasure_fails_for_free(self):
        sched = make_erasure_schedule(SYM, "zero", 0.0)
        traj = simulate(SYM, sched, 0.05)
        assert traj.total_work == pytest.approx(0.0, abs=1e-12)
        assert traj.final_occupation == pytest.approx(0.5, abs=1e-9)

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            make_erasure_schedule(SYM, "both", 1.0)

    def test_quasistatic_convergence_is_monotone(self):
        sched0 = make_erasure_schedule(SYM, "zero", 1.0)
        mu_half, mu_hi = sched0.segments[0].mu_start, sched0.segments[0].mu_end
        limit = (integrate(lambda m: occupation(m, SYM), mu_half, mu_hi).value
                 + (mu_half - mu_hi) * occupation(mu_hi, SYM))
        errors = []
        for duration in (20.0, 50.0, 100.0, 200.0):
            traj = simulate(
                SYM, make_erasure_schedule(SYM, "zero", duration), 0.05)
            errors.append(abs(traj.total_work - limit))
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_slow_ramp_matches_quasistatic_cost(self):
        biased = make_system(1.0, 1.0, 36.0, 0.35)
        w0 = erasure_costs(biased, mad_check=False).w_zero
        traj = simulate(biased, make_erasure_schedule(
            biased, "zero", 200.0, cutoff_multiplier=20.0), 0.05)
        assert traj.total_work == pytest.approx(w0, rel=0.02)

    def test_broadened_device_simulates(self):
        sys_ = make_system(0.5, 0.5, 2.0, 0.5, Gaussian(1.0))
        traj = simulate(sys_, make_erasure_schedule(sys_, "zero", 30.0), 0.05)
        assert traj.final_occupation < 1e-3
        assert traj.total_work > 0.0


class TestReversibility:
    def test_slow_round_trip_nearly_free(self):
        report = reversibility_check(SYM, 500.0, cutoff_multiplier=4.0)
        assert abs(report.net_work) < 0.01  # below 0.01 kT
        assert report.p_error < 0.01

    def test_zero_duration_degenerate(self):
        report = reversibility_check(SYM, 0.0)
        assert report.net_work == 0.0
        assert report.p_error == pytest.approx(0.0, abs=1e-12)

    def test_fast_round_trip_dissipates(self):
        report = reversibility_check(SYM, 1.0)
        assert report.net_work > 0.0
