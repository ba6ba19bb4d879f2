"""Finite-time protocol simulation and work accounting."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from chargebit import DotSystem, LeadParams, TunnelRates, dynamics
from chargebit.dot_model import occupation
from chargebit.dynamics import (ProtocolSchedule, Segment, _phi, _ramp_table,
                                make_erasure_schedule, simulate)
from chargebit.erasure import erasure_costs, eta_erasure_work
from chargebit.kernels import Delta, Gaussian, Lorentzian

from conftest import make_system, reference_quad

SYM = make_system(1.0, 1.0, 0.0, 0.5)  # total rate exactly 1


class TestSegments:
    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Segment(0.0, 1.0, -1.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["mu_start", "mu_end", "duration"])
    def test_non_finite_field_named(self, field, bad):
        values = {"mu_start": 0.0, "mu_end": 1.0, "duration": 1.0, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Segment(**values)

    def test_schedule_contiguity(self):
        with pytest.raises(ValueError):
            ProtocolSchedule((Segment(0.0, 1.0, 1.0),
                              Segment(2.0, 3.0, 1.0)))

    def test_bad_initial_occupation(self):
        with pytest.raises(ValueError):
            simulate(SYM, ProtocolSchedule((Segment(0.0, 1.0, 1.0),),
                                           initial_occupation=1.5), 0.05)


class TestSimulate:
    @pytest.mark.parametrize("kernel", [Delta(), Gaussian(0.8),
                                        Lorentzian(0.5)])
    def test_third_argument_is_not_read(self, kernel):
        sys_ = make_system(1.0, 0.9, 5.0, 0.4, kernel)
        sched = make_erasure_schedule(sys_, "zero", 10.0)
        runs = [simulate(sys_, sched, 0.05), simulate(sys_, sched, 0.5),
                simulate(sys_, sched)]
        for name in ("t", "mu", "p", "work"):
            first = getattr(runs[0], name)
            assert len(first) == 201
            for other in runs[1:]:
                assert np.array_equal(getattr(other, name), first)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("gamma_d", [1e-300, 1e-310, 5e-324])
    def test_vanishing_ramp_is_a_quench(self, gamma_d):
        # far shorter than 1/Gamma, the ramp is a quench: p keeps its start
        # value. Its speed, 10 / d, overflows for the two smaller d
        sys_ = make_system(1.0, 0.7, 4.0, 0.4, Gaussian(0.5))
        traj = simulate(sys_, ProtocolSchedule((Segment(-1.0, 9.0, gamma_d),)))
        p0 = occupation(-1.0, sys_)
        assert np.all(np.isfinite(traj.t)) and np.all(np.isfinite(traj.mu))
        assert np.all(traj.p == p0)
        assert traj.total_work == pytest.approx(10.0 * p0, rel=1e-12)

    def test_constant_level_exponential_relaxation(self):
        sched = ProtocolSchedule((Segment(3.0, 3.0, 6.0),),
                                 initial_occupation=0.9)
        traj = simulate(SYM, sched, 0.05)
        p_ss = occupation(3.0, SYM)
        exact = p_ss + (0.9 - p_ss) * np.exp(-traj.t)
        assert np.max(np.abs(traj.p - exact)) < 1e-7
        assert traj.total_work == 0.0

    def test_long_coarse_steps_relax_exactly(self):
        # steps of 10/Gamma over 2000/Gamma: past any single exponential
        sched = ProtocolSchedule((Segment(3.0, 3.0, 2000.0),),
                                 initial_occupation=0.9)
        traj = simulate(SYM, sched, 1000.0)
        p_ss = occupation(3.0, SYM)
        exact = p_ss + (0.9 - p_ss) * np.exp(-traj.t)
        assert np.max(np.abs(traj.p - exact)) < 1e-14

    def test_pure_quench_work(self):
        sched = ProtocolSchedule((Segment(1.0, 7.5, 0.0),))
        traj = simulate(SYM, sched, 0.05)
        assert traj.total_work == pytest.approx(
            6.5 * occupation(1.0, SYM), rel=1e-12)
        assert traj.final_occupation == pytest.approx(occupation(1.0, SYM))

    def test_quench_work_linear_in_distance(self):
        for d in (2.0, 4.0):
            sched = ProtocolSchedule((Segment(0.0, d, 0.0),),
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


class TestExactRamps:
    """Closed forms the exact integrator must reproduce."""

    @staticmethod
    def _piecewise_relaxation(t, rate, mu_start, p0, levels):
        """p and work for p_ss constant between breakpoints in mu.

        ``levels`` is [(mu_break, p_ss beyond it), ...] in ramp order; on each
        piece p relaxes as c + (p_k - c) e^{-t} (Gamma = 1).
        """
        p = np.empty_like(t)
        work = np.empty_like(t)
        t_k, p_k, w_k = 0.0, p0, 0.0
        c = levels[0][1]
        edges = [((m - mu_start) / rate, nxt) for m, nxt in levels[1:]]
        edges.append((math.inf, None))
        j = 0
        for i, ti in enumerate(t):
            while ti > edges[j][0]:
                dt = edges[j][0] - t_k
                w_k += rate * (c * dt + (p_k - c) * -math.expm1(-dt))
                p_k = c + (p_k - c) * math.exp(-dt)
                t_k, c = edges[j][0], edges[j][1]
                j += 1
            dt = ti - t_k
            p[i] = c + (p_k - c) * math.exp(-dt)
            work[i] = w_k + rate * (c * dt + (p_k - c) * -math.expm1(-dt))
        return p, work

    def test_ramp_across_two_atoms(self):
        # T = 0 leads at 0 and 1 without broadening: p_ss is 1, g_S, 0
        sys_ = make_system(0.0, 0.0, 1.0, 0.3)
        sched = ProtocolSchedule((Segment(-0.5, 1.6, 3.0),),
                                 initial_occupation=0.9)
        traj = simulate(sys_, sched, 0.05)
        rate = 0.7
        p, work = self._piecewise_relaxation(
            traj.t, rate, -0.5, 0.9, [(-0.5, 1.0), (0.0, 0.3), (1.0, 0.0)])
        assert np.max(np.abs(traj.p - p)) < 1e-12
        assert np.max(np.abs(traj.work - work)) < 1e-12

    def test_atoms_are_table_nodes_with_one_sided_limits(self):
        # p_ss is constant between the atoms, so the table is the 201
        # samples, each atom twice and one pass of midpoints, none split again
        sys_ = make_system(0.0, 0.0, 1.0, 0.3)
        seg = Segment(-0.5, 1.6, 3.0)
        u, q, m = _ramp_table(sys_, seg, np.linspace(0.0, 1.0, 201))
        assert u.size == 205 + 202
        assert np.all(np.diff(u) >= 0.0)
        at = np.flatnonzero(np.diff(u) == 0.0)
        assert u[at] == pytest.approx([0.5 / 2.1, 1.5 / 2.1], abs=1e-15)
        assert list(q[at]) == [1.0, 0.3] and list(q[at + 1]) == [0.3, 0.0]
        assert not np.any(m)

    def test_decoupled_cold_lead_adds_no_nodes(self):
        # rates (0, 1): the source carries no weight, so its atom at 2.01,
        # between two output samples of the ramp, changes nothing against a
        # source at 1 kT
        seg = Segment(-3.0, 5.0, 4.0)
        cold, warm = (simulate(make_system(kt, 1.0, 2.01, 0.0),
                               ProtocolSchedule((seg,)), 0.05)
                      for kt in (0.0, 1.0))
        for name in ("t", "mu", "p", "work"):
            assert np.array_equal(getattr(cold, name), getattr(warm, name))

    def test_ramp_across_the_shared_atom_at_zero_bias(self):
        # both T = 0 leads at 0: p_ss is 1 below it and 0 above, and the
        # atom is one pair of nodes however many leads sit on it
        sys_ = make_system(0.0, 0.0, 0.0, 0.3)
        seg = Segment(-0.5, 1.6, 3.0)
        traj = simulate(sys_, ProtocolSchedule((seg,), initial_occupation=0.9),
                        0.05)
        p, work = self._piecewise_relaxation(
            traj.t, 0.7, -0.5, 0.9, [(-0.5, 1.0), (0.0, 0.0)])
        assert np.max(np.abs(traj.p - p)) < 1e-12
        assert np.max(np.abs(traj.work - work)) < 1e-12
        u, q, _ = _ramp_table(sys_, seg, np.linspace(0.0, 1.0, 201))
        at = np.flatnonzero(u == 0.5 / 2.1)
        assert list(q[at]) == [1.0, 0.0]

    def test_constant_level_on_an_atom_crosses_nothing(self):
        # a zero-span ramp sits on the drain atom: p relaxes to its
        # midpoint value there, g_S + g_D/2
        sys_ = make_system(0.0, 0.0, 1.0, 0.3)
        traj = simulate(sys_, ProtocolSchedule((Segment(0.0, 0.0, 3.0),),
                                               initial_occupation=0.9))
        exact = 0.65 + (0.9 - 0.65) * np.exp(-traj.t)
        assert np.max(np.abs(traj.p - exact)) < 1e-14
        assert traj.total_work == 0.0

    def test_table_depends_on_the_level_path_alone(self):
        sys_ = make_system(1.0, 0.7, 4.0, 0.4, Gaussian(0.5))
        u_out = np.linspace(0.0, 1.0, 201)
        first, *rest = (_ramp_table(sys_, Segment(-1.0, 9.0, d), u_out)
                        for d in (1e-300, 5.0, 1e20))
        for table in rest:
            for row, first_row in zip(table, first):
                assert np.array_equal(row, first_row)

    @pytest.mark.parametrize("tau_gamma", [0.5, 5.0])
    def test_matches_tight_dop853(self, tau_gamma):
        sys_ = make_system(1.0, 0.7, 4.0, 0.4)
        ramp = make_erasure_schedule(sys_, "zero", tau_gamma).segments[0]
        rate = (ramp.mu_end - ramp.mu_start) / ramp.duration
        traj = simulate(sys_, ProtocolSchedule((ramp,)), 0.05)
        ref = solve_ivp(
            lambda t, y: [occupation(ramp.mu_start + rate * t, sys_) - y[0],
                          rate * y[0]],
            (0.0, ramp.duration), [0.5, 0.0], method="DOP853", rtol=1e-13,
            atol=1e-15, t_eval=traj.t)
        assert np.max(np.abs(traj.p - ref.y[0])) < 1e-11
        span = ramp.mu_end - ramp.mu_start
        assert np.max(np.abs(traj.work - ref.y[1])) < 1e-11 * span

    def test_erasure_ramp_starting_on_an_atom(self):
        # g_S < 1/2 puts mu_1/2 on the drain atom; p starts at its midpoint
        # value p(0) = g_S + g_D/2 and relaxes to g_S, then to 0 past mu_S
        sys_ = make_system(0.0, 0.0, 1.0, 0.3)
        sched = make_erasure_schedule(sys_, "zero", 20.0)
        ramp = sched.segments[0]
        assert ramp.mu_start == 0.0
        traj = simulate(sys_, sched, 0.05)
        rate = ramp.mu_end / ramp.duration
        p, work = self._piecewise_relaxation(
            traj.t[:201], rate, 0.0, 0.65, [(0.0, 0.3), (1.0, 0.0)])
        assert np.max(np.abs(traj.p[:201] - p)) < 1e-12
        assert np.max(np.abs(traj.work[:200] - work[:200])) < 1e-12
        quench = -ramp.mu_end * traj.final_occupation
        assert traj.total_work == pytest.approx(work[-1] + quench, abs=1e-12)

    def test_very_fast_ramp_is_a_quench(self):
        sched = ProtocolSchedule((Segment(0.0, 5.0, 1e-9),),
                                 initial_occupation=0.4)
        traj = simulate(SYM, sched, 0.05)
        assert traj.final_occupation == pytest.approx(0.4, abs=1e-8)
        assert traj.total_work == pytest.approx(2.0, rel=1e-8)

    @pytest.mark.parametrize("tau_gamma", [50.0, 100.0, 200.0, 400.0])
    def test_slow_ramp_linear_response(self, tau_gamma):
        """tau Gamma (W - W_qs) -> dmu (p(mu_1/2) - p(mu_far)).

        The dissipation of a slow ramp is (v/Gamma) times the change of p
        (Sivak & Crooks, PRL 108, 190602, 2012); W_qs is the quasistatic work
        of the same ramp and quench.
        """
        biased = make_system(1.0, 1.0, 36.0, 0.35)
        sched = make_erasure_schedule(biased, "zero", tau_gamma)
        mu_half, mu_far = sched.segments[0].mu_start, sched.segments[0].mu_end
        span = mu_far - mu_half
        p_far = occupation(mu_far, biased)
        w_qs = (reference_quad(lambda m: occupation(m, biased), mu_half,
                               mu_far, points=[0.0, 36.0])
                - span * p_far)
        traj = simulate(biased, sched, 0.05)
        excess = tau_gamma * (traj.total_work - w_qs)
        predicted = span * (occupation(mu_half, biased) - p_far)
        assert excess == pytest.approx(predicted, rel=1e-4)


class TestPhi:
    # phi_1 ... phi_5 at -x, computed by mpmath at 60 digits: the series
    # sum_n z^n/(n+k)! (80 terms) up to x = 2, the closed form
    # (e^z - sum_{n<k} z^n/n!)/z^k beyond, each rounded to a double.
    @pytest.mark.parametrize("x, expected", [
        (0.0, (1.0, 0.5, 0.16666666666666666, 0.041666666666666664,
               0.008333333333333333)),
        (1e-300, (1.0, 0.5, 0.16666666666666666, 0.041666666666666664,
                  0.008333333333333333)),
        (1.0, (0.6321205588285577, 0.36787944117144233, 0.13212055882855767,
               0.03454610783810899, 0.007120558828557678)),
        (1.999, (0.4324808973436456, 0.2839015020792168, 0.10810330061069694,
                 0.029296331193581653, 0.006188261867476246)),
        (2.0, (0.43233235838169365, 0.28383382080915315, 0.10808308959542341,
               0.029291788535621626, 0.00618743906552252)),
        (50.0, (0.02, 0.0196, 0.009608, 0.0031411733333333333,
                0.0007705098666666667)),
        (1e17, (1e-17, 9.999999999999999e-18, 4.9999999999999996e-18,
                1.6666666666666667e-18, 4.1666666666666666e-19)),
        (1e300, (1e-300, 1e-300, 5e-301, 1.6666666666666665e-301,
                 4.166666666666666e-302)),
    ])
    def test_matches_reference_without_overflow(self, x, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _phi(np.array([x]))
        for k, want in enumerate(expected):
            assert got[k][0] == pytest.approx(want, rel=1e-15, abs=0.0)


class TestErasureSchedules:
    def test_zero_target_geometry(self):
        sched = make_erasure_schedule(SYM, "zero", 10.0)
        up, down = sched.segments
        assert up.mu_start == pytest.approx(0.0, abs=1e-9)
        assert up.mu_end == pytest.approx(40.0, abs=1e-6)
        assert down.duration == 0.0
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

    def test_non_finite_duration_named(self):
        with pytest.raises(ValueError, match="duration must be finite"):
            make_erasure_schedule(SYM, "zero", math.nan)

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            make_erasure_schedule(SYM, "both", 1.0)

    def test_quasistatic_convergence_is_monotone(self):
        sched0 = make_erasure_schedule(SYM, "zero", 1.0)
        mu_half, mu_hi = sched0.segments[0].mu_start, sched0.segments[0].mu_end
        limit = (reference_quad(lambda m: occupation(m, SYM), mu_half, mu_hi)
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
        traj = simulate(biased, make_erasure_schedule(biased, "zero", 200.0),
                        0.05)
        assert traj.total_work == pytest.approx(w0, rel=0.02)

    def test_astronomically_slow_ramp_is_quasistatic(self):
        # table steps of Gamma dt up to ~1e20, where phi's series overflowed
        broad = make_system(1.0, 0.5, 4.0, 0.35, Gaussian(0.5))
        w0 = erasure_costs(broad, mad_check=False).w_zero
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            traj = simulate(broad, make_erasure_schedule(broad, "zero", 1e20))
        assert traj.total_work == pytest.approx(w0, rel=1e-9)

    @pytest.mark.parametrize("target", ["zero", "one"])
    def test_decoupled_source_moves_nothing(self, target):
        # at gamma_S = 0 the source adds nothing to p, so neither its
        # chemical potential nor its kT may move the ramp's end or change
        # the work (with kT_S = 1 the zero ramp ended at 40 and at 240, for
        # works 2.80 and 12.80)
        def device(bias):
            return DotSystem(LeadParams(3.0, bias), LeadParams(1.0, 0.0),
                             TunnelRates(0.0, 1.0), Gaussian(1.0))
        scheds = [make_erasure_schedule(device(bias), target, 10.0)
                  for bias in (0.0, 200.0)]
        assert scheds[0] == scheds[1]
        assert abs(scheds[0].segments[0].mu_end) == pytest.approx(40.0)
        works = [simulate(device(bias), sched).total_work
                 for bias, sched in zip((0.0, 200.0), scheds)]
        assert works[0] == works[1]

    def test_broadened_device_simulates(self):
        sys_ = make_system(0.5, 0.5, 2.0, 0.5, Gaussian(1.0))
        traj = simulate(sys_, make_erasure_schedule(sys_, "zero", 30.0), 0.05)
        assert traj.final_occupation < 1e-3
        assert traj.total_work > 0.0


class TestTwelveDecades:
    """Erasure ramps over the whole domain: the first 40 devices of the
    12-decade corpus (default_rng(1): kT_S, kT_D, bias, w = 10**U(-6, 6)
    each, then gamma_S = U(0.05, 0.95); Delta, Gaussian(w), Lorentzian(w) by
    i % 3), each at a tau Gamma log-uniform on [1e-3, 1e4] (default_rng(5)),
    1e-300 and 1e20."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ramps_are_finite_and_cost_at_least_the_eta_work(self,
                                                             monkeypatch):
        # a ramp's table depends on its level path alone (pinned by
        # TestExactRamps), so a device's three ramps share one: the same
        # numbers in a third of the time
        tables = {}
        build = dynamics._ramp_table

        def shared(sys_, seg, u_out):
            key = (seg.mu_start, seg.mu_end)
            if key not in tables:
                tables[key] = build(sys_, seg, u_out)
            return tables[key]

        monkeypatch.setattr(dynamics, "_ramp_table", shared)
        devices = np.random.default_rng(1)
        durations = np.random.default_rng(5)
        checked = 0
        for i in range(40):
            tables.clear()
            kt_s, kt_d, bias, w = 10.0 ** devices.uniform(-6, 6, 4)
            gamma_s = devices.uniform(0.05, 0.95)
            kernel = (Delta(), Gaussian(w), Lorentzian(w))[i % 3]
            sys_ = make_system(kt_s, kt_d, bias, gamma_s, kernel)
            tau_gamma = 10.0 ** durations.uniform(-3, 4)
            for duration in (tau_gamma, 1e-300, 1e20):
                sched = make_erasure_schedule(sys_, "zero", duration)
                traj = simulate(sys_, sched)
                for name in ("t", "mu", "p", "work"):
                    assert np.all(np.isfinite(getattr(traj, name))), (i, name)
                assert np.all((traj.p >= 0.0) & (traj.p <= 1.0)), i
                p_f = traj.final_occupation
                # a ramp may end a hair under the 1e-304 floor of p_ss, where
                # the eta work rightly raises
                if not 1e-290 < p_f < 0.5:
                    continue
                mu_half, mu_far = (sched.segments[0].mu_start,
                                   sched.segments[0].mu_end)
                w_eta = eta_erasure_work(sys_, p_f, mu_half)
                assert traj.total_work >= (
                    w_eta * (1.0 - 1e-9) - 1e-12 * abs(mu_far - mu_half)), (
                    i, duration, traj.total_work, w_eta)
                checked += 1
        assert checked >= 40


class TestRampWorkCount:
    """Kernel evaluations of a Gaussian ramp's table: deterministic, so a
    regression in the node count shows without timing it."""

    # kT = sigma = 1: integrated over the thermal variable, each table row
    # took 460 kernel-cdf nodes (400 uniform and 60 graded) and the ramp
    # 2614 x 460 = 1,202,440 of them
    THERMAL_ORDER_EVALUATIONS = 1_202_440

    def test_gaussian_ramp_table_integrates_over_the_kernel(self,
                                                            monkeypatch):
        from chargebit import dot_model

        tally = {"cdf": 0, "levels": []}

        class Counted:
            def __init__(self, inner):
                self.inner, self.width = inner, inner.width

            def cdf(self, x):
                tally["cdf"] += x.size
                return self.inner.cdf(x)

            def pdf(self, x):
                return self.inner.pdf(x)

        block = dot_model._lead_block

        def counted_block(d, scale, outer, inner, names):
            tally["levels"].append(
                dot_model._grading_levels(inner.width / scale))
            return block(d, scale, outer, Counted(inner), names)

        sys_ = make_system(1.0, 1.0, 4.0, 0.5, Gaussian(1.0))
        sched = make_erasure_schedule(sys_, "zero", 10.0)
        monkeypatch.setattr(dot_model, "_lead_block", counted_block)
        traj = simulate(sys_, sched, 0.05)
        assert math.isfinite(traj.total_work)
        assert 0 < tally["cdf"] <= 0.5 * self.THERMAL_ORDER_EVALUATIONS
        assert max(tally["levels"]) <= 3
