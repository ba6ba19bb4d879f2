"""Finite-time protocol simulation and work accounting."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from chargebit import DotSystem, LeadParams, TunnelRates, dynamics
from chargebit.dot_model import occupation
from chargebit.dynamics import (ProtocolSchedule, Segment, _exact_ramp, _phi,
                                _ramp_table, make_erasure_schedule, simulate)
from chargebit.erasure import erasure_costs, eta_erasure_work
from chargebit.kernels import Delta, Gaussian, Lorentzian

from conftest import corpus_device, make_system, reference_quad

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

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError, match="at least one segment"):
            ProtocolSchedule(())

    def test_schedule_contiguity(self):
        with pytest.raises(ValueError):
            ProtocolSchedule((Segment(0.0, 1.0, 1.0),
                              Segment(2.0, 3.0, 1.0)))


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

    @pytest.mark.parametrize("sys_, mu0", [
        (SYM, 0.7), (make_system(1.0, 0.5, 3.0, 0.4, Gaussian(0.8)), 2.0),
        (make_system(1.0, 0.5, 3.0, 0.4, Lorentzian(0.8)), -1.0),
        (make_system(0.0, 0.0, 1.0, 0.3), 0.5)])
    def test_starts_at_the_first_level_steady_state(self, sys_, mu0):
        # a schedule that opens with a quench holds p_ss of its first level
        traj = simulate(sys_, ProtocolSchedule((Segment(mu0, 4.0, 0.0),)))
        assert traj.p[0] == occupation(mu0, sys_)
        assert traj.total_work == (4.0 - mu0) * traj.p[0]

    def test_constant_level_exponential_relaxation(self):
        # the quench from -2 starts p at p_ss(-2) = 0.88
        p0 = occupation(-2.0, SYM)
        sched = ProtocolSchedule((Segment(-2.0, 3.0, 0.0),
                                  Segment(3.0, 3.0, 6.0)))
        traj = simulate(SYM, sched, 0.05)
        p_ss = occupation(3.0, SYM)
        exact = p_ss + (p0 - p_ss) * np.exp(-traj.t)
        assert np.max(np.abs(traj.p - exact)) < 1e-7
        assert traj.total_work == 5.0 * p0

    def test_long_coarse_steps_relax_exactly(self):
        # steps of 10/Gamma over 2000/Gamma: past any single exponential
        p0 = occupation(-2.0, SYM)
        sched = ProtocolSchedule((Segment(-2.0, 3.0, 0.0),
                                  Segment(3.0, 3.0, 2000.0)))
        traj = simulate(SYM, sched, 1000.0)
        p_ss = occupation(3.0, SYM)
        exact = p_ss + (p0 - p_ss) * np.exp(-traj.t)
        assert np.max(np.abs(traj.p - exact)) < 1e-14

    def test_pure_quench_work(self):
        sched = ProtocolSchedule((Segment(1.0, 7.5, 0.0),))
        traj = simulate(SYM, sched, 0.05)
        assert traj.total_work == pytest.approx(
            6.5 * occupation(1.0, SYM), rel=1e-12)
        assert traj.final_occupation == pytest.approx(occupation(1.0, SYM))

    def test_quench_work_linear_in_distance(self):
        p0 = occupation(0.85, SYM)  # 0.30
        for d in (2.0, 4.0):
            sched = ProtocolSchedule((Segment(0.85, 0.85 + d, 0.0),))
            traj = simulate(SYM, sched, 0.05)
            assert traj.total_work == pytest.approx(p0 * d, rel=1e-12)

    def test_occupation_stays_physical(self):
        sched = make_erasure_schedule(SYM, "zero", 3.0)
        traj = simulate(SYM, sched, 0.05)
        assert np.all(traj.p >= 0.0) and np.all(traj.p <= 1.0)
        assert np.all(np.diff(traj.t) > 0)

    def test_work_additivity(self):
        # both start at p_ss(0) = 1/2; the second half runs from the first
        # half's final p
        full = ProtocolSchedule((Segment(0.0, 4.0, 5.0),
                                 Segment(4.0, 1.0, 3.0)))
        traj = simulate(SYM, full, 0.05)
        first = simulate(SYM, ProtocolSchedule((Segment(0.0, 4.0, 5.0),)),
                         0.05)
        _, second = _exact_ramp(SYM, Segment(4.0, 1.0, 3.0),
                                first.final_occupation)
        assert traj.total_work == pytest.approx(
            first.total_work + second[-1], abs=1e-9)


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
        # T = 0 leads at 0 and 1 without broadening: p_ss is 1, g_S, 0; the
        # quench from between the atoms starts p at g_S
        sys_ = make_system(0.0, 0.0, 1.0, 0.3)
        p0 = occupation(0.5, sys_)
        sched = ProtocolSchedule((Segment(0.5, -0.5, 0.0),
                                  Segment(-0.5, 1.6, 3.0)))
        traj = simulate(sys_, sched, 0.05)
        rate = 0.7
        p, work = self._piecewise_relaxation(
            traj.t, rate, -0.5, p0, [(-0.5, 1.0), (0.0, 0.3), (1.0, 0.0)])
        assert np.max(np.abs(traj.p - p)) < 1e-12
        assert np.max(np.abs(traj.work - (work - p0))) < 1e-12

    def test_atoms_are_table_nodes_with_one_sided_limits(self):
        # p_ss is constant between the atoms, so the table is the 201
        # samples, each atom twice and one pass of midpoints, none split again
        sys_ = make_system(0.0, 0.0, 1.0, 0.3)
        seg = Segment(-0.5, 1.6, 3.0)
        u, q, m, a = _ramp_table(sys_, seg)
        assert u.size == 205 + 202
        assert np.all(np.diff(u) >= 0.0)
        at = np.flatnonzero(np.diff(u) == 0.0)
        assert u[at] == pytest.approx([0.5 / 2.1, 1.5 / 2.1], abs=1e-15)
        assert list(q[at]) == [1.0, 0.3] and list(q[at + 1]) == [0.3, 0.0]
        assert not np.any(m) and not np.any(a)

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
        # atom is one pair of nodes however many leads sit on it; the quench
        # from above it starts p at 0
        sys_ = make_system(0.0, 0.0, 0.0, 0.3)
        seg = Segment(-0.5, 1.6, 3.0)
        traj = simulate(sys_, ProtocolSchedule((Segment(0.5, -0.5, 0.0), seg)),
                        0.05)
        p, work = self._piecewise_relaxation(
            traj.t, 0.7, -0.5, 0.0, [(-0.5, 1.0), (0.0, 0.0)])
        assert np.max(np.abs(traj.p - p)) < 1e-12
        assert np.max(np.abs(traj.work - work)) < 1e-12
        u, q, _, _ = _ramp_table(sys_, seg)
        at = np.flatnonzero(u == 0.5 / 2.1)
        assert list(q[at]) == [1.0, 0.0]

    def test_constant_level_on_an_atom_crosses_nothing(self):
        # a zero-span ramp sits on the drain atom: p relaxes from g_S, set
        # by the quench from between the atoms, to its midpoint value there,
        # g_S + g_D/2
        sys_ = make_system(0.0, 0.0, 1.0, 0.3)
        p0 = occupation(0.5, sys_)
        traj = simulate(sys_, ProtocolSchedule((Segment(0.5, 0.0, 0.0),
                                                Segment(0.0, 0.0, 3.0))))
        exact = 0.65 + (p0 - 0.65) * np.exp(-traj.t)
        assert np.max(np.abs(traj.p - exact)) < 1e-14
        assert traj.total_work == -0.5 * p0

    def test_table_depends_on_the_level_path_alone(self):
        sys_ = make_system(1.0, 0.7, 4.0, 0.4, Gaussian(0.5))
        first, *rest = (_ramp_table(sys_, Segment(-1.0, 9.0, d))
                        for d in (1e-300, 5.0, 1e20))
        for table in rest:
            for row, first_row in zip(table, first):
                assert np.array_equal(row, first_row)

    @pytest.mark.parametrize("target", ["zero", "one"])
    @pytest.mark.parametrize("kernel", [Delta(), Gaussian(1.0), Gaussian(3.0),
                                        Lorentzian(0.5)])
    def test_table_meets_its_tolerance_between_nodes(self, kernel, target):
        # the quintic Hermite of each step, written out here, against p_ss
        # at the step's quarter points: within twice the midpoint tolerance
        sys_ = make_system(1.0, 0.7, 4.0, 0.4, kernel)
        seg = make_erasure_schedule(sys_, target, 5.0).segments[0]
        u, q, m, a = _ramp_table(sys_, seg)
        k = np.flatnonzero(np.diff(u) > 0.0)
        h = u[k + 1] - u[k]
        c0, c1, c2 = q[k], h * m[k], 0.5 * h * h * a[k]
        Q = q[k + 1] - c0 - c1 - c2
        D = h * m[k + 1] - c1 - 2.0 * c2
        S = h * h * a[k + 1] - 2.0 * c2
        c = (c0, c1, c2, 10.0 * Q - 4.0 * D + 0.5 * S,
             -15.0 * Q + 7.0 * D - S, 6.0 * Q - 3.0 * D + 0.5 * S)
        for s in (0.25, 0.75):
            p = occupation(seg.mu_start
                           + (seg.mu_end - seg.mu_start) * (u[k] + s * h),
                           sys_)
            quintic = sum(cj * s ** j for j, cj in enumerate(c))
            assert np.max(np.abs(quintic - p)) <= 2.0 * dynamics._TABLE_TOL

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
        # p keeps its start value p_ss(0) = 1/2
        sched = ProtocolSchedule((Segment(0.0, 5.0, 1e-9),))
        traj = simulate(SYM, sched, 0.05)
        assert traj.final_occupation == pytest.approx(0.5, abs=1e-8)
        assert traj.total_work == pytest.approx(2.5, rel=1e-8)

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
    # phi_1 ... phi_7 at -x, computed by mpmath at 60 digits: the series
    # sum_n z^n/(n+k)! summed to convergence up to x = 10, the closed form
    # (e^z - sum_{n<k} z^n/n!)/z^k beyond, each rounded to a double. phi_k
    # switches from the series to the closed form's recurrence at x = k,
    # so each switch is taken from both sides.
    CASES = [
        (0.0, (1.0, 0.5, 0.16666666666666666, 0.041666666666666664,
               0.008333333333333333, 0.001388888888888889,
               0.0001984126984126984)),
        (1e-300, (1.0, 0.5, 0.16666666666666666, 0.041666666666666664,
                  0.008333333333333333, 0.001388888888888889,
                  0.0001984126984126984)),
        (0.999, (0.6323848802666037, 0.36798310283623253, 0.13214904620997742,
                 0.034552172629318555, 0.00712161565300111,
                 0.0012129306109431666, 0.00017613441235808037)),
        (1.0, (0.6321205588285577, 0.36787944117144233, 0.13212055882855767,
               0.03454610783810899, 0.007120558828557678,
               0.0012127745047756549, 0.00017611438411323395)),
        (1.999, (0.4324808973436456, 0.2839015020792168, 0.10810330061069694,
                 0.029296331193581653, 0.006188261867476246,
                 0.0010730722690630754, 0.00015798730356468907)),
        (2.0, (0.43233235838169365, 0.28383382080915315, 0.10808308959542341,
               0.029291788535621626, 0.00618743906552252,
               0.0010729471339054066, 0.00015797087749174111)),
        (2.999, (0.31682664877023475, 0.22780038387121215,
                 0.09076345986288357, 0.025309505436406497,
                 0.005454205145135101, 0.0009600294058680333,
                 0.0001430008279496017)),
        (3.0, (0.3167376438773787, 0.22775411870754045, 0.09074862709748652,
               0.025306013189726716, 0.005453551158979984,
               0.0009599273914511165, 0.00014298716581259078)),
        (3.999, (0.24547787854751293, 0.18867769978806878, 0.0778500375623734,
                 0.02220970970349919, 0.004865455604693042,
                 0.0008671862287172521, 0.00013045827961281239)),
        (4.0, (0.24542109027781644, 0.1886447274305459, 0.07783881814236353,
               0.022206962131075786, 0.0048649261338977205,
               0.0008671017998589032, 0.0001304467722574964)),
        (4.999, (0.1986908004968631, 0.16029389868036345, 0.06795481122617254,
                 0.01974632035216926, 0.004384946252149912,
                 0.000789835383313347, 0.00011983466804871813)),
        (5.0, (0.1986524106001829, 0.1602695178799634, 0.06794609642400731,
               0.01974411404853187, 0.004384510523626959,
               0.0007897645619412749, 0.00011982486538952281)),
        (5.999, (0.16628084144546887, 0.1389763558183916, 0.06018063746984638,
                 0.017750629971131904, 0.003986670561015963,
                 0.000724564556145586, 0.00011073917865365944)),
        (6.0, (0.16625354130388895, 0.13895774311601852, 0.060173709480663584,
               0.01774882619766718, 0.003986306744833247,
               0.000724504431416681, 0.00011073074291203466)),
        (6.999, (0.14274713611892942, 0.12248219229619527,
                 0.053938820932105266, 0.016106278859060068,
                 0.003652005687613459, 0.0006688566431947242,
                 0.0001028764460200264)),
        (7.0, (0.1427268740049208, 0.12246758942786846, 0.05393320151030451,
               0.016104780736623164, 0.0036516979900062143,
               0.0006688050490467313, 0.00010286911997745109)),
        (50.0, (0.02, 0.0196, 0.009608, 0.0031411733333333333,
                0.0007705098666666667, 0.00015125646933333332,
                2.4752648391111113e-05)),
        (1e17, (1e-17, 9.999999999999999e-18, 4.9999999999999996e-18,
                1.6666666666666667e-18, 4.1666666666666666e-19,
                8.333333333333332e-20, 1.3888888888888888e-20)),
        (1e300, (1e-300, 1e-300, 5e-301, 1.6666666666666665e-301,
                 4.166666666666666e-302, 8.333333333333333e-303,
                 1.3888888888888889e-303)),
    ]

    @pytest.mark.parametrize("x, expected", CASES)
    def test_matches_reference_without_overflow(self, x, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _phi(np.array([x]))
        assert len(got) == 7
        for k, want in enumerate(expected):
            assert got[k][0] == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_one_call_over_every_case(self):
        # the series runs to as many terms as the largest x below 7 needs:
        # all cases in one call take the longest series
        xs = np.array([x for x, _ in self.CASES])
        got = _phi(xs)
        for i, (_, expected) in enumerate(self.CASES):
            for k, want in enumerate(expected):
                assert got[k][i] == pytest.approx(want, rel=1e-15, abs=0.0)


class TestRelax:
    def test_matches_the_plain_recurrence(self):
        # steps of 1e-3 to 1e20 in one exponent, in runs: short steps that
        # share a block, lone steps of 500 to 746 and runs of longer ones,
        # where e^-x underflows to 0
        rng = np.random.default_rng(3)
        steps = np.concatenate([rng.choice(
            [1e-3, 0.7, 30.0, 600.0, 745.0, 746.5, 2e3, 1e20], size=40)
            for _ in range(30)])
        X = np.concatenate(([0.0], np.cumsum(steps))).tolist()
        g = (rng.uniform(0.0, 1.0, steps.size)
             * rng.choice([0.0, 1.0], steps.size)).tolist()
        p = [0.3]
        for k, g_k in enumerate(g):
            p.append(math.exp(X[k] - X[k + 1]) * p[-1] + g_k)
        got = dynamics._relax(0.3, np.array(X), np.array(g))
        assert got.tolist() == pytest.approx(p, rel=1e-14, abs=0.0)


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
    12-decade corpus (conftest.corpus_device), each at a tau Gamma
    log-uniform on [1e-3, 1e4] (default_rng(5)), 1e-300 and 1e20."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ramps_are_finite_and_cost_at_least_the_eta_work(self,
                                                             monkeypatch):
        # a ramp's table depends on its level path alone (pinned by
        # TestExactRamps), so a device's three ramps share one: the same
        # numbers in a third of the time
        tables = {}
        build = dynamics._ramp_table

        def shared(sys_, seg):
            key = (seg.mu_start, seg.mu_end)
            if key not in tables:
                tables[key] = build(sys_, seg)
            return tables[key]

        monkeypatch.setattr(dynamics, "_ramp_table", shared)
        durations = np.random.default_rng(5)
        checked = 0
        for i in range(40):
            tables.clear()
            sys_ = make_system(*corpus_device(i))
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


class TestRoundingFloor:
    """Corpus device 15 (Delta, kT_S 2e-6 at mu_S = 1.07e5): near the source
    p_ss is only good to |dp/dmu| ulp(mu) ~ 1e-6, and a table that bisected
    until its quintic met 64 _TABLE_TOL there took 21,716 nodes for the
    zero-target ramp at tau Gamma = 10, most of them across adjacent
    doubles."""

    # p_f and work of that ramp from the 21,716-node table
    P_F, WORK = 2.2699917690352563e-05, 241.17417312661118

    def test_table_stops_at_the_rounding_of_p_ss(self):
        sys_ = make_system(*corpus_device(15))
        sched = make_erasure_schedule(sys_, "zero", 10.0)
        assert _ramp_table(sys_, sched.segments[0])[0].size < 1000
        traj = simulate(sys_, sched)
        assert traj.final_occupation == pytest.approx(self.P_F, rel=0.0,
                                                      abs=1e-13)
        assert traj.total_work == pytest.approx(self.WORK, rel=1e-11, abs=0.0)

    def test_mirrored_table_stops_too(self):
        # mu -> -mu with the leads swapped: the steep lead sits at -1.07e5,
        # where the spacing of doubles is negative in numpy's sign
        kt_s, kt_d, bias, gamma_s, kernel = corpus_device(15)
        mirror = DotSystem(LeadParams(kt_d, 0.0), LeadParams(kt_s, -bias),
                           TunnelRates(1.0 - gamma_s, gamma_s), kernel)
        seg = make_erasure_schedule(mirror, "one", 10.0).segments[0]
        assert _ramp_table(mirror, seg)[0].size < 1000


class TestRampWorkCount:
    """Kernel evaluations of a Gaussian ramp's table: deterministic, so a
    regression in the node count shows without timing it."""

    # kT = sigma = 1, integrated over the kernel's variable: 180 nodes a
    # table row (120 uniform and 60 graded), and 832 rows, two leads at
    # each of the quintic table's 416 nodes. Over the thermal variable a
    # row took 460 nodes; the cubic table had 2614 rows, 470,520 nodes
    KERNEL_ORDER_EVALUATIONS = 149_760

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

            def dpdf(self, x):
                return self.inner.dpdf(x)

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
        assert 0 < tally["cdf"] <= self.KERNEL_ORDER_EVALUATIONS
        assert max(tally["levels"]) <= 3
