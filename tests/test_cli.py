"""Config parsing, unit conversion, reports, CSV emission and exit codes."""

import math
import warnings

import numpy as np
import pytest

from chargebit import (NonConvergence, dot_model, dynamics, erasure,
                       madgrid)
from chargebit.cli import (DeviceSpec, ParseError, ValidationError,
                           _failed_checks, analyze, build_system, load_config,
                           main, occupation_curve, parse_number,
                           run_lemma_suite, sweep)
from chargebit.dot_model import AmbiguousMedianWarning
from chargebit.kernels import Delta, Gaussian
from chargebit.units import broadening_energy_uev, thermal_energy_uev

DEVICE1 = """\
# GHz-rate device, gaussian broadening
temperature_source = 40m
temperature_drain  = 40m
bias        = 200
rate_source = 6.3G
rate_drain  = 250G
kernel      = gaussian
"""


@pytest.fixture
def device1_path(tmp_path):
    path = tmp_path / "device1.cfg"
    path.write_text(DEVICE1)
    return str(path)


class TestParseNumber:
    def test_plain(self):
        assert parse_number("200") == 200.0

    def test_si_prefixes(self):
        assert parse_number("40m") == pytest.approx(0.040)
        assert parse_number("6.3G") == pytest.approx(6.3e9)
        assert parse_number("1.75k") == pytest.approx(1750.0)
        assert parse_number("2u") == parse_number("2µ") == pytest.approx(2e-6)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_number("fast")


class TestLoadConfig:
    def test_device1(self, device1_path):
        spec = load_config(device1_path)
        assert spec.temperature_source == pytest.approx(0.040)
        assert spec.bias == 200.0
        assert spec.rate_source == pytest.approx(6.3e9)
        assert spec.kernel == "gaussian"

    @pytest.mark.parametrize("first", [0, 1], ids=["key-first",
                                                  "comment-first"])
    def test_byte_order_mark_is_not_part_of_the_text(self, tmp_path, first):
        # as some editors save it, before the first key or comment
        text = "\n".join(DEVICE1.splitlines()[1 - first:])
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_config(str(bom)) == load_config(str(plain))

    def test_config_that_is_not_utf8_exits_2_naming_the_file(self, tmp_path,
                                                             capsys):
        # the documented micro prefix, saved by an editor as Latin-1
        path = tmp_path / "latin1.cfg"
        text = DEVICE1.replace("= 40m", "= 40µ", 1)
        path.write_bytes(text.encode("latin-1"))
        assert main(["analyze", "--config", str(path)]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        (line,) = stderr.splitlines()
        assert line.startswith("error: ") and str(path) in line

    def test_negative_rate_names_field(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(DEVICE1.replace("rate_source = 6.3G",
                                        "rate_source = -1"))
        with pytest.raises(ValidationError) as err:
            load_config(str(path))
        assert err.value.field == "rate_source"

    def test_missing_bias_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("\n".join(l for l in DEVICE1.splitlines()
                                  if not l.startswith("bias")))
        with pytest.raises(ParseError, match="bias"):
            load_config(str(path))

    def test_unknown_key_with_line_number(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("warp_factor = 9\n")
        with pytest.raises(ParseError, match=":1:"):
            load_config(str(path))


class TestBuildSystem:
    def test_units(self, device1_path):
        sys_ = build_system(load_config(device1_path))
        assert sys_.source.thermal_energy == pytest.approx(
            86.17333262 * 0.040)
        assert sys_.bias == 200.0
        assert isinstance(sys_.kernel, Gaussian)
        assert sys_.kernel.sigma == pytest.approx(
            6.582119569e-10 * 256.3e9)

    def test_width_override_zero_gives_delta(self, device1_path):
        sys_ = build_system(load_config(device1_path), width_uev=0.0)
        assert isinstance(sys_.kernel, Delta)


class TestAnalyze:
    def test_device1_report(self, device1_path):
        report = analyze(load_config(device1_path))
        assert abs(report["w_bar_ueV"] - 68.0) <= 1.5
        assert abs(report["e_therm_ueV"] - 2.4) <= 0.05
        assert abs(report["e_bias_ueV"] - 2.5) <= 0.05
        assert abs(report["e_broad_ueV"] - 67.0) <= 0.5
        assert report["bound_satisfied"]

    def test_unit_round_trip(self, device1_path):
        spec = load_config(device1_path)
        report = analyze(spec)
        assert report["temperature_source_K"] == pytest.approx(
            spec.temperature_source, rel=1e-12)
        assert report["bias_ueV"] == pytest.approx(spec.bias, rel=1e-12)
        assert report["rate_drain_Hz"] == pytest.approx(
            spec.rate_drain, rel=1e-12)

    def test_lorentzian_divergent_with_eta_table(self, device1_path):
        spec = load_config(device1_path)
        spec = DeviceSpec(**{**spec.__dict__, "kernel": "lorentzian"})
        report = analyze(spec)
        assert report["w_bar_ueV"] == "divergent (Lorentzian exact erasure)"
        for eta in (0.1, 0.01, 0.001):
            assert report[f"w_eta_{eta}_ueV"] > 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_eta_1e_300_without_overflow(self, tmp_path, capsys):
        # mu_eta is near 1e300 ueV, where the Lorentzian pdf's x*x
        # overflows; numpy's warning of it reached stderr
        path = tmp_path / "l.cfg"
        path.write_text(DEVICE1.replace("gaussian", "lorentzian"))
        assert main(["analyze", "--config", str(path), "--eta",
                     "1e-300"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        (work,) = [line.split()[-1] for line in out.splitlines()
                   if line.startswith("w_eta_1e-300_ueV:")]
        assert float(work) == pytest.approx(37033.77139580113, rel=1e-12)

    def test_close_etas_are_reported_apart(self, device1_path, capsys):
        # they agree to 6 digits, which a %g key would merge into one line
        assert main(["analyze", "--config", device1_path,
                     "--eta", "0.1", "--eta", "0.1000001"]) == 0
        lines = [line.split(": ", 1) for line in
                 capsys.readouterr().out.split("machine-readable:\n")[1]
                 .splitlines() if line.startswith("w_eta_")]
        assert [k for k, _ in lines] == ["w_eta_0.1_ueV",
                                         "w_eta_0.1000001_ueV"]
        assert float(lines[0][1]) > float(lines[1][1]) > 0.0


class TestAnalyzeWorkCount:
    """Occupation-core calls of a Lorentzian report: deterministic, so a
    regression in the eta-erasure pass shows without timing it."""

    # a mu_1/2 solve, a doubling loop and a Newton solve from mu_1/2 for
    # each eta took 50 calls; one ladder that brackets every level, one
    # read of the levels reached and a second mu_1/2 solve took 18 with a
    # Newton solve per eta, 10 once the eta-works reused the report's
    # mu_1/2 and one solve stepped every level at once, and take 9 now that
    # each lead's work subtracts its own occupation at the level reached

    def test_default_lorentzian_report(self, device1_path, monkeypatch):
        from chargebit import dot_model

        calls = []
        core = dot_model._combined

        def counted(*args):
            calls.append(args[0])
            return core(*args)

        spec = load_config(device1_path)
        spec = DeviceSpec(**{**spec.__dict__, "kernel": "lorentzian"})
        monkeypatch.setattr(dot_model, "_combined", counted)
        report = analyze(spec)
        assert [k for k in report if k.startswith("w_eta_")] == [
            "w_eta_0.1_ueV", "w_eta_0.01_ueV", "w_eta_0.001_ueV"]
        assert 0 < len(calls) <= 9


class TestKiloHertzLorentzian:
    # hbar*Gamma is 7e-5 ueV against kT of 12-16 ueV
    CONFIG = """\
temperature_source = 185m
temperature_drain  = 137m
bias        = 308.6
rate_source = 3.72k
rate_drain  = 106k
kernel      = lorentzian
"""

    def test_analyze_reports_finite_eta_works(self, tmp_path, capsys):
        path = tmp_path / "khz.cfg"
        path.write_text(self.CONFIG)
        assert main(["analyze", "--config", str(path)]) == 0
        lines = dict(line.split(": ", 1) for line in
                     capsys.readouterr().out.split("machine-readable:\n")[1]
                     .splitlines() if ": " in line)
        works = [float(lines[f"w_eta_{eta}_ueV"])
                 for eta in ("0.1", "0.01", "0.001")]
        assert all(math.isfinite(w) and w > 0.0 for w in works)
        assert works[0] < works[1] < works[2]


class TestTwelveDecadeLorentzian:
    # corpus device 65 in lab units: kT_S 5.0e-6 ueV against kT_D 48 ueV,
    # bias 3.6e-6 ueV, hbar*Gamma 6.6e-6 ueV; integrating p over mu
    # adaptively did not converge at eta 0.001 and analyze exited 1
    CONFIG = """\
temperature_source = 5.830375238900487e-08
temperature_drain  = 0.5555892203433286
bias        = 3.6174157479544307e-06
rate_source = 1226.663519135763
rate_drain  = 8832.221855320044
kernel      = lorentzian
"""

    def test_analyze_reports_three_finite_eta_works(self, tmp_path, capsys):
        path = tmp_path / "device65.cfg"
        path.write_text(self.CONFIG)
        assert main(["analyze", "--config", str(path)]) == 0
        out, err = capsys.readouterr()
        lines = dict(line.split(": ", 1) for line in
                     out.split("machine-readable:\n")[1].splitlines()
                     if ": " in line)
        works = {k: float(v) for k, v in lines.items()
                 if k.startswith("w_eta_")}
        assert len(works) == 3
        assert all(math.isfinite(w) and w > 0.0 for w in works.values())
        assert err == ""


class TestSweep:
    def test_landauer_corner_and_bounds(self, device1_path, tmp_path):
        out = tmp_path / "sweep.csv"
        sweep(load_config(device1_path), bias_max=10.0, width_max=10.0,
              points=3, out=str(out))
        rows = np.genfromtxt(out, delimiter=",", names=True)
        kt = thermal_energy_uev(0.040)
        corner = rows[(rows["bias"] == 0) & (rows["hbar_gamma_tot"] == 0)]
        assert corner["w_bar"] == pytest.approx(kt * math.log(2), rel=1e-10)
        for row in rows:
            assert row["bound_lower"] - 1e-9 <= row["w_bar"]
            assert row["w_bar"] <= row["bound_upper"] + 1e-9

    def test_bias_dominated_row(self, tmp_path):
        # kT = 1 ueV, gamma_S = 0.35, sharp level, bias = 36 kT
        t_k = 1.0 / 86.17333262
        spec = DeviceSpec(temperature_source=t_k, temperature_drain=t_k,
                          bias=36.0, rate_source=0.35, rate_drain=0.65,
                          kernel="delta")
        out = tmp_path / "sweep.csv"
        sweep(spec, bias_max=36.0, width_max=0.0, points=2, out=str(out))
        rows = np.genfromtxt(out, delimiter=",", names=True)
        row = rows[(rows["bias"] == 36.0) & (rows["hbar_gamma_tot"] == 0)]
        # the thermal scale still contributes ~ln2*kT on top of the
        # bias-dominated estimate, hence the few-percent headroom
        assert row["w_bar"][0] == pytest.approx(0.5 * 0.35 * 36.0, rel=0.06)

    def test_plateau_cells_silent_and_exact(self, tmp_path):
        # both leads at T = 0 and equal rates: each biased cell without
        # broadening has p = 1/2 on its whole bias window, and W-bar is
        # bias/4 for every mu_1/2 on it, so sweep does not warn
        spec = DeviceSpec(temperature_source=0.0, temperature_drain=0.0,
                          bias=100.0, rate_source=1e9, rate_drain=1e9,
                          kernel="gaussian")
        out = tmp_path / "sweep.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sweep(spec, bias_max=100.0, width_max=10.0, points=4,
                  out=str(out))
        assert not [w for w in caught
                    if issubclass(w.category, AmbiguousMedianWarning)]
        rows = np.genfromtxt(out, delimiter=",", names=True)
        plateau = rows[(rows["bias"] > 0.0) & (rows["hbar_gamma_tot"] == 0.0)]
        assert plateau.size == 3
        np.testing.assert_allclose(plateau["w_bar"], plateau["bias"] / 4.0,
                                   rtol=1e-15, atol=0.0)

    def test_deterministic_output(self, device1_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        spec = load_config(device1_path)
        sweep(spec, 5.0, 5.0, 2, str(a))
        sweep(spec, 5.0, 5.0, 2, str(b))
        assert a.read_bytes() == b.read_bytes()


class TestOccupationCurve:
    def test_symmetric_midpoint(self, tmp_path):
        spec = DeviceSpec(temperature_source=0.1, temperature_drain=0.1,
                          bias=10.0, rate_source=1e9, rate_drain=1e9,
                          kernel="gaussian")
        out = tmp_path / "occ.csv"
        occupation_curve(spec, 5.0, 5.0 + 1e-9, 2, str(out))
        rows = np.genfromtxt(out, delimiter=",", names=True)
        assert rows["p_unbroadened"][0] == pytest.approx(0.5, abs=1e-9)
        assert rows["p_broadened"][0] == pytest.approx(0.5, abs=1e-9)

    def test_bias_window_plateau(self, tmp_path):
        t_k = 1.0 / 86.17333262  # kT = 1 ueV
        spec = DeviceSpec(temperature_source=t_k, temperature_drain=t_k,
                          bias=36.0, rate_source=0.35e9, rate_drain=0.65e9,
                          kernel="gaussian")
        out = tmp_path / "occ.csv"
        occupation_curve(spec, 17.0, 19.0, 3, str(out))
        rows = np.genfromtxt(out, delimiter=",", names=True)
        assert np.all(np.abs(rows["p_broadened"] - 0.35) < 0.01)

    def test_delta_columns_identical(self, tmp_path):
        spec = DeviceSpec(temperature_source=0.1, temperature_drain=0.1,
                          bias=5.0, rate_source=1e9, rate_drain=1e9,
                          kernel="delta")
        out = tmp_path / "occ.csv"
        occupation_curve(spec, -10.0, 15.0, 50, str(out))
        rows = np.genfromtxt(out, delimiter=",", names=True)
        assert np.max(np.abs(rows["p_unbroadened"]
                             - rows["p_broadened"])) < 1e-12

    def test_overflowing_range_exits_2_naming_the_flag(self, device1_path,
                                                       tmp_path, capsys):
        out = tmp_path / "occ.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["occupation", "--config", device1_path,
                         "--mu-min=-1e308", "--mu-max", "1e308",
                         "--points", "3", "--out", str(out)])
        assert code == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr.splitlines() == [
            "error: mu-max: mu-max - mu-min must be finite"]
        assert not out.exists()


    def test_unbroadened_column_with_cold_lead(self, tmp_path):
        # a T = 0 source at mu = 5 on the grid: its step is exactly 1/2 there
        spec = DeviceSpec(temperature_source=0.0, temperature_drain=0.1,
                          bias=5.0, rate_source=1e9, rate_drain=3e9,
                          kernel="gaussian")
        out = tmp_path / "occ.csv"
        occupation_curve(spec, 0.0, 10.0, 11, str(out))
        rows = np.genfromtxt(out, delimiter=",", names=True)
        g_s, kt_d = 0.25, thermal_energy_uev(0.1)
        for mu, p in zip(rows["mu"], rows["p_unbroadened"]):
            f_s = 1.0 if mu < 5.0 else 0.5 if mu == 5.0 else 0.0
            f_d = 1.0 / (1.0 + math.exp(mu / kt_d))
            assert p == pytest.approx(g_s * f_s + (1.0 - g_s) * f_d,
                                      rel=1e-15, abs=1e-300)
        assert rows["mu"][5] == 5.0


class TestProtocolCommand:
    T_K = 1.0 / 86.17333262

    def _spec(self, bias):
        return DeviceSpec(temperature_source=self.T_K,
                          temperature_drain=self.T_K, bias=bias,
                          rate_source=0.35e9, rate_drain=0.65e9,
                          kernel="delta")

    def test_slow_ramp_near_optimal(self, tmp_path, capsys):
        from chargebit.cli import run_protocol
        run_protocol(self._spec(36.0), "zero", 200.0,
                     str(tmp_path / "traj.csv"))
        out = {k: v for k, v in
               (line.split(": ") for line in
                capsys.readouterr().out.strip().splitlines())}
        assert 0.98 <= float(out["work_over_optimal"]) <= 1.02

    def test_zero_duration_frozen(self, tmp_path, capsys):
        from chargebit.cli import run_protocol
        run_protocol(self._spec(36.0), "zero", 0.0,
                     str(tmp_path / "traj.csv"))
        out = {k: v for k, v in
               (line.split(": ") for line in
                capsys.readouterr().out.strip().splitlines())}
        assert float(out["total_work_ueV"]) == pytest.approx(0.0, abs=1e-12)
        assert float(out["final_occupation"]) == pytest.approx(0.5, abs=1e-9)

    def test_fast_ramp_dissipates(self, tmp_path, capsys):
        from chargebit.cli import run_protocol
        run_protocol(self._spec(0.0), "zero", 1.0, str(tmp_path / "traj.csv"))
        out = {k: v for k, v in
               (line.split(": ") for line in
                capsys.readouterr().out.strip().splitlines())}
        assert float(out["work_over_optimal"]) > 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("target", ["zero", "one"])
    def test_vanishing_duration_is_a_quench(self, device1_path, tmp_path,
                                            capsys, target):
        # Gamma tau = 1e-300: the ramp lasts 4e-312 s, and its speed in
        # ueV/s overflowed
        assert main(["protocol", "--config", device1_path, "--target", target,
                     "--duration", "1e-300",
                     "--out", str(tmp_path / "traj.csv")]) == 0
        out = dict(line.split(": ")
                   for line in capsys.readouterr().out.splitlines())
        ramp = dynamics.make_erasure_schedule(
            build_system(load_config(device1_path)), target, 0.0).segments[0]
        assert abs(float(out["total_work_ueV"])) <= 1e-12 * abs(
            ramp.mu_end - ramp.mu_start)
        assert float(out["final_occupation"]) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("kernel", ["delta", "gaussian"])
    @pytest.mark.parametrize("target", ["zero", "one"])
    def test_one_mu_half_solve_and_the_same_output(self, tmp_path, capsys,
                                                   monkeypatch, kernel,
                                                   target):
        from chargebit.cli import run_protocol
        solves = []

        def counted(sys_):
            solves.append(sys_)
            return dot_model.half_occupation_level(sys_)
        for module in (dynamics, erasure):
            monkeypatch.setattr(module, "half_occupation_level", counted)
        spec = DeviceSpec(temperature_source=self.T_K,
                          temperature_drain=0.5 * self.T_K, bias=3.0,
                          rate_source=0.35e9, rate_drain=0.65e9,
                          kernel=kernel)
        run_protocol(spec, target, 2.0, str(tmp_path / "traj.csv"))
        assert len(solves) == 1
        out = capsys.readouterr().out
        # the same run with erasure_costs solving mu_1/2 again for itself
        costs = erasure.erasure_costs
        monkeypatch.setattr(erasure, "erasure_costs",
                            lambda sys_, mad_check, mu_half: costs(
                                sys_, mad_check))
        run_protocol(spec, target, 2.0, str(tmp_path / "again.csv"))
        assert len(solves) == 3
        assert capsys.readouterr().out == out


class TestLemmaSuite:
    def test_small_run_passes(self):
        ok, lines = run_lemma_suite(5, 7)
        assert ok
        assert lines[-1] == "all sandwich inequalities held"

    def test_reproducible(self):
        assert run_lemma_suite(10, 3) == run_lemma_suite(10, 3)


class TestMainExitCodes:
    def test_analyze_success(self, device1_path, capsys):
        assert main(["analyze", "--config", device1_path]) == 0
        out, err = capsys.readouterr()
        assert "machine-readable:" in out
        assert "check failed" not in err

    @pytest.mark.filterwarnings("error")
    def test_huge_bias_passes_mad_check_silently(self, tmp_path, capsys):
        # each lead's peak is integrated in its own offset, so a bias of
        # 1e300 hides neither peak, and nothing overflows on the way
        path = tmp_path / "huge.cfg"
        path.write_text(DEVICE1.replace("bias        = 200", "bias = 1e300"))
        assert main(["analyze", "--config", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        report = dict(line.split(": ", 1) for line in
                      out.split("machine-readable:\n")[1].splitlines())
        gap = float(report["mad_form_discrepancy_ueV"])
        assert gap <= 1e-8 * (1.0 + float(report["w_bar_ueV"]))

    def test_analyze_mad_cross_check_failure_exits_1(self, device1_path,
                                                    monkeypatch, capsys):
        monkeypatch.setattr(erasure, "absolute_deviation_integral",
                            lambda sys_, point: 0.0)
        assert main(["analyze", "--config", device1_path]) == 1
        out, err = capsys.readouterr()
        assert "machine-readable:" in out
        assert "check failed: mad_form_discrepancy_ueV" in err

    def test_bound_failure_is_a_failed_check(self):
        report = {"w_bar_ueV": 1.0, "mad_form_discrepancy_ueV": 0.0,
                  "bound_satisfied": False}
        (line,) = _failed_checks(report)
        assert line.startswith("bound_satisfied is false")
        report["bound_satisfied"] = True
        assert _failed_checks(report) == []
        assert _failed_checks({"w_bar_ueV": "divergent"}) == []

    def test_divergent_still_success(self, tmp_path, capsys):
        path = tmp_path / "l.cfg"
        path.write_text(DEVICE1.replace("gaussian", "lorentzian"))
        assert main(["analyze", "--config", str(path)]) == 0
        assert "divergent" in capsys.readouterr().out

    def test_non_convergence_exits_1_with_an_error_line(self, tmp_path,
                                                         monkeypatch, capsys):
        def fail(sys_, eta, mu_half=None):
            raise NonConvergence("quadrature did not converge")
        monkeypatch.setattr(erasure, "eta_erasure_work", fail)
        path = tmp_path / "l.cfg"
        path.write_text(DEVICE1.replace("gaussian", "lorentzian"))
        assert main(["analyze", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert err == "error: quadrature did not converge\n"
        assert "Traceback" not in out + err

    def test_lorentzian_without_source_rate_exits_0(self, tmp_path, capsys):
        path = tmp_path / "l.cfg"
        path.write_text(DEVICE1.replace("gaussian", "lorentzian")
                        .replace("rate_source = 6.3G", "rate_source = 0"))
        assert main(["analyze", "--config", str(path)]) == 0
        out, err = capsys.readouterr()
        assert "w_zero_ueV: divergent (Lorentzian exact erasure)" in out
        assert err == ""

    @pytest.mark.parametrize("text, shown", [
        ("nan", "nan"), ("0", "0.0"), ("0.5", "0.5"), ("0.7", "0.7"),
        ("1e999", "inf")])
    def test_eta_outside_the_domain_exits_2(self, tmp_path, capsys, text,
                                            shown):
        path = tmp_path / "l.cfg"
        path.write_text(DEVICE1.replace("gaussian", "lorentzian"))
        assert main(["analyze", "--config", str(path), "--eta", "0.1",
                     "--eta", text]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: eta must lie strictly in (0, 1/2), "
                       f"got {shown}\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("eta", ["5e-324", "1e-310"])
    def test_eta_below_the_reachable_occupation_exits_2(self, tmp_path,
                                                       capsys, eta):
        # the Lorentzian tail stays above both up to the largest level the
        # eta ladder may reach; 5e-324 raised an uncaught OverflowError
        path = tmp_path / "l.cfg"
        path.write_text(DEVICE1.replace("gaussian", "lorentzian"))
        assert main(["analyze", "--config", str(path), "--eta", eta]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: eta = {eta} is below ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_lemma_violation_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(madgrid, "verify_lemma1", lambda f, g:
                            madgrid.LemmaReport(False, True, {"d_f": 1.0}))
        assert main(["lemmas", "--trials", "1", "--seed", "1"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "lemma1 VIOLATION at trial 0 (seed 1): {'d_f': 1.0}"
        assert lines[-1] == "violations found"

    @pytest.mark.parametrize("config, argv, message", [
        pytest.param(DEVICE1.replace("6.3G", "0").replace("250G", "0"),
                     ["analyze", "--config", "{cfg}"],
                     "rate_source: total rate must be > 0",
                     id="zero-total-rate"),
        pytest.param(DEVICE1.replace("= gaussian", "= cauchy"),
                     ["analyze", "--config", "{cfg}"],
                     "kernel: must be one of delta, gaussian, lorentzian",
                     id="unknown-kernel"),
        pytest.param(None, ["analyze", "--config", "{cfg}"],
                     "cannot read {cfg}", id="unreadable-path"),
        pytest.param(DEVICE1 + "bias 200\n", ["analyze", "--config", "{cfg}"],
                     "{cfg}:8: expected 'key = value'", id="line-without-="),
        pytest.param(DEVICE1, ["sweep", "--config", "{cfg}", "--bias-max",
                               "-1", "--width-max", "1", "--points", "3",
                               "--out", "{out}"],
                     "sweep: ranges must be non-negative",
                     id="sweep-negative-range"),
        pytest.param(DEVICE1, ["sweep", "--config", "{cfg}", "--bias-max",
                               "1", "--width-max", "1", "--points", "1",
                               "--out", "{out}"],
                     "points: need at least 2 per axis", id="sweep-points-1"),
        pytest.param(DEVICE1, ["occupation", "--config", "{cfg}", "--mu-min",
                               "0", "--mu-max", "1", "--points", "1",
                               "--out", "{out}"],
                     "points: need at least 2", id="occupation-points-1"),
        pytest.param(DEVICE1, ["protocol", "--config", "{cfg}", "--target",
                               "zero", "--duration", "-1", "--out", "{out}"],
                     "duration: must be non-negative", id="negative-duration"),
        pytest.param(None, ["lemmas", "--trials", "0", "--seed", "1"],
                     "trials: must be >= 1", id="zero-trials"),
        pytest.param(None, ["lemmas", "--trials", "1", "--seed", "-1"],
                     "seed: must be >= 0", id="negative-seed"),
    ])
    def test_input_error_exits_2_naming_the_field(self, tmp_path, capsys,
                                                  config, argv, message):
        cfg, out = tmp_path / "device.cfg", tmp_path / "out.csv"
        if config is not None:
            cfg.write_text(config)
        assert main([a.format(cfg=cfg, out=out) for a in argv]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        (line,) = stderr.splitlines()
        assert line.startswith(f"error: {message.format(cfg=cfg)}")
        assert not out.exists()

    COMMANDS = {
        "sweep": ["--bias-max", "1", "--width-max", "1", "--points", "3"],
        "occupation": ["--mu-min", "0", "--mu-max", "1", "--points", "3"],
        "protocol": ["--target", "zero", "--duration", "1"],
    }

    @pytest.mark.parametrize("value", ["nan", "inf", "1e999"])
    @pytest.mark.parametrize("command, flag", [
        ("sweep", "--bias-max"), ("sweep", "--width-max"),
        ("occupation", "--mu-min"), ("occupation", "--mu-max"),
        ("protocol", "--duration")])
    def test_non_finite_flag_exits_2_naming_it(self, device1_path, tmp_path,
                                               capsys, command, flag, value):
        out = tmp_path / "out.csv"
        argv = [command, "--config", device1_path, "--out", str(out)]
        argv += self.COMMANDS[command]
        argv[argv.index(flag) + 1] = value
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert (f"argument {flag}: must be a finite number, got {value!r}"
                in stderr)
        assert "Warning" not in stderr
        assert not out.exists()

    def test_non_numeric_flag_exits_2_naming_it(self, device1_path, tmp_path,
                                                capsys):
        with pytest.raises(SystemExit) as exc:
            main(["occupation", "--config", device1_path, "--mu-min", "low",
                  "--mu-max", "1", "--points", "3",
                  "--out", str(tmp_path / "out.csv")])
        assert exc.value.code == 2
        assert ("argument --mu-min: must be a finite number, got 'low'"
                in capsys.readouterr().err)

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("bias = fast\n")
        assert main(["analyze", "--config", str(path)]) == 2

    def test_repeated_key_exits_2_naming_line_and_key(self, tmp_path,
                                                      capsys):
        path = tmp_path / "twice.cfg"
        path.write_text(DEVICE1 + "bias = 5\n")
        assert main(["analyze", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{path}:8: repeated key 'bias'" in err

    def test_lemmas_success_exit_0(self, capsys):
        assert main(["lemmas", "--trials", "3", "--seed", "1"]) == 0

    @pytest.mark.parametrize("value", ["NaN", "1e999"])
    @pytest.mark.parametrize("field", ["temperature_source",
                                       "temperature_drain", "bias",
                                       "rate_source", "rate_drain"])
    def test_non_finite_value_exits_2_naming_field(self, tmp_path, capsys,
                                                   field, value):
        path = tmp_path / "bad.cfg"
        path.write_text("\n".join(f"{field} = {value}"
                                  if line.split("=")[0].strip() == field
                                  else line for line in DEVICE1.splitlines()))
        assert main(["analyze", "--config", str(path)]) == 2
        assert f"{field}: must be finite" in capsys.readouterr().err
