"""Numerical near-misses are logged through stdlib ``logging``.

``numerics.integrate`` logs a WARNING when it accepts a result QUADPACK
flagged; ``dot_model.occupation_levels`` logs INFO for each level that
stops at a bracket of adjacent doubles. The package configures no handler.
"""

import logging

import pytest

from chargebit import DotSystem, LeadParams, TunnelRates, eta_erasure_work
from chargebit.cli import analyze, build_system, load_config
from chargebit.kernels import Delta, Gaussian
from chargebit.numerics import NonConvergence, integrate

from test_cli import DEVICE1


def test_flagged_quadrature_accepted_with_a_warning(monkeypatch, caplog):
    import scipy.integrate

    monkeypatch.setattr(
        scipy.integrate, "quad",
        lambda *args, **kwargs: (2.0, 1e-13, {"neval": 21}, "roundoff seen"))
    with caplog.at_level(logging.DEBUG, logger="chargebit"):
        assert integrate(lambda x: 1.0, 0.0, 2.0).value == 2.0
    (record,) = caplog.records
    assert (record.name, record.levelno) == ("chargebit.numerics",
                                             logging.WARNING)
    message = record.getMessage()
    assert "[0.0, 2.0]" in message
    assert "1e-13" in message
    assert "roundoff seen" in message


def test_flagged_quadrature_over_tolerance_raises_unlogged(monkeypatch,
                                                           caplog):
    import scipy.integrate

    monkeypatch.setattr(
        scipy.integrate, "quad",
        lambda *args, **kwargs: (2.0, 1e-3, {"neval": 21}, "limit reached"))
    with caplog.at_level(logging.DEBUG, logger="chargebit"):
        with pytest.raises(NonConvergence, match="limit reached"):
            integrate(lambda x: 1.0, 0.0, 2.0)
    assert caplog.records == []


def test_level_at_adjacent_doubles_logged_once(caplog):
    # p falls from 0.4 to ~0 at the T = 0 source's atom at mu = 1, so the
    # eta = 0.3 level is a bracket of adjacent doubles there
    sys_ = DotSystem(LeadParams(0.0, 1.0), LeadParams(0.01, 0.0),
                     TunnelRates(0.4, 0.6), Delta())
    with caplog.at_level(logging.DEBUG, logger="chargebit"):
        eta_erasure_work(sys_, 0.3)
    (record,) = caplog.records
    assert (record.name, record.levelno) == ("chargebit.dot_model",
                                             logging.INFO)
    message = record.getMessage()
    assert "p = 0.3" in message
    # the level is the atom itself, where the T = 0 source gives half its
    # step: p(1) = 0.4/2 + 0.6/(1 + e^100)
    assert "returning 1.0," in message
    assert "|p - target| = 0.1" in message


def test_device1_logs_nothing(tmp_path, caplog):
    path = tmp_path / "device1.cfg"
    path.write_text(DEVICE1)
    spec = load_config(str(path))
    assert isinstance(build_system(spec).kernel, Gaussian)
    with caplog.at_level(logging.DEBUG, logger="chargebit"):
        analyze(spec, etas=(0.1, 0.01))
    assert caplog.records == []


def test_lorentzian_device1_logs_nothing(tmp_path, caplog):
    path = tmp_path / "device1.cfg"
    path.write_text(DEVICE1.replace("gaussian", "lorentzian"))
    with caplog.at_level(logging.DEBUG, logger="chargebit"):
        report = analyze(load_config(str(path)))
    assert sum(k.startswith("w_eta_") for k in report) == 3
    assert caplog.records == []


def test_no_handler_configured():
    for name in ("chargebit", "chargebit.numerics", "chargebit.dot_model"):
        assert logging.getLogger(name).handlers == []
