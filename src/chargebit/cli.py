"""Command-line front end: device analysis, sweeps, protocols, lemma suite.

Config files are flat ``key = value`` text in laboratory units (kelvin, Hz,
micro-eV); everything is converted to micro-eV at the boundary and the drain
chemical potential is the global zero of energy. Exit codes: 0 success
(divergent results included), 1 property violation (a lemma-suite violation,
or an ``analyze`` report whose MAD cross-check or energy-scale bound fails)
or numerical failure (an unconverged quadrature or level solve), 2 input error.
"""

from __future__ import annotations

import argparse
import math
import sys as _sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import dynamics, erasure, madgrid
from .dot_model import (AmbiguousMedianWarning, DotSystem, TunnelRates,
                        occupation, unbroadened_occupation)
from .kernels import Delta, Gaussian, Lorentzian
from .leads import LeadParams
from .numerics import NonConvergence
from .units import broadening_energy_uev, thermal_energy_uev


class ParseError(ValueError):
    """Config file could not be parsed."""


class ValidationError(ValueError):
    """Config parsed but violates a DeviceSpec invariant."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


KERNEL_NAMES = ("delta", "gaussian", "lorentzian")
_NUMBER_FIELDS = ("temperature_source", "temperature_drain", "bias",
                  "rate_source", "rate_drain")


@dataclass(frozen=True)
class DeviceSpec:
    temperature_source: float  # kelvin
    temperature_drain: float   # kelvin
    bias: float                # micro-eV, mu_S - mu_D with mu_D = 0
    rate_source: float         # Hz
    rate_drain: float          # Hz
    kernel: str                # delta | gaussian | lorentzian

    def __post_init__(self):
        for name in _NUMBER_FIELDS:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValidationError(name, "must be finite and >= 0")
        if self.rate_source + self.rate_drain <= 0:
            raise ValidationError("rate_source", "total rate must be > 0")
        if self.kernel not in KERNEL_NAMES:
            raise ValidationError("kernel",
                                  f"must be one of {', '.join(KERNEL_NAMES)}")


_SI_PREFIXES = {
    "f": 1e-15, "p": 1e-12, "n": 1e-9, "u": 1e-6, "µ": 1e-6,
    "m": 1e-3, "k": 1e3, "M": 1e6, "G": 1e9, "T": 1e12,
}


def parse_number(text: str) -> float:
    """Float with an optional trailing SI prefix letter, e.g. '6.3G'."""
    text = text.strip()
    if text and text[-1] in _SI_PREFIXES:
        return float(text[:-1]) * _SI_PREFIXES[text[-1]]
    return float(text)


_SPEC_FIELDS = _NUMBER_FIELDS + ("kernel",)


def load_config(path: str) -> DeviceSpec:
    """Read a flat key = value device description."""
    values: dict = {}
    try:
        # utf-8-sig: an editor's byte-order mark is not part of the first key
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _SPEC_FIELDS:
            raise ParseError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ParseError(f"{path}:{lineno}: repeated key {key!r}")
        if key == "kernel":
            values[key] = val.lower()
        else:
            try:
                values[key] = parse_number(val)
            except ValueError as exc:
                raise ParseError(
                    f"{path}:{lineno}: bad number for {key}: {val!r}") from exc
    missing = [f for f in _SPEC_FIELDS if f not in values]
    if missing:
        raise ParseError(f"{path}: missing keys: {', '.join(missing)}")
    return DeviceSpec(**values)


def build_system(spec: DeviceSpec, bias_uev: float | None = None,
                 width_uev: float | None = None) -> DotSystem:
    """DeviceSpec -> DotSystem in core units (micro-eV, mu_D = 0).

    ``bias_uev``/``width_uev`` override the spec's bias and broadening width
    (used by the sweep); width 0 means no broadening.
    """
    bias = spec.bias if bias_uev is None else bias_uev
    width = (broadening_energy_uev(spec.rate_source + spec.rate_drain)
             if width_uev is None else width_uev)
    if spec.kernel == "delta" or width == 0.0:
        kernel = Delta()
    elif spec.kernel == "gaussian":
        kernel = Gaussian(width)
    else:
        kernel = Lorentzian(width)
    return DotSystem(
        source=LeadParams(thermal_energy_uev(spec.temperature_source), bias),
        drain=LeadParams(thermal_energy_uev(spec.temperature_drain), 0.0),
        rates=TunnelRates(spec.rate_source, spec.rate_drain),
        kernel=kernel)


def _fmt(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def analyze(spec: DeviceSpec, etas: tuple[float, ...] = ()) -> dict:
    """Full device report as an ordered key -> value mapping.

    The eta-works (``etas``, or 0.1, 0.01 and 0.001 for a divergent device)
    come from one ``erasure.eta_erasure_work`` call, in order, at mu_1/2.
    """
    sys_ = build_system(spec)
    scales = erasure.energy_scales(sys_)
    costs = erasure.erasure_costs(sys_)
    report: dict = {
        "temperature_source_K": spec.temperature_source,
        "temperature_drain_K": spec.temperature_drain,
        "bias_ueV": spec.bias,
        "rate_source_Hz": spec.rate_source,
        "rate_drain_Hz": spec.rate_drain,
        "kernel": spec.kernel,
        "gamma_source": sys_.rates.gamma_source,
        "gamma_drain": sys_.rates.gamma_drain,
        "hbar_gamma_tot_ueV": broadening_energy_uev(spec.rate_source
                                                    + spec.rate_drain),
        "mu_half_ueV": costs.mu_half,
        "e_therm_ueV": scales.e_therm,
        "e_bias_ueV": scales.e_bias,
    }
    for key, value in (("e_broad_ueV", scales.e_broad),
                       ("w_zero_ueV", costs.w_zero),
                       ("w_one_ueV", costs.w_one),
                       ("w_bar_ueV", costs.w_bar)):
        report[key] = ("divergent (Lorentzian exact erasure)"
                       if math.isinf(value) else value)
    if math.isfinite(costs.w_bar):
        if costs.mad_discrepancy is not None:
            report["mad_form_discrepancy_ueV"] = costs.mad_discrepancy
        bound = erasure.check_bound(costs, scales)
        report["bound_lower_ueV"] = bound.lower
        report["bound_upper_ueV"] = bound.upper
        report["bound_satisfied"] = bound.satisfied
    else:
        etas = etas or (0.1, 0.01, 0.001)
    if etas:
        works = erasure.eta_erasure_work(sys_, etas, costs.mu_half)
        for eta, work in zip(etas, works):
            report[f"w_eta_{eta!r}_ueV"] = work
    return report


_MAD_CHECK_REL = 1e-8  # W-bar vs MAD/2, relative to 1 + W-bar


def _failed_checks(report: dict) -> list[str]:
    """One line per cross-check of an analyze report that did not hold."""
    failed = []
    gap = report.get("mad_form_discrepancy_ueV")
    if gap is not None and not gap <= _MAD_CHECK_REL * (
            1.0 + report["w_bar_ueV"]):
        failed.append(f"mad_form_discrepancy_ueV {_fmt(gap)} exceeds "
                      f"{_MAD_CHECK_REL:g} * (1 + w_bar_ueV)")
    if report.get("bound_satisfied") is False:
        failed.append("bound_satisfied is false: w_bar_ueV lies outside "
                      "[bound_lower_ueV, bound_upper_ueV]")
    return failed


def _print_report(report: dict) -> None:
    width = max(len(k) for k in report)
    print("device analysis")
    print("-" * (width + 26))
    for key, val in report.items():
        print(f"{key:<{width}}  {_fmt(val)}")
    print()
    print("machine-readable:")
    for key, val in report.items():
        print(f"{key}: {_fmt(val)}")


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def sweep(spec: DeviceSpec, bias_max: float, width_max: float, points: int,
          out: str) -> None:
    """Grid of (bias, broadening width) -> costs, scales and bound columns."""
    if bias_max < 0 or width_max < 0:
        raise ValidationError("sweep", "ranges must be non-negative")
    if points < 2:
        raise ValidationError("points", "need at least 2 per axis")
    biases = np.linspace(0.0, bias_max, points)
    widths = np.linspace(0.0, width_max, points)
    rows = []
    # no column depends on which mu_1/2 of a p = 1/2 plateau is taken:
    # dW-bar/dmu_1/2 = 1/2 - p, which is 0 on it
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AmbiguousMedianWarning)
        for b in biases:
            for w in widths:
                sys_ = build_system(spec, bias_uev=float(b),
                                    width_uev=float(w))
                scales = erasure.energy_scales(sys_)
                costs = erasure.erasure_costs(sys_, mad_check=False)
                rows.append([float(b), float(w), costs.w_bar,
                             scales.e_therm, scales.e_bias, scales.e_broad,
                             *scales.bound])
    _write_csv(out, ["bias", "hbar_gamma_tot", "w_bar", "e_therm", "e_bias",
                     "e_broad", "bound_lower", "bound_upper"], rows)


def occupation_curve(spec: DeviceSpec, mu_min: float, mu_max: float,
                     points: int, out: str) -> None:
    """CSV of unbroadened and broadened occupation over a gate range."""
    if points < 2:
        raise ValidationError("points", "need at least 2")
    sys_ = build_system(spec)
    mus = np.linspace(mu_min, mu_max, points)
    rows = [[float(mu), float(u), float(p)] for mu, u, p in
            zip(mus, unbroadened_occupation(mus, sys_), occupation(mus, sys_))]
    _write_csv(out, ["mu", "p_unbroadened", "p_broadened"], rows)


def run_protocol(spec: DeviceSpec, target: str,
                 duration_over_gamma: float, out: str) -> None:
    """Simulate a finite-time erasure protocol and compare to the optimum."""
    if duration_over_gamma < 0:
        raise ValidationError("duration", "must be non-negative")
    sys_ = build_system(spec)
    sched = dynamics.make_erasure_schedule(
        sys_, target, duration_over_gamma / sys_.rates.total)
    traj = dynamics.simulate(sys_, sched)
    _write_csv(out, ["t", "mu", "p", "work"],
               [[float(a), float(b), float(c), float(d)]
                for a, b, c, d in zip(traj.t, traj.mu, traj.p, traj.work)])
    costs = erasure.erasure_costs(sys_, mad_check=False)
    optimum = costs.w_zero if target == "zero" else costs.w_one
    print(f"total_work_ueV: {_fmt(traj.total_work)}")
    print(f"final_occupation: {_fmt(traj.final_occupation)}")
    print(f"optimal_work_ueV: {_fmt(optimum)}")
    if optimum > 0 and math.isfinite(optimum):
        print(f"work_over_optimal: {_fmt(traj.total_work / optimum)}")


def run_lemma_suite(trials: int, seed: int) -> tuple[bool, list[str]]:
    """Randomised verification of both MAD sandwich inequalities."""
    if trials < 1:
        raise ValidationError("trials", "must be >= 1")
    if seed < 0:
        raise ValidationError("seed", "must be >= 0")
    rng = np.random.default_rng(seed)
    lines = [f"lemma suite: trials={trials} seed={seed}"]
    for i in range(trials):
        f, g = madgrid.random_grid_pdf(rng), madgrid.random_grid_pdf(rng)
        reports = (madgrid.verify_lemma1(f, g), madgrid.verify_lemma2(
            madgrid.random_symmetric_grid_pdf(rng),
            madgrid.random_symmetric_grid_pdf(rng),
            float(rng.uniform(0.05, 0.95))))
        lines += [f"lemma{n} VIOLATION at trial {i} (seed {seed}): "
                  f"{rep.values}"
                  for n, rep in enumerate(reports, start=1) if not rep.ok]
    ok = len(lines) == 1
    lines.append("all sandwich inequalities held" if ok
                 else "violations found")
    return ok, lines


def _finite_float(text: str) -> float:
    """argparse type of the numeric range and duration flags."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"must be a finite number, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chargebit",
        description="Minimum work cost of quantum-dot charge-bit erasure")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full device report")
    p.add_argument("--config", required=True)
    p.add_argument("--eta", type=float, action="append", default=[],
                   help="also report approximate-erasure work at this eta")

    p = sub.add_parser("sweep", help="bias/width grid of costs and bounds")
    p.add_argument("--config", required=True)
    p.add_argument("--bias-max", type=_finite_float, required=True)
    p.add_argument("--width-max", type=_finite_float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("occupation", help="occupation curve CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--mu-min", type=_finite_float, required=True)
    p.add_argument("--mu-max", type=_finite_float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("protocol", help="finite-time erasure trajectory")
    p.add_argument("--config", required=True)
    p.add_argument("--target", choices=("zero", "one"), required=True)
    p.add_argument("--duration", type=_finite_float, required=True,
                   help="ramp duration in units of 1/Gamma_tot")
    p.add_argument("--out", required=True)

    p = sub.add_parser("lemmas", help="randomised MAD sandwich suite")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            report = analyze(load_config(args.config), tuple(args.eta))
            _print_report(report)
            failed = _failed_checks(report)
            for line in failed:
                print(f"check failed: {line}", file=_sys.stderr)
            return 1 if failed else 0
        elif args.command == "sweep":
            sweep(load_config(args.config), args.bias_max, args.width_max,
                  args.points, args.out)
        elif args.command == "occupation":
            occupation_curve(load_config(args.config), args.mu_min,
                             args.mu_max, args.points, args.out)
        elif args.command == "protocol":
            run_protocol(load_config(args.config), args.target,
                         args.duration, args.out)
        elif args.command == "lemmas":
            ok, lines = run_lemma_suite(args.trials, args.seed)
            print("\n".join(lines))
            return 0 if ok else 1
    except ValueError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except NonConvergence as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
