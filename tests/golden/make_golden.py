"""Save the stdout of every `analyze` and `protocol` command of the CI smoke
step to cli_stdout.json beside this file.

    PYTHONPATH=src python tests/golden/make_golden.py

Each command runs in-process through ``chargebit.cli.main``, in a temporary
directory that holds the smoke step's configs, with RuntimeWarning raised
as an error. ``tests/test_golden.py`` reruns the same commands and compares
their exit codes and stdout with the saved ones. A change that moves a
saved number regenerates the file with this script and says which keys
moved, and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import tempfile
import warnings

from chargebit.cli import main

GOLDEN = pathlib.Path(__file__).with_name("cli_stdout.json")

_LAB = ("temperature_source = 40m", "temperature_drain = 40m", "bias = 200",
        "rate_source = 6.3G", "rate_drain = 250G")
_GAUSSIAN = (*_LAB, "kernel = gaussian")
# the smoke step's configs, one line each; latin1.cfg is saved as Latin-1
CONFIGS = {
    "delta.cfg": (*_LAB, "kernel = delta"),
    "gaussian.cfg": _GAUSSIAN,
    "lorentzian.cfg": (*_LAB, "kernel = lorentzian"),
    "high.cfg": tuple(line.replace("bias = 200", "bias = 2000")
                      for line in _GAUSSIAN),
    "narrow.cfg": ("temperature_source = 1", "temperature_drain = 1",
                   "bias = 50", "rate_source = 300k", "rate_drain = 700k",
                   "kernel = lorentzian"),
    "wide.cfg": ("temperature_source = 10m", "temperature_drain = 10m",
                 "bias = 200", "rate_source = 1T", "rate_drain = 1T",
                 "kernel = gaussian"),
    "cold.cfg": ("temperature_source = 0", *_GAUSSIAN[1:]),
    "atoms.cfg": ("temperature_source = 0", "temperature_drain = 0",
                  "bias = 200", "rate_source = 6.3G", "rate_drain = 250G",
                  "kernel = delta"),
    "latin1.cfg": ("temperature_source = 40\xb5", *_GAUSSIAN[1:]),
}


def _analyze(config, *etas):
    return ["analyze", "--config", config,
            *(arg for eta in etas for arg in ("--eta", eta))]


def _protocol(config, target, duration, out):
    return ["protocol", "--config", config, "--target", target,
            "--duration", duration, "--out", out]


COMMANDS = [
    *(_analyze(f"{kernel}.cfg") for kernel in ("delta", "gaussian",
                                               "lorentzian")),
    _analyze("lorentzian.cfg", "1e-300"),
    _analyze("high.cfg", "0.1", "1e-6"),
    _analyze("narrow.cfg", "1e-3", "1e-9"),
    _analyze("wide.cfg"),
    _analyze("cold.cfg"),
    _analyze("lorentzian.cfg", "5e-324"),
    *(_protocol(f"{kernel}.cfg", "zero", "5", f"protocol_{kernel}.csv")
      for kernel in ("delta", "gaussian", "lorentzian")),
    *(_protocol(f"{kernel}.cfg", "zero", "1e20",
                f"protocol_slow_{kernel}.csv")
      for kernel in ("gaussian", "lorentzian")),
    *(_protocol("gaussian.cfg", target, "1e-300",
                f"protocol_fast_{target}.csv") for target in ("zero", "one")),
    *(_protocol("narrow.cfg", target, duration,
                f"protocol_narrow_{target}_{duration}.csv")
      for target in ("zero", "one") for duration in ("5", "1e20")),
    *(_protocol("atoms.cfg", target, duration,
                f"protocol_atoms_{target}_{duration}.csv")
      for target in ("zero", "one") for duration in ("5", "1e20", "1e-300")),
    _analyze("latin1.cfg"),
]


def write_configs(directory: pathlib.Path) -> None:
    for name, lines in CONFIGS.items():
        encoding = "latin-1" if name == "latin1.cfg" else "utf-8"
        (directory / name).write_text("".join(f"{line}\n" for line in lines),
                                      encoding=encoding)


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one command; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    return code, out.getvalue()


def run_all() -> list[dict]:
    """Every command, run in a temporary directory with the configs."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_configs(pathlib.Path(tmp))
        os.chdir(tmp)
        try:
            results = [run(argv) for argv in COMMANDS]
        finally:
            os.chdir(here)
    return [{"argv": argv, "exit": code, "stdout": stdout}
            for argv, (code, stdout) in zip(COMMANDS, results)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(run_all(), indent=1) + "\n",
                      encoding="utf-8")
