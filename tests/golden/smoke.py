"""``python tests/golden/smoke.py`` runs each command of make_golden.COMMANDS
in a fresh interpreter and exits 1 unless every result matches the saved."""

import os
import pathlib
import subprocess
import sys

import make_golden

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def run_fresh(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``python -W error::<warning>
    -m chargebit.cli argv``, importing chargebit from this checkout."""
    flags = [f"-Werror::{category.__name__}"
             for category in make_golden.WARNINGS]
    done = subprocess.run([sys.executable, *flags, "-m", "chargebit.cli",
                           *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    return done.returncode, done.stdout, done.stderr


if __name__ == "__main__":
    found = make_golden.mismatches(make_golden.saved(),
                                   make_golden.run_all(run_fresh))
    print("\n".join(found + [f"{len(make_golden.COMMANDS)} commands, "
                             f"{len(found)} mismatches"]))
    sys.exit(1 if found else 0)
