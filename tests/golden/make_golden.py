"""The one list of CLI smoke runs, and golden values of the 12-decade corpus.
``PYTHONPATH=src:tests python tests/golden/make_golden.py`` writes both files
beside it, and prints each saved number that moved by more than REL;
tests/test_golden.py reruns the commands in-process and smoke.py in fresh
interpreters. A change that moves a saved number regenerates the files and
says which keys moved, and why."""

import contextlib
import io
import json
import math
import os
import pathlib
import re
import tempfile
import warnings

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN, CORPUS = HERE / "cli_stdout.json", HERE / "corpus.json"
WARNINGS = (RuntimeWarning, UserWarning)  # errors in every run
KERNELS = ("delta", "gaussian", "lorentzian")
_KEYS = ("temperature_source", "temperature_drain", "bias", "rate_source",
         "rate_drain", "kernel")
# each config's values in _KEYS order, saved one "key = value" line each
CONFIGS = {
    **{f"{kernel}.cfg": f"40m 40m 200 6.3G 250G {kernel}"
       for kernel in KERNELS},
    "high.cfg": "40m 40m 2000 6.3G 250G gaussian",
    "narrow.cfg": "1 1 50 300k 700k lorentzian",
    "wide.cfg": "10m 10m 200 1T 1T gaussian",
    "cold.cfg": "0 40m 200 6.3G 250G gaussian",
    "atoms.cfg": "0 0 200 6.3G 250G delta",
    "latin1.cfg": "40\xb5 40m 200 6.3G 250G gaussian",
    "plateau.cfg": "0 0 100 1G 1G gaussian",
}


def _protocol(config, target, duration, out):
    return (f"protocol --config {config} --target {target} "
            f"--duration {duration} --out {out}")


COMMANDS = [command.split() for command in (
    *(command for kernel in KERNELS for command in (
        f"analyze --config {kernel}.cfg",
        f"occupation --config {kernel}.cfg --mu-min -100 --mu-max 300 "
        f"--points 41 --out occupation_{kernel}.csv")),
    "analyze --config lorentzian.cfg --eta 1e-300",
    # an eta = 0.1 window below the Gaussian source lead, which the window
    # integral mirrors, and an eta = 1e-6 window past it
    "analyze --config high.cfg --eta 0.1 --eta 1e-6",
    # a Lorentzian 8e-6 of kT wide, whose leads take the window tail
    "analyze --config narrow.cfg --eta 1e-3 --eta 1e-9",
    # the W-bar = MAD/2 gate (exit 0) on the broadened lead's numeric oracle
    # with sigma >= 2 kT, and with a T = 0 source
    "analyze --config wide.cfg",
    "analyze --config cold.cfg",
    # an eta below every occupation the device reaches: exit 2, one error line
    "analyze --config lorentzian.cfg --eta 5e-324",
    "sweep --config gaussian.cfg --bias-max 500 --width-max 300 --points 3 "
    "--out sweep.csv",
    # every kernel's ramp table, the curvature row included
    *(_protocol(f"{kernel}.cfg", "zero", "5", f"protocol_{kernel}.csv")
      for kernel in KERNELS),
    "lemmas --trials 3 --seed 0",
    # table steps of Gamma*dt ~ 1e17 and more: nothing overflows, far tail too
    *(_protocol(f"{kernel}.cfg", "zero", "1e20", f"protocol_slow_{kernel}.csv")
      for kernel in KERNELS[1:]),
    # a ramp of 1e-300/Gamma is a quench: its speed does not overflow
    *(_protocol("gaussian.cfg", target, "1e-300",
                f"protocol_fast_{target}.csv") for target in ("zero", "one")),
    # narrow.cfg's graded tables, whose steps may close at p_ss's rounding
    *(_protocol("narrow.cfg", target, duration,
                f"protocol_narrow_{target}_{duration}.csv")
      for target in ("zero", "one") for duration in ("5", "1e20")),
    # T = 0 leads under the Delta kernel: the ramp table's atom nodes
    *(_protocol("atoms.cfg", target, duration,
                f"protocol_atoms_{target}_{duration}.csv")
      for target in ("zero", "one") for duration in ("5", "1e20", "1e-300")),
    # a Latin-1 config with the micro prefix: exit 2, an error naming the file
    "analyze --config latin1.cfg",
    # p = 1/2 on the whole bias window of each biased unbroadened cell, where
    # W-bar does not depend on mu_1/2: the sweep does not warn
    "sweep --config plateau.cfg --bias-max 100 --width-max 10 --points 4 "
    "--out plateau.csv",
    # a range whose width overflows: exit 2, an error line naming the flag
    "occupation --config gaussian.cfg --mu-min=-1e308 --mu-max 1e308 "
    "--points 3 --out overflow.csv",
    # a negative seed: exit 2, an error line naming it
    "lemmas --trials 1 --seed -1",
)]


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command, run in-process."""
    from chargebit.cli import main  # smoke.py runs without it on its path
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        for category in WARNINGS:
            warnings.simplefilter("error", category)
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_all(runner=run, commands=COMMANDS) -> list[dict]:
    """The entries of ``commands``, each run by ``runner`` in a temporary
    directory that holds the configs."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, values in CONFIGS.items():  # ASCII, and latin1's µ
                pathlib.Path(name).write_text("".join(
                    f"{key} = {value}\n"
                    for key, value in zip(_KEYS, values.split())), "latin-1")
            entries = []
            for argv in commands:
                code, stdout, stderr = runner(argv)
                entries.append({"argv": argv, "exit": code, "stdout": stdout,
                                "stderr": stderr})
                if argv[0] in ("sweep", "occupation") and code == 0:  # --out
                    entries[-1]["csv"] = pathlib.Path(argv[-1]).read_text()
            return entries
        finally:
            os.chdir(here)


# a number token of the output: .17g floats, integers, inf and nan, not the
# digits inside a key such as w_eta_0.1_ueV
NUMBER = re.compile(r"(?<![\w.+-])[-+]?(?:\d+(?:\.\d*)?(?:e[-+]?\d+)?|inf|nan)"
                    r"(?![\w.])")
REL = 1e-13
LOOSER = {  # key -> absolute tolerance beside REL
    # |W-bar - MAD/2| is a difference of two numbers near w_bar_ueV (at most
    # 527 ueV here) and moves with their rounding: 1e-13 of 527 ueV
    "mad_form_discrepancy_ueV": 6e-11,
}


def _close(key: str, x: str, y: str) -> bool:
    """Two number tokens the same within REL (LOOSER for the key)."""
    return x == y or math.isclose(float(x), float(y), rel_tol=REL,
                                  abs_tol=LOOSER.get(key, 0.0))


def mismatches(want: list[dict], got: list[dict]) -> list[str]:
    """Each way the reruns ``got`` differ from the saved entries ``want``:
    the commands, an exit code, the text of a line of stdout, stderr or CSV,
    or a number in it by more than REL relative (LOOSER for its key)."""
    if [e["argv"] for e in got] != [e["argv"] for e in want]:
        return ["the commands are not the saved ones: regenerate the file"]
    found = []
    for w, g in zip(want, got):
        where = " ".join(w["argv"])
        if g["exit"] != w["exit"]:
            found.append(f"{where}: exit {g['exit']}, saved {w['exit']}")
        for field in ("stdout", "stderr", "csv"):
            lines, new = (e.get(field, "").splitlines() for e in (w, g))
            if len(new) != len(lines):
                found.append(f"{where}: {field} has {len(new)} lines")
            for a, b in zip(lines, new):
                key = a.split()[0].rstrip(":") if a.strip() else ""
                if NUMBER.sub("#", b) != NUMBER.sub("#", a) or not all(
                        _close(key, x, y)
                        for x, y in zip(NUMBER.findall(a), NUMBER.findall(b))):
                    found.append(f"{where}: {field} {b!r}, saved {a!r}")
    return found


def saved() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


ETAS = (0.1, 1e-2, 1e-6)
RAMPS = 60  # devices whose zero-target ramp is saved


def corpus_values() -> list[dict]:
    """For each device of ``conftest.corpus_device``: the fields of
    ErasureCosts and EnergyScales and W_eta at ETAS; for the first RAMPS
    also p_f and the work of the zero-target ramp at tau Gamma =
    10**U(-3, 4) (default_rng(5)). Values are repr strings, so an infinite
    Lorentzian W is inf."""
    import numpy as np
    from conftest import corpus_device, make_system

    from chargebit import dynamics, erasure
    values = []
    taus = 10.0 ** np.random.default_rng(5).uniform(-3, 4, 300)
    for i, tau in enumerate(taus):
        sys_ = make_system(*corpus_device(i))  # Gamma = 1
        costs = erasure.erasure_costs(sys_, mad_check=False)
        row = {**vars(costs), **vars(erasure.energy_scales(sys_))}
        works = erasure.eta_erasure_work(sys_, ETAS, costs.mu_half)
        row.update((f"w_eta_{eta!r}", work) for eta, work in zip(ETAS, works))
        if i < RAMPS:
            traj = dynamics.simulate(
                sys_, dynamics.make_erasure_schedule(sys_, "zero", tau))
            row.update(p_f=traj.final_occupation, ramp_work=traj.total_work)
        values.append({key: repr(float(v)) for key, v in row.items()
                       if v is not None})  # no MAD check: no discrepancy
    return values


def moved(want: list[dict], got: list[dict],
          corpus: bool) -> list[str]:
    """"where: key old -> new (relative change)" for each number of the
    saved entries (or corpus rows) ``want`` that ``got`` moved by more than
    REL (LOOSER for its key)."""
    pairs = []
    for i, (w, g) in enumerate(zip(want, got)):
        if corpus:
            pairs += [(f"device {i}", key, text, g[key])
                      for key, text in w.items() if key in g]
        elif w["argv"] == g["argv"]:
            for field in ("stdout", "stderr", "csv"):
                for a, b in zip(*(e.get(field, "").splitlines()
                                  for e in (w, g))):
                    key = a.split()[0].rstrip(":") if a.strip() else ""
                    pairs += [(" ".join(w["argv"]), key, x, y) for x, y in zip(
                        NUMBER.findall(a), NUMBER.findall(b))]
    return [f"{where}: {key} {x} -> {y} "
            f"({abs(float(y) / float(x) - 1.0) if float(x) else math.inf:.2g})"
            for where, key, x, y in pairs if not _close(key, x, y)]


if __name__ == "__main__":
    entries, values = run_all(), corpus_values()
    for path, new, corpus in ((GOLDEN, entries, False),
                              (CORPUS, values, True)):
        if path.exists():
            old = json.loads(path.read_text(encoding="utf-8"))
            for line in moved(old, new, corpus):
                print(line)
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", "utf-8")
    rows = ",\n".join(map(json.dumps, values))
    CORPUS.write_text(f"[\n{rows}\n]\n", "utf-8")
