"""The stdout of the CI smoke step's `analyze` and `protocol` commands
against tests/golden/cli_stdout.json, which tests/golden/make_golden.py
writes: the same text, and every number within 1e-13 relative unless its key
is listed below with the reason it needs more."""

import json
import re

from golden import make_golden

# a number token of the output: .17g floats, integers, inf and nan, not the
# digits inside a key such as w_eta_0.1_ueV
NUMBER = re.compile(r"(?<![\w.+-])[-+]?(?:\d+(?:\.\d*)?(?:e[-+]?\d+)?|inf|nan)"
                    r"(?![\w.])")
REL = 1e-13
# key -> absolute tolerance in place of REL
LOOSER = {
    # |W-bar - MAD/2| is a difference of two numbers near w_bar_ueV (at most
    # 527 ueV here) and moves with their rounding: 1e-13 of 527 ueV
    "mad_form_discrepancy_ueV": 6e-11,
}


def test_cli_stdout_matches_the_golden_file():
    golden = json.loads(make_golden.GOLDEN.read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in golden] == make_golden.COMMANDS
    for want, got in zip(golden, make_golden.run_all()):
        argv = " ".join(want["argv"])
        assert got["exit"] == want["exit"], argv
        lines = want["stdout"].splitlines()
        assert len(got["stdout"].splitlines()) == len(lines), argv
        for w, g in zip(lines, got["stdout"].splitlines()):
            assert NUMBER.sub("#", g) == NUMBER.sub("#", w), (argv, g)
            key = w.split()[0].rstrip(":") if w.strip() else ""
            for a, b in zip(NUMBER.findall(w), NUMBER.findall(g)):
                x, y = float(a), float(b)
                tol = LOOSER.get(key, REL * abs(x))
                assert x == y or abs(x - y) <= tol, (argv, key, a, b)
