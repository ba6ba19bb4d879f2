"""tests/golden/make_golden.py's runs against its golden files: every command
in-process and the first in a fresh interpreter, as ``mismatches`` compares
them; the corpus's closed forms exactly, its other values within REL."""

import json
import logging
import math

from make_golden import (COMMANDS, CORPUS, LOOSER, REL, corpus_values,
                         mismatches, run_all, saved)
from smoke import run_fresh


def test_cli_stdout_matches_the_golden_file():
    assert mismatches(saved(), run_all()) == []


def test_a_fresh_interpreter_matches_the_golden_file():
    # the smoke runner on delta.cfg's analyze
    assert mismatches(saved()[:1], run_all(run_fresh, COMMANDS[:1])) == []


def test_corpus_matches_the_golden_file(caplog):
    with caplog.at_level(logging.WARNING, logger="chargebit"):
        want, got = json.loads(CORPUS.read_text("utf-8")), corpus_values()
    assert caplog.records == []  # no quadrature accepted with a flag
    assert [list(row) for row in got] == [list(row) for row in want]
    misses = [(0.0, "all equal")]  # (difference over tolerance, where)
    for i, (w, g) in enumerate(zip(want, got)):
        for key, text in w.items():
            x, y = float(text), float(g[key])
            if key in ("e_therm", "e_bias", "e_broad"):  # closed forms
                assert x == y, (i, key, text, g[key])
            elif x != y:
                tol = LOOSER.get(key, REL * abs(x))
                misses.append((abs(x - y) / tol if 0 < tol < math.inf
                               else math.inf, f"device {i} {key}"))
    worst = max(misses)
    print(f"worst corpus value: {worst[1]}, {worst[0]:.3g} of its tolerance")
    assert worst[0] <= 1.0, worst
