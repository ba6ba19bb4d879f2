"""``python tests/bench_smoke.py`` runs ``bench/run.py --seed 1 --seconds 1``
for each workload, untraced and traced, and exits 1 unless every run exits
0 and its last line, the JSON result, has ``correct`` true and no failed
items. Each traced run's line also reports its adaptive quadrature work per
item, ``numerics.integrate.calls`` and ``.evals``, the counts that a change
to the W0/W1 or eta-work integrands moves."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from run import WORKLOAD_NAMES  # noqa: E402

COUNTS = ("numerics.integrate.calls", "numerics.integrate.evals")


def run(workload: str, trace: int) -> tuple[list[str], list[str]]:
    """(what is wrong with one run, as lines naming it, none if it passed;
    the traced run's integrate counts per item, as one line naming it)."""
    argv = ["bench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run([sys.executable, *argv], cwd=ROOT,
                          capture_output=True, text=True)
    name = " ".join(argv)
    if done.returncode:
        return [f"{name}: exit {done.returncode}", done.stderr.rstrip()], []
    try:
        result = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return [f"{name}: no JSON result line"], []
    metrics = result.get("metrics", {})
    counts = []
    if trace and all(key in metrics for key in COUNTS):
        counts.append(f"{name}: " + ", ".join(
            f"{key} {metrics[key]['value']:.2f}/item" for key in COUNTS))
    return ([f"{name}: correct is {result['correct']}"]
            if result["correct"] is not True else []) + (
        [f"{name}: {result['failed']} failed"] if result["failed"] else []
    ), counts


if __name__ == "__main__":
    found, counts = [], []
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            wrong, traced = run(workload, trace)
            found += wrong
            counts += traced
    print("\n".join(counts + found + [f"{2 * len(WORKLOAD_NAMES)} runs, "
                                      f"{len(found)} problems"]))
    sys.exit(1 if found else 0)
