"""``python tests/bench_smoke.py`` runs ``bench/run.py --seed 1 --seconds 1``
for each workload, untraced and traced, and exits 1 unless every run exits
0 and its last line, the JSON result, has ``correct`` true and no failed
items."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from run import WORKLOAD_NAMES  # noqa: E402


def problems(workload: str, trace: int) -> list[str]:
    """What is wrong with one run, as lines naming it; none if it passed."""
    argv = ["bench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run([sys.executable, *argv], cwd=ROOT,
                          capture_output=True, text=True)
    name = " ".join(argv)
    if done.returncode:
        return [f"{name}: exit {done.returncode}", done.stderr.rstrip()]
    try:
        result = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return [f"{name}: no JSON result line"]
    return ([f"{name}: correct is {result['correct']}"]
            if result["correct"] is not True else []) + (
        [f"{name}: {result['failed']} failed"] if result["failed"] else [])


if __name__ == "__main__":
    found = [line for workload in WORKLOAD_NAMES for trace in (0, 1)
             for line in problems(workload, trace)]
    print("\n".join(found + [f"{2 * len(WORKLOAD_NAMES)} runs, "
                             f"{len(found)} problems"]))
    sys.exit(1 if found else 0)
