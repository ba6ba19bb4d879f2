"""Benchmark entry point; run from the root of a chargebit checkout.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Prints each metric as `name value unit`, then one JSON line with `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones from a separate
traced pass. The workload runs in a child process with one BLAS/OpenMP
thread and a fixed hash seed; set-up time is the median of three fresh
interpreters importing chargebit.cli, the workload process being one of them.
Lines starting with `raw` give the item timings before they are scaled to
the reference machine speed (see worker.py).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKLOAD_NAMES = ("sweep", "analyze", "protocol", "lemmas")
SETUP_SAMPLES = 3
IMPORT_PROBES = 3
# modules whose cumulative import time `python -X importtime` reports
IMPORTED = ("cli", "madgrid", "dynamics", "numerics", "kernels")


def _environment(src: str) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=src, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _run(cmd, env, timeout):
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    return proc


def _setup_probe(env) -> float:
    start = time.monotonic()
    proc = _run([sys.executable, WORKER, "--probe"], env, 60)
    return float(proc.stdout.split()[-1]) - start


def _import_times(env) -> dict:
    """Median over probes of each module's cumulative import time, in ms."""
    code = "import " + ", ".join(f"chargebit.{m}" for m in IMPORTED)
    samples = {m: [] for m in IMPORTED}
    for _ in range(IMPORT_PROBES):
        proc = _run([sys.executable, "-X", "importtime", "-c", code], env, 60)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            name = parts[2].strip()
            if name.startswith("chargebit.") and name[10:] in samples:
                samples[name[10:]].append(int(parts[1]) / 1e3)
    return {f"{m}.import_ms": {"value": statistics.median(v), "unit": "ms"}
            for m, v in samples.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "chargebit", "cli.py")):
        print("error: run from the root of a chargebit checkout "
              "(src/chargebit/cli.py not found)", file=sys.stderr)
        return 2
    env = _environment(src)
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        if args.trace:
            extra = _import_times(env)
            samples = []
        else:
            extra = {}
            samples = [_setup_probe(env) for _ in range(SETUP_SAMPLES - 1)]
        start = time.monotonic()
        proc = _run(cmd, env, 170)
        sys.stderr.write(proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ready = result.pop("ready")
    raw = result.pop("raw")
    metrics = result["metrics"]
    if not args.trace:
        samples.append(ready - start)
        metrics["setup_s"]["value"] = statistics.median(samples)
    metrics.update(extra)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for name, value in raw.items():
        print(f"raw {name} {value:.6g}")
    print(f"attempted {result['attempted']} failed {result['failed']} "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
