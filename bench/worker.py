"""One workload in one process: `run.py` starts it with the environment set.

    python3 bench/worker.py --probe
        import chargebit.cli and print the monotonic clock (set-up sample);
    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        run the workload and print one JSON line as the last line.

The first thing the process does is import chargebit.cli, so its start-up
is one more set-up sample.
"""

import time

import chargebit.cli  # noqa: F401  (first, so the import is what is timed)

READY = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
from scipy.integrate import quad  # noqa: E402
from scipy.special import ndtr  # noqa: E402

import oracle  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT_DIR = ".bench_out"
# Other tenants of the machine slow it by up to 2x for seconds to minutes.
# A fixed reference computation, timed every PROBE_EVERY_S of timed work,
# measures that speed; item times are scaled by REFERENCE_PROBE_S over its
# mean, i.e. reported at the probe speed typical of the 2-core Xeon the
# benchmark was tuned on. The raw figures are printed alongside.
PROBE_EVERY_S = 0.25
REFERENCE_PROBE_S = 2.3e-3
_GRID = np.exp(-0.5 * np.linspace(-8.0, 8.0, 8193) ** 2)


def _reference_work() -> None:
    # the two kinds of work chargebit does: adaptive quadrature with a
    # Python integrand, and FFT and reductions over 8k-point grids
    integrand = (lambda x: float(ndtr(x)) * math.exp(-abs(x))
                 / (1.0 + math.exp(-abs(x))) ** 2)
    for _ in range(4):
        quad(integrand, -30.0, 30.0, points=[0.0], epsabs=1e-14,
             epsrel=1e-10, limit=100)
    for _ in range(3):
        h = np.fft.irfft(np.fft.rfft(_GRID, 16384) ** 2, 16384)
        np.abs(h - np.cumsum(h)).dot(h)


def speed_probe() -> float:
    """Time of the reference work; it runs twice and only the second run is
    timed, so the cache state the last item left does not count."""
    _reference_work()
    t0 = time.perf_counter()
    _reference_work()
    return time.perf_counter() - t0


class Pass:
    """Timed items, failures, failed checks and speed probes of one pass."""

    def __init__(self, probe: bool):
        self.times: list[float] = []
        self.failed = 0
        self.wrong = 0
        self.probe = probe
        self.probes: list[float] = [speed_probe()] if probe else []
        self._since_probe = 0.0

    @property
    def attempted(self) -> int:
        return len(self.times) + self.failed

    def add(self, seconds: float) -> None:
        self.times.append(seconds)
        self._since_probe += seconds
        if self.probe and self._since_probe >= PROBE_EVERY_S:
            self._since_probe = 0.0
            self.probes.append(speed_probe())

    def check(self, fn, *args) -> None:
        try:
            fn(*args)
        except oracle.CheckFailed as exc:
            self.wrong += 1
            print(f"check failed: {exc}", file=sys.stderr)


def _run_round(wl, seed, index, result, check, call=None):
    perf = time.perf_counter
    for k, item in enumerate(wl.make_round(seed, index)):
        t0 = perf()
        try:
            out = (call(index * wl.round_size + k, wl.run, item) if call
                   else wl.run(item))
        except Exception:
            result.failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        result.add(perf() - t0)
        if check:
            result.check(wl.check, item, out)
    if check:
        result.check(wl.check_round, seed, index)


def _warm_up(wl, seed):
    for item in wl.make_round(seed + 1_000_003, 0)[:wl.warmup]:
        wl.run(item)


def run_untraced(wl, seed, seconds) -> dict:
    _warm_up(wl, seed)
    result = Pass(probe=True)
    index = 0
    while index == 0 or sum(result.times) < seconds:
        _run_round(wl, seed, index, result, check=True)
        index += 1
    ms = sorted(1e3 * t for t in result.times)
    raw = {"items_per_s": len(ms) / sum(result.times),
           "item_ms.p50": statistics.median(ms),
           "item_ms.p90": statistics.quantiles(ms, n=10,
                                               method="inclusive")[-1],
           "probe_ms": 1e3 * statistics.mean(result.probes)}
    speed = raw["probe_ms"] / (1e3 * REFERENCE_PROBE_S)
    metrics = {
        "setup_s": (None, "s"),  # filled in by run.py
        "items_per_s": (raw["items_per_s"] * speed, "1/s"),
        "item_ms.p50": (raw["item_ms.p50"] / speed, "ms"),
        "item_ms.p90": (raw["item_ms.p90"] / speed, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    return _result(result, metrics, raw)


def run_traced(wl, seed) -> dict:
    _warm_up(wl, seed)
    plain = Pass(probe=False)
    for index in range(wl.trace_rounds):
        _run_round(wl, seed, index, plain, check=True)
    tracer = Tracer()
    tracer.install()
    traced = Pass(probe=False)
    for index in range(wl.trace_rounds):
        _run_round(wl, seed, index, traced, check=False, call=tracer.run_item)
    tracer.uninstall()
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(OUT_DIR,
                                    f"spans-{wl.name}-seed{seed}.tsv"))
    layer = tracer.per_layer(len(traced.times))
    layer["trace.overhead_ratio"] = sum(traced.times) / sum(plain.times)
    metrics = {key: (value, unit_of(key)) for key, value in layer.items()}
    plain.failed += traced.failed
    return _result(plain, metrics, {})


def unit_of(key: str) -> str:
    if key.endswith(".ms"):
        return "ms/item"
    if key.endswith((".calls", ".evals")):
        return "count/item"
    return {"madgrid.bytes_computed": "bytes/item",
            "dot_model.occupation_per_mu_half": "count/solve",
            "dynamics.occupation_per_gamma_t": "count/gamma_t"}.get(
                key, "ratio")


def _result(result: Pass, metrics: dict, raw: dict) -> dict:
    return {"correct": result.wrong == 0,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "raw": raw, "ready": READY}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.probe:
        print(repr(READY))
        return 0
    wl = WORKLOADS[args.workload]
    out = (run_traced(wl, args.seed) if args.trace
           else run_untraced(wl, args.seed, args.seconds))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
