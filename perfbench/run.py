"""bordercert benchmark: run one workload, check every output, print metrics.

From the root of a checkout (stdlib only, nothing to install):

    python3 perfbench/run.py --workload certify-exact --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout.  `--trace 0` prints the
end-to-end metrics, `--trace 1` the per-layer ones; the last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
See README.md beside this file for the workloads and how to read the metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import signal
import statistics
import sys
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter, process_time
from typing import Dict, List, Optional

from spans import Tracer, TraceError, layer_metrics
from workloads import WORKLOADS, Api, Gate, Workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 15
MIN_PASSES = 3
PROBE_INTERVAL_S = 0.05
PROBE_NOMINAL_S = 0.002  # probe_loop time that defines one nominal second


class SetupError(RuntimeError):
    pass


def import_bordercert() -> None:
    """Import bordercert afresh from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "bordercert", "__init__.py")):
        raise SetupError(f"no bordercert package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "bordercert" or m.startswith("bordercert.")]:
        del sys.modules[name]
    pkg = importlib.import_module("bordercert")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise SetupError(f"bordercert was imported from {pkg.__file__}, not from {SRC}")


def probe_loop():
    """Fixed stdlib-only work whose speed stands in for the machine's current speed.

    On a shared host the speed of this process changes within a second, by
    up to a factor of two, with CPU time slowing as much as wall time.  The
    mix (Fraction arithmetic, dicts keyed by small tuples, integer products)
    is the one bordercert's hot loops run.  It never changes with the code
    under test.
    """
    acc = {}
    total = Fraction(0)
    for i in range(1, 800):
        key = (i % 7, i % 11, i % 13)
        acc[key] = acc.get(key, 0) + i * i
        total += Fraction((i % 101) - 50 or 1, i % 13 + 1)
    return total, len(acc)


class SpeedProbe:
    """Times `probe_loop` before, every PROBE_INTERVAL_S during, and after
    a measured block, and converts the block's seconds to nominal seconds.

    One nominal second is what takes one second on a machine where
    `probe_loop` takes PROBE_NOMINAL_S.  The samples are evenly spaced in
    wall time, so their mean speed is the block's mean speed.  `clock` and
    `cpu_clock` run as perf_counter and process_time do but stand still
    while the probe runs, so no measured time includes it.
    """

    def __init__(self) -> None:
        self.spent = 0.0
        self.cpu_spent = 0.0
        self.wall_speeds: List[float] = []
        self.cpu_speeds: List[float] = []

    def clock(self) -> float:
        return perf_counter() - self.spent

    def cpu_clock(self) -> float:
        return process_time() - self.cpu_spent

    def _sample(self, *_signal) -> None:
        w0, c0 = perf_counter(), process_time()
        probe_loop()
        w1, c1 = perf_counter(), process_time()
        self.wall_speeds.append(PROBE_NOMINAL_S / (w1 - w0))
        if c1 > c0:
            self.cpu_speeds.append(PROBE_NOMINAL_S / (c1 - c0))
        self.spent += perf_counter() - w0
        self.cpu_spent += process_time() - c0

    @contextmanager
    def measuring(self):
        self.wall_speeds, self.cpu_speeds = [], []
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()

    def nominal(self, seconds: float) -> float:
        return seconds * statistics.fmean(self.wall_speeds)

    def nominal_cpu(self, seconds: float) -> float:
        return seconds * statistics.fmean(self.cpu_speeds)


def set_up(workload: Workload, probe: SpeedProbe):
    """Import the package and make the inputs, several times; keep the last."""
    times = []
    for _ in range(SETUP_REPEATS):
        with probe.measuring():
            t0 = probe.clock()
            import_bordercert()
            api = Api()
            inputs = workload.inputs(api)
            took = probe.clock() - t0
        times.append(probe.nominal(took))
    return api, inputs, times


def run_pass(workload: Workload, api: Api, inputs, seed: int, gate: Gate) -> None:
    for case, sig in inputs:
        try:
            workload.run(api, case, sig, seed, gate)
        except Exception as exc:  # a raising call counts as a failed call
            gate.error(f"{workload.name} {case.sig}", exc)


def timed_passes(workload, api, inputs, seed, gate, seconds, probe, tracer=None):
    """Closed loop of full passes until the next one would overrun `seconds`.

    Returns per-pass wall and CPU times in nominal seconds, the raw wall
    and CPU times, and, when traced, each pass's layer metrics with times
    in nominal seconds.
    """
    walls: List[float] = []
    cpus: List[float] = []
    raw: Dict[str, List[float]] = {"raw_wall_s": [], "raw_cpu_s": []}
    layers: List[Dict[str, float]] = []
    start = perf_counter()
    while True:
        gc.collect()
        if tracer is not None:
            tracer.reset()
        with probe.measuring():
            w0, c0 = probe.clock(), probe.cpu_clock()
            run_pass(workload, api, inputs, seed, gate)
            wall, cpu = probe.clock() - w0, probe.cpu_clock() - c0
        walls.append(probe.nominal(wall))
        cpus.append(probe.nominal_cpu(cpu))
        raw["raw_wall_s"].append(wall)
        raw["raw_cpu_s"].append(cpu)
        if tracer is not None:
            layers.append(
                {
                    name: probe.nominal(v) if unit_of(name) == "s" else v
                    for name, v in layer_metrics(tracer.spans).items()
                }
            )
        if len(walls) >= MIN_PASSES and perf_counter() - start + wall > seconds:
            return walls, cpus, raw, layers


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "peak_rss_mb":
        return "MiB"
    return "count"


def summarize(values: List[float]):
    """(median, first quartile, third quartile, count)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def measure(workload: Workload, seed: int, seconds: float, trace: bool):
    """Return (samples by metric name, raw samples printed only, gate).

    Samples are per pass or per set-up; times are in nominal seconds.
    """
    probe = SpeedProbe()
    api, inputs, setup_times = set_up(workload, probe)
    gate = Gate()
    if not trace:
        walls, cpus, raw, _ = timed_passes(workload, api, inputs, seed, gate, seconds, probe)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        samples = {
            "setup_s": setup_times,
            "wall_s": walls,
            "cpu_s": cpus,
            "peak_rss_mb": [rss_mb],
        }
        return samples, raw, gate
    plain, _, plain_raw, _ = timed_passes(workload, api, inputs, seed, gate, seconds / 2, probe)
    tracer = Tracer(probe.clock)
    with tracer.installed():
        api = Api(span=tracer.span)
        traced, _, traced_raw, layers = timed_passes(
            workload, api, inputs, seed, gate, seconds / 2, probe, tracer
        )
    tracer.require_called(workload.expected_calls)
    samples = {name: [m[name] for m in layers] for name in layers[0]}
    samples["trace.wall_s"] = traced
    samples["trace.overhead_s"] = [statistics.median(traced) - statistics.median(plain)]
    raw = {"raw_wall_s": plain_raw["raw_wall_s"], "raw_trace.wall_s": traced_raw["raw_wall_s"]}
    return samples, raw, gate


def report(samples: Dict[str, List[float]], raw: Dict[str, List[float]], gate: Gate) -> dict:
    """Print one readable line per metric and raw timing, then return the result."""
    metrics = {}
    for name, values in list(samples.items()) + list(raw.items()):
        med, q1, q3, n = summarize(values)
        unit = unit_of(name)
        print(f"{name:36s} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n {n}")
        if name in samples:
            metrics[name] = {"value": float(med), "unit": unit}
    print(f"{'error_rate':36s} {gate.failed}/{gate.attempted} = {gate.failed / gate.attempted:.6g} ratio")
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }


def main(argv=None, workloads: Optional[Dict[str, Workload]] = None) -> int:
    workloads = workloads or WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads[args.workload]
    try:
        samples, raw, gate = measure(workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, TraceError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for note in gate.notes:
        print(f"wrong: {note}", file=sys.stderr)
    print(json.dumps(report(samples, raw, gate)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
