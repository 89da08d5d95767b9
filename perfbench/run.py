"""Benchmark runner for iacloop: one workload per process, or all of them.

Usage, from the repository root:

    python3 perfbench/run.py --workload protocol --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

With ``--trace 0`` the run measures end-to-end metrics with tracing off.
With ``--trace 1`` it times the same whole rounds untraced and then traced,
and reports per-layer metrics from the traced pass plus the tracing overhead.
Every output is checked by an oracle in ``oracles.py``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (name -> value and unit).

Times are reported at a nominal machine speed (see ``SpeedProbe``); the raw
wall-clock figures are printed alongside.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import gc
import importlib
import json
import json.decoder
import json.scanner
import math
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples a tail percentile must leave above it


def import_fresh() -> SimpleNamespace:
    """Import iacloop from ``src/``, discarding any copy already loaded."""
    for name in [n for n in sys.modules if n == "iacloop" or n.startswith("iacloop.")]:
        del sys.modules[name]
    importlib.import_module("iacloop")
    return SimpleNamespace(**{
        short: importlib.import_module(f"iacloop.{short}")
        for short in ("cli", "gateway", "bench", "loop", "linter", "located_json", "schema_store")
    })


class SpeedProbe:
    """Tracks how fast the machine runs Python code while the benchmark runs.

    The shared host slows this machine's CPU by up to 2x for seconds to
    minutes at a time, so raw wall times of identical work differ between
    runs far more than the regressions the benchmark must catch.  The probe
    times a fixed pure-Python workload that iacloop cannot change, decoding
    one JSON document with the standard library's Python decoder, between
    timed calls; a long call may probe between its own steps, and the time
    it spends probing is left out of its timing (``spent_s``).  Each timed
    call is multiplied by ``NOMINAL_S`` over the median probe time around
    and during that call, which expresses it at the speed where the probe
    takes ``NOMINAL_S``.  A call timed in parts (a bench run's cells) scales
    every part by the call's factor: the probe's readings over a second or
    two swing by up to 1.6x while the cells' own times do not, so a factor
    per cell moved a protocol run's latency tail by up to 35%.
    """

    NOMINAL_S = 0.002
    INTERVAL_S = 0.25  # wall time between probes
    REPEATS = 5  # decodes per probe
    NEAREST = 4  # probes on each side of a span that also describe its speed

    def __init__(self) -> None:
        document = {
            "Resources": {
                f"Bucket{i}": {
                    "Type": "AWS::S3::Bucket",
                    "Properties": {"BucketName": f"store-{i}", "Versioned": i % 2 == 0,
                                   "Tags": [{"Key": "index", "Value": i}]},
                }
                for i in range(60)
            }
        }
        self._text = json.dumps(document, indent=2)
        decoder = json.JSONDecoder()
        decoder.parse_string = json.decoder.py_scanstring
        decoder.scan_once = json.scanner.py_make_scanner(decoder)
        self._decoder = decoder
        self._times: list[float] = []  # when each probe ended
        self._values: list[float] = []  # seconds per decode, median of REPEATS
        self._next = 0.0
        self.spent_s = 0.0  # wall time spent probing

    def sample(self) -> None:
        began = perf_counter()
        runs = []
        for _ in range(self.REPEATS):
            start = perf_counter()
            self._decoder.decode(self._text)
            runs.append(perf_counter() - start)
        now = perf_counter()
        self._times.append(now)
        self._values.append(statistics.median(runs))
        self._next = now + self.INTERVAL_S
        self.spent_s += now - began

    def sample_if_due(self) -> None:
        if perf_counter() >= self._next:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor for a call over [start, end]: the median of the probes
        during it and the ``NEAREST`` on each side gives the machine's speed
        then.  One probe is too noisy: scaling each call by its own nearest
        probe would put the calls with the worst probes in the tail."""
        before = bisect.bisect_right(self._times, start)
        after = bisect.bisect_left(self._times, end)
        nearby = self._values[max(before - self.NEAREST, 0):after + self.NEAREST]
        return self.NOMINAL_S / statistics.median(nearby)


@dataclass(frozen=True)
class Tail:
    value: float
    percentile: float
    beyond: int
    samples: int


def tail_latency(samples: list[float]) -> Tail:
    """The highest percentile with at least ``TAIL_BEYOND`` samples above it.

    That is the ``TAIL_BEYOND + 1``-th largest sample, at percentile
    ``100 * (n - TAIL_BEYOND) / n``.  With too few samples it is the maximum,
    with nothing beyond it.
    """
    if not samples:
        raise ValueError("no latency samples")
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return Tail(ordered[-1], 100.0, 0, n)
    return Tail(ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND, n)


@dataclass
class Measurement:
    """One pass of timed calls.  Times are at nominal speed unless named raw."""

    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    raw_busy_s: float = 0.0
    busy_s: float = 0.0
    # One sample per part of the work: its median time over the rounds
    # (``latencies``), and its lower-median time (``tail_latencies``).
    latencies: list[float] = field(default_factory=list)
    raw_latencies: list[float] = field(default_factory=list)
    tail_latencies: list[float] = field(default_factory=list)
    raw_tail_latencies: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)  # one per completed call
    problems: list[str] = field(default_factory=list)
    failures: collections.Counter = field(default_factory=collections.Counter)
    first_traceback: dict[str, str] = field(default_factory=dict)
    # Per item index: the times of its completed calls, and its (turns, bytes).
    item_times: dict[int, list[float]] = field(default_factory=dict)
    item_work: dict[int, tuple[int, int]] = field(default_factory=dict)

    @property
    def scale(self) -> float:
        return statistics.median(self.scales) if self.scales else 1.0

    def rates(self) -> tuple[float, float]:
        """(turns, bytes) per second over the completed items, taking each
        item's median time, so a burst of contention on the machine moves
        the result less than a total over the run would."""
        typical_s = sum(statistics.median(t) for t in self.item_times.values())
        turns = sum(work[0] for work in self.item_work.values())
        size = sum(work[1] for work in self.item_work.values())
        return turns / typical_s, size / typical_s


def rounds_for(workload: Any, seconds: float) -> int:
    """Whole rounds that fit in ``seconds`` at nominal speed, at least one.

    The count depends only on ``seconds`` and the workload's nominal round
    time (``ROUND_S``), never on how fast this run goes, so every run of a
    workload does the same work: ``attempted`` and ``failed`` then agree
    between runs of the same code, and each latency sample stands for the
    same number of calls.
    """
    return max(1, int(seconds // workload.ROUND_S))


def measure(
    workload: Any,
    api: Any,
    probe: SpeedProbe,
    rounds: int,
    items: Optional[list] = None,
    probe_within_calls: bool = True,
) -> Measurement:
    """Run ``items`` (default: all the workload's) in order for ``rounds``
    rounds, timing each call.

    Oracle checks and speed probes run outside the timed calls.  Without
    ``probe_within_calls`` a long call may not probe between its steps,
    which keeps probe time out of a traced pass's spans.

    A latency sample is one part of the work (a file, a cell, a bench cell)
    at its median time over the rounds that ran it.  The tail takes each
    part's lower-median time instead, so a full garbage collection or a
    stall of the shared machine that hits one repetition of a part does not
    make the tail.  The median takes the plain median, which for two
    repetitions is their mean: a lower median is biased down by noise, by
    as much as the noise of the run, and the median needs no guard against
    one-off events.
    """
    m = Measurement()
    if items is None:
        items = workload.items()
    completed: list[tuple[float, float, int, Any]] = []
    probe.sample()
    for _ in range(rounds):
        for index, item in enumerate(items):
            probe.sample_if_due()
            probing = probe.spent_s
            start = perf_counter()
            try:
                result = workload.run(api, item, probe if probe_within_calls else None)
            except Exception as exc:  # the program raised on this item: a failed operation
                m.raw_busy_s += perf_counter() - (probe.spent_s - probing) - start
                attempts = workload.attempts(item)
                m.attempted += attempts
                m.failed += attempts
                kind = type(exc).__name__
                m.failures[kind] += 1
                m.first_traceback.setdefault(kind, "".join(traceback.format_exception(exc, limit=-3)))
                continue
            end = perf_counter() - (probe.spent_s - probing)
            m.raw_busy_s += end - start
            ev = workload.evaluate(item, result, (start, end))
            m.attempted += ev.attempted
            m.failed += ev.failed
            m.problems += ev.problems
            completed.append((start, end, index, ev))
        m.rounds += 1
    # Scaling, now that the probes after every call are known.
    probe.sample()
    samples: dict[Any, list[tuple[float, float]]] = {}  # part -> (scaled, raw) per repetition
    for start, end, index, ev in completed:
        scale = probe.scale(start, end)
        for number, (s, e) in enumerate(ev.spans):
            key = ev.keys[number] if ev.keys is not None else (index, number)
            samples.setdefault(key, []).append(((e - s) * scale, e - s))
        m.scales.append(scale)
        m.busy_s += (end - start) * scale
        m.item_times.setdefault(index, []).append((end - start) * scale)
        m.item_work[index] = (ev.turns, ev.bytes)
    for repetitions in samples.values():
        scaled = [value for value, _ in repetitions]
        raw = [value for _, value in repetitions]
        m.latencies.append(statistics.median(scaled))
        m.raw_latencies.append(statistics.median(raw))
        m.tail_latencies.append(statistics.median_low(scaled))
        m.raw_tail_latencies.append(statistics.median_low(raw))
    return m


def setup(workload: Any, seed: int, workdir: Path, repeats: int, probe: SpeedProbe) -> tuple[Any, list[float]]:
    """Import the package and build the inputs ``repeats`` times; keep the
    last.  Returns the set-up times at nominal speed.

    Afterwards every object alive is frozen out of the garbage collector, so
    full collections during the timed calls scan what the program allocates
    rather than the benchmark's inputs and discarded module copies, which a
    fresh ``iacloop`` process would not hold."""
    spans = []
    api = None
    for _ in range(repeats):
        shutil.rmtree(workdir, ignore_errors=True)
        probe.sample()
        start = perf_counter()
        api = import_fresh()
        workdir.mkdir(parents=True)
        workload.setup(api, seed, workdir)
        spans.append((start, perf_counter()))
    probe.sample()
    gc.collect()
    gc.freeze()
    return api, [(end - start) * probe.scale(start, end) for start, end in spans]


def end_to_end(m: Measurement, setup_times: list[float]) -> dict[str, tuple[float, str]]:
    tail = tail_latency(m.tail_latencies)
    turns_per_s, bytes_per_s = m.rates()
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "turns_per_s": (turns_per_s, "1/s"),
        "mb_per_s": (bytes_per_s / 1e6, "MB/s"),
        "latency_p50_ms": (statistics.median(m.latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail.value * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }


def report(workload_name: str, m: Measurement, metrics: dict[str, tuple[float, str]], extra: list[str]) -> dict:
    """Print the human-readable lines; return the result object."""
    correct = not m.problems and m.attempted > m.failed
    print(f"workload {workload_name}: {m.attempted} attempted, {m.failed} failed "
          f"(failed_ratio {m.failed / max(m.attempted, 1):.4f}), {m.rounds} whole rounds, "
          f"{m.raw_busy_s:.2f} s timed, correct={correct}")
    for kind, count in sorted(m.failures.items()):
        print(f"  raised {kind} x{count}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.4f} {unit}")
    for line in extra:
        print("  " + line)
    for problem in m.problems[:20]:
        print(f"oracle: {problem}", file=sys.stderr)
    for kind, text in m.first_traceback.items():
        print(f"first {kind}:\n{text}", file=sys.stderr)
    return {
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]()
    workdir = WORK / name
    probe = SpeedProbe()
    try:
        if not trace:
            api, setup_times = setup(workload, seed, workdir, SETUP_REPEATS, probe)
            m = measure(workload, api, probe, rounds_for(workload, seconds))
            tail = tail_latency(m.tail_latencies)
            extra = [
                f"latency_tail_ms is p{tail.percentile:.2f} of {tail.samples} samples ({tail.beyond} beyond it)",
                f"speed scale {m.scale:.4f} (nominal / measured); raw: {m.raw_busy_s:.2f} s timed, "
                f"latency p50 {statistics.median(m.raw_latencies) * 1e3:.4f} ms, "
                f"tail {tail_latency(m.raw_tail_latencies).value * 1e3:.4f} ms",
            ]
            return report(name, m, end_to_end(m, setup_times), extra)

        api, _ = setup(workload, seed, workdir, 1, probe)
        # Neither pass probes within a call, so the two differ only by tracing.
        # One untimed call first, so one-time costs (lazy imports, compiled
        # patterns) do not count against the untraced pass.
        items = workload.items()[:workload.TRACED_ITEMS]
        measure(workload, api, probe, 1, items[:1], probe_within_calls=False)
        rounds = rounds_for(workload, seconds / 2)
        untraced = measure(workload, api, probe, rounds, items, probe_within_calls=False)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = measure(workload, api, probe, rounds, items, probe_within_calls=False)
        finally:
            tracer.uninstall()
        summary = tracing.summarize(tracer.spans)
        turns = summary.get(workload.turn_span).calls
        metrics = tracing.layer_metrics(
            summary, traced.rounds, turns, workload.workers, untraced.raw_busy_s, traced.raw_busy_s, traced.scale)
        spans_file = WORK / f"spans-{name}.jsonl"
        tracer.write(spans_file)
        combined = Measurement(
            attempted=untraced.attempted + traced.attempted,
            failed=untraced.failed + traced.failed,
            rounds=traced.rounds,
            raw_busy_s=untraced.raw_busy_s + traced.raw_busy_s,
            problems=untraced.problems + traced.problems,
            failures=untraced.failures + traced.failures,
            first_traceback={**untraced.first_traceback, **traced.first_traceback},
        )
        extra = [
            f"speed scale untraced {untraced.scale:.4f}, traced {traced.scale:.4f}; "
            f"raw timed {untraced.raw_busy_s:.2f} s untraced, {traced.raw_busy_s:.2f} s traced",
            f"spans written to {spans_file}",
            *tracing.layer_table(summary, traced.rounds),
        ]
        return report(name, combined, metrics, extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(seed: int, seconds: int, trace: bool) -> dict:
    """Each workload in its own process, so peak RSS is per workload."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv: Optional[list[str]] = None) -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "iacloop" / "__init__.py").is_file():
        print(f"error: iacloop sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if not all(math.isfinite(e["value"]) for e in result["metrics"].values()):
        print("error: a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
