"""The work a seeded bench does, counted per layer and pinned.

Timings cannot resolve most changes to the loop, but counts of calls do not
swing: for a fixed seed every layer is called the same number of times on
every run, at any parallelism and under any hash seed.  A change that keeps
every result byte but does more work (a reuse that stops reusing) fails here.
"""

from __future__ import annotations

import threading
from collections import Counter
from pathlib import Path

import pytest

from iacloop import bench, gateway, linter, loop
from iacloop.bench import run_benchmark
from iacloop.gateway import SyntheticBackend
from iacloop.settings import BenchmarkConfig

CASES = Path(__file__).resolve().parent.parent / "benchmarks" / "cases"

# Seed 3, the first 4 cases x 2 trials x 2 generations x 10 iterations: 16
# cells of 11 turns each.
EXPECTED_CALLS = {
    "generate": 176,
    "extract_template": 67,
    "lint_template": 67,
    "render_diagnostics": 67,
    "synthetic_step": 160,
    "initial_generation": 16,
    "_sized_base": 17,  # one per cell, plus make_backend's check of the largest count
}
REPEATED_REPLIES = 109


@pytest.fixture
def four_cases(tmp_path):
    directory = tmp_path / "cases"
    directory.mkdir()
    for path in sorted(CASES.glob("*.txt"))[:4]:
        (directory / path.name).write_bytes(path.read_bytes())
    return directory


@pytest.mark.parametrize("parallelism", [1, 4])
def test_seeded_bench_work_is_pinned(four_cases, monkeypatch, parallelism):
    calls: list[str] = []  # list.append is atomic, so threads count exactly
    traces: list[loop.LoopTrace] = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("generate", "extract_template", "lint_template", "render_diagnostics"):
        monkeypatch.setattr(loop, name, counting(name, getattr(loop, name)))
    for name in ("synthetic_step", "initial_generation"):
        monkeypatch.setattr(SyntheticBackend, name, counting(name, getattr(SyntheticBackend, name)))
    monkeypatch.setattr(gateway, "_sized_base", counting("_sized_base", gateway._sized_base))
    inner_loop = bench.run_loop
    lock = threading.Lock()

    def keeping(*args, **kwargs):
        trace = inner_loop(*args, **kwargs)
        with lock:
            traces.append(trace)
        return trace

    monkeypatch.setattr(bench, "run_loop", keeping)
    linter._block_rows.cache_clear()
    result = run_benchmark(BenchmarkConfig(cases_dir=str(four_cases), trials=2, generations_per_case=2,
                                           iterations=10, master_seed=3, parallelism=parallelism))
    assert (result.completed, result.failures) == (16, [])
    counted = Counter(calls)
    assert dict(counted) == EXPECTED_CALLS

    # The identity the reuse rests on: a repeated reply's turn holds the
    # previous record itself and is neither extracted nor linted, and a
    # failed extraction is not linted.
    repeated = sum(rec is prev for t in traces for prev, rec in zip(t.records, t.records[1:]))
    failed = sum(rec.extraction_failed for t in traces for i, rec in enumerate(t.records)
                 if i == 0 or rec is not t.records[i - 1])
    assert (repeated, failed) == (REPEATED_REPLIES, 0)
    assert counted["lint_template"] == counted["generate"] - repeated - failed
    assert counted["extract_template"] == counted["generate"] - repeated

    if parallelism == 1:  # under threads two cells can miss on one block at once
        info = linter._block_rows.cache_info()
        assert (info.hits, info.misses) == (199, 69)
