"""Tests of the benchmark's own helpers.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def api():
    return run.import_fresh()


# -- tail percentile ------------------------------------------------------------


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = [float(x) for x in range(100, 0, -1)]
    tail = run.tail_latency(samples)
    assert tail.value == 90.0
    assert tail.percentile == 90.0
    assert sum(1 for s in samples if s > tail.value) == tail.beyond == 10
    assert tail.samples == 100


def test_tail_percentile_rises_with_sample_count():
    tail = run.tail_latency([float(x) for x in range(1000)])
    assert tail.value == 989.0
    assert tail.percentile == 99.0


def test_tail_with_eleven_samples_is_the_minimum():
    tail = run.tail_latency([5.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 10.0, 11.0])
    assert tail.value == 1.0
    assert tail.beyond == 10


def test_tail_with_too_few_samples_is_the_maximum():
    tail = run.tail_latency([3.0, 1.0, 2.0])
    assert (tail.value, tail.percentile, tail.beyond) == (3.0, 100.0, 0)
    with pytest.raises(ValueError):
        run.tail_latency([])


def test_speed_scale_uses_the_probes_around_a_call():
    probe = run.SpeedProbe()
    probe.NEAREST = 2
    probe._times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    probe._values = [0.001, 0.001, 0.002, 0.008, 0.008, 0.002, 0.002]
    nominal = probe.NOMINAL_S
    # Probes at 2.0 and 3.0 precede a call over [3.5, 3.7]; 4.0 and 5.0 follow it.
    assert probe.scale(3.5, 3.7) == pytest.approx(nominal / 0.005)
    # Probes taken during a call count too.
    assert probe.scale(3.5, 5.5) == pytest.approx(nominal / 0.002)
    # At the ends, the probes on one side suffice.
    assert probe.scale(0.5, 0.7) == pytest.approx(nominal / 0.001)
    assert probe.scale(7.5, 8.0) == pytest.approx(nominal / 0.002)


def test_speed_probe_measures_the_decoder():
    probe = run.SpeedProbe()
    probe.sample()
    probe.sample()
    assert len(probe._values) == 2 and all(v > 0 for v in probe._values)
    assert probe.scale(0.0, 0.0) > 0


# -- fixed work per run ----------------------------------------------------------


class _FakeWorkload:
    """Two items per round: item 0 returns, item 1 raises every time."""

    ROUND_S = 4.0

    def __init__(self):
        self.calls = 0

    def items(self):
        return ["ok", "raises"]

    def attempts(self, item):
        return 1

    def run(self, api, item, probe):
        self.calls += 1
        if item == "raises":
            raise RecursionError("deep")
        return self.calls

    def evaluate(self, item, result, span):
        start, _ = span
        # Two parts per call; the first part of the first call is the slowest.
        slow = 0.5 if result == 1 else 0.01
        return workloads.Evaluation(
            attempted=1, turns=1, bytes=10,
            spans=[(start, start + slow), (start, start + 0.02)],
        )


def test_rounds_depend_only_on_seconds():
    fake = _FakeWorkload()
    assert run.rounds_for(fake, 20) == 5
    assert run.rounds_for(fake, 10) == 2
    assert run.rounds_for(fake, 1) == 1


def test_measure_runs_fixed_rounds_and_keeps_one_sample_per_part():
    fake = _FakeWorkload()
    m = run.measure(fake, None, run.SpeedProbe(), 2)
    assert (m.rounds, m.attempted, m.failed) == (2, 4, 2)
    assert m.failures["RecursionError"] == 2
    # One sample per part of item 0.  The median of two repetitions is their
    # mean; the tail's lower median drops the slow first repetition.
    assert len(m.raw_latencies) == len(m.raw_tail_latencies) == len(m.latencies) == 2
    assert sorted(m.raw_latencies) == pytest.approx([0.02, 0.255])
    assert sorted(m.raw_tail_latencies) == pytest.approx([0.01, 0.02])


# -- deterministic generation --------------------------------------------------------


def _snapshot(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): p.read_text(encoding="utf-8")
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def _build(api, cls, seed: int, directory: Path):
    directory.mkdir()
    workload = cls()
    workload.setup(api, seed, directory)
    return workload


@pytest.mark.parametrize("cls", [workloads.LintCorpus, workloads.NoisyReplies])
def test_generation_is_deterministic_for_a_seed(api, cls, tmp_path):
    first = _build(api, cls, 5, tmp_path / "a")
    second = _build(api, cls, 5, tmp_path / "b")
    other = _build(api, cls, 6, tmp_path / "c")
    assert _snapshot(tmp_path / "a") == _snapshot(tmp_path / "b")
    assert _snapshot(tmp_path / "a") != _snapshot(tmp_path / "c")

    def plan(workload, root):
        return [
            (str(getattr(i, "path", getattr(i, "directory", None)).relative_to(root)),
             getattr(i, "expect", None), getattr(i, "replies", None))
            for i in workload.items()
        ]

    assert plan(first, tmp_path / "a") == plan(second, tmp_path / "b")
    assert plan(first, tmp_path / "a") != plan(other, tmp_path / "c")


def test_protocol_inputs_follow_the_seed(api, tmp_path):
    first = _build(api, workloads.Protocol, 5, tmp_path / "a")
    other = _build(api, workloads.Protocol, 6, tmp_path / "b")
    assert first.spec == replace(other.spec, seed=5)
    assert first.bench_argv[first.bench_argv.index("--seed") + 1] == "5"
    assert first.spec.cases == 33


def test_noisy_cells_hold_the_hostile_share(api, tmp_path):
    noisy = _build(api, workloads.NoisyReplies, 5, tmp_path / "a")
    kinds = [r.kind for cell in noisy.items() for r in cell.replies]
    assert kinds.count("hostile_brace") == noisy.BRACE_CELLS
    assert kinds.count("hostile_deep") == noisy.DEEP_CELLS
    assert len(kinds) == noisy.CELLS * (noisy.ITERATIONS + 1)


# -- oracles reject a wrong count ------------------------------------------------------


def test_protocol_oracle_accepts_the_run_and_rejects_a_wrong_count(api, tmp_path):
    cases = tmp_path / "cases"
    cases.mkdir()
    for name in ("a", "b"):
        (cases / f"{name}.txt").write_text(f"Create stack {name}", encoding="utf-8")
    spec = oracles.ProtocolSpec(seed=9, cases=2, trials=2, generations=2, iterations=3,
                                p_fix=0.55, p_spawn=0.15, stubborn_fraction=0.25, defects=(6, 10))
    out = tmp_path / "results.json"
    code, _ = workloads.dispatch(api, [
        "bench", "--cases", str(cases), "--trials", "2", "--generations", "2", "--iterations", "3",
        "--seed", "9", "--out", str(out),
    ])
    assert code == 0
    results = json.loads(out.read_text(encoding="utf-8"))
    expected = oracles.protocol_expectation(api.gateway, api.schema_store.builtin_core_schemas(), spec)
    assert oracles.check_protocol_results(expected, results) == []

    results["trials"][1]["per_iteration_totals"][2][0] += 1
    assert oracles.check_protocol_results(expected, results)
    results["trials"][1]["per_iteration_totals"][2][0] -= 1
    results["failures"] = [{"trial_index": 0}]
    assert oracles.check_protocol_results(expected, results)

    csv, svg = tmp_path / "s.csv", tmp_path / "s.svg"
    assert workloads.dispatch(api, ["report", "--in", str(out), "--csv", str(csv), "--svg", str(svg)])[0] == 0
    csv_text, svg_text = csv.read_text(encoding="utf-8"), svg.read_text(encoding="utf-8")
    assert oracles.check_protocol_exports(expected, csv_text, svg_text) == []
    lines = csv_text.splitlines()
    fields = lines[1].split(",")
    fields[1] = f"{float(fields[1]) + 0.5:.6f}"
    lines[1] = ",".join(fields)
    assert oracles.check_protocol_exports(expected, "\n".join(lines), svg_text)


def _synthetic(api, defects: int, seed: int):
    params = api.gateway.SyntheticParams(p_fix=0.6, p_spawn=0.9, stubborn_fraction=0.1, seed=seed)
    backend = api.gateway.SyntheticBackend(params, initial_defects=defects, store=api.schema_store.builtin_core_schemas())
    backend.initial_generation()
    return backend, backend.synthetic_step(None)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_lint_oracle_rejects_a_wrong_count(api, tmp_path, fmt):
    backend, text = _synthetic(api, 30, seed=3)
    errors, warnings = oracles.live_counts(backend)
    assert errors and warnings
    path = tmp_path / "t.json"
    path.write_text(text, encoding="utf-8")
    code, stdout = workloads.dispatch(api, ["lint", str(path), "--format", fmt])
    good = oracles.LintExpectation("counts", counts=(errors, warnings))
    assert oracles.check_lint_output(good, fmt, code, stdout) == []
    for wrong in ((errors + 1, warnings), (errors, warnings - 1)):
        assert oracles.check_lint_output(replace(good, counts=wrong), fmt, code, stdout)
    assert oracles.check_lint_output(oracles.LintExpectation("syntax"), fmt, code, stdout)


def test_lint_oracle_rejects_a_wrong_golden_position(api):
    golden = json.loads(workloads.GOLDEN_FILE.read_text(encoding="utf-8"))["multi_defect_three"]["diagnostics"]
    path = workloads.FIXTURE_DIR / "multi_defect_three.json"
    code, stdout = workloads.dispatch(api, ["lint", str(path), "--format", "json"])
    good = oracles.LintExpectation("golden", golden=tuple(golden))
    assert oracles.check_lint_output(good, "json", code, stdout) == []
    moved = [dict(golden[0], line=golden[0]["line"] + 1)] + golden[1:]
    assert oracles.check_lint_output(replace(good, golden=tuple(moved)), "json", code, stdout)


def test_noisy_oracle_rejects_a_wrong_count(api, tmp_path):
    backend, template = _synthetic(api, 12, seed=4)
    counts = oracles.live_counts(backend)
    replies = (
        oracles.ReplyPlan("fenced", f"Fixed:\n```json\n{template}\n```\n", "template", template + "\n", counts),
        oracles.ReplyPlan("non_answer", "Sorry, no template {here}.", "none"),
    )
    script = tmp_path / "script"
    script.mkdir()
    for i, plan in enumerate(replies):
        (script / f"{i:03d}.txt").write_text(plan.text, encoding="utf-8")
    prompt = tmp_path / "prompt.txt"
    prompt.write_text("Make a stack", encoding="utf-8")
    out = tmp_path / "trace.json"
    code, _ = workloads.dispatch(api, [
        "loop", "--prompt-file", str(prompt), "--backend", "scripted", "--script-dir", str(script),
        "--iterations", "1", "--out", str(out),
    ])
    trace = json.loads(out.read_text(encoding="utf-8"))
    assert oracles.check_noisy_trace(replies, code, trace) == []
    wrong = (replace(replies[0], counts=(counts[0] + 1, counts[1])), replies[1])
    assert oracles.check_noisy_trace(wrong, code, trace)
    other_text = (replace(replies[0], template=template), replies[1])
    assert oracles.check_noisy_trace(other_text, code, trace)
    answered = (replies[0], replace(replies[1], expect="template", template="{}", counts=(0, 0)))
    assert oracles.check_noisy_trace(answered, code, trace)
    not_failed = (replace(replies[0], expect="none"), replies[1])
    assert oracles.check_noisy_trace(not_failed, code, trace)
