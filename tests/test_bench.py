import json
import math
import random
import threading
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from iacloop.bench import (
    AggregateStats,
    EmptyDataset,
    LengthMismatch,
    aggregate,
    detect_plateau,
    export_csv,
    export_json,
    export_svg,
    load_cases,
    results_to_dict,
    run_benchmark,
    write_results,
)
from iacloop.gateway import HttpBackend, ScriptedBackend, SyntheticBackend, SyntheticParams
from iacloop.loop import LoopTrace, run_loop
from iacloop.schema_store import builtin_core_schemas
from iacloop.settings import BenchmarkConfig

VPC_PROMPT = (
    "Create a AWS CloudFormation template that deploys a VPC with a pair of "
    "private subnets spread across two Availabilty Zones. It deploys a VPC "
    "Endpoint for CloudFormation so an instance in the private subnet can use "
    "cfn-signal for its CreationPolicy."
)

THREE_ERRORS = json.dumps(
    {"Resources": {"I": {"Type": "AWS::EC2::Instance",
                         "Properties": {"InstanceType": 5, "Monitoring": "x"}}}}
)
ONE_ERROR = json.dumps(
    {"Resources": {"I": {"Type": "AWS::EC2::Instance",
                         "Properties": {"InstanceType": "t2.micro"}}}}
)
CLEAN = json.dumps(
    {"AWSTemplateFormatVersion": "2010-09-09",
     "Resources": {"M": {"Type": "AWS::EC2::Instance",
                         "Properties": {"InstanceType": "t2.micro", "ImageId": "ami-1"}}}}
)


def resum_traces(directory, cfg):
    """Per-trial (errors, warnings) totals re-summed from the trace files a bench wrote."""
    totals = [[(0, 0)] * (cfg.iterations + 1) for _ in range(cfg.trials)]
    for path in directory.iterdir():
        trial = int(path.name[len("trial"):].split("_", 1)[0])
        for index, record in enumerate(LoopTrace.from_dict(json.loads(path.read_text())).records):
            e, w = totals[trial][index]
            totals[trial][index] = (e + record.error_count, w + record.warning_count)
    return totals


@pytest.fixture
def script_dir(tmp_path):
    directory = tmp_path / "script"
    directory.mkdir()
    for i, text in enumerate([THREE_ERRORS, ONE_ERROR, CLEAN, CLEAN]):
        (directory / f"{i:03d}.txt").write_text(text)
    return directory


@pytest.fixture
def one_case_dir(tmp_path):
    directory = tmp_path / "cases"
    directory.mkdir()
    (directory / "case.txt").write_text("Create a template")
    return directory


class TestLoadCases:
    def test_thirty_three_files(self, tmp_path):
        for i in range(33):
            (tmp_path / f"case{i:02d}.txt").write_text(f"prompt {i}")
        cases = load_cases(tmp_path)
        assert len(cases) == 33
        assert [c.id for c in cases] == sorted(c.id for c in cases)

    def test_prompt_verbatim(self, tmp_path):
        (tmp_path / "vpc.txt").write_text(VPC_PROMPT)
        cases = load_cases(tmp_path)
        assert cases[0].prompt == VPC_PROMPT

    def test_empty_dir(self, tmp_path):
        with pytest.raises(EmptyDataset):
            load_cases(tmp_path)

    def test_missing_dir(self, tmp_path):
        with pytest.raises(OSError):
            load_cases(tmp_path / "none")


class TestRunBenchmark:
    def test_single_cell_totals(self, one_case_dir, script_dir):
        cfg = BenchmarkConfig(
            cases_dir=str(one_case_dir), generations_per_case=1, iterations=3,
            trials=1, backend="scripted", script_dir=str(script_dir),
        )
        result = run_benchmark(cfg)
        assert result.trials[0] == [(3, 0), (1, 0), (0, 0), (0, 0)]

    def test_two_identical_cells_double(self, one_case_dir, script_dir):
        cfg = BenchmarkConfig(
            cases_dir=str(one_case_dir), generations_per_case=2, iterations=3,
            trials=1, backend="scripted", script_dir=str(script_dir),
        )
        result = run_benchmark(cfg)
        assert result.trials[0] == [(6, 0), (2, 0), (0, 0), (0, 0)]

    def test_totals_additivity_over_traces(self, one_case_dir, tmp_path):
        cfg = BenchmarkConfig(
            cases_dir=str(one_case_dir), generations_per_case=3, iterations=4,
            trials=2, master_seed=5, traces_dir=str(tmp_path / "traces"),
        )
        result = run_benchmark(cfg)
        assert result.completed == 6
        assert result.trials == resum_traces(tmp_path / "traces", cfg)

    def test_deterministic_across_parallelism(self, tmp_path, one_case_dir):
        # Threads share the process-wide text cache, so the traces are
        # compared byte for byte too.
        results, traces = {}, {}
        for parallelism in (1, 8):
            traces_dir = tmp_path / f"traces-p{parallelism}"
            cfg = BenchmarkConfig(
                cases_dir=str(one_case_dir), generations_per_case=2, iterations=4,
                trials=2, master_seed=99, parallelism=parallelism, traces_dir=str(traces_dir),
            )
            result = run_benchmark(cfg)
            stats = aggregate(result.trials)
            out = tmp_path / f"results-p{parallelism}.json"
            write_results(result, out, stats=stats,
                          plateau_index=detect_plateau(stats.mean_errors))
            results[parallelism] = out.read_bytes()
            traces[parallelism] = {path.name: path.read_bytes() for path in traces_dir.iterdir()}
        assert results[1] == results[8]
        assert len(traces[1]) == 4
        assert traces[1] == traces[8]

    def test_backend_failure_listed_not_fatal(self, one_case_dir, tmp_path):
        short = tmp_path / "short"
        short.mkdir()
        (short / "000.txt").write_text(THREE_ERRORS)
        cfg = BenchmarkConfig(
            cases_dir=str(one_case_dir), generations_per_case=1, iterations=3,
            trials=1, backend="scripted", script_dir=str(short),
        )
        result = run_benchmark(cfg)
        assert len(result.failures) == 1
        assert result.failures[0].records_completed == 1
        assert result.trials[0] == [(0, 0)] * 4

    def test_unexpected_cell_error_listed_not_fatal(self, one_case_dir, tmp_path, monkeypatch):
        from iacloop import bench

        cfg = BenchmarkConfig(
            cases_dir=str(one_case_dir), generations_per_case=3, iterations=3,
            trials=2, master_seed=5, traces_dir=str(tmp_path / "expected"),
        )
        expected = run_benchmark(cfg)
        cfg.traces_dir = str(tmp_path / "failing")
        inner = bench.run_loop

        def failing_second_generation(case, backend, store, **settings):
            if settings["generation_index"] == 1:
                raise RuntimeError("cell exploded")
            return inner(case, backend, store, **settings)

        monkeypatch.setattr(bench, "run_loop", failing_second_generation)
        result = run_benchmark(cfg)
        assert [(f.trial_index, f.generation_index, f.error, f.records_completed)
                for f in result.failures] == [(0, 1, "RuntimeError: cell exploded", 0),
                                              (1, 1, "RuntimeError: cell exploded", 0)]
        assert (expected.completed, result.completed) == (6, 4)
        # No file for a failed cell; every other file is the expected run's, byte for byte.
        written = {p.name: p.read_bytes() for p in (tmp_path / "failing").iterdir()}
        assert written == {
            p.name: p.read_bytes() for p in (tmp_path / "expected").iterdir() if not p.name.endswith("_gen1.json")
        }
        assert len(written) == 4
        assert result.trials == resum_traces(tmp_path / "failing", cfg)

    def test_every_bench_backend_lints_by_block(self, one_case_dir, script_dir, monkeypatch):
        from iacloop import bench, loop

        backends, seen = [], []
        inner_loop, inner_lint = bench.run_loop, loop.lint_template

        def recording_loop(case, backend, store, **settings):
            backends.append(type(backend).__name__)
            return inner_loop(case, backend, store, **settings)

        def recording_lint(document, store, by_block=False):
            seen.append((backends[-1], by_block))
            return inner_lint(document, store, by_block=by_block)

        monkeypatch.setattr(bench, "run_loop", recording_loop)
        monkeypatch.setattr(loop, "lint_template", recording_lint)
        # An http cell's replies come without a request.
        monkeypatch.setattr(HttpBackend, "complete", lambda self, conversation: '{"Resources": {}}')
        kinds = ("SyntheticBackend", "ScriptedBackend", "HttpBackend")
        for backend, setting in (("synthetic", {}), ("scripted", {"script_dir": str(script_dir)}),
                                 ("http", {"api_base_url": "http://localhost:9"})):
            result = run_benchmark(BenchmarkConfig(cases_dir=str(one_case_dir), generations_per_case=2,
                                                   iterations=1, trials=1, backend=backend, **setting))
            assert result.completed == 2
        assert backends == [kind for kind in kinds for _ in range(2)]
        assert sorted(set(seen)) == sorted((kind, True) for kind in kinds)

    def test_scripted_bench_under_threads(self, tmp_path, monkeypatch):
        # Every cell replays one script of multi-block templates whose blocks
        # recur, so threads check and reuse the same blocks in the
        # process-wide cache at once.  The traces equal a whole-template lint.
        # Each run lists and reads the script's files once, not once per cell.
        from iacloop import linter, loop

        script = tmp_path / "script"
        script.mkdir()
        backend = SyntheticBackend(SyntheticParams(p_fix=0.5, p_spawn=0.3, stubborn_fraction=0.25, seed=3),
                                   initial_defects=40)
        texts = [backend.initial_generation()] + [backend.synthetic_step() for _ in range(4)]
        texts[2] = "Fixed:\n```json\n" + texts[2] + "\n```"
        for i, text in enumerate(texts):
            (script / f"{i:03d}.txt").write_text(text)
        cases = tmp_path / "cases"
        cases.mkdir()
        for i in range(3):
            (cases / f"case{i}.txt").write_text(f"Create stack {i}")
        listed, read = [], []

        def counting(method, seen):
            def wrapper(self, *args, **kwargs):
                seen.append(self)
                return method(self, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(Path, "glob", counting(Path.glob, listed))
        monkeypatch.setattr(Path, "read_text", counting(Path.read_text, read))
        traces = {}
        for parallelism in (1, 8):
            linter._block_rows.cache_clear()
            listed.clear()
            read.clear()
            traces_dir = tmp_path / f"traces-p{parallelism}"
            cfg = BenchmarkConfig(
                cases_dir=str(cases), generations_per_case=2, iterations=4, trials=2, backend="scripted",
                script_dir=str(script), parallelism=parallelism, traces_dir=str(traces_dir),
            )
            assert run_benchmark(cfg).completed == 12
            assert listed.count(script) == 1
            assert sorted(path.name for path in read if path.parent == script) == [f"{i:03d}.txt" for i in range(5)]
            traces[parallelism] = {path.name: path.read_bytes() for path in traces_dir.iterdir()}
        assert len(traces[1]) == 12
        assert traces[1] == traces[8]
        lint_whole = linter.lint_template
        monkeypatch.setattr(loop, "lint_template", lambda document, store, by_block: lint_whole(document, store))
        for case in load_cases(cases):
            for generation in range(2):
                expected = run_loop(case, ScriptedBackend.from_dir(str(script)), builtin_core_schemas(),
                                    max_iterations=4, generation_index=generation)
                for trial in range(2):
                    data = json.loads(traces[8][f"trial{trial:02d}_{case.id}_gen{generation}.json"])
                    assert LoopTrace.from_dict(data) == expected

    def test_traces_persisted(self, one_case_dir, script_dir, tmp_path):
        traces_dir = tmp_path / "traces"
        cfg = BenchmarkConfig(
            cases_dir=str(one_case_dir), generations_per_case=1, iterations=3,
            trials=1, backend="scripted", script_dir=str(script_dir),
            traces_dir=str(traces_dir),
        )
        run_benchmark(cfg)
        files = list(traces_dir.glob("*.json"))
        assert len(files) == 1
        data = json.loads(files[0].read_text())
        assert [r["error_count"] for r in data["records"]] == [3, 1, 0, 0]


class TestTraceWriter:
    """One thread of the bench's own process writes each completed cell's
    trace, in cell order; every way out of a run joins it, and a run that
    stops leaves the files of the cells before it."""

    @staticmethod
    def _cases(tmp_path, count):
        cases = tmp_path / "cases"
        cases.mkdir()
        for i in range(count):
            (cases / f"case{i}.txt").write_text(f"Create stack {i}")
        return cases

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_unwritable_trace_exits_3_naming_it(self, tmp_path, capsys, parallelism):
        from iacloop.cli import dispatch

        # 40 cells, so many traces are queued after the bad file.
        cases = self._cases(tmp_path, 2)
        traces = tmp_path / "traces"
        blocked = traces / "trial00_case0_gen0.json"
        blocked.mkdir(parents=True)  # a directory cannot be opened as a file, even by root
        results = tmp_path / "results.json"
        code = dispatch(["bench", "--cases", str(cases), "--trials", "2", "--generations", "10",
                         "--iterations", "2", "--parallel", str(parallelism),
                         "--traces-dir", str(traces), "--out", str(results)])
        assert code == 3
        assert str(blocked) in capsys.readouterr().err
        assert not results.exists()
        assert not _writer_threads()
        # The writer stops at its first failure: it writes nothing after it.
        assert list(traces.iterdir()) == [blocked]

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_interrupt_keeps_the_traces_of_finished_cells(self, tmp_path, monkeypatch, parallelism):
        from iacloop import bench

        # 30 cells in (case, generation) order; cell 20 is interrupted,
        # after the traces of the 20 before it have been queued.
        cases = self._cases(tmp_path, 3)
        cfg = BenchmarkConfig(cases_dir=str(cases), generations_per_case=10, iterations=3, trials=1,
                              master_seed=7, parallelism=parallelism, traces_dir=str(tmp_path / "full"))
        run_benchmark(cfg)
        inner = bench.run_loop

        def interrupted(case, backend, store, **settings):
            if (case.id, settings["generation_index"]) == ("case2", 0):
                raise KeyboardInterrupt
            return inner(case, backend, store, **settings)

        monkeypatch.setattr(bench, "run_loop", interrupted)
        cfg.traces_dir = str(tmp_path / "interrupted")
        with pytest.raises(KeyboardInterrupt):
            run_benchmark(cfg)
        assert not _writer_threads()
        written = {p.name: p.read_bytes() for p in (tmp_path / "interrupted").iterdir()}
        finished = [f"trial00_case{c}_gen{g}.json" for c in range(2) for g in range(10)]
        assert sorted(written) == sorted(finished)
        assert written == {name: (tmp_path / "full" / name).read_bytes() for name in finished}

    def test_a_writer_error_of_any_kind_fails_the_run(self, tmp_path, monkeypatch):
        # The writer keeps emptying its queue after a failure, so 40 traces
        # behind a queue of 8 cannot leave the run waiting on a full queue.
        def broken(path, data):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(Path, "write_bytes", broken)
        cfg = BenchmarkConfig(cases_dir=str(self._cases(tmp_path, 2)), generations_per_case=10, iterations=2,
                              trials=2, traces_dir=str(tmp_path / "traces"))
        raised = []

        def run():
            try:
                run_benchmark(cfg)
            except RuntimeError as exc:
                raised.append(str(exc))

        runner = threading.Thread(target=run, daemon=True)  # a hung run must not hold up the interpreter's exit
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive()
        assert raised == ["disk on fire"]
        assert not _writer_threads()
        assert list((tmp_path / "traces").iterdir()) == []

    def test_a_slow_disk_holds_the_cells_back(self, tmp_path, monkeypatch):
        # While the writer is stuck on the first file, the next 8 wait in its
        # queue and the cell after them waits to join them: no more traces
        # pile up in memory.
        from iacloop import bench

        release = threading.Event()
        write_bytes = Path.write_bytes

        def stuck(path, data):
            release.wait(timeout=60)
            return write_bytes(path, data)

        started = []
        inner = bench.run_loop

        def counted(case, backend, store, **settings):
            started.append(case.id)
            return inner(case, backend, store, **settings)

        monkeypatch.setattr(Path, "write_bytes", stuck)
        monkeypatch.setattr(bench, "run_loop", counted)
        cfg = BenchmarkConfig(cases_dir=str(self._cases(tmp_path, 2)), generations_per_case=10, iterations=2,
                              trials=2, traces_dir=str(tmp_path / "traces"))
        result = []
        runner = threading.Thread(target=lambda: result.append(run_benchmark(cfg)), daemon=True)
        runner.start()
        try:
            deadline = time.monotonic() + 30
            while len(started) < 10 and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.2)
            assert len(started) == 1 + bench._QUEUED_FILES + 1
        finally:
            release.set()
            runner.join(timeout=60)
        assert not runner.is_alive()
        assert result[0].completed == 40
        assert len(list((tmp_path / "traces").iterdir())) == 40


def _writer_threads():
    return [t for t in threading.enumerate() if t.name == "iacloop-trace-writer"]


def _naive_mean_std(values):
    n = len(values)
    mean = sum(values) / n
    total = 0.0
    for v in values:
        total += (v - mean) * (v - mean)
    return mean, math.sqrt(total / (n - 1))


class TestAggregate:
    def test_forced_arithmetic(self):
        trials = [
            [(10, 2)],
            [(12, 4)],
        ]
        stats = aggregate(trials)
        assert stats.mean_errors == [11.0]
        assert abs(stats.std_errors[0] - math.sqrt(2)) < 1e-12
        assert stats.mean_warnings == [3.0]

    def test_identical_trials_zero_std(self):
        trials = [[(5, 1), (3, 0)] for _ in range(4)]
        stats = aggregate(trials)
        assert stats.std_errors == [0.0, 0.0]
        assert stats.std_warnings == [0.0, 0.0]

    def test_matches_naive_oracle(self):
        rng = random.Random(17)
        for _ in range(20):
            length = rng.randint(1, 12)
            trials = [
                [(rng.randint(0, 500), rng.randint(0, 100)) for _ in range(length)]
                for _ in range(6)
            ]
            stats = aggregate(trials)
            for i in range(length):
                mean, std = _naive_mean_std([t[i][0] for t in trials])
                assert math.isclose(stats.mean_errors[i], mean, rel_tol=1e-12, abs_tol=1e-12)
                assert math.isclose(stats.std_errors[i], std, rel_tol=1e-12, abs_tol=1e-12)

    def test_std_is_correctly_rounded(self):
        # Seed 3's iteration-7 error totals: a left-to-right float sum of the
        # squared deviations ends one ulp off, and Python 3.12 changed sum()
        # to compensated summation, so results.json bytes hung on the version.
        totals = [337, 342, 342, 342, 339, 340]
        mean = sum(totals) / 6
        squares = [(v - mean) ** 2 for v in totals]
        running = 0.0
        for square in squares:
            running += square
        assert running != math.fsum(squares)  # the case the test is about
        stats = aggregate([[(v, 0)] for v in totals])
        assert stats.std_errors == [math.sqrt(math.fsum(squares) / 5)]
        assert repr(stats.std_errors[0]) == "2.065591117977289"

    def test_length_mismatch(self):
        trials = [[(1, 1)], [(1, 1), (2, 2)]]
        with pytest.raises(LengthMismatch):
            aggregate(trials)

    def test_two_trials_minimum(self):
        with pytest.raises(ValueError):
            aggregate([[(1, 1)]])

    def test_mean_within_min_max(self):
        rng = random.Random(3)
        trials = [[(rng.randint(0, 50), 0) for _ in range(5)] for _ in range(6)]
        stats = aggregate(trials)
        for i in range(5):
            values = [t[i][0] for t in trials]
            assert min(values) <= stats.mean_errors[i] <= max(values)


class TestDetectPlateau:
    def test_constant_series(self):
        assert detect_plateau([5, 5, 5, 5]) == 0

    def test_halving_series_never_plateaus(self):
        assert detect_plateau([64, 32, 16, 8]) is None

    def test_plateau_after_decline(self):
        series = [100, 50, 25, 24.8, 24.7, 24.65]
        assert detect_plateau(series) == 2

    def test_window_must_fit(self):
        with pytest.raises(ValueError):
            detect_plateau([1, 2], window=2)

    def test_small_values_use_absolute_floor(self):
        # max(means[k], 1) keeps near-zero tails from demanding exact equality
        assert detect_plateau([0.5, 0.49, 0.485, 0.4849]) == 0


class TestExport:
    def _stats(self, iterations=11, rng=None):
        rng = rng or random.Random(23)
        return AggregateStats(
            mean_errors=[rng.uniform(0, 900) for _ in range(iterations)],
            std_errors=[rng.uniform(0, 40) for _ in range(iterations)],
            mean_warnings=[rng.uniform(0, 80) for _ in range(iterations)],
            std_warnings=[rng.uniform(0, 10) for _ in range(iterations)],
        )

    def test_csv_line_count(self, tmp_path):
        out = tmp_path / "stats.csv"
        export_csv(self._stats(11), out)
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 12
        assert lines[0] == "iteration,mean_errors,std_errors,mean_warnings,std_warnings"

    def test_csv_roundtrip_to_1e6(self, tmp_path):
        stats = self._stats(11)
        out = tmp_path / "stats.csv"
        export_csv(stats, out)
        _, *rows = out.read_text().splitlines()
        assert len(rows) == len(stats)
        for i, row in enumerate(rows):
            iteration, *values = row.split(",")
            assert int(iteration) == i
            expected = (stats.mean_errors[i], stats.std_errors[i], stats.mean_warnings[i], stats.std_warnings[i])
            assert all(abs(float(v) - e) <= 1e-6 for v, e in zip(values, expected, strict=True))

    def test_json_mirrors_stats(self, tmp_path):
        stats = self._stats(5)
        out = tmp_path / "stats.json"
        export_json(stats, out)
        assert AggregateStats.from_dict(json.loads(out.read_text())) == stats

    def test_svg_zero_stats_has_zero_height_bars(self, tmp_path):
        stats = AggregateStats([0.0] * 11, [0.0] * 11, [0.0] * 11, [0.0] * 11)
        out = tmp_path / "chart.svg"
        export_svg(stats, out)
        root = ET.fromstring(out.read_text())
        bars = [e for e in root.iter() if e.get("class") == "bar"]
        assert len(bars) == 11
        assert all(float(b.get("height")) == 0.0 for b in bars)

    def test_svg_well_formed_with_bar_per_iteration(self, tmp_path):
        stats = self._stats(11)
        out = tmp_path / "chart.svg"
        export_svg(stats, out)
        root = ET.fromstring(out.read_text())
        bars = [e for e in root.iter() if e.get("class") == "bar"]
        assert len(bars) == 11
        labels = [e.text for e in root.iter() if e.tag.endswith("text")]
        assert "Iteration" in labels
        assert "Total errors" in labels

    def test_svg_skip_initial(self, tmp_path):
        stats = self._stats(11)
        out = tmp_path / "chart.svg"
        export_svg(stats, out, include_initial=False)
        root = ET.fromstring(out.read_text())
        bars = [e for e in root.iter() if e.get("class") == "bar"]
        assert len(bars) == 10


class TestResultsFile:
    def test_schema_shape(self, tmp_path):
        cases = tmp_path / "cases"
        cases.mkdir()
        (cases / "a.txt").write_text("make a vpc")
        cfg = BenchmarkConfig(cases_dir=str(cases), generations_per_case=1,
                              iterations=2, trials=2, master_seed=1)
        result = run_benchmark(cfg)
        stats = aggregate(result.trials)
        payload = results_to_dict(result, stats, detect_plateau(stats.mean_errors))
        assert set(payload) == {"config", "trials", "stats", "plateau_index", "failures"}
        assert payload["config"]["master_seed"] == 1
        assert [t["trial_index"] for t in payload["trials"]] == [0, 1]
        assert len(payload["trials"][0]["per_iteration_totals"]) == 3
