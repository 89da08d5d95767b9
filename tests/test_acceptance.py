"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import json
import math
import random
import time
import xml.etree.ElementTree as ET
from pathlib import Path


from iacloop.bench import (
    AggregateStats,
    aggregate,
    detect_plateau,
    export_csv,
    export_svg,
    run_benchmark,
    write_results,
)
from iacloop.gateway import ScriptedBackend, SyntheticBackend, SyntheticParams
from iacloop.linter import format_diagnostic, lint_template
from iacloop.located_json import parse_located, resolve_spans
from iacloop.loop import BenchmarkCase, run_loop
from iacloop.schema_store import builtin_core_schemas
from iacloop.settings import BenchmarkConfig

from helpers import iter_pointers, random_document

STORE = builtin_core_schemas()

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


def _announce(number: int, name: str) -> None:
    print(f"\nACCEPTANCE {number} PASS: {name}")


class TestCriterion1PinnedMessageReproduction:
    def _minified_fixture(self) -> str:
        def build(pad: int) -> str:
            return json.dumps(
                {
                    "AWSTemplateFormatVersion": "2010-09-09",
                    "Description": "x" * pad,
                    "Resources": {
                        "Instance": {
                            "Type": "AWS::EC2::Instance",
                            "Properties": {
                                "ImageId": "ami-0abcdef1234567890",
                                "AvailabilityZone": {"Fn::GetAZs": ""},
                            },
                        }
                    },
                },
                separators=(",", ":"),
            )

        probe = build(1)
        path = ("Resources", "Instance", "Properties", "AvailabilityZone")
        return build(1 + (4575 - resolve_spans(probe, [path])[path].column))

    def test_byte_exact_error_message(self):
        started = time.monotonic()
        text = self._minified_fixture()
        assert "\n" not in text
        report = lint_template(parse_located(text), STORE)
        assert len(report.diagnostics) == 1
        diagnostic = report.diagnostics[0]
        assert (diagnostic.span.line, diagnostic.span.column) == (1, 4575)
        rendered = format_diagnostic(diagnostic, "path/to/my_iac.json")
        assert rendered == (
            "E1015 {'Fn::GetAZs': ''} is not of type 'string'\n"
            "Error location - path/to/my_iac.json:1:4575"
        )
        elapsed = time.monotonic() - started
        assert elapsed < 1.0
        _announce(1, f"two-line E1015 diagnostic byte-exact at 1:4575 ({elapsed * 1000:.0f} ms)")


class TestCriterion2GoldenLintSuite:
    def test_golden_fixtures_match(self):
        fixture_dir = Path(__file__).parent / "fixtures" / "lint"
        golden = json.loads((Path(__file__).parent / "fixtures" / "lint_golden.json").read_text())
        assert len(golden) >= 20
        codes_triggered = set()
        for name, entry in sorted(golden.items()):
            text = (fixture_dir / f"{name}.json").read_text()
            report = lint_template(
                parse_located(text),
                STORE,
                strict_unknown_types=entry.get("options", {}).get("strict_unknown_types"),
            )
            actual = [
                {"code": d.code, "pointer": d.pointer, "line": d.span.line,
                 "column": d.span.column, "message": d.message}
                for d in report.diagnostics
            ]
            assert actual == entry["diagnostics"], name
            codes_triggered |= {d.code for d in report.diagnostics}
        assert codes_triggered == {
            "E0001", "E1001", "E1002", "E1010", "E1015", "E3001",
            "E3002", "E3003", "E3012", "E3030", "W1020", "W2001",
        }
        _announce(2, f"{len(golden)} golden fixtures match hand-audited diagnostics exactly")


class TestCriterion3LoopDeterminism:
    def test_scripted_traces(self):
        case = BenchmarkCase(id="cell", prompt="Create the stack")

        backend = ScriptedBackend([THREE_ERRORS, ONE_ERROR, CLEAN])
        stopped = run_loop(case, backend, STORE, max_iterations=10, early_stop=True)
        assert len(stopped.records) == 3
        assert stopped.counts() == [(3, 0), (1, 0), (0, 0)]

        padded = ScriptedBackend([THREE_ERRORS, ONE_ERROR, CLEAN] + [CLEAN] * 8)
        full = run_loop(case, padded, STORE, max_iterations=10)
        assert len(full.records) == 11
        assert full.counts() == [(3, 0), (1, 0)] + [(0, 0)] * 9
        _announce(3, "scripted [3,1,0] loop: 3 records with early stop, 11 without")


class TestCriterion4ExponentialDecayLaw:
    def test_mean_errors_halve_each_iteration(self):
        started = time.monotonic()
        seeds, n0, iterations = 500, 16, 6
        case = BenchmarkCase(id="decay", prompt="Create the stack")
        sums = [0.0] * (iterations + 1)
        squares = [0.0] * (iterations + 1)
        for seed in range(seeds):
            params = SyntheticParams(p_fix=0.5, p_spawn=0.0, stubborn_fraction=0.0, seed=seed)
            backend = SyntheticBackend(params, initial_defects=n0)
            trace = run_loop(case, backend, STORE, max_iterations=iterations)
            for index, record in enumerate(trace.records):
                sums[index] += record.error_count
                squares[index] += record.error_count**2
        details = []
        for t in range(iterations + 1):
            mean = sums[t] / seeds
            variance = max(squares[t] / seeds - mean**2, 0.0)
            standard_error = math.sqrt(variance / seeds)
            expected = n0 * 0.5**t
            assert abs(mean - expected) <= max(3 * standard_error, 1e-9), (t, mean, expected)
            details.append(f"{mean:.2f}~{expected:.2f}")
        elapsed = time.monotonic() - started
        assert elapsed < 30.0
        _announce(4, f"synthetic decay matches 16*0.5^t over 500 seeds in {elapsed:.1f}s "
                     f"({'; '.join(details)})")


class TestCriterion5PlateauReproduction:
    def test_paper_scale_synthetic_protocol(self, tmp_path):
        started = time.monotonic()
        cases_dir = tmp_path / "cases"
        cases_dir.mkdir()
        for i in range(33):
            (cases_dir / f"case{i:02d}.txt").write_text(
                f"Create a AWS CloudFormation template for workload variant {i}."
            )
        cfg = BenchmarkConfig(
            cases_dir=str(cases_dir),
            generations_per_case=5,
            iterations=10,
            trials=6,
            master_seed=20240801,
            backend="synthetic",
            p_fix=0.55,
            p_spawn=0.15,
            stubborn_fraction=0.25,
            initial_defects_min=6,
            initial_defects_max=10,
            parallelism=4,
        )
        result = run_benchmark(cfg)
        assert result.failures == []
        assert result.completed == 6 * 33 * 5
        stats = aggregate(result.trials)

        # monotone non-increasing through iteration 3, within sampling noise
        for t in range(3):
            noise = 3 * math.sqrt(
                (stats.std_errors[t] ** 2 + stats.std_errors[t + 1] ** 2) / cfg.trials
            )
            assert stats.mean_errors[t + 1] <= stats.mean_errors[t] + noise, t

        plateau = detect_plateau(stats.mean_errors)
        assert plateau is not None and 3 <= plateau <= 7, plateau
        assert all(s > 0 for s in stats.std_errors)
        elapsed = time.monotonic() - started
        assert elapsed < 120.0
        _announce(5, f"165-cell x 6-trial synthetic protocol: plateau at iteration {plateau}, "
                     f"nonzero error bars, {elapsed:.0f}s")


class TestCriterion6AggregationOracle:
    def test_matches_independent_two_pass_oracle(self):
        def naive(values):
            n = len(values)
            mean = sum(values) / n
            acc = 0.0
            for v in values:
                acc += (v - mean) * (v - mean)
            return mean, math.sqrt(acc / (n - 1))

        rng = random.Random(60601)
        for _ in range(100):
            length = rng.randint(1, 12)
            trials = [
                [(rng.randint(0, 2000), rng.randint(0, 400)) for _ in range(length)]
                for _ in range(rng.randint(2, 8))
            ]
            stats = aggregate(trials)
            for i in range(len(trials[0])):
                for pick, means, stds in (
                    (0, stats.mean_errors, stats.std_errors),
                    (1, stats.mean_warnings, stats.std_warnings),
                ):
                    mean, std = naive([t[i][pick] for t in trials])
                    assert math.isclose(means[i], mean, rel_tol=1e-12, abs_tol=1e-12)
                    assert math.isclose(stds[i], std, rel_tol=1e-12, abs_tol=1e-12)
        _announce(6, "aggregate equals two-pass mean/std oracle to 1e-12 on 100 random trial sets")


class TestCriterion7DeterminismUnderParallelism:
    def test_byte_identical_results(self, tmp_path):
        cases_dir = tmp_path / "cases"
        cases_dir.mkdir()
        for i in range(4):
            (cases_dir / f"case{i}.txt").write_text(f"Create stack {i}")
        outputs, traces = {}, {}
        for parallelism in (1, 8):
            traces_dir = tmp_path / f"traces-p{parallelism}"
            cfg = BenchmarkConfig(
                cases_dir=str(cases_dir),
                generations_per_case=2,
                iterations=5,
                trials=3,
                master_seed=424242,
                parallelism=parallelism,
                traces_dir=str(traces_dir),
            )
            result = run_benchmark(cfg)
            stats = aggregate(result.trials)
            out = tmp_path / f"results-p{parallelism}.json"
            write_results(result, out, stats=stats,
                          plateau_index=detect_plateau(stats.mean_errors))
            outputs[parallelism] = out.read_bytes()
            traces[parallelism] = {path.name: path.read_bytes() for path in traces_dir.iterdir()}
        assert outputs[1] == outputs[8]
        assert len(traces[1]) == 3 * 4 * 2
        assert traces[1] == traces[8]
        _announce(7, "parallelism 1 and 8 produce byte-identical results.json and traces")


class TestCriterion8SpanSoundness:
    def test_random_documents(self):
        rng = random.Random(80808)
        decoder = json.JSONDecoder()
        for _ in range(100):
            text = random_document(rng)
            data = text.encode("utf-8")
            values = dict(iter_pointers(parse_located(text).value))
            spans = resolve_spans(text, values)
            assert None not in spans.values()
            for pointer, span in spans.items():
                offset = span.byte_offset
                rest = data[offset:].decode("utf-8")
                assert decoder.raw_decode(rest)[0] == values[pointer], (pointer, text)
                prefix = data[:offset]
                assert span.line == prefix.count(b"\n") + 1
                assert span.column == len(prefix[prefix.rfind(b"\n") + 1 :].decode("utf-8")) + 1
        _announce(8, "100 random documents: every pointer's byte offset begins its literal, "
                     "line/column agree with newline counting")


class TestCriterion9ExportRoundTrip:
    def test_csv_and_svg(self, tmp_path):
        rng = random.Random(90909)
        iterations = 11
        stats = AggregateStats(
            mean_errors=[rng.uniform(0, 1500) for _ in range(iterations)],
            std_errors=[rng.uniform(0, 60) for _ in range(iterations)],
            mean_warnings=[rng.uniform(0, 200) for _ in range(iterations)],
            std_warnings=[rng.uniform(0, 25) for _ in range(iterations)],
        )
        csv_path = tmp_path / "stats.csv"
        export_csv(stats, csv_path)
        header, *rows = [line.split(",") for line in csv_path.read_text().splitlines()]
        assert header == ["iteration", *vars(stats)]
        columns = list(zip(*rows))
        assert [int(i) for i in columns[0]] == list(range(iterations))
        for series, back in zip(vars(stats).values(), columns[1:], strict=True):
            assert all(abs(a - float(b)) <= 1e-6 for a, b in zip(series, back, strict=True))

        svg_path = tmp_path / "chart.svg"
        export_svg(stats, svg_path)
        root = ET.fromstring(svg_path.read_text())  # well-formed XML or raises
        bars = [e for e in root.iter() if e.get("class") == "bar"]
        assert len(bars) == iterations
        _announce(9, "CSV round-trips within 1e-6; SVG well-formed with one bar per iteration")
