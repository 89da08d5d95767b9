import dataclasses
import json
import math

import pytest

import iacloop.loop
from iacloop.gateway import (
    NoTemplateFound,
    ScriptedBackend,
    SyntheticBackend,
    SyntheticParams,
    extract_template,
)
from iacloop.linter import lint_template
from iacloop.located_json import parse_located
from iacloop.loop import (
    FEEDBACK_HEADER,
    FILE_ALIAS,
    SYSTEM_PROMPT,
    BackendFailure,
    BenchmarkCase,
    IterationRecord,
    LoopTrace,
    build_feedback_messages,
    build_initial_messages,
    render_diagnostics,
    run_loop,
)
from iacloop.schema_store import builtin_core_schemas

VPC_PROMPT = (
    "Create a AWS CloudFormation template that deploys a VPC with a pair of "
    "private subnets spread across two Availabilty Zones. It deploys a VPC "
    "Endpoint for CloudFormation so an instance in the private subnet can use "
    "cfn-signal for its CreationPolicy."
)

THREE_ERRORS = json.dumps(
    {
        "Resources": {
            "I": {
                "Type": "AWS::EC2::Instance",
                "Properties": {"InstanceType": 5, "Monitoring": "x"},
            }
        }
    }
)
ONE_ERROR = json.dumps(
    {"Resources": {"I": {"Type": "AWS::EC2::Instance", "Properties": {"InstanceType": "t2.micro"}}}}
)
CLEAN = json.dumps(
    {
        "AWSTemplateFormatVersion": "2010-09-09",
        "Resources": {
            "MyEC2Instance": {
                "Type": "AWS::EC2::Instance",
                "Properties": {"InstanceType": "t2.micro", "ImageId": "ami-0abcdef1234567890"},
            }
        },
    }
)

STORE = builtin_core_schemas()


class RecordingBackend:
    """Wraps another backend and keeps every conversation it was sent."""

    def __init__(self, inner):
        self.inner = inner
        self.conversations = []

    def complete(self, conversation):
        self.conversations.append(list(conversation))
        return self.inner.complete(conversation)


class TestBuildInitialMessages:
    def test_prompt_passed_verbatim(self):
        case = BenchmarkCase(id="vpc", prompt=VPC_PROMPT)
        messages = build_initial_messages(case)
        assert messages[1].content == VPC_PROMPT

    def test_two_messages_system_then_user(self):
        messages = build_initial_messages(BenchmarkCase(id="x", prompt="anything"))
        assert [m.role for m in messages] == ["system", "user"]
        assert messages[0].content == SYSTEM_PROMPT

    def test_empty_prompt_rejected_upstream(self):
        with pytest.raises(ValueError):
            BenchmarkCase(id="x", prompt="")


class TestBuildFeedbackMessages:
    def _rendered(self, text):
        return render_diagnostics(lint_template(parse_located(text), STORE))

    def test_contains_formatted_diagnostics_verbatim(self):
        text = json.dumps(
            {
                "Resources": {
                    "I": {
                        "Type": "AWS::EC2::Instance",
                        "Properties": {"ImageId": "a", "AvailabilityZone": {"Fn::GetAZs": ""}},
                    }
                }
            }
        )
        report = lint_template(parse_located(text), STORE)
        messages = build_feedback_messages(text, render_diagnostics(report))
        diag = report.diagnostics[0]
        assert FILE_ALIAS == "template.json"
        expected = (
            "E1015 {'Fn::GetAZs': ''} is not of type 'string'\n"
            f"Error location - template.json:{diag.span.line}:{diag.span.column}"
        )
        assert expected in messages[1].content

    def test_three_diagnostics_render_three_blocks(self):
        rendered = self._rendered(THREE_ERRORS)
        messages = build_feedback_messages(THREE_ERRORS, rendered)
        body = messages[1].content
        block = body.split("Running cfn-lint produced:\n", 1)[1]
        block = block.split("\nModify the template", 1)[0]
        assert block == rendered
        entries = block.split("\n\n")
        assert len(entries) == 3
        assert all(len(e.split("\n")) == 2 for e in entries)

    def test_empty_rendering_yields_clean_instruction(self):
        assert self._rendered(CLEAN) == ""
        messages = build_feedback_messages(CLEAN, "")
        assert [m.role for m in messages] == ["system", "user"]
        assert messages[1].content == (
            FEEDBACK_HEADER
            + CLEAN
            + "\nRunning cfn-lint produced no problems. "
            "Respond with the same JSON template unchanged."
        )

    def test_message_shape_and_statelessness(self):
        messages = build_feedback_messages(ONE_ERROR, self._rendered(ONE_ERROR))
        assert [m.role for m in messages] == ["system", "user"]
        assert messages[0].content == SYSTEM_PROMPT
        assert messages[1].content.startswith(FEEDBACK_HEADER)

    def test_warnings_always_fed_back(self):
        text = json.dumps(
            {
                "Parameters": {"Ghost": {"Type": "String"}},
                "Resources": {"I": {"Type": "AWS::EC2::Instance", "Properties": {}}},
            }
        )
        report = lint_template(parse_located(text), STORE)
        assert (report.error_count, report.warning_count) == (1, 1)
        content = build_feedback_messages(text, render_diagnostics(report))[1].content
        assert "W2001" in content
        assert "E3003" in content
        warning_only = json.dumps(
            {
                "Parameters": {"Ghost": {"Type": "String"}},
                "Resources": {"B": {"Type": "AWS::S3::Bucket"}},
            }
        )
        content = build_feedback_messages(warning_only, self._rendered(warning_only))[1].content
        assert "W2001 Parameter 'Ghost' is never used" in content
        assert content.endswith("Respond with only the corrected JSON template.")


class TestRunLoop:
    def test_early_stop_trace(self):
        backend = ScriptedBackend([THREE_ERRORS, ONE_ERROR, CLEAN])
        case = BenchmarkCase(id="c", prompt="p")
        trace = run_loop(case, backend, STORE, max_iterations=10, early_stop=True)
        assert len(trace.records) == 3
        assert trace.counts() == [(3, 0), (1, 0), (0, 0)]
        assert [r["index"] for r in trace.to_dict()["records"]] == [0, 1, 2]

    def test_unconditional_rounds_padded_clean(self):
        script = [THREE_ERRORS, ONE_ERROR, CLEAN] + [CLEAN] * 8
        backend = ScriptedBackend(script)
        case = BenchmarkCase(id="c", prompt="p")
        trace = run_loop(case, backend, STORE, max_iterations=10)
        assert len(trace.records) == 11
        assert trace.counts() == [(3, 0), (1, 0)] + [(0, 0)] * 9

    def test_clean_turns_still_query_backend(self):
        backend = RecordingBackend(ScriptedBackend([CLEAN, CLEAN, CLEAN]))
        case = BenchmarkCase(id="c", prompt="p")
        trace = run_loop(case, backend, STORE, max_iterations=2)
        assert len(trace.records) == 3
        assert len(backend.conversations) == 3
        # follow-up turns refeed the template even though the report is clean
        assert backend.conversations[1][1].content.startswith(FEEDBACK_HEADER)

    def test_extraction_failure_carries_counts_forward(self):
        backend = ScriptedBackend([THREE_ERRORS, "I cannot help with that.", ONE_ERROR])
        case = BenchmarkCase(id="c", prompt="p")
        trace = run_loop(case, backend, STORE, max_iterations=2)
        assert [r.extraction_failed for r in trace.records] == [False, True, False]
        assert trace.counts() == [(3, 0), (3, 0), (1, 0)]
        assert trace.records[1].template_text == "I cannot help with that."
        assert trace.records[1].diagnostics_rendered == trace.records[0].diagnostics_rendered

    def test_failed_extraction_refeeds_last_good_template(self):
        backend = RecordingBackend(
            ScriptedBackend([THREE_ERRORS, "nope", ONE_ERROR])
        )
        case = BenchmarkCase(id="c", prompt="p")
        run_loop(case, backend, STORE, max_iterations=2)
        # turn after the failed extraction still refeeds the three-error template
        assert THREE_ERRORS in backend.conversations[2][1].content

    def test_initial_extraction_failure_restarts_prompt(self):
        backend = RecordingBackend(ScriptedBackend(["no template here", ONE_ERROR]))
        case = BenchmarkCase(id="c", prompt="the prompt")
        trace = run_loop(case, backend, STORE, max_iterations=1)
        assert trace.counts() == [(0, 0), (1, 0)]
        assert trace.records[0].extraction_failed
        assert backend.conversations[1][1].content == "the prompt"

    def test_backend_failure_preserves_partial_trace(self):
        backend = ScriptedBackend([THREE_ERRORS, ONE_ERROR])
        case = BenchmarkCase(id="c", prompt="p")
        with pytest.raises(BackendFailure) as exc_info:
            run_loop(case, backend, STORE, max_iterations=5)
        assert exc_info.value.trace.counts() == [(3, 0), (1, 0)]

    def test_counts_match_independent_relint(self):
        params = SyntheticParams(p_fix=0.5, p_spawn=0.3, stubborn_fraction=0.25, seed=77)
        backend = SyntheticBackend(params, initial_defects=10)
        case = BenchmarkCase(id="c", prompt="p")
        trace = run_loop(case, backend, STORE, max_iterations=6)
        for record in trace.records:
            if record.extraction_failed:
                continue
            report = lint_template(parse_located(record.template_text), STORE)
            assert (record.error_count, record.warning_count) == (
                report.error_count,
                report.warning_count,
            )

    def test_trace_roundtrips_through_json(self):
        backend = ScriptedBackend([THREE_ERRORS, "no template", ONE_ERROR, ONE_ERROR, CLEAN])
        case = BenchmarkCase(id="c", prompt="p")
        trace = run_loop(case, backend, STORE, max_iterations=4)
        restored = LoopTrace.from_dict(json.loads(json.dumps(trace.to_dict())))
        assert restored == trace

    @pytest.mark.parametrize("indexes", [[1, 0], [0, 2]])
    def test_from_dict_rejects_indexes_not_counting_from_zero(self, indexes):
        backend = ScriptedBackend([THREE_ERRORS, ONE_ERROR, CLEAN])
        data = run_loop(BenchmarkCase(id="c", prompt="p"), backend, STORE, max_iterations=2).to_dict()
        data["records"] = [{**record, "index": index} for record, index in zip(data["records"], indexes)]
        with pytest.raises(ValueError, match="record indexes must count from 0"):
            LoopTrace.from_dict(data)

    def test_records_are_frozen(self):
        trace = run_loop(BenchmarkCase(id="c", prompt="p"), ScriptedBackend([THREE_ERRORS, THREE_ERRORS]),
                         STORE, max_iterations=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.records[1].error_count = 0
        assert trace.counts() == [(3, 0), (3, 0)]

    def test_trace_text_is_indented_json(self, tmp_path):
        # Scripted replies with a failed extraction and repeats, synthetic
        # cells, odd strings and no records: text() gives json.dumps's bytes.
        scripted = run_loop(BenchmarkCase(id="c", prompt="p"),
                            ScriptedBackend([THREE_ERRORS, "no template", ONE_ERROR, CLEAN, CLEAN]),
                            STORE, max_iterations=4)
        traces = [scripted, LoopTrace(case_id='odd "id"\t\u00e9\U0001f40d', generation_index=12), LoopTrace(
            case_id="x", generation_index=0,
            records=[IterationRecord(error_count=0, warning_count=3, extraction_failed=True,
                                     template_text="caf\u00e9 \x00\x1f </script> \\ \u2028 \U0001f40d",
                                     diagnostics_rendered="E1\nW2\r\n")],
        )]
        for seed in range(4):
            backend = SyntheticBackend(SyntheticParams(p_fix=0.5, p_spawn=0.3, stubborn_fraction=0.25, seed=seed),
                                       initial_defects=8)
            traces.append(run_loop(BenchmarkCase(id=f"s{seed}", prompt="p"), backend, STORE,
                                   max_iterations=10, generation_index=seed))
        for trace in traces:
            assert trace.text() == json.dumps(trace.to_dict(), indent=2) + "\n"
        scripted.write(tmp_path / "trace.json")
        assert (tmp_path / "trace.json").read_bytes() == scripted.text().encode()

    def test_recorded_rendering_is_what_the_next_turn_feeds(self):
        replies = [THREE_ERRORS, "no template", ONE_ERROR, CLEAN, CLEAN]
        backend = RecordingBackend(ScriptedBackend(replies))
        case = BenchmarkCase(id="c", prompt="p")
        trace = run_loop(case, backend, STORE, max_iterations=4)
        for record, sent in zip(trace.records, backend.conversations[1:]):
            template = THREE_ERRORS if record.extraction_failed else record.template_text
            assert sent == build_feedback_messages(template, record.diagnostics_rendered)
        assert trace.records[2].diagnostics_rendered in backend.conversations[3][1].content
        assert trace.records[3].diagnostics_rendered == ""

    def test_repeated_reply_repeats_its_record(self, monkeypatch):
        replies = [
            "Sorry, I cannot do that.",
            "Sorry, I cannot do that.",
            "```json\n" + THREE_ERRORS + "\n```",
            "```json\n" + THREE_ERRORS + "\n```",
            "Let me think about it.",
            "Let me think about it.",
            CLEAN,
            CLEAN,
        ]
        # Each record built directly from its own reply; a failed extraction
        # carries forward the counts and rendering of the record before it.
        expected = []
        for raw in replies:
            try:
                document = extract_template(raw)
            except NoTemplateFound:
                prev = expected[-1] if expected else None
                expected.append(IterationRecord(
                    template_text=raw,
                    error_count=prev.error_count if prev else 0,
                    warning_count=prev.warning_count if prev else 0,
                    diagnostics_rendered=prev.diagnostics_rendered if prev else "",
                    extraction_failed=True,
                ))
                continue
            report = lint_template(document, STORE)
            expected.append(IterationRecord(
                template_text=document.text,
                error_count=report.error_count,
                warning_count=report.warning_count,
                diagnostics_rendered=render_diagnostics(report),
            ))

        calls = {"extract": 0, "lint": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(iacloop.loop, "extract_template", counting("extract", extract_template))
        monkeypatch.setattr(iacloop.loop, "lint_template", counting("lint", lint_template))
        backend = RecordingBackend(ScriptedBackend(replies))
        case = BenchmarkCase(id="c", prompt="p")
        trace = run_loop(case, backend, STORE, max_iterations=len(replies) - 1)
        assert trace.records == expected
        # A repeated reply's turn holds the very record of the turn before.
        assert [trace.records[i] is trace.records[i - 1] for i in range(1, len(replies))] == [
            replies[i] == replies[i - 1] for i in range(1, len(replies))]
        assert trace.counts() == [(0, 0), (0, 0)] + [(3, 0)] * 4 + [(0, 0)] * 2
        # One extraction per run of equal replies, one lint per extracted run.
        assert calls == {"extract": 4, "lint": 2}
        # No template yet: turns 1 and 2 both re-prompt from scratch.
        assert backend.conversations[1] == backend.conversations[2] == build_initial_messages(case)
        # The mid-cell non-answers still refeed the last extracted template.
        assert backend.conversations[5] == build_feedback_messages(
            expected[3].template_text, expected[3].diagnostics_rendered)

    def test_records_capped_by_max_iterations(self):
        backend = ScriptedBackend([THREE_ERRORS] * 4)
        case = BenchmarkCase(id="c", prompt="p")
        trace = run_loop(case, backend, STORE, max_iterations=3)
        assert len(trace.records) == 4

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_fewer_than_one_iteration_is_rejected_before_any_call(self, iterations):
        backend = RecordingBackend(ScriptedBackend([CLEAN]))
        with pytest.raises(ValueError, match="max_iterations must be >= 1"):
            run_loop(BenchmarkCase(id="c", prompt="p"), backend, STORE, max_iterations=iterations)
        assert backend.conversations == []


class TestSyntheticDecayThroughLoop:
    def test_mean_errors_follow_halving_curve(self):
        seeds, n0, iterations = 200, 16, 4
        case = BenchmarkCase(id="d", prompt="p")
        sums = [0.0] * (iterations + 1)
        squares = [0.0] * (iterations + 1)
        for seed in range(seeds):
            params = SyntheticParams(p_fix=0.5, p_spawn=0.0, stubborn_fraction=0.0, seed=seed)
            backend = SyntheticBackend(params, initial_defects=n0)
            trace = run_loop(case, backend, STORE, max_iterations=iterations)
            for index, record in enumerate(trace.records):
                sums[index] += record.error_count
                squares[index] += record.error_count**2
        for t in range(iterations + 1):
            mean = sums[t] / seeds
            variance = max(squares[t] / seeds - mean**2, 0.0)
            limit = 3 * math.sqrt(variance / seeds)
            expected = n0 * 0.5**t
            assert abs(mean - expected) <= max(limit, 1e-9), (t, mean, expected)
