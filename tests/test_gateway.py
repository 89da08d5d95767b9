import gc
import json
import random
import socket
import statistics
import sys
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from iacloop.gateway import (
    AuthError,
    ChatMessage,
    DefectSpec,
    DEFECT_KINDS,
    GenerationConfig,
    HttpBackend,
    MAX_RETRY_AFTER_SECONDS,
    MissingSetting,
    NoTemplateFound,
    ScriptedBackend,
    ScriptExhausted,
    SyntheticBackend,
    SyntheticParams,
    TransportError,
    _eligible_pairs,
    _largest_object,
    _site_count,
    _sized_base,
    extract_template,
    generate,
    make_backend,
    mix64,
    synthetic_base_template,
)
from iacloop import gateway
from iacloop.linter import lint_template
from iacloop.located_json import parse_located
from iacloop.schema_store import PropertySpec, ResourceSchema, SchemaStore, builtin_core_schemas

from helpers import random_reply, reference_largest_object, render

CFG = GenerationConfig(max_retries=3, timeout_seconds=5.0)
TWO_RETRIES = GenerationConfig(max_retries=2, timeout_seconds=5)
CONVERSATION = [ChatMessage("system", "be terse"), ChatMessage("user", "make a template")]


class TestGenerate:
    def test_scripted_replay_order(self):
        backend = ScriptedBackend(["s1", "s2"])
        assert generate(CONVERSATION, backend) == "s1"
        assert generate(CONVERSATION, backend) == "s2"

    def test_script_exhausted(self):
        backend = ScriptedBackend(["s1", "s2"])
        generate(CONVERSATION, backend)
        generate(CONVERSATION, backend)
        with pytest.raises(ScriptExhausted):
            generate(CONVERSATION, backend)

    def test_make_backend_rejects_unknown_kinds(self):
        # An unknown kind used to fall through to the http backend.
        settings = dict(p_fix=0.5, p_spawn=0.1, stubborn_fraction=0.0, initial_defects=4,
                        script_dir=None, api_base_url="http://x", generation=CFG)
        for kind in ("Synthetic", "synth", "HTTP", ""):
            for api_base_url in ("http://x", None):
                with pytest.raises(ValueError, match=repr(kind)) as caught:
                    make_backend(kind, builtin_core_schemas(), **dict(settings, api_base_url=api_base_url))
                assert not isinstance(caught.value, MissingSetting)
        with pytest.raises(MissingSetting):
            make_backend("http", builtin_core_schemas(), **dict(settings, api_base_url=None))
        new_backend = make_backend("http", builtin_core_schemas(), **settings)
        first, second = new_backend(1), new_backend(1)
        assert isinstance(first, HttpBackend) and isinstance(second, HttpBackend)
        assert first is not second
        assert first.base_url == second.base_url == "http://x"
        assert first.generation is second.generation is CFG

    def test_scripted_backends_of_one_constructor_replay_independently(self, tmp_path):
        (tmp_path / "000.txt").write_text("first")
        (tmp_path / "001.txt").write_text("second")
        new_backend = make_backend("scripted", builtin_core_schemas(), p_fix=0.5, p_spawn=0.1,
                                   stubborn_fraction=0.0, initial_defects=4, script_dir=str(tmp_path),
                                   api_base_url=None, generation=CFG)
        one, other = new_backend(1), new_backend(1)
        assert generate(CONVERSATION, one) == "first"
        assert generate(CONVERSATION, one) == "second"
        with pytest.raises(ScriptExhausted):
            generate(CONVERSATION, one)
        assert generate(CONVERSATION, other) == "first"
        assert generate(CONVERSATION, new_backend(2)) == "first"

    def test_synthetic_constructor_matches_a_direct_backend(self):
        from iacloop.loop import FEEDBACK_HEADER

        store = builtin_core_schemas()
        new_backend = make_backend("synthetic", store, p_fix=0.5, p_spawn=0.2, stubborn_fraction=0.25,
                                   initial_defects=(3, 12), script_dir=None, api_base_url=None,
                                   generation=CFG)
        feedback = CONVERSATION + [ChatMessage("assistant", "{}"), ChatMessage("user", FEEDBACK_HEADER + "\nE")]
        texts = set()
        for seed in (0, 1, 7, mix64(3, 1, 4, 1)):
            direct = SyntheticBackend(SyntheticParams(p_fix=0.5, p_spawn=0.2, stubborn_fraction=0.25, seed=seed),
                                      initial_defects=(3, 12), store=store)
            built = new_backend(seed)
            for conversation in (CONVERSATION, feedback, feedback):
                text = generate(conversation, built)
                assert text == generate(conversation, direct)
                texts.add(text)
        assert len(texts) > 4  # the seeds give different templates

    def test_synthetic_deterministic_for_seed(self):
        params = SyntheticParams(p_fix=0.5, p_spawn=0.2, stubborn_fraction=0.25, seed=42)
        first = generate(CONVERSATION, SyntheticBackend(params, initial_defects=8))
        second = generate(CONVERSATION, SyntheticBackend(params, initial_defects=8))
        assert first == second

    def test_conversation_validated(self):
        backend = ScriptedBackend(["x"])
        with pytest.raises(ValueError):
            generate([], backend)
        with pytest.raises(ValueError):
            generate([ChatMessage("user", "hi")], backend)

    def test_scripted_from_dir(self, tmp_path):
        (tmp_path / "000.txt").write_text("first")
        (tmp_path / "001.txt").write_text("second")
        backend = ScriptedBackend.from_dir(tmp_path)
        assert generate(CONVERSATION, backend) == "first"
        assert generate(CONVERSATION, backend) == "second"


class _StubHandler(BaseHTTPRequestHandler):
    script: list = []
    requests_seen: list = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).requests_seen.append(
            {"path": self.path, "body": body, "auth": self.headers.get("Authorization")}
        )
        status, payload, *headers = type(self).script.pop(0)
        data = json.dumps(payload).encode()
        self.send_response(status)
        for name, value in headers:
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    _StubHandler.script = []
    _StubHandler.requests_seen = []
    # A short poll lets shutdown() return within 10 ms, not the default 0.5 s.
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}", _StubHandler
    server.shutdown()
    server.server_close()
    thread.join()  # a later test that forks must find no other thread


def _completion(text):
    return {"choices": [{"message": {"role": "assistant", "content": text}}]}


class TestHttpBackend:
    def test_wire_format_and_parse(self, stub_server):
        base, handler = stub_server
        handler.script.append((200, _completion("X")))
        backend = HttpBackend(base, CFG, api_key="k-test")
        assert backend.complete(CONVERSATION) == "X"
        seen = handler.requests_seen[0]
        assert seen["path"] == "/v1/chat/completions"
        assert seen["auth"] == "Bearer k-test"
        assert seen["body"]["model"] == CFG.model
        assert seen["body"]["temperature"] == CFG.temperature
        assert seen["body"]["messages"] == [
            {"role": "system", "content": "be terse"},
            {"role": "user", "content": "make a template"},
        ]

    def test_calls_leave_no_unclosed_socket(self, stub_server):
        base, handler = stub_server
        handler.script += [(200, _completion("X"))] * 3
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            backend = HttpBackend(base, CFG, api_key="k")
            for _ in range(3):
                assert backend.complete(CONVERSATION) == "X"
            del backend
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_base_url_may_end_in_v1(self, stub_server, monkeypatch):
        # The OpenAI SDK, vLLM and Ollama document their base URLs with /v1.
        base, handler = stub_server
        monkeypatch.setenv("IACLOOP_API_KEY", "k")
        for spelling in (base + "/v1", base + "/v1/"):
            handler.script.append((200, _completion("X")))
            backend = make_backend("http", builtin_core_schemas(), p_fix=0.5, p_spawn=0.1, stubborn_fraction=0.0,
                                   initial_defects=4, script_dir=None, api_base_url=spelling, generation=CFG)(0)
            assert backend.complete(CONVERSATION) == "X"
        assert [seen["path"] for seen in handler.requests_seen] == ["/v1/chat/completions"] * 2

    def test_retries_5xx_with_backoff(self, stub_server):
        base, handler = stub_server
        handler.script += [(500, {"err": 1}), (500, {"err": 2}), (200, _completion("X"))]
        sleeps = []
        backend = HttpBackend(base, CFG, api_key="k", sleep=sleeps.append)
        assert backend.complete(CONVERSATION) == "X"
        assert backend.last_retry_count == 2
        assert sleeps == [1.0, 2.0]

    def test_retry_budget_exhausted(self, stub_server):
        base, handler = stub_server
        handler.script += [(503, {})] * 3
        backend = HttpBackend(base, TWO_RETRIES, api_key="k", sleep=lambda s: None)
        with pytest.raises(TransportError) as exc_info:
            backend.complete(CONVERSATION)
        assert exc_info.value.status == 503

    def test_rate_limit_honours_retry_after_seconds(self, stub_server):
        base, handler = stub_server
        handler.script += [
            (429, {}, ("Retry-After", "7")),
            (429, {}),
            (429, {}, ("Retry-After", "Wed, 21 Oct 2015 07:28:00 GMT")),
            (200, _completion("X")),
        ]
        sleeps = []
        backend = HttpBackend(base, CFG, api_key="k", sleep=sleeps.append)
        assert backend.complete(CONVERSATION) == "X"
        # Seconds are honoured; no header or an HTTP-date takes the backoff.
        assert sleeps == [7.0, 2.0, 4.0]
        assert backend.last_retry_count == 3

    def test_rate_limit_budget_exhausted(self, stub_server):
        base, handler = stub_server
        handler.script += [(429, {"error": "slow down"}, ("Retry-After", "0"))] * 3
        sleeps = []
        backend = HttpBackend(base, TWO_RETRIES, api_key="k", sleep=sleeps.append)
        with pytest.raises(TransportError) as exc_info:
            backend.complete(CONVERSATION)
        assert exc_info.value.status == 429
        assert "rate limited" in str(exc_info.value)
        assert sleeps == [0.0, 0.0]

    @pytest.mark.parametrize("value", ["121", "3600", "9" * 400])
    def test_rate_limit_refuses_a_long_retry_after(self, stub_server, value):
        base, handler = stub_server
        handler.script += [(429, {}, ("Retry-After", value)), (200, _completion("X"))]
        sleeps = []
        backend = HttpBackend(base, CFG, api_key="k", sleep=sleeps.append)
        with pytest.raises(TransportError) as exc_info:
            backend.complete(CONVERSATION)
        assert exc_info.value.status == 429
        assert "Retry-After exceeds 120 s" in str(exc_info.value)
        assert sleeps == []

    def test_rate_limit_waits_up_to_the_ceiling(self, stub_server):
        base, handler = stub_server
        handler.script += [(429, {}, ("Retry-After", "120")), (200, _completion("X"))]
        sleeps = []
        backend = HttpBackend(base, CFG, api_key="k", sleep=sleeps.append)
        assert backend.complete(CONVERSATION) == "X"
        assert sleeps == [MAX_RETRY_AFTER_SECONDS] == [120.0]

    def test_spent_budget_wins_over_a_long_retry_after(self, stub_server):
        # On the last attempt there is no wait to refuse: the budget is spent.
        base, handler = stub_server
        handler.script += [(503, {}), (503, {}), (429, {}, ("Retry-After", "3600"))]
        sleeps = []
        backend = HttpBackend(base, TWO_RETRIES, api_key="k", sleep=sleeps.append)
        with pytest.raises(TransportError, match="rate limited 429 after retries") as exc_info:
            backend.complete(CONVERSATION)
        assert exc_info.value.status == 429
        assert sleeps == [1.0, 2.0]

    def test_one_budget_covers_every_kind_of_failure(self, stub_server):
        base, handler = stub_server
        handler.script += [(503, {}), (429, {}, ("Retry-After", "5")), (200, _completion("X"))]
        sleeps = []
        backend = HttpBackend(base, TWO_RETRIES, api_key="k", sleep=sleeps.append)
        assert backend.complete(CONVERSATION) == "X"
        assert sleeps == [1.0, 5.0]
        assert backend.last_retry_count == 2

    def test_auth_error_on_401(self, stub_server):
        base, handler = stub_server
        handler.script.append((401, {"error": "bad key"}))
        backend = HttpBackend(base, CFG, api_key="nope")
        with pytest.raises(AuthError):
            backend.complete(CONVERSATION)

    def test_malformed_body_names_missing_field(self, stub_server):
        base, handler = stub_server
        handler.script.append((200, {"nothing": []}))
        backend = HttpBackend(base, CFG, api_key="k")
        with pytest.raises(TransportError) as exc_info:
            backend.complete(CONVERSATION)
        assert "choices" in str(exc_info.value)

    @pytest.mark.parametrize("body", ["not json", "[" * 100_000 + "]" * 100_000, '{"choices": [], "choices": []}'],
                             ids=["not_json", "deep", "duplicate_key"])
    def test_a_body_that_is_not_json_is_a_transport_error(self, body):
        with pytest.raises(TransportError, match="response body is not JSON"):
            HttpBackend._extract_content(body)

    def test_timeouts_retry_then_fail(self):
        # The listener's backlog completes each connection, but nothing ever
        # answers, so every attempt times out waiting for the response.
        with socket.create_server(("127.0.0.1", 0)) as silent:
            base = f"http://127.0.0.1:{silent.getsockname()[1]}"
            sleeps = []
            generation = GenerationConfig(max_retries=2, timeout_seconds=0.05)
            backend = HttpBackend(base, generation, api_key="k", sleep=sleeps.append)
            with pytest.raises(TransportError, match="transport failure after retries"):
                backend.complete(CONVERSATION)
        assert sleeps == [1.0, 2.0]
        assert backend.last_retry_count == 2

    def test_refused_connections_retry_then_fail(self):
        with socket.create_server(("127.0.0.1", 0)) as probe:
            port = probe.getsockname()[1]  # closed, so nothing listens there
        sleeps = []
        backend = HttpBackend(f"http://127.0.0.1:{port}", TWO_RETRIES, api_key="k", sleep=sleeps.append)
        with pytest.raises(TransportError, match="transport failure after retries") as exc_info:
            backend.complete(CONVERSATION)
        assert isinstance(exc_info.value.__cause__.reason, ConnectionRefusedError)
        assert exc_info.value.status is None
        assert sleeps == [1.0, 2.0]

    def test_key_from_environment(self, stub_server, monkeypatch):
        base, handler = stub_server
        handler.script.append((200, _completion("ok")))
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        monkeypatch.setenv("IACLOOP_API_KEY", "env-key")
        backend = HttpBackend(base, CFG)
        assert backend.complete(CONVERSATION) == "ok"
        assert handler.requests_seen[0]["auth"] == "Bearer env-key"

    def test_missing_key_is_auth_error(self, monkeypatch):
        monkeypatch.delenv("IACLOOP_API_KEY", raising=False)
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        backend = HttpBackend("http://unused", CFG)
        with pytest.raises(AuthError):
            backend.complete(CONVERSATION)

    def test_conversation_not_mutated(self, stub_server):
        base, handler = stub_server
        handler.script.append((200, _completion("X")))
        conversation = list(CONVERSATION)
        HttpBackend(base, CFG, api_key="k").complete(conversation)
        assert conversation == CONVERSATION


class TestHttpBench:
    def test_a_bench_leaves_no_unclosed_socket(self, stub_server, tmp_path, monkeypatch):
        # A 12-cell bench (3 cases x 2 generations x 2 trials, 2 turns a
        # cell) makes 23 requests and leaves no socket open, the failing
        # last cell's included.
        from iacloop.bench import BenchmarkConfig, run_benchmark

        base, handler = stub_server
        handler.script += [(200, _completion('{"Resources": {}}'))] * 22 + [(401, {"error": "revoked"})]
        monkeypatch.setenv("IACLOOP_API_KEY", "k")
        cases = tmp_path / "cases"
        cases.mkdir()
        for i in range(3):
            (cases / f"case{i}.txt").write_text(f"Create stack {i}")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            result = run_benchmark(BenchmarkConfig(cases_dir=str(cases), generations_per_case=2, iterations=1,
                                                   trials=2, backend="http", api_base_url=base))
            gc.collect()
        assert (result.completed, len(result.failures)) == (11, 1)
        assert "authentication rejected" in result.failures[0].error
        assert len(handler.requests_seen) == 23
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


    def test_an_error_status_records_the_body(self, stub_server, tmp_path, monkeypatch):
        # The endpoint's reason, not just its status, reaches the failure.
        from iacloop.bench import BenchmarkConfig, run_benchmark

        base, handler = stub_server
        error = {"error": {"message": "Unsupported value: 'temperature' does not support 0.0", "type": "invalid"}}
        handler.script.append((400, error))
        monkeypatch.setenv("IACLOOP_API_KEY", "k")
        cases = tmp_path / "cases"
        cases.mkdir()
        (cases / "case.txt").write_text("Create a stack")
        result = run_benchmark(BenchmarkConfig(cases_dir=str(cases), generations_per_case=1, iterations=1,
                                               trials=1, backend="http", api_base_url=base))
        assert (result.completed, len(result.failures)) == (0, 1)
        assert result.failures[0].error == (
            "backend failed at iteration 0: unexpected status 400: " + json.dumps(error)
        )

    @staticmethod
    def _bench(base, tmp_path, *extra):
        """Run a 2-cell http bench of 2 turns a cell through the command
        line; returns its exit code and results."""
        from iacloop.cli import dispatch

        cases = tmp_path / "cases"
        cases.mkdir()
        (cases / "case.txt").write_text("Create a stack")
        out = tmp_path / "results.json"
        code = dispatch(["bench", "--cases", str(cases), "--backend", "http", "--api-base", base, "--trials", "1",
                         "--generations", "2", "--iterations", "1", *extra, "--out", str(out)])
        return code, json.loads(out.read_text())

    def test_bench_model_reaches_every_request_and_the_results(self, stub_server, tmp_path, monkeypatch):
        base, handler = stub_server
        handler.script += [(200, _completion('{"Resources": {}}'))] * 4
        monkeypatch.setenv("IACLOOP_API_KEY", "k")
        code, results = self._bench(base, tmp_path, "--model", "m")
        assert code == 0
        assert [seen["body"]["model"] for seen in handler.requests_seen] == ["m"] * 4
        assert results["config"]["model"] == "m"

    def test_bench_without_a_model_records_the_generation_default(self, stub_server, tmp_path, monkeypatch):
        base, handler = stub_server
        handler.script += [(200, _completion('{"Resources": {}}'))] * 4
        monkeypatch.setenv("IACLOOP_API_KEY", "k")
        code, results = self._bench(base, tmp_path)
        assert code == 0
        assert [seen["body"]["model"] for seen in handler.requests_seen] == [GenerationConfig().model] * 4
        assert results["config"]["model"] == GenerationConfig().model

    def test_loop_model_and_temperature_reach_every_request(self, stub_server, tmp_path, monkeypatch):
        from iacloop.cli import dispatch

        base, handler = stub_server
        handler.script += [(200, _completion('{"Resources": {}}'))] * 2
        monkeypatch.setenv("IACLOOP_API_KEY", "k")
        prompt = tmp_path / "p.txt"
        prompt.write_text("Create a stack")
        code = dispatch(["loop", "--prompt-file", str(prompt), "--backend", "http", "--api-base", base, "--model", "m",
                         "--temperature", "0.5", "--iterations", "1", "--out", str(tmp_path / "t.json")])
        assert code == 0
        sent = [(seen["body"]["model"], seen["body"]["temperature"]) for seen in handler.requests_seen]
        assert sent == [("m", 0.5)] * 2

    def test_loop_rejects_an_infinite_temperature_before_any_request(self, stub_server, tmp_path, monkeypatch,
                                                                     capsys):
        # The request could not carry it: JSON has no infinity.
        from iacloop.cli import dispatch

        base, handler = stub_server
        handler.script.append((200, _completion('{"Resources": {}}')))
        monkeypatch.setenv("IACLOOP_API_KEY", "k")
        prompt = tmp_path / "p.txt"
        prompt.write_text("Create a stack")
        out = tmp_path / "t.json"
        code = dispatch(["loop", "--prompt-file", str(prompt), "--backend", "http", "--api-base", base,
                         "--temperature", "inf", "--out", str(out)])
        assert code == 3
        assert "runtime failure: temperature must be finite and >= 0, got inf" in capsys.readouterr().err
        assert handler.requests_seen == []
        assert not out.exists()


class TestGenerationConfig:
    @pytest.mark.parametrize("setting, value", [
        ("temperature", float("nan")),
        ("temperature", float("inf")),
        ("temperature", -1.0),
        ("timeout_seconds", float("nan")),
        ("timeout_seconds", float("inf")),
        ("timeout_seconds", 0.0),
        ("model", ""),
    ])
    def test_rejects_what_no_request_can_carry(self, setting, value):
        with pytest.raises(ValueError, match=setting):
            GenerationConfig(**{setting: value})


class TestExtractTemplate:
    def test_fenced_block(self):
        document = extract_template("Here you go:\n```json\n{}\n```")
        assert document.value == {}

    def test_plain_fence(self):
        document = extract_template("```\n{\"Resources\": {}}\n```")
        assert document.value == {"Resources": {}}

    def test_bare_json(self):
        document = extract_template('{"Resources": {}}')
        assert document.value == {"Resources": {}}

    def test_prose_rejected(self):
        with pytest.raises(NoTemplateFound):
            extract_template("I cannot help with that.")

    def test_braces_inside_prose(self):
        text = 'Sure! The template {"Resources": {"B": {"Type": "AWS::S3::Bucket"}}} should work.'
        document = extract_template(text)
        assert document.value["Resources"]["B"]["Type"] == "AWS::S3::Bucket"

    def test_first_parseable_fence_wins(self):
        text = "```\nnot json\n```\nthen\n```json\n{\"a\": 1}\n```"
        assert extract_template(text).value == {"a": 1}

    @pytest.mark.parametrize("reply", [
        "````json\n{\"a\": 1}\n````",
        "```json\r\n{\"a\": 1}\r\n```",
    ], ids=["four_backticks", "crlf"])
    def test_fence_variants(self, reply):
        assert extract_template(reply).value == {"a": 1}

    @pytest.mark.parametrize("unit", ["`", "```a", "{", '{"', "["])
    def test_hostile_fence_replies_take_linear_time(self, unit):
        # An info string may not hold a backtick, so a fence opening is
        # rejected at the first backtick past it instead of backtracking
        # over every later backtick run (37 s for 240,000 backticks).
        reply = unit * (240_000 // len(unit))
        started = time.perf_counter()
        with pytest.raises(NoTemplateFound):
            extract_template(reply)
        assert time.perf_counter() - started < 0.5

    def test_roundtrip_of_serialized_template(self):
        template = synthetic_base_template(2)
        for dump in (json.dumps(template), json.dumps(template, indent=2)):
            assert extract_template(dump).value == template

    def test_an_object_after_prose_braces_wins(self):
        document = extract_template('Here is {the fixed template, as requested}: {"Resources": {}}')
        assert document.text == '{"Resources": {}}'

    def test_source_text_is_parsed_substring(self):
        text = "prefix {\"a\": 1} suffix"
        document = extract_template(text)
        assert document.text == '{"a": 1}'


class TestBraceScan:
    def test_matches_reference_on_noisy_replies(self):
        # These replies reach at most 7 failed decodes, so the budget never
        # cuts the search short and the reference, which has none, agrees.
        rng = random.Random(4242)
        picked = 0
        for _ in range(2500):
            reply = random_reply(rng)
            expected = reference_largest_object(reply)
            assert _largest_object(reply) == expected, repr(reply)
            picked += expected is not None
        assert picked > 2000

    def test_hostile_replies_take_linear_time(self):
        for reply, expected in (
            ("{" * 16384, None),
            ("x" * 1_000_000 + "{", None),
            ('{"a":' * 200_000 + "0" + "}" * 200_000, None),
            ('{"' * 300_000, None),
            ("{}" * 100_000, "{}"),
        ):
            started = time.perf_counter()
            try:
                text = extract_template(reply).text
            except NoTemplateFound:
                text = None
            assert time.perf_counter() - started < 0.5, reply[:20]
            assert text == expected, reply[:20]

    def test_a_short_object_beats_a_longer_span_of_prose_braces(self):
        # The prose span and the brace inside the object's string would win
        # a longest-balanced-braces rule; neither is an object.
        reply = "{ " + "x" * 16 + ' } {"a": "{"} ' + "y" * 30 + ' " }'
        assert extract_template(reply).text == '{"a": "{"}'
        assert reference_largest_object(reply) == '{"a": "{"}'

    def test_the_budget_allows_seven_failed_decodes(self):
        assert extract_template('{"a" 1} ' * 7 + '{"Resources": {}}').text == '{"Resources": {}}'
        with pytest.raises(NoTemplateFound):
            extract_template('{"a" 1} ' * 8 + '{"Resources": {}}')


class TestMix64:
    def test_deterministic(self):
        assert mix64(1, 2, 3) == mix64(1, 2, 3)

    def test_component_sensitivity(self):
        seen = {mix64(seed, t, c, g) for seed in (0, 1) for t in (0, 1) for c in (0, 1) for g in (0, 1)}
        assert len(seen) == 16

    def test_order_matters(self):
        assert mix64(1, 2) != mix64(2, 1)

    def test_64_bit_range(self):
        for value in (mix64(0), mix64(2**63, 5), mix64(-1, 7)):
            assert 0 <= value < 2**64


def _lint_text(text):
    return lint_template(parse_located(text), builtin_core_schemas())


def _vpc(name):
    return ("Resources", "Vpc", "Properties", name)


# The (code, pointer, message) each defect draws on the 2-block base, written
# out by hand: every kind, and wrong_type for each primitive the base holds.
_PINNED_KEYS = [
    ("unknown_top_key", ("Extras",), ("E1001", "/Extras", "Unknown top-level section 'Extras'")),
    ("unused_parameter", ("Parameters", "Stage"), ("W2001", "/Parameters/Stage", "Parameter 'Stage' is never used")),
    ("drop_required", _vpc("CidrBlock"),
     ("E3003", "/Resources/Vpc/Properties", "Required property 'CidrBlock' is missing")),
    ("wrong_type", _vpc("CidrBlock"),
     ("E3012", "/Resources/Vpc/Properties/CidrBlock", "12345 is not of type 'string'")),
    ("wrong_type", _vpc("EnableDnsSupport"),
     ("E3012", "/Resources/Vpc/Properties/EnableDnsSupport", "'yes' is not of type 'boolean'")),
    ("wrong_type", ("Resources", "Bucket1", "Properties", "Tags"),
     ("E3012", "/Resources/Bucket1/Properties/Tags", "'not-an-array' is not of type 'array'")),
    ("bad_intrinsic_getazs", _vpc("CidrBlock"),
     ("E1015", "/Resources/Vpc/Properties/CidrBlock", "{'Fn::GetAZs': ''} is not of type 'string'")),
    ("bad_enum", _vpc("InstanceTenancy"),
     ("E3030", "/Resources/Vpc/Properties/InstanceTenancy",
      "'__invalid_enum__' is not one of ['default', 'dedicated']")),
    ("bad_enum", ("Resources", "Bucket0", "Properties", "AccessControl"),
     ("E3030", "/Resources/Bucket0/Properties/AccessControl",
      "'__invalid_enum__' is not one of ['Private', 'PublicRead', 'PublicReadWrite', 'AuthenticatedRead']")),
]

# The same on a base whose logical ids are renamed to "<id>/a~1b~": "/" escapes
# to "~1", "~" to "~0", and a literal "~1" to "~01", not back to "/".
_ESCAPED_KEYS = [
    ("drop_required", ("Resources", "Subnet0/a~1b~", "Properties", "VpcId"),
     ("E3003", "/Resources/Subnet0~1a~01b~0/Properties", "Required property 'VpcId' is missing")),
    ("wrong_type", ("Resources", "Instance0/a~1b~", "Properties", "Monitoring"),
     ("E3012", "/Resources/Instance0~1a~01b~0/Properties/Monitoring", "'yes' is not of type 'boolean'")),
    ("bad_intrinsic_getazs", ("Resources", "Bucket0/a~1b~", "Properties", "BucketName"),
     ("E1015", "/Resources/Bucket0~1a~01b~0/Properties/BucketName", "{'Fn::GetAZs': ''} is not of type 'string'")),
    ("bad_enum", ("Resources", "Instance0/a~1b~", "Properties", "Tenancy"),
     ("E3030", "/Resources/Instance0~1a~01b~0/Properties/Tenancy",
      "'__invalid_enum__' is not one of ['default', 'dedicated', 'host']")),
]


def _pinned_backend(base, store=None):
    backend = SyntheticBackend(SyntheticParams(p_fix=1, p_spawn=0, seed=1), initial_defects=1, store=store)
    backend.base = base
    backend.pairs = _eligible_pairs(base, backend.store)
    return backend



def _clear_text_caches():
    for cache in (gateway._block_text, gateway._property_text, gateway._member_text):
        cache.cache_clear()


class TestSyntheticBackend:
    def test_base_template_is_clean(self):
        for blocks in (1, 3, 8):
            report = _lint_text(json.dumps(synthetic_base_template(blocks)))
            assert len(report.diagnostics) == 0

    def test_initial_generation_has_requested_error_count(self):
        for count in (1, 5, 16):
            backend = SyntheticBackend(
                SyntheticParams(p_fix=0.5, p_spawn=0, seed=3), initial_defects=count
            )
            report = _lint_text(backend.initial_generation())
            assert report.error_count == count
            assert report.warning_count == 0

    def test_count_is_the_range_of_one_count(self):
        # An int n and the range (n, n) draw nothing for the count, so they
        # give the same texts; a wider range draws the count per generation.
        params = SyntheticParams(p_fix=0.55, p_spawn=0.15, stubborn_fraction=0.25, seed=7)
        texts = []
        for count in (8, (8, 8)):
            backend = SyntheticBackend(params, initial_defects=count)
            texts.append([backend.initial_generation()] + [backend.synthetic_step() for _ in range(4)])
        assert texts[0] == texts[1]
        drawn = []
        for seed in range(8):
            backend = SyntheticBackend(SyntheticParams(p_fix=0.5, p_spawn=0, seed=seed), initial_defects=(6, 10))
            backend.initial_generation()
            assert len(backend.live) == random.Random(seed).randint(6, 10)
            drawn.append(len(backend.live))
        assert len(set(drawn)) > 1

    def test_all_repaired_lints_clean(self):
        backend = SyntheticBackend(
            SyntheticParams(p_fix=1.0, p_spawn=0.0, stubborn_fraction=0.0, seed=5),
            initial_defects=3,
        )
        backend.initial_generation()
        report = _lint_text(backend.text)
        text = backend.synthetic_step(report)
        assert _lint_text(text).diagnostics == ()

    def test_p_fix_zero_is_identity(self, monkeypatch):
        backend = SyntheticBackend(
            SyntheticParams(p_fix=0.0, p_spawn=1.0, seed=5), initial_defects=4
        )
        before = backend.initial_generation()
        report = _lint_text(before)
        serialized = []
        monkeypatch.setattr(SyntheticBackend, "_serialize", lambda self: serialized.append(self))
        # Nothing repaired means nothing spawned: the step reuses its text.
        assert backend.synthetic_step(report) is before  # encodes only to ask the linter for keys
        dumps = []
        monkeypatch.setattr(json, "dumps", lambda *args, **kwargs: dumps.append(args))
        assert backend.synthetic_step() is before
        assert (serialized, dumps) == ([], [])

    def test_step_before_initial_generation(self):
        backend = SyntheticBackend(SyntheticParams(p_fix=1.0, p_spawn=1.0, seed=5))
        assert backend.synthetic_step() == "{}"

    def test_inject_repair_identity_per_kind(self):
        for kind in DEFECT_KINDS:
            backend = SyntheticBackend(SyntheticParams(p_fix=1, p_spawn=0, seed=1), initial_defects=1)
            backend.base = synthetic_base_template(2)
            backend.pairs = _eligible_pairs(backend.base, backend.store)
            original = json.dumps(backend.base, indent=2)
            pairs = [p for p in backend._free_pairs() if p[0] == kind]
            assert pairs, kind
            defect = backend._inject(*pairs[0])
            assert json.dumps(render(backend), indent=2) != original
            # Rendering shares untouched blocks but never writes into the base.
            assert json.dumps(backend.base, indent=2) == original
            backend.live.remove(defect)
            assert json.dumps(render(backend), indent=2) == original

    def test_each_defect_yields_exactly_one_diagnostic(self):
        backend = _pinned_backend(synthetic_base_template(2))
        for kind, site, key in _PINNED_KEYS:
            assert (kind, site) in backend.pairs, (kind, site)
            defect = backend._inject(kind, site)
            (code, message, _, pointer), = _lint_text(json.dumps(render(backend))).diagnostics
            assert (code, pointer, message) == key == backend.diagnostic_key(defect)
            backend.live.remove(defect)
        assert {kind for kind, _, _ in _PINNED_KEYS} == set(DEFECT_KINDS)

    def test_diagnostic_key_escapes_site_tokens(self):
        # Logical ids holding "/" and "~": each kind's defect at every site
        # of such a base draws exactly one diagnostic, its key, and the
        # pinned sites draw the pinned keys.
        base = synthetic_base_template(1)
        renamed = {lid: f"{lid}/a~1b~" for lid in base["Resources"]}
        resources = {renamed[lid]: entry for lid, entry in base["Resources"].items()}
        resources[renamed["Subnet0"]]["Properties"]["VpcId"] = {"Ref": renamed["Vpc"]}
        backend = _pinned_backend({**base, "Resources": resources})
        assert _lint_text(json.dumps(render(backend))).diagnostics == ()
        for kind in DEFECT_KINDS:
            pairs = [p for p in backend.pairs if p[0] == kind]
            assert pairs, kind
            for pair in pairs:
                defect = backend._inject(*pair)
                (code, message, _, pointer), = _lint_text(json.dumps(render(backend))).diagnostics
                assert (code, pointer, message) == backend.diagnostic_key(defect), pair
                if pair[1][0] == "Resources":
                    assert "~1a~01b~0/Properties" in pointer, pointer
                backend.live.remove(defect)
        for kind, site, key in _ESCAPED_KEYS:
            assert (kind, site) in backend.pairs, (kind, site)
            assert backend.diagnostic_key(DefectSpec(kind, site)) == key

    @pytest.mark.parametrize("kind, site, key", [
        ("unknown_top_key", ("Ex\ttra",), ("E1001", "/Ex\ttra", "Unknown top-level section 'Ex\\ttra'")),
        ("unused_parameter", ("Parameters", "P\nQ"), ("W2001", "/Parameters/P\nQ", "Parameter 'P\\nQ' is never used")),
    ], ids=["unknown_top_key", "unused_parameter"])
    def test_diagnostic_key_escapes_control_characters(self, kind, site, key):
        # A name that holds a control character draws the escaped message
        # the linter reports, so the defect counts as flagged; the pointer
        # keeps the raw character.
        backend = _pinned_backend(synthetic_base_template(1))
        defect = backend._inject(kind, site)
        (code, message, _, pointer), = _lint_text(json.dumps(render(backend))).diagnostics
        assert (code, pointer, message) == key == backend.diagnostic_key(defect)

    def test_diagnostic_key_ignores_what_the_base_draws(self):
        # Under this store the base misses a required VPC property, so it
        # draws an E3003 of its own at the pointer a dropped CidrBlock draws
        # one; each defect's key is still its own diagnostic.
        builtin = builtin_core_schemas()
        vpc = builtin.lookup("AWS::EC2::VPC")
        properties = {**vpc.properties, "Ipv4NetmaskLength": PropertySpec("Ipv4NetmaskLength", "integer", required=True)}
        store = SchemaStore({**builtin.schemas, vpc.type_name: ResourceSchema(vpc.type_name, properties)})
        backend = _pinned_backend(synthetic_base_template(2), store)
        base_key = ("E3003", "/Resources/Vpc/Properties", "Required property 'Ipv4NetmaskLength' is missing")
        assert gateway._keys(lint_template(parse_located(json.dumps(backend.base)), store)) == {base_key}
        for kind, site, key in _PINNED_KEYS:
            defect = backend._inject(kind, site)
            drawn = gateway._keys(lint_template(parse_located(json.dumps(render(backend))), store))
            assert drawn == {base_key, key} and backend.diagnostic_key(defect) == key, (kind, site)
            backend.live.remove(defect)

    def test_full_repair_restores_the_base_bytes(self):
        # Two dropped properties of one resource used to come back in another
        # key order when repaired by stored index (e.g. seed 34's Subnet0).
        store = builtin_core_schemas()
        for seed in range(3000):
            backend = SyntheticBackend(
                SyntheticParams(p_fix=1.0, p_spawn=0.0, seed=seed), initial_defects=(6, 10), store=store
            )
            backend.initial_generation()
            blocks = (len(backend.base["Resources"]) - 1) // 3  # the Vpc, then three per block
            assert backend.synthetic_step() == json.dumps(synthetic_base_template(blocks), indent=2), seed

    def test_stubborn_fraction_never_fixed(self):
        backend = SyntheticBackend(
            SyntheticParams(p_fix=1.0, p_spawn=0.0, stubborn_fraction=0.25, seed=9),
            initial_defects=16,
        )
        backend.initial_generation()
        for _ in range(5):
            report = _lint_text(backend.text)
            text = backend.synthetic_step(report)
        assert _lint_text(text).error_count == 4

    def test_spawned_defects_add_fresh_sites(self):
        backend = SyntheticBackend(
            SyntheticParams(p_fix=1.0, p_spawn=1.0, stubborn_fraction=0.0, seed=11),
            initial_defects=6,
        )
        backend.initial_generation()
        report = _lint_text(backend.text)
        text = backend.synthetic_step(report)
        after = _lint_text(text)
        # every repair spawned exactly one defect (some may be warnings)
        assert after.error_count + after.warning_count == 6
        assert len(backend.live) == 6

    def test_one_step_binomial_mean(self):
        # Monte Carlo oracle: expected survivors of one step are binomial.
        remaining = []
        for seed in range(1000):
            backend = SyntheticBackend(
                SyntheticParams(p_fix=0.5, p_spawn=0.0, stubborn_fraction=0.0, seed=seed),
                initial_defects=100,
            )
            backend.initial_generation()
            # Stepping from the ledger equals stepping on the lint report
            # (TestSyntheticLedger); the output's lint stays the oracle.
            text = backend.synthetic_step()
            remaining.append(_lint_text(text).error_count)
        mean = statistics.mean(remaining)
        assert 45.0 <= mean <= 55.0

    def test_decay_with_stubborn_floor_matches_closed_form(self):
        # E_t = E_0 * (f + (1 - f) * (1 - p_fix)^t) within 3 standard errors.
        n0, p_fix, fraction, seeds, steps = 16, 0.5, 0.25, 300, 5
        counts = [[] for _ in range(steps + 1)]
        for seed in range(seeds):
            backend = SyntheticBackend(
                SyntheticParams(p_fix=p_fix, p_spawn=0.0, stubborn_fraction=fraction, seed=seed),
                initial_defects=n0,
            )
            text = backend.initial_generation()
            counts[0].append(_lint_text(text).error_count)
            for t in range(1, steps + 1):
                text = backend.synthetic_step()
                counts[t].append(_lint_text(text).error_count)
        for t in range(steps + 1):
            expected = n0 * (fraction + (1 - fraction) * (1 - p_fix) ** t)
            mean = statistics.mean(counts[t])
            spread = statistics.stdev(counts[t]) if len(set(counts[t])) > 1 else 0.0
            limit = 3 * spread / seeds**0.5
            assert abs(mean - expected) <= max(limit, 1e-9), (t, mean, expected)


class TestSyntheticLedger:
    @pytest.mark.parametrize("p_spawn", [0.15, 0.9])
    def test_lint_flags_exactly_the_live_defects(self, p_spawn):
        # The backend repairs from its ledger instead of linting its own
        # output; this is the invariant that makes that equivalent.
        store = builtin_core_schemas()
        for seed in range(45):
            backend = SyntheticBackend(
                SyntheticParams(p_fix=0.55, p_spawn=p_spawn, stubborn_fraction=0.25, seed=seed),
                initial_defects=(6, 10),
                store=store,
            )
            text = backend.initial_generation()
            for _ in range(11):
                report = lint_template(parse_located(text), store)
                keys = {(d.code, d.pointer, d.message) for d in report.diagnostics}
                for defect in backend.live:
                    assert backend.diagnostic_key(defect) in keys, (seed, defect)
                warnings = sum(1 for d in backend.live if d.kind == "unused_parameter")
                assert (report.error_count, report.warning_count) == (
                    len(backend.live) - warnings,
                    warnings,
                ), seed
                text = backend.synthetic_step()
                assert text == json.dumps(render(backend), indent=2), seed

    def test_spawn_candidates_equal_a_fresh_enumeration(self):
        # Spawns filter the base's pairs instead of enumerating the rendered
        # template; the two lists agree, order included, at every draw.
        store = builtin_core_schemas()
        draws = 0
        for seed in range(60):
            backend = SyntheticBackend(
                SyntheticParams(p_fix=0.55, p_spawn=0.9, stubborn_fraction=0.25, seed=seed),
                initial_defects=(6, 10),
                store=store,
            )
            inner = backend._free_pairs

            def checked():
                nonlocal draws
                draws += 1
                occupied = {d.site for d in backend.live}
                fresh = [p for p in _eligible_pairs(render(backend), store) if p[1] not in occupied]
                pairs = inner()
                assert pairs == fresh, seed
                return pairs

            backend._free_pairs = checked
            backend.initial_generation()
            for _ in range(10):
                backend.synthetic_step()
        assert draws > 1000

    @pytest.mark.parametrize("p_spawn", [0.15, 0.9])
    def test_block_serialization_equals_whole_dump(self, p_spawn):
        # Texts are joined from a process-wide cache of block and member
        # texts; each equals the whole-template dump, first on a cache
        # cleared for the seed, then again on the cache that run filled.
        store = builtin_core_schemas()
        for seed in range(45):
            params = SyntheticParams(p_fix=0.55, p_spawn=p_spawn, stubborn_fraction=0.25, seed=seed)
            _clear_text_caches()
            for cache in ("cold", "warm"):
                backend = SyntheticBackend(params, initial_defects=(6, 10), store=store)
                text = backend.initial_generation()
                for _ in range(11):
                    assert text == json.dumps(render(backend), indent=2), (seed, cache)
                    text = backend.synthetic_step()
                assert text == json.dumps(render(backend), indent=2), (seed, cache)
            assert gateway._block_text.cache_info().hits > 0

    def test_shared_cache_under_threads(self):
        # Eight threads fill and evict the process-wide caches at once (the
        # dense templates hold more blocks than a cache keeps); every text
        # still equals the whole-template dump.
        store = builtin_core_schemas()
        errors = []

        def work(worker: int) -> None:
            try:
                for seed in range(worker, 48, 8):
                    params = SyntheticParams(p_fix=0.55, p_spawn=0.5, stubborn_fraction=0.25, seed=seed)
                    backend = SyntheticBackend(params, initial_defects=(6, 80), store=store)
                    text = backend.initial_generation()
                    for _ in range(4):
                        assert text == json.dumps(render(backend), indent=2), seed
                        text = backend.synthetic_step()
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        _clear_text_caches()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert gateway._block_text.cache_info().currsize == gateway._block_text.cache_info().maxsize

    def test_cache_keys_hold_what_an_edit_depends_on(self):
        # In ``custom`` the bucket's BucketName is an integer, so a wrong_type
        # defect there writes "twelve" where the builtin store's writes 12345.
        # Backends of the two stores share the cache; a key that left out the
        # primitive would hand one store's block text to the other.
        builtin = builtin_core_schemas()
        bucket = builtin.lookup("AWS::S3::Bucket")
        properties = {**bucket.properties, "BucketName": PropertySpec("BucketName", "integer")}
        custom = SchemaStore({**builtin.schemas, bucket.type_name: ResourceSchema(bucket.type_name, properties)})
        _clear_text_caches()
        texts = []
        for store in (builtin, custom, builtin, custom):
            backend = SyntheticBackend(SyntheticParams(p_fix=1.0, p_spawn=0.0), initial_defects=0, store=store)
            backend.initial_generation()
            backend._inject("wrong_type", ("Resources", "Bucket0", "Properties", "BucketName"))
            texts.append(backend._serialize())
            assert texts[-1] == json.dumps(render(backend), indent=2)
        assert texts[0] == texts[2] != texts[1] == texts[3]
        assert '"BucketName": 12345' in texts[0] and '"BucketName": "twelve"' in texts[1]
        # The same, interleaved over seeded runs of both stores.
        for seed in range(30):
            params = SyntheticParams(p_fix=0.55, p_spawn=0.5, stubborn_fraction=0.25, seed=seed)
            backends = [SyntheticBackend(params, initial_defects=(6, 10), store=store) for store in (builtin, custom)]
            texts = [backend.initial_generation() for backend in backends]
            for _ in range(8):
                for backend, text in zip(backends, texts):
                    assert text == json.dumps(render(backend), indent=2), seed
                texts = [backend.synthetic_step() for backend in backends]

    def test_feedback_turn_matches_step_on_lint_report(self):
        from iacloop.loop import FEEDBACK_HEADER

        feedback = CONVERSATION + [ChatMessage("user", FEEDBACK_HEADER + "{}")]
        params = SyntheticParams(p_fix=0.55, p_spawn=0.9, stubborn_fraction=0.25, seed=21)
        via_complete = SyntheticBackend(params, initial_defects=10)
        via_report = SyntheticBackend(params, initial_defects=10)
        assert via_complete.complete(CONVERSATION) == via_report.initial_generation()
        for _ in range(10):
            expected = via_report.synthetic_step(_lint_text(via_report.text))
            assert via_complete.complete(feedback) == expected


class TestTemplateSizing:
    def test_one_block_sizing_enumerates_once(self, monkeypatch):
        # Sizing reuses the enumeration that injection needs: a count that
        # fits one block enumerates only the 1-block template (4 resources);
        # a larger one also enumerates the 0-block template, then its own.
        enumerated = []
        inner = gateway._eligible_pairs

        def counting(template, *args, **kwargs):
            enumerated.append(len(template["Resources"]))
            return inner(template, *args, **kwargs)

        monkeypatch.setattr(gateway, "_eligible_pairs", counting)
        store = builtin_core_schemas()
        for count in (0, 1, 8, 16, (6, 10), (17, 17), 40):
            enumerated.clear()
            backend = SyntheticBackend(SyntheticParams(p_fix=0.5, p_spawn=0.0), initial_defects=count, store=store)
            backend.initial_generation()
            assert enumerated == {(17, 17): [4, 1, 7], 40: [4, 1, 13]}.get(count, [4]), count

    def test_base_blocks_are_a_prefix_of_larger_bases(self):
        # A block is built from its logical id alone, so a block's text never
        # depends on how many blocks its template has.
        for n in range(65):
            small = list(synthetic_base_template(n)["Resources"].items())
            large = list(synthetic_base_template(n + 1)["Resources"].items())
            assert (large[: len(small)], len(large)) == (small, len(small) + 3), n

    def test_site_count_is_linear_in_blocks(self):
        store = builtin_core_schemas()
        assert [_site_count(b, store) for b in range(8)] == [9 + 13 * b for b in range(8)]

    def test_blocks_for_is_smallest_with_headroom(self):
        store = builtin_core_schemas()
        sites = [_site_count(b, store) for b in range(40)]
        for defects in range(0, 300):
            needed = -(-defects * 5 // 4) + 2
            template, pairs = _sized_base(defects, store)
            blocks = (len(template["Resources"]) - 1) // 3  # the Vpc, then three per block
            assert template == synthetic_base_template(blocks), defects
            assert pairs == _eligible_pairs(template, store), defects
            assert sites[blocks] >= needed, defects
            assert blocks == 1 or sites[blocks - 1] < needed, defects

    def test_store_without_usable_sites_raises(self):
        # Run in a thread: a sizing search that never finds headroom would
        # otherwise hang the suite instead of failing this test.
        outcome = []

        def build():
            backend = SyntheticBackend(
                SyntheticParams(p_fix=0.5, p_spawn=0.0, seed=1),
                initial_defects=8,
                store=SchemaStore({}),
            )
            try:
                backend.initial_generation()
            except ValueError as exc:
                outcome.append(exc)

        worker = threading.Thread(target=build, daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert len(outcome) == 1
        assert "defect sites" in str(outcome[0])

    def test_store_without_schemas_still_sizes_small_counts(self):
        # Six top-level sections remain eligible without any property schema.
        backend = SyntheticBackend(
            SyntheticParams(p_fix=0.5, p_spawn=0.0, seed=1),
            initial_defects=3,
            store=SchemaStore({}),
        )
        backend.initial_generation()
        assert sorted(d.kind for d in backend.live) == ["unknown_top_key"] * 3
