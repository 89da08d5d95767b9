"""The three workloads: seeded inputs, the timed call per item, and its check.

Every workload is a closed loop driven from the calling thread: the next item
starts only when the previous one has returned.  Each one calls the
``iacloop`` command line in-process through ``cli.dispatch``, the way a user
would run it, and sees only the inputs generated here from ``--seed``.

* ``protocol``: the paper's experiment, ``iacloop bench`` with the synthetic
  backend at 6 trials x 33 cases x 5 generations x 10 iterations (990 cells,
  10,890 turns), then ``iacloop report --csv --svg``.
* ``lint_corpus``: ``iacloop lint`` once per file over synthetic templates of
  1 to 64 blocks from clean to defect-dense, the golden lint fixtures and a
  few syntax errors; half the files use ``--format json``, half the text
  format, so both output paths run.
* ``noisy_replies``: ``iacloop loop --backend scripted`` once per cell over
  replies with and without templates, including hostile ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

import oracles

ROOT = Path(__file__).resolve().parent.parent
CASES_DIR = ROOT / "benchmarks" / "cases"
FIXTURE_DIR = ROOT / "tests" / "fixtures" / "lint"
GOLDEN_FILE = ROOT / "tests" / "fixtures" / "lint_golden.json"


@dataclass
class Evaluation:
    """What one timed item did, as judged by the oracle."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    turns: int = 0
    bytes: int = 0
    spans: list[tuple[float, float]] = field(default_factory=list)  # one per latency sample
    # Which part of the work each span times, where parts repeat within a
    # round; by default a span's part is its item and position.
    keys: Optional[list[Any]] = None


def dispatch(api: Any, argv: list[str]) -> tuple[int, str]:
    """Run one ``iacloop`` command in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = api.cli.dispatch(argv)
    return code, out.getvalue()


def _apportion(weights: tuple[tuple[str, int], ...], total: int) -> list[str]:
    """``total`` labels in exact proportion to ``weights`` (largest remainder)."""
    scale = sum(w for _, w in weights)
    exact = [(label, total * w / scale) for label, w in weights]
    counts = {label: int(x) for label, x in exact}
    by_remainder = sorted(exact, key=lambda lx: lx[1] - int(lx[1]), reverse=True)
    for label, _ in by_remainder[: total - sum(counts.values())]:
        counts[label] += 1
    return [label for label, _ in weights for _ in range(counts[label])]


def _spread(lo: int, hi: int, n: int) -> list[int]:
    """``n`` evenly spaced integers from ``lo`` to ``hi`` inclusive."""
    return [round(lo + (hi - lo) * i / (n - 1)) for i in range(n)]


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------


@dataclass
class ProtocolRun:
    codes: tuple[int, int]
    cell_spans: list[tuple[float, float]]


class Protocol:
    name = "protocol"
    turn_span = "gateway.generate"
    # Serial: bench's worker threads make this CPU-bound run slower, and at
    # --parallel 2 its run-to-run spread (19% in throughput, 40% in the
    # tail) exceeded the benchmark's bounds on a 2-core machine.
    workers = 1
    ROUND_S = 36.0  # nominal seconds per round
    TRACED_ITEMS = 1  # one bench run per traced round: its layers are the same in the second
    TRIALS, GENERATIONS, ITERATIONS = 6, 5, 10
    P_FIX, P_SPAWN, STUBBORN, DEFECTS = 0.55, 0.15, 0.25, (6, 10)

    def setup(self, api: Any, seed: int, workdir: Path) -> None:
        self.api = api
        self.case_ids = sorted(p.stem for p in CASES_DIR.glob("*.txt"))
        if not self.case_ids:
            raise FileNotFoundError(f"no prompt cases under {CASES_DIR}")
        self.spec = oracles.ProtocolSpec(
            seed=seed, cases=len(self.case_ids), trials=self.TRIALS, generations=self.GENERATIONS,
            iterations=self.ITERATIONS, p_fix=self.P_FIX, p_spawn=self.P_SPAWN,
            stubborn_fraction=self.STUBBORN, defects=self.DEFECTS,
        )
        self.results = workdir / "results.json"
        self.traces = workdir / "traces"
        self.csv = workdir / "stats.csv"
        self.svg = workdir / "chart.svg"
        self.bench_argv = [
            "bench", "--cases", str(CASES_DIR), "--backend", "synthetic",
            "--trials", str(self.TRIALS), "--generations", str(self.GENERATIONS),
            "--iterations", str(self.ITERATIONS), "--seed", str(seed),
            "--p-fix", str(self.P_FIX), "--p-spawn", str(self.P_SPAWN),
            "--stubborn-fraction", str(self.STUBBORN),
            "--defects-min", str(self.DEFECTS[0]), "--defects-max", str(self.DEFECTS[1]),
            "--parallel", str(self.workers), "--out", str(self.results),
            "--traces-dir", str(self.traces),
        ]
        self.report_argv = ["report", "--in", str(self.results), "--csv", str(self.csv), "--svg", str(self.svg)]
        self._expected: Optional[oracles.ProtocolExpectation] = None

    def expected(self) -> oracles.ProtocolExpectation:
        """The oracle replay; computed once per process, outside any timed region."""
        if self._expected is None:
            store = self.api.schema_store.builtin_core_schemas()
            self._expected = oracles.protocol_expectation(self.api.gateway, store, self.spec)
        return self._expected

    def items(self) -> list[None]:
        # A round is two bench runs of the same cells.  A cell's latency
        # sample is the faster of its two times, so the ~9 full garbage
        # collections of a run, and stalls of the shared machine, which land
        # on a few cells of one run, do not set the tail.
        return [None, None]

    def attempts(self, item: None) -> int:
        return self.spec.trials * self.spec.cases * self.spec.generations

    def run(self, api: Any, item: None, probe: Any) -> ProtocolRun:
        # Per-cell latency: one clock pair around each cell's run_loop call,
        # installed in the namespace run_benchmark calls it through.  The
        # speed probe runs between cells, on the same thread since cells run
        # serially, and the caller leaves its time out of the run's.
        spans: list[tuple[float, float]] = []
        inner = api.bench.run_loop

        def timed_cell(*args, **kwargs):
            if probe is not None:
                probe.sample_if_due()
            start = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                spans.append((start, perf_counter()))

        api.bench.run_loop = timed_cell
        try:
            bench_code, _ = dispatch(api, self.bench_argv)
            report_code, _ = dispatch(api, self.report_argv)
        finally:
            api.bench.run_loop = inner
        return ProtocolRun((bench_code, report_code), spans)

    def evaluate(self, item: None, run: ProtocolRun, span: tuple[float, float]) -> Evaluation:
        expected = self.expected()
        cells = self.attempts(item)
        ev = Evaluation(attempted=cells, spans=run.cell_spans, keys=list(range(len(run.cell_spans))))
        if run.codes != (0, 0):
            ev.problems.append(f"bench/report exit codes {run.codes}")
        results = json.loads(self.results.read_text(encoding="utf-8"))
        failures = results.get("failures") or []
        ev.failed = len(failures)
        ev.problems += oracles.check_protocol_results(expected, results)
        ev.problems += oracles.check_protocol_exports(
            expected, self.csv.read_text(encoding="utf-8"), self.svg.read_text(encoding="utf-8"))
        written = len(list(self.traces.glob("*.json")))
        if written != cells - ev.failed:
            ev.problems.append(f"{written} trace files for {cells - ev.failed} completed cells")
        failed_cells = {(f["trial_index"], self.case_ids.index(f["case_id"]), f["generation_index"]) for f in failures}
        ev.bytes = sum(size for cell, size in expected.cell_bytes.items() if cell not in failed_cells)
        ev.turns = (cells - ev.failed) * (self.spec.iterations + 1)
        shutil.rmtree(self.traces, ignore_errors=True)
        return ev


# ---------------------------------------------------------------------------
# lint_corpus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LintFile:
    path: Path
    fmt: str
    strict: bool
    expect: oracles.LintExpectation
    size: int


class LintCorpus:
    name = "lint_corpus"
    turn_span = "cli.dispatch"
    workers = 0
    ROUND_S = 0.65  # nominal seconds per round
    TRACED_ITEMS = None
    # Block counts span 1 to 64 (about 1 to 54 KB).  Each size appears at
    # every density, so size and defect density vary independently.
    TARGET_BLOCKS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)
    DEFECTS_PER_BLOCK = 10.4  # initial defects that make the generator choose ~B blocks
    # Share of the initial defects left live: 0 is a clean template, None
    # keeps all of them (defect-dense).
    DENSITIES = (("clean", 0.0), ("sparse", 0.05), ("medium", 0.3), ("dense", None))
    # Small templates also take a few repair/spawn steps, which add the
    # warning-level and spawned defect kinds.
    SPAWN_BLOCKS = (1, 2, 3, 4, 6, 8)

    def setup(self, api: Any, seed: int, workdir: Path) -> None:
        rng = random.Random(f"lint_corpus:{seed}")
        store = api.schema_store.builtin_core_schemas()
        gateway = api.gateway
        corpus = workdir / "corpus"
        corpus.mkdir(parents=True)
        entries: list[tuple[str, str, bool, oracles.LintExpectation]] = []

        def backend(p_fix: float, p_spawn: float, stubborn: float, defects: int):
            params = gateway.SyntheticParams(
                p_fix=p_fix, p_spawn=p_spawn, stubborn_fraction=stubborn, seed=rng.getrandbits(32))
            return gateway.SyntheticBackend(params, initial_defects=defects, store=store)

        for blocks in self.TARGET_BLOCKS:
            defects = max(1, round(self.DEFECTS_PER_BLOCK * blocks))
            for label, kept in self.DENSITIES:
                b = backend(1.0, 0.0, kept or 0.0, defects)
                text = b.initial_generation()
                if kept is not None:
                    text = b.synthetic_step(None)  # repairs every defect that is not stubborn
                entries.append((f"b{blocks:02d}_{label}", text, False,
                                oracles.LintExpectation("counts", counts=oracles.live_counts(b))))
        for blocks in self.SPAWN_BLOCKS:
            b = backend(0.6, 0.9, 0.1, max(1, round(self.DEFECTS_PER_BLOCK * blocks)))
            b.initial_generation()
            for _ in range(3):
                text = b.synthetic_step(None)
            entries.append((f"b{blocks:02d}_spawned", text, False,
                            oracles.LintExpectation("counts", counts=oracles.live_counts(b))))

        golden = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
        for name in sorted(golden):
            text = (FIXTURE_DIR / f"{name}.json").read_text(encoding="utf-8")
            strict = bool(golden[name].get("options", {}).get("strict_unknown_types"))
            entries.append((f"fx_{name}", text, strict, oracles.LintExpectation(
                "golden", golden=tuple(golden[name]["diagnostics"]))))

        for name, text in self._syntax_errors(backend(1.0, 0.0, 0.0, 8).initial_generation()):
            entries.append((f"syntax_{name}", text, False, oracles.LintExpectation("syntax")))

        # The output format alternates along the entries and flips at each
        # size, the same for every seed: each seed gets the same mix of work,
        # and both formats see every density.
        self._items = []
        for index, (stem, text, strict, expect) in enumerate(entries):
            fmt = ("json", "text")[(index + index // len(self.DENSITIES)) % 2]
            path = corpus / f"{stem}.json"
            path.write_text(text, encoding="utf-8")
            self._items.append(LintFile(path, fmt, strict, expect, len(text.encode("utf-8"))))
        rng.shuffle(self._items)

    @staticmethod
    def _syntax_errors(text: str) -> list[tuple[str, str]]:
        """Invalid variants of a valid template; ``duplicate_key`` is valid JSON
        that the located parser rejects by design."""
        head, tail = text.split("\n", 1)
        last_close = text.rindex("}")
        return [
            ("truncated", text[: len(text) // 2]),
            ("trailing_comma", text[:last_close].rstrip() + ",\n}"),
            ("duplicate_key", head + '\n  "Description": "first",' + "\n" + tail),
            ("single_quotes", text.replace('"Resources"', "'Resources'", 1)),
            ("missing_colon", text.replace('"Description":', '"Description"', 1)),
        ]

    def items(self) -> list[LintFile]:
        return self._items

    def attempts(self, item: LintFile) -> int:
        return 1

    def run(self, api: Any, item: LintFile, probe: Any) -> tuple[int, str]:
        argv = ["lint", str(item.path), "--format", item.fmt]
        if item.strict:
            argv.append("--strict-types")
        return dispatch(api, argv)

    def evaluate(self, item: LintFile, result: tuple[int, str], span: tuple[float, float]) -> Evaluation:
        code, stdout = result
        return Evaluation(
            attempted=1,
            problems=[f"{item.path.name}: {p}" for p in oracles.check_lint_output(item.expect, item.fmt, code, stdout)],
            turns=1,
            bytes=item.size,
            spans=[span],
        )


# ---------------------------------------------------------------------------
# noisy_replies
# ---------------------------------------------------------------------------

_WORDS = (
    "here is the updated template with the corrected properties for your stack "
    "I fixed the subnet bucket and instance definitions as requested below"
).split()
_PLACEHOLDERS = ("BucketName", "VpcId", "Stage", "AccountId", "Region", "ImageId")
_REFUSALS = (
    "I am sorry but I cannot produce that template right now.",
    "Could you clarify which resources the stack should contain?",
    "The template is too large to show in one reply; ask me for it in parts.",
)


def _prose(rng: random.Random, braces: bool) -> str:
    """A sentence without quotes or backticks; with ``braces`` it also holds
    small balanced ``{Placeholder}`` pairs."""
    words = [rng.choice(_WORDS) for _ in range(rng.randint(6, 16))]
    if braces:
        for _ in range(rng.randint(1, 3)):
            words.insert(rng.randrange(len(words) + 1), "{" + rng.choice(_PLACEHOLDERS) + "}")
    return " ".join(words) + "."


@dataclass(frozen=True)
class Cell:
    directory: Path
    replies: tuple[oracles.ReplyPlan, ...]
    size: int

    @property
    def prompt(self) -> Path:
        return self.directory / "prompt.txt"

    @property
    def script(self) -> Path:
        return self.directory / "script"

    @property
    def out(self) -> Path:
        return self.directory / "trace.json"


class NoisyReplies:
    name = "noisy_replies"
    turn_span = "gateway.generate"
    workers = 0
    ROUND_S = 7.7  # nominal seconds per round
    TRACED_ITEMS = None
    CELLS = 240
    ITERATIONS = 3  # four replies per cell
    # Hostile cells carry one hostile reply among ordinary ones.  Their sizes
    # and depths are spread evenly so each seed has the same hostile load.
    # The unclosed-brace runs are all close to 2 KB, so these cells form the
    # top of the latency distribution however many rounds a run completes.
    BRACE_CELLS, BRACE_RUN = 24, (1920, 2048)  # a run of unclosed "{"
    DEEP_CELLS, DEEP_NESTING = 8, (500, 1000)  # nesting depth of a valid document
    REPLY_MIX = (("fenced", 30), ("unfenced", 25), ("bare", 20), ("truncated", 10), ("non_answer", 15))
    INITIAL_DEFECTS = (6, 40)  # spread over the cells: templates of 1 to 4 blocks

    def setup(self, api: Any, seed: int, workdir: Path) -> None:
        rng = random.Random(f"noisy_replies:{seed}")
        store = api.schema_store.builtin_core_schemas()
        gateway = api.gateway
        replies = self.ITERATIONS + 1
        hostile = (
            [("brace", n) for n in _spread(*self.BRACE_RUN, self.BRACE_CELLS)]
            + [("deep", d) for d in _spread(*self.DEEP_NESTING, self.DEEP_CELLS)]
        )
        hostile += [None] * (self.CELLS - len(hostile))
        rng.shuffle(hostile)
        ordinary = _apportion(self.REPLY_MIX, self.CELLS * replies - self.BRACE_CELLS - self.DEEP_CELLS)
        rng.shuffle(ordinary)
        defects = _spread(*self.INITIAL_DEFECTS, self.CELLS)
        rng.shuffle(defects)
        self._items = []
        for index, (special, initial) in enumerate(zip(hostile, defects)):
            params = gateway.SyntheticParams(p_fix=0.55, p_spawn=0.3, stubborn_fraction=0.2, seed=rng.getrandbits(32))
            backend = gateway.SyntheticBackend(params, initial_defects=initial, store=store)
            started = False

            def next_template() -> str:
                nonlocal started
                text = backend.synthetic_step(None) if started else backend.initial_generation()
                started = True
                return text

            kinds = [ordinary.pop() for _ in range(replies - (special is not None))]
            if special is not None:
                kinds.insert(rng.randrange(replies), special)
            plans = tuple(self._reply(rng, kind, next_template, backend) for kind in kinds)
            cell = Cell(workdir / f"cell{index:04d}", plans, sum(len(p.text.encode("utf-8")) for p in plans))
            cell.script.mkdir(parents=True)
            cell.prompt.write_text(f"Create a CloudFormation stack for workload {index}.", encoding="utf-8")
            for turn, plan in enumerate(plans):
                (cell.script / f"{turn:03d}.txt").write_text(plan.text, encoding="utf-8")
            self._items.append(cell)

    @staticmethod
    def _reply(rng: random.Random, kind: Any, next_template, backend: Any) -> oracles.ReplyPlan:
        if isinstance(kind, tuple):
            hostile, size = kind
            lead = _prose(rng, braces=False) + "\n"
            if hostile == "brace":
                return oracles.ReplyPlan("hostile_brace", lead + "{" * size, "none")
            if size % 2:
                nested = "[" * size + "]" * size
            else:
                nested = '{"a":' * size + "0" + "}" * size
            return oracles.ReplyPlan("hostile_deep", lead + nested, "any")
        if kind == "non_answer":
            text = rng.choice(_REFUSALS) + " " + _prose(rng, braces=rng.random() < 0.5)
            return oracles.ReplyPlan(kind, text, "none")
        template = next_template()
        counts = oracles.live_counts(backend)
        if kind == "fenced":
            text = f"{_prose(rng, True)}\n\n```json\n{template}\n```\n\n{_prose(rng, True)}"
            return oracles.ReplyPlan(kind, text, "template", template + "\n", counts)
        if kind == "unfenced":
            # An unclosed "{" may precede the template; nothing after it closes that brace.
            stray = " {" if rng.random() < 0.5 else ""
            text = f"{_prose(rng, True)}{stray}\n{template}\n{_prose(rng, True)}"
            return oracles.ReplyPlan(kind, text, "template", template, counts)
        if kind == "bare":
            return oracles.ReplyPlan(kind, template, "template", template, counts)
        cut = round(len(template) * rng.uniform(0.2, 0.9))
        return oracles.ReplyPlan(kind, f"{_prose(rng, False)}\n{template[:cut]}", "any")

    def items(self) -> list[Cell]:
        return self._items

    def attempts(self, item: Cell) -> int:
        return 1

    def run(self, api: Any, cell: Cell, probe: Any) -> tuple[int, str]:
        return dispatch(api, [
            "loop", "--prompt-file", str(cell.prompt), "--backend", "scripted",
            "--script-dir", str(cell.script), "--iterations", str(self.ITERATIONS),
            "--out", str(cell.out),
        ])

    def evaluate(self, cell: Cell, result: tuple[int, str], span: tuple[float, float]) -> Evaluation:
        code, _ = result
        try:
            trace = json.loads(cell.out.read_text(encoding="utf-8"))
        except FileNotFoundError:
            trace = {}
        cell.out.unlink(missing_ok=True)
        problems = oracles.check_noisy_trace(cell.replies, code, trace)
        return Evaluation(
            attempted=1,
            problems=[f"{cell.directory.name}: {p}" for p in problems],
            turns=len(trace.get("records", [])),
            bytes=cell.size,
            spans=[span],
        )


WORKLOADS = {w.name: w for w in (Protocol, LintCorpus, NoisyReplies)}
