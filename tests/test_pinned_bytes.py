"""Result bytes pinned across commits.

Serial and parallel runs of one commit are compared elsewhere; these tests
compare a run with sha256 digests recorded from an earlier commit, so a
refactor that changes ``results.json``, a trace or a prompt sent to the model
fails here.  A deliberate behaviour change updates the digests and says so.
"""

import hashlib
import json
import shutil
from pathlib import Path

from iacloop.cli import dispatch
from iacloop.gateway import ScriptedBackend, SyntheticBackend, SyntheticParams
from iacloop.loop import BenchmarkCase, run_loop
from iacloop.schema_store import builtin_core_schemas

CASES = Path(__file__).resolve().parents[1] / "benchmarks" / "cases"

WARNING_AND_ERRORS = json.dumps(
    {
        "AWSTemplateFormatVersion": "2010-09-09",
        "Parameters": {"Env": {"Type": "String"}},
        "Resources": {
            "Bucket": {"Type": "AWS::S3::Bucket", "Properties": {"AccessControl": "Open"}},
            "Host": {"Type": "AWS::EC2::Instance", "Properties": {"Monitoring": "yes"}},
        },
    },
    indent=2,
)
WARNING_ONLY = json.dumps(
    {
        "Parameters": {"Env": {"Type": "String"}},
        "Resources": {"Bucket": {"Type": "AWS::S3::Bucket"}},
    }
)
CLEAN = json.dumps({"Resources": {"Bucket": {"Type": "AWS::S3::Bucket"}}})

# A non-answer first (re-prompt from scratch), a fenced template with prose,
# a non-answer mid-cell (counts carried forward, last template refed), a
# warning-only report, then clean turns (the clean instruction).
REPLIES = [
    "Sorry, I cannot write that template.",
    "Here it is:\n```json\n" + WARNING_AND_ERRORS + "\n```\nHope this helps.",
    "I am not able to fix these problems.",
    WARNING_ONLY,
    CLEAN,
    CLEAN,
]

BENCH_DIGESTS = {
    "results.json": "487e4c87d92eb3e0eee2601c43ec9782bd454b1e8d3236e741b7d36b9f1578f1",
    "trial00_case_01_gen0.json": "c92ca1c2731014237a47c99b2ef33d496eac50ea027d0cfdf759b8210f4faf6f",
    "trial00_case_01_gen1.json": "07b80f7b8cbaefe49e361294a8b4ed0ec7ff01d81293ac6e5047b775bf914c50",
    "trial00_case_02_gen0.json": "8d54d94b1158b7bb3d4466ccc451395e51c861a9898945b837a61dbde903a53e",
    "trial00_case_02_gen1.json": "f12048c308c6c8f7e5fcab133ce87454cb18cbc9c6aed487537631a3d8ae1edc",
    "trial00_case_03_gen0.json": "5efcf0ab64b581fa5f4e293b8c10468e492f9e5979a5c916742b6cf4cbaa399a",
    "trial00_case_03_gen1.json": "2c76384313e87bbcc984df2f7c483efb529d95ce43a7060bd8812db8bd7fd96d",
    "trial01_case_01_gen0.json": "1108ed1baf045c34463da5d42f2341520b2fe030ac66577e827c8bc787181ae5",
    "trial01_case_01_gen1.json": "230bc22165714be0f4c224bdf85350a74ef4894bc0a2cd6baade226d9213fde9",
    "trial01_case_02_gen0.json": "9ea5982568eb5c9e6edf04e2dd1fa0b6d4ad0208a3dffdecd44e9f27b21e6629",
    "trial01_case_02_gen1.json": "41f1c6b9146b55167c4507ba932ec93d1e3ee723fe242cff52a5b9888bfec5c7",
    "trial01_case_03_gen0.json": "619efa23c3a9f07490fcff06f6555168e03087230601befc206d00bf7694a50e",
    "trial01_case_03_gen1.json": "61ed897d295ab67fab5e944ea010746880745cfc93a6f42810979d2b47c876b9",
    # ``iacloop report --csv --svg`` over that results.json.
    "stats.csv": "dc80bf9e0e150bc0d3972564b86131a718a70534b219afe42ba6e1655a10f7ee",
    "chart.svg": "ea5067e15ccb5e1830c009f696a0bc6d91542711094ff444b57a4d3a421e8e87",
}
LOOP_TRACE_DIGEST = "e94fa61772157cbf04f4aaee870a9d4bfd7fb922b8f50d05065c55824034d0b4"
LOOP_PROMPTS_DIGEST = "28bae178b4f3bec51130c180a0e882422579c1f171b3135a499dcd8bf2144882"
# ``iacloop loop --backend synthetic --seed 7 --iterations 10`` with 8 initial
# defects, recorded while the loop still linted whole templates.
SYNTHETIC_LOOP_TRACE_DIGEST = "8fb7605d218ff9f8382c5d493f225b61e931647116043723f9bbaaa4d0091f9f"
# The same cell, by (defect count, seed), recorded when ``loop`` took the
# count as one ``--initial-defects N``; ``--defects-min N --defects-max N``
# spends no draw on it, so the bytes are the same.  With no defect the seed
# changes nothing.
FIXED_COUNT_LOOP_DIGESTS = {
    (0, 1): "2dab0723e0afa29aa8ae866c3f965c062067fc8283cc3f7f3d3684a61e8eb8f2",
    (0, 7): "2dab0723e0afa29aa8ae866c3f965c062067fc8283cc3f7f3d3684a61e8eb8f2",
    (0, 11): "2dab0723e0afa29aa8ae866c3f965c062067fc8283cc3f7f3d3684a61e8eb8f2",
    (6, 1): "dd0c7cc5b6a860b74e78028108511ef495d8e6ddec199e1adb5770c32bdab813",
    (6, 7): "3f9ad5580051006834fc049a667bc845ce1d72db9fa13c3c1b705c971057497c",
    (6, 11): "fb1f75ee474ceea0c073e54a73a4319de9f8e0041b480babbab198075c72483b",
    (8, 1): "a8d6a4db1f3906285f42b9ea87e25f661037dd577b37b00b5412fd5b1f610f28",
    (8, 7): SYNTHETIC_LOOP_TRACE_DIGEST,
    (8, 11): "403bf642ce8e60d6c1520505ef08752fa41bf99dd0c1339e0ac9b4d0b0d22a3a",
}
# A template, then a non-answer: the third call exhausts the script, so every
# cell fails at iteration 2 with 2 records.
FAILING_REPLIES = [json.dumps({"Resources": {"B": {"Type": "AWS::S3::Bucket"}}}), "no template"]
FAILING_LOOP_TRACE_DIGEST = "85ff6a5ba1b43943b50fad2c4228ccc1c5d035f2d95fd547e9409072fd43b6da"
# ``iacloop bench`` over case_01 and case_02, 2 trials, 1 generation, with
# that script: 4 failures and no completed cell.
FAILING_BENCH_RESULTS_DIGEST = "1b229c876ebdff7653ade932913842267a6bb5836e7c2ff78b6c93b16498ed9d"
FAILING_CELL_ERROR = "backend failed at iteration 2: script exhausted after 2 responses"
# The bench digests cover 6-10 defects; this one covers a 600-defect template
# (58 blocks), where injection and spawning draw from long free-site lists.
DENSE_SYNTHETIC_DIGEST = "c17a5495d7b45fabe64473a34e3173f8b200ffef8ec76a7e51040ccb3036b824"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def bench_digests() -> dict[str, str]:
    """Digests of results.json, every trace of a small fixed-seed bench and
    the CSV and SVG that ``report`` writes from its results.

    Runs in the current directory: results.json records the cases directory
    as given, so it is passed as the relative path "cases".
    """
    Path("cases").mkdir()
    for name in ("case_01.txt", "case_02.txt", "case_03.txt"):
        shutil.copy(CASES / name, Path("cases") / name)
    code = dispatch([
        "bench", "--cases", "cases", "--backend", "synthetic",
        "--trials", "2", "--generations", "2", "--iterations", "5",
        "--seed", "20240801", "--p-spawn", "0.3",
        "--out", "results.json", "--traces-dir", "traces",
    ])
    assert code == 0
    digests = {"results.json": _sha256(Path("results.json").read_bytes())}
    for path in sorted(Path("traces").iterdir()):
        digests[path.name] = _sha256(path.read_bytes())
    assert dispatch(["report", "--in", "results.json", "--csv", "stats.csv", "--svg", "chart.svg"]) == 0
    for name in ("stats.csv", "chart.svg"):
        digests[name] = _sha256(Path(name).read_bytes())
    return digests


def _write_script(directory: Path, replies: list[str]) -> None:
    directory.mkdir()
    for index, reply in enumerate(replies):
        (directory / f"{index:03d}.txt").write_text(reply, encoding="utf-8")


def loop_trace_digest(work: Path) -> str:
    """Digest of the trace ``iacloop loop`` writes for the scripted replies."""
    prompt = work / "cell.txt"
    prompt.write_text("Create an S3 bucket and an EC2 instance.\n", encoding="utf-8")
    script = work / "script"
    _write_script(script, REPLIES)
    out = work / "trace.json"
    code = dispatch([
        "loop", "--prompt-file", str(prompt), "--backend", "scripted",
        "--script-dir", str(script), "--iterations", str(len(REPLIES) - 1),
        "--out", str(out),
    ])
    assert code == 0
    return _sha256(out.read_bytes())


def synthetic_loop_trace_digest(work: Path, defects: int = 8, seed: int = 7) -> str:
    """Digest of the trace ``iacloop loop`` writes for a synthetic cell with
    exactly ``defects`` initial defects."""
    prompt = work / "cell.txt"
    prompt.write_text("Create an S3 bucket and an EC2 instance.\n", encoding="utf-8")
    out = work / "trace.json"
    code = dispatch([
        "loop", "--prompt-file", str(prompt), "--backend", "synthetic",
        "--seed", str(seed), "--iterations", "10", "--defects-min", str(defects), "--defects-max", str(defects),
        "--out", str(out),
    ])
    assert code == 0
    return _sha256(out.read_bytes())


def failing_loop(work: Path) -> tuple[int, str]:
    """Exit code and trace digest of ``iacloop loop`` over the failing script."""
    prompt = work / "cell.txt"
    prompt.write_text("Create an S3 bucket.\n", encoding="utf-8")
    _write_script(work / "script", FAILING_REPLIES)
    out = work / "trace.json"
    code = dispatch([
        "loop", "--prompt-file", str(prompt), "--backend", "scripted",
        "--script-dir", str(work / "script"), "--iterations", "4", "--out", str(out),
    ])
    return code, _sha256(out.read_bytes())


def failing_bench() -> tuple[int, str]:
    """Exit code and results.json digest of ``iacloop bench`` over the
    failing script, run in the current directory with relative paths, since
    results.json records the directories as given."""
    Path("cases").mkdir()
    for name in ("case_01.txt", "case_02.txt"):
        shutil.copy(CASES / name, Path("cases") / name)
    _write_script(Path("script"), FAILING_REPLIES)
    code = dispatch([
        "bench", "--cases", "cases", "--backend", "scripted", "--script-dir", "script",
        "--trials", "2", "--generations", "1", "--iterations", "4", "--out", "results.json",
    ])
    return code, _sha256(Path("results.json").read_bytes())


class _RecordingBackend:
    def __init__(self, inner):
        self.inner = inner
        self.conversations = []

    def complete(self, conversation):
        self.conversations.append([[m.role, m.content] for m in conversation])
        return self.inner.complete(conversation)


def loop_prompts_digest() -> str:
    """Digest of every conversation the loop sends for the scripted replies."""
    backend = _RecordingBackend(ScriptedBackend(REPLIES))
    case = BenchmarkCase(id="cell", prompt="Create an S3 bucket and an EC2 instance.")
    run_loop(case, backend, builtin_core_schemas(), max_iterations=len(REPLIES) - 1)
    return _sha256(json.dumps(backend.conversations).encode("utf-8"))


def test_bench_results_and_traces_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert bench_digests() == BENCH_DIGESTS


def test_scripted_loop_trace_matches_pinned_digest(tmp_path, capsys):
    assert loop_trace_digest(tmp_path) == LOOP_TRACE_DIGEST
    assert capsys.readouterr().out == (
        "cell: 6 records (0e/0w, 3e/1w, 3e/1w, 0e/1w, 0e/0w, 0e/0w)\n"
    )


def test_synthetic_loop_trace_matches_pinned_digest(tmp_path, capsys):
    assert synthetic_loop_trace_digest(tmp_path) == SYNTHETIC_LOOP_TRACE_DIGEST
    assert capsys.readouterr().out == (
        "cell: 11 records (8e/0w, 4e/0w, 3e/1w, 3e/0w, 3e/0w, 2e/0w, 2e/0w, 2e/0w, 2e/0w, 2e/0w, 2e/0w)\n"
    )


def test_fixed_count_loop_traces_match_pinned_digests(tmp_path, capsys):
    digests = {key: synthetic_loop_trace_digest(tmp_path, *key) for key in FIXED_COUNT_LOOP_DIGESTS}
    assert digests == FIXED_COUNT_LOOP_DIGESTS


def test_failing_loop_trace_matches_pinned_digest(tmp_path, capsys):
    assert failing_loop(tmp_path) == (3, FAILING_LOOP_TRACE_DIGEST)
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"backend failure: {FAILING_CELL_ERROR}\n")
    assert len(json.loads((tmp_path / "trace.json").read_text())["records"]) == 2


def test_failing_bench_results_match_pinned_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert failing_bench() == (3, FAILING_BENCH_RESULTS_DIGEST)
    captured = capsys.readouterr()
    assert captured.out == "0 cells completed, 4 failed; results -> results.json\n"
    assert captured.err == f"no cell completed; first failure: {FAILING_CELL_ERROR}\n"
    failures = json.loads(Path("results.json").read_text())["failures"]
    assert [(f["trial_index"], f["case_id"], f["records_completed"]) for f in failures] == [
        (0, "case_01", 2), (0, "case_02", 2), (1, "case_01", 2), (1, "case_02", 2),
    ]


def test_scripted_loop_prompts_match_pinned_digest():
    assert loop_prompts_digest() == LOOP_PROMPTS_DIGEST


def dense_synthetic_digest() -> str:
    """Digest of the generation and three steps of 600-defect cells, seeds 0-4."""
    digest = hashlib.sha256()
    store = builtin_core_schemas()
    for seed in range(5):
        params = SyntheticParams(p_fix=0.55, p_spawn=0.15, stubborn_fraction=0.25, seed=seed)
        backend = SyntheticBackend(params, initial_defects=600, store=store)
        digest.update(backend.initial_generation().encode("utf-8"))
        for _ in range(3):
            digest.update(backend.synthetic_step().encode("utf-8"))
    return digest.hexdigest()


def test_dense_synthetic_texts_match_pinned_digest():
    assert dense_synthetic_digest() == DENSE_SYNTHETIC_DIGEST
