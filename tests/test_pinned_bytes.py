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
from iacloop.loop import BenchmarkCase, LoopConfig, run_loop
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
}
LOOP_TRACE_DIGEST = "e94fa61772157cbf04f4aaee870a9d4bfd7fb922b8f50d05065c55824034d0b4"
LOOP_PROMPTS_DIGEST = "28bae178b4f3bec51130c180a0e882422579c1f171b3135a499dcd8bf2144882"
# The bench digests cover 6-10 defects; this one covers a 600-defect template
# (58 blocks), where injection and spawning draw from long free-site lists.
DENSE_SYNTHETIC_DIGEST = "c17a5495d7b45fabe64473a34e3173f8b200ffef8ec76a7e51040ccb3036b824"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def bench_digests() -> dict[str, str]:
    """Digests of results.json and every trace of a small fixed-seed bench.

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
    return digests


def loop_trace_digest(work: Path) -> str:
    """Digest of the trace ``iacloop loop`` writes for the scripted replies."""
    prompt = work / "cell.txt"
    prompt.write_text("Create an S3 bucket and an EC2 instance.\n", encoding="utf-8")
    script = work / "script"
    script.mkdir()
    for index, reply in enumerate(REPLIES):
        (script / f"{index:03d}.txt").write_text(reply, encoding="utf-8")
    out = work / "trace.json"
    code = dispatch([
        "loop", "--prompt-file", str(prompt), "--backend", "scripted",
        "--script-dir", str(script), "--iterations", str(len(REPLIES) - 1),
        "--out", str(out),
    ])
    assert code == 0
    return _sha256(out.read_bytes())


class _RecordingBackend:
    def __init__(self, inner):
        self.inner = inner
        self.conversations = []

    def complete(self, conversation, cfg):
        self.conversations.append([[m.role, m.content] for m in conversation])
        return self.inner.complete(conversation, cfg)


def loop_prompts_digest() -> str:
    """Digest of every conversation the loop sends for the scripted replies."""
    backend = _RecordingBackend(ScriptedBackend(REPLIES))
    case = BenchmarkCase(id="cell", prompt="Create an S3 bucket and an EC2 instance.")
    run_loop(case, backend, builtin_core_schemas(), LoopConfig(max_iterations=len(REPLIES) - 1))
    return _sha256(json.dumps(backend.conversations).encode("utf-8"))


def test_bench_results_and_traces_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert bench_digests() == BENCH_DIGESTS


def test_scripted_loop_trace_matches_pinned_digest(tmp_path, capsys):
    assert loop_trace_digest(tmp_path) == LOOP_TRACE_DIGEST
    assert capsys.readouterr().out == (
        "cell: 6 records (0e/0w, 3e/1w, 3e/1w, 0e/1w, 0e/0w, 0e/0w)\n"
    )


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
