"""Benchmark protocol: trials x cases x generations loop cells, per-iteration
totals, mean/std aggregation across trials, plateau detection, and exports.

Every cell seeds its backend with ``Cell.seed``, the one owner of the rule
mix64(master_seed, trial, case, generation), so results are identical for
identical configuration regardless of the parallelism used to execute them.
"""

from __future__ import annotations

import json
import math
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import product, repeat
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional

from .gateway import Backend, make_backend, mix64
from .located_json import parse_located
from .loop import BackendFailure, BenchmarkCase, LoopTrace, run_loop
from .schema_store import SchemaStore, load_store
from .settings import BenchmarkConfig

__all__ = [
    "CellFailure",
    "BenchmarkResult",
    "AggregateStats",
    "EmptyDataset",
    "LengthMismatch",
    "load_cases",
    "run_benchmark",
    "aggregate",
    "detect_plateau",
    "export_csv",
    "export_svg",
    "results_to_dict",
    "write_results",
    "read_results",
]


class EmptyDataset(ValueError):
    """The case directory holds no prompt files."""


class LengthMismatch(ValueError):
    """Trial series have unequal lengths."""


class Cell(NamedTuple):
    """One run of the loop: its trial, its case's index and its generation."""

    trial: int
    case: int
    generation: int

    def seed(self, master_seed: int) -> int:
        """The seed of this cell's backend in a run seeded with ``master_seed``."""
        return mix64(master_seed, *self)


@dataclass
class CellFailure:
    """A cell that did not run to the end, with the records it completed."""

    cell: Cell
    error: str
    trace: LoopTrace


@dataclass
class BenchmarkResult:
    config: BenchmarkConfig
    trials: list[list[tuple[int, int]]]  # per trial, (errors, warnings) totals per iteration
    completed: int  # cells that ran to the end; their counts make the totals
    failures: list[CellFailure] = field(default_factory=list)


@dataclass
class AggregateStats:
    """Per-iteration mean and sample standard deviation (n-1) across trials."""

    mean_errors: list[float]
    std_errors: list[float]
    mean_warnings: list[float]
    std_warnings: list[float]

    def __len__(self) -> int:
        return len(self.mean_errors)

    @classmethod
    def from_dict(cls, data: dict) -> "AggregateStats":
        """Raises TypeError or ValueError unless ``data`` holds exactly the
        four fields as lists of one length of numbers from 0 to the largest
        float (a bool, NaN or Infinity is not one)."""
        stats = cls(**data)
        for column in vars(stats).values():
            if not isinstance(column, list) or len(column) != len(stats.mean_errors) or not all(
                type(v) in (int, float) and 0 <= v <= sys.float_info.max for v in column
            ):
                raise ValueError("each stats field must be a list of numbers in [0, max float], all of one length")
        return stats


def load_cases(path: str | Path) -> list[BenchmarkCase]:
    """Read one prompt per ``*.txt`` file; the id is the filename stem."""
    directory = Path(path)
    if not directory.is_dir():
        raise FileNotFoundError(f"cases directory not found: {directory}")
    cases = [BenchmarkCase.from_file(f) for f in sorted(directory.glob("*.txt"))]
    if not cases:
        raise EmptyDataset(f"no *.txt prompt files under {directory}")
    return cases


class Cells(NamedTuple):
    """What every cell of one run shares, built once per run; it pickles."""

    cases: list[BenchmarkCase]
    store: SchemaStore
    new_backend: Callable[[int], Backend]  # seed -> Backend
    iterations: int
    early_stop: bool


def run_cell(cells: Cells, cell: Cell, seed: int) -> LoopTrace | CellFailure:
    """Run ``cell`` on the backend built from ``seed``.

    A cell that raises is a CellFailure: after a backend failure it holds
    the partial trace, after any other exception an empty one, since one
    cell's fault must not lose the other cells.
    """
    backend, case = cells.new_backend(seed), cells.cases[cell.case]
    try:
        return run_loop(case, backend, cells.store, max_iterations=cells.iterations, early_stop=cells.early_stop,
                        generation_index=cell.generation)
    except BackendFailure as exc:
        return CellFailure(cell, str(exc), exc.trace)
    except Exception as exc:
        return CellFailure(cell, f"{type(exc).__name__}: {exc}", LoopTrace(case.id, cell.generation))


def run_benchmark(cfg: BenchmarkConfig) -> BenchmarkResult:
    """Execute trials x cases x generations cells and sum counts per iteration.

    ``make_backend`` checks the backend's settings once, before any
    directory is made or cell runs; each cell builds its backend from its
    seed alone.  Aborted cells (a backend failure or any other exception
    from the loop) are excluded from totals and listed in ``failures``.  A
    cell that ``early_stop`` ends on a clean report adds 0 for the
    iterations it skips, as clean ones would.
    Outcomes are read in cell order (trial, case, generation), whatever the
    parallelism, each as soon as its cell and those before it have
    finished.  Every cell lints by block, so the cells share the linter's
    process-wide cache and each distinct resource block is checked once.
    With ``traces_dir`` set, each completed cell's ``LoopTrace.text`` is
    rendered as its outcome is read and handed to ``_trace_writer``'s
    thread, which writes the file while the next cells run; a file that
    cannot be written stops the run with the OSError that names it.
    """
    cases = load_cases(cfg.cases_dir)
    store = load_store(cfg.schemas_dir)
    shared = Cells(cases, store, make_backend(cfg, store), cfg.iterations, cfg.early_stop)
    traces = Path(cfg.traces_dir) if cfg.traces_dir else None
    if traces:  # before any cell runs, so a bad path costs no calls
        traces.mkdir(parents=True, exist_ok=True)
    cells = [Cell(*key) for key in product(range(cfg.trials), range(len(cases)), range(cfg.generations_per_case))]
    seeds = [cell.seed(cfg.master_seed) for cell in cells]
    failures: list[CellFailure] = []
    totals = [[(0, 0)] * (cfg.iterations + 1) for _ in range(cfg.trials)]
    with _trace_writer(traces) as write:
        pool = None
        if cfg.parallelism > 1:
            from concurrent.futures import ThreadPoolExecutor  # a serial run does not pay for it

            pool = ThreadPoolExecutor(max_workers=cfg.parallelism)
        try:
            outcomes = (pool.map if pool else map)(run_cell, repeat(shared), cells, seeds)
            for (trial, _, generation), outcome in zip(cells, outcomes):
                if isinstance(outcome, CellFailure):
                    failures.append(outcome)
                    continue
                row = totals[trial]
                for index, (errors, warnings) in enumerate(outcome.counts()):
                    row[index] = (row[index][0] + errors, row[index][1] + warnings)
                if write:
                    write(f"trial{trial:02d}_{outcome.case_id}_gen{generation}.json", outcome.text().encode())
        finally:
            if pool:  # on an exception, cells not yet started never start
                pool.shutdown(cancel_futures=True)

    return BenchmarkResult(
        config=cfg, trials=totals, completed=len(cells) - len(failures), failures=failures
    )


@contextmanager
def _trace_writer(directory: Optional[Path]) -> Iterator[Optional[Callable[[str, bytes], None]]]:
    """Yield ``write(name, data)``, which queues a file's bytes for one
    thread that writes them under ``directory``, in the order given; yield
    None without ``directory``.

    Creating a file can block for half a millisecond on some file systems.
    The thread waits there, with the interpreter lock released, while the
    cells compute.  At most ``_QUEUED_FILES`` wait, so a slow disk holds the
    cells back instead of filling memory.  The thread stops writing at the
    first file it cannot write; the next ``write``, or leaving, raises that
    error.  Leaving, even by an exception, first writes every file queued.
    """
    if not directory:
        yield None
        return
    import queue

    pending: queue.Queue = queue.Queue(_QUEUED_FILES)
    failed: list[Exception] = []

    def drain() -> None:
        for path, data in iter(pending.get, None):
            if not failed:  # after a failure, only empty the queue
                try:
                    path.write_bytes(data)
                except Exception as exc:  # raised in the run's thread; the queue is still emptied
                    failed.append(exc)

    def write(name: str, data: bytes) -> None:
        if failed:
            raise failed[0]
        pending.put((directory / name, data))

    # A daemon: should an interrupt stop ``put(None)`` below, the interpreter
    # must not wait at exit for a thread that is never told to stop.
    writer = threading.Thread(target=drain, name="iacloop-trace-writer", daemon=True)
    writer.start()
    try:
        yield write
    finally:
        pending.put(None)
        writer.join()
    if failed:
        raise failed[0]


_QUEUED_FILES = 8  # about 150 KB of trace text


def aggregate(trials: list[list[tuple[int, int]]]) -> Optional[AggregateStats]:
    """Per-iteration mean and sample std of the trials' (errors, warnings)
    totals; None for fewer than 2 trials, which have no sample std."""
    if len(trials) < 2:
        return None
    length = len(trials[0])
    if any(len(t) != length for t in trials):
        raise LengthMismatch("trials have unequal iteration counts")
    n = len(trials)
    stats = AggregateStats([], [], [], [])
    for i in range(length):
        errors = [t[i][0] for t in trials]
        warnings = [t[i][1] for t in trials]
        for values, means, stds in (
            (errors, stats.mean_errors, stats.std_errors),
            (warnings, stats.mean_warnings, stats.std_warnings),
        ):
            mean = sum(values) / n
            # fsum rounds once, so every Python version writes the same bytes.
            variance = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
            means.append(mean)
            stds.append(math.sqrt(variance))
    return stats


_PLATEAU_EPSILON = 0.02
_PLATEAU_WINDOW = 2


def detect_plateau(means: list[float]) -> Optional[int]:
    """Smallest k such that each of the ``_PLATEAU_WINDOW`` steps from
    means[k] changes by at most ``_PLATEAU_EPSILON`` relative to
    max(means[k], 1); None when no such k exists, as when there are too few
    means to hold the window."""
    for k in range(len(means) - _PLATEAU_WINDOW):
        threshold = _PLATEAU_EPSILON * max(means[k], 1.0)
        if all(abs(means[j] - means[j + 1]) <= threshold for j in range(k, k + _PLATEAU_WINDOW)):
            return k
    return None


def export_csv(stats: AggregateStats, out_path: str | Path) -> None:
    lines = ["iteration,mean_errors,std_errors,mean_warnings,std_warnings"]
    for i in range(len(stats)):
        lines.append(
            f"{i},{stats.mean_errors[i]:.6f},{stats.std_errors[i]:.6f},"
            f"{stats.mean_warnings[i]:.6f},{stats.std_warnings[i]:.6f}"
        )
    Path(out_path).write_text("\n".join(lines) + "\n", encoding="utf-8")


_SVG_WIDTH = 800
_SVG_HEIGHT = 500
_MARGIN_LEFT = 70
_MARGIN_RIGHT = 20
_MARGIN_TOP = 20
_MARGIN_BOTTOM = 60


def export_svg(stats: AggregateStats, out_path: str | Path, include_initial: bool = True) -> None:
    """800x500 bar chart of mean errors per iteration with +/-1 std whiskers."""
    start = 0 if include_initial else 1
    indices = list(range(start, len(stats)))
    means = stats.mean_errors[start:]
    stds = stats.std_errors[start:]
    plot_w = _SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    y_max = max((m + s for m, s in zip(means, stds)), default=0.0)
    if y_max <= 0:
        y_max = 1.0

    def y_for(value: float) -> float:
        return _MARGIN_TOP + plot_h * (1 - value / y_max)

    slot = plot_w / max(len(indices), 1)
    bar_w = slot * 0.7

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">'
    )
    parts.append(f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>')
    # axes
    x0 = _MARGIN_LEFT
    y0 = _MARGIN_TOP + plot_h
    parts.append(
        f'<line x1="{x0}" y1="{_MARGIN_TOP}" x2="{x0}" y2="{y0}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="black"/>'
    )
    # y ticks
    for tick in range(5):
        value = y_max * tick / 4
        y = y_for(value)
        parts.append(f'<line x1="{x0 - 5}" y1="{y:.2f}" x2="{x0}" y2="{y:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{y + 4:.2f}" text-anchor="end" font-size="12">{value:.1f}</text>'
        )
    # bars, whiskers, x tick labels
    for slot_index, (iteration, mean, std) in enumerate(zip(indices, means, stds)):
        cx = x0 + slot * (slot_index + 0.5)
        bx = cx - bar_w / 2
        top = y_for(mean)
        parts.append(
            f'<rect class="bar" x="{bx:.2f}" y="{top:.2f}" width="{bar_w:.2f}" '
            f'height="{y0 - top:.2f}" fill="#4878a8"/>'
        )
        if std > 0:
            hi = y_for(min(mean + std, y_max))
            lo = y_for(max(mean - std, 0.0))
            cap = bar_w * 0.3
            parts.append(
                f'<line class="whisker" x1="{cx:.2f}" y1="{hi:.2f}" x2="{cx:.2f}" y2="{lo:.2f}" stroke="black"/>'
            )
            parts.append(
                f'<line class="whisker-cap" x1="{cx - cap:.2f}" y1="{hi:.2f}" x2="{cx + cap:.2f}" y2="{hi:.2f}" stroke="black"/>'
            )
            parts.append(
                f'<line class="whisker-cap" x1="{cx - cap:.2f}" y1="{lo:.2f}" x2="{cx + cap:.2f}" y2="{lo:.2f}" stroke="black"/>'
            )
        parts.append(
            f'<text x="{cx:.2f}" y="{y0 + 16}" text-anchor="middle" font-size="12">{iteration}</text>'
        )
    # axis labels
    parts.append(
        f'<text x="{x0 + plot_w / 2:.2f}" y="{_SVG_HEIGHT - 15}" text-anchor="middle" '
        f'font-size="14">Iteration</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_TOP + plot_h / 2:.2f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {_MARGIN_TOP + plot_h / 2:.2f})">Total errors</text>'
    )
    parts.append("</svg>")
    Path(out_path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def results_to_dict(result: BenchmarkResult) -> dict:
    """The results file's payload: the run, its aggregate stats and plateau."""
    stats = aggregate(result.trials)
    return {
        "config": result.config.to_dict(),
        "trials": [{"trial_index": t, "per_iteration_totals": row} for t, row in enumerate(result.trials)],
        "stats": vars(stats) if stats is not None else None,
        "plateau_index": detect_plateau(stats.mean_errors) if stats is not None else None,
        "failures": [
            {"trial_index": f.cell.trial, "case_id": f.trace.case_id, "generation_index": f.cell.generation,
             "error": f.error, "records_completed": len(f.trace.records)}
            for f in result.failures
        ],
    }


def write_results(result: BenchmarkResult, out_path: str | Path) -> dict:
    """Write ``results_to_dict(result)`` as JSON and return it."""
    payload = results_to_dict(result)
    Path(out_path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload


def read_results(path: str | Path) -> dict:
    return parse_located(Path(path).read_text(encoding="utf-8")).value
