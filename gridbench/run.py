"""Grid benchmark for twoarm.

Runs the real grid path, ``twoarm.cli.main`` on a generated ``key=value``
config, for one named workload.  Every grid runs in a fresh interpreter
(``grid_child.py``), every output is checked (``gate.py``), and the last
line of stdout is one JSON object:

    python3 gridbench/run.py --workload fig2_design --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
same grid at one worker, untraced and then traced, and reports the
per-layer metrics.  Run it from any directory; it reads ``src/`` and
writes only under ``.gridbench_runs/`` of the checkout that holds it.
See gridbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "grid_child.py"
WORK = ROOT / ".gridbench_runs"
DIGESTS = WORK / "digests.json"

# Checking claims uses this seed, which no tuning of the benchmark used.
HELD_OUT_SEED = 20260917
# Grids per run at least, so that every run has a digest to compare;
# more run while the next one would still end within --seconds.
MIN_GRIDS = 2
# The host's speed drifts by up to ~1.6x over minutes (a shared 2-core
# VM), so times are reported at a fixed reference speed.  A run times
# the reference kernel in grid_child.py before its first grid and after
# each grid, once per grid worker at the same time, and multiplies its
# times by REFERENCE_S over the median of those times.  REFERENCE_S is
# the kernel's typical time on that host, alone and two at once.
REFERENCE_S = {1: 2.4, 2: 2.75}
# Every child is killed once the run is this old, so that a run ends
# within three minutes even if the program hangs.
RUN_DEADLINE_S = 170.0
# Left unset in every child, so BLAS threading stays the library default.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

_ALL_BLOCKS = "1,2,3,4,6,8,12,16,24,48"
_ALL_RESPONSES = "continuous,incidence,proportion,count,survival"
# Each workload is a reduced preset.  "full" is what the benchmark
# measures; "tiny" keeps the shape at a size the smoke test can afford.
WORKLOADS = {
    "fig2_design": {
        "workers": 1,
        "full": dict(
            n_subjects=96, responses="continuous,survival", p="1,2,5",
            designs="bcrd,pm,pb", covariates="uniform",
            reps=2500, bootstrap_reps=1000, pb_restarts=2000,
        ),
        "tiny": dict(
            n_subjects=16, responses="continuous,survival", p="1,2,5",
            designs="bcrd,pm,pb", covariates="uniform",
            reps=400, bootstrap_reps=100, pb_restarts=20,
        ),
    },
    "fig1_sweep": {
        "workers": 1,
        "full": dict(
            n_subjects=96, responses="continuous,proportion", p="1",
            blocks=_ALL_BLOCKS, covariates="uniform",
            reps=12500, bootstrap_reps=1000, pb_restarts=1000,
        ),
        "tiny": dict(
            n_subjects=16, responses="continuous,proportion", p="1",
            blocks="1,2,4,8", covariates="uniform",
            reps=2000, bootstrap_reps=100, pb_restarts=20,
        ),
    },
    "exp_wide_w2": {
        "workers": 2,
        "full": dict(
            n_subjects=96, responses=_ALL_RESPONSES, p="1,2,5",
            blocks=_ALL_BLOCKS, covariates="exponential",
            reps=1000, bootstrap_reps=1000, pb_restarts=1000,
        ),
        "tiny": dict(
            n_subjects=16, responses=_ALL_RESPONSES, p="1,2",
            blocks="1,2,4,8", covariates="exponential",
            reps=300, bootstrap_reps=100, pb_restarts=20,
        ),
    },
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "grid_s": "s",
    "reps_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not measure the program."""


def config_text(workload: str, seed: int, scale: str, workers: int) -> str:
    """The grid config a workload runs; outputs go to ./out."""
    keys = dict(WORKLOADS[workload][scale], seed=seed, workers=workers, out="out")
    lines = [f"# {workload} workload, {scale} scale"]
    lines += [f"{key} = {value}" for key, value in keys.items()]
    return "\n".join(lines) + "\n"


def run_children(mode: str, config: Path, run_dir: Path, deadline: float,
                 count: int = 1) -> list[dict]:
    """Run grid_child.py ``count`` times at once, each in its own
    directory, and return their reports.

    ``setup_s`` is added to grid reports: the time from spawning the
    interpreter to the end of its set-up.
    """
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    started = []
    try:
        for _ in range(count):
            child_dir = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=run_dir))
            cmd = [sys.executable, str(CHILD), str(SRC), str(config),
                   str(child_dir / "child.json"), mode]
            with open(child_dir / "stdout.txt", "wb") as out, open(
                child_dir / "stderr.txt", "wb"
            ) as err:
                spawned = time.monotonic()
                proc = subprocess.Popen(
                    cmd, cwd=child_dir, env=env, stdout=out, stderr=err,
                    start_new_session=True,
                )
            started.append((proc, child_dir, spawned))
        for proc, _, _ in started:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} run passed the {RUN_DEADLINE_S:g} s deadline")
    finally:
        for proc, _, _ in started:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    reports = []
    for proc, child_dir, spawned in started:
        report = child_dir / "child.json"
        if proc.returncode != 0 or not report.is_file():
            tail = (child_dir / "stderr.txt").read_text(errors="replace")[-2000:]
            raise BenchError(f"{mode} run exited with {proc.returncode}:\n{tail}")
        data = json.loads(report.read_text(encoding="utf-8"))
        if "ready" in data:
            data["setup_s"] = data["ready"] - spawned
        data["dir"] = child_dir
        reports.append(data)
    return reports


class DigestBook:
    """Digests of results.csv (minus runtimes) per workload, seed and source.

    Stored in the checkout, so every run of the same code on the same
    seed is held to the first digest it produced, whatever the worker
    count or trace mode.
    """

    def __init__(self, key: str):
        self.key = key
        self.book = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        self.reference = self.book.get(key)

    def matches(self, digest: str) -> bool:
        if self.reference is None:
            self.reference = digest
            self.book[self.key] = digest
            tmp = DIGESTS.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.book, indent=1, sort_keys=True))
            os.replace(tmp, DIGESTS)
        return digest == self.reference


def _source_fingerprint() -> str:
    """Hash of the twoarm sources and of the benchmark's own code."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "twoarm").rglob("*.py"), *CHILD.parent.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def digest_key(workload: str, seed: int, scale: str, fingerprint: str) -> str:
    """Runs that must give the same results.csv share this key: the same
    workload config (at any worker count), sources and numpy version."""
    import numpy

    config = hashlib.sha256(config_text(workload, seed, scale, 1).encode()).hexdigest()
    return f"{workload}|{scale}|{seed}|{fingerprint}|{config[:16]}|numpy {numpy.__version__}"


class Checker:
    """Gates and digests every grid a run makes, and tallies cells."""

    def __init__(self, grid, book: DigestBook):
        import gate

        self.gate = gate
        self.grid = grid
        self.book = book
        self.cells_per_grid = len(gate.expected_cells(grid))
        self.attempted = 0
        self.failed = 0
        self.max_abs_z = 0.0
        self.digests: list[str] = []
        self.problems: list[str] = []

    def check(self, child: dict) -> None:
        gate = self.gate
        results = child["dir"] / "out" / "results.csv"
        report = gate.check_grid(results, self.grid)
        self.attempted += report.cells
        self.max_abs_z = max(self.max_abs_z, report.max_abs_z)
        self.problems += report.problems
        failed = report.failed
        if results.is_file():
            digest = gate.results_digest(results)
            self.digests.append(digest)
            if not self.book.matches(digest):
                failed = report.cells
                self.problems.append(
                    f"digest {digest[:16]} differs from {self.book.reference[:16]}"
                )
        self.failed += failed
        shutil.rmtree(child["dir"])


def _grid_s(child: dict) -> float:
    return child["end"] - child["ready"]


@dataclasses.dataclass
class Session:
    """What every grid of one run shares."""

    config: Path
    run_dir: Path
    deadline: float
    workers: int
    checker: Checker

    def reference_s(self) -> float:
        """Mean time of the reference kernel, run once per grid worker at
        once, so that it meets the same contention as the grid."""
        children = run_children("reference", self.config, self.run_dir,
                                self.deadline, count=self.workers)
        for child in children:
            shutil.rmtree(child["dir"])
        return statistics.fmean(c["elapsed_s"] for c in children)

    def grids(self, seconds: float, minimum: int, ahead: int = 1,
              mode: str = "grid") -> tuple[list[dict], list[float]]:
        """Run and check grids, with a reference run before the first and
        after each, at least ``minimum`` times, then while ``ahead`` more
        grids, each as long as the last, would still end within ``seconds``.

        Returns the grid reports and the reference times.
        """
        started = time.monotonic()
        references = [self.reference_s()]
        done = []
        while True:
            begun = time.monotonic()
            child = run_children(mode, self.config, self.run_dir, self.deadline)[0]
            self.checker.check(child)
            references.append(self.reference_s())
            done.append(child)
            now = time.monotonic()
            if len(done) >= minimum and now + ahead * (now - begun) - started > seconds:
                return done, references

    def speed(self, references: list[float]) -> float:
        """REFERENCE_S over the median reference time.  A time times this
        factor is the time at the reference host speed."""
        return REFERENCE_S[self.workers] / statistics.median(references)


def _note(grids: list[dict], references: list[float]) -> str:
    return (
        "grid_s as measured " + " ".join(f"{_grid_s(c):.3f}" for c in grids)
        + ", reference_s " + " ".join(f"{r:.3f}" for r in references)
    )


def measure(seconds: float, session: Session) -> tuple[dict, str]:
    """End-to-end metrics: set-up time, grid wall and CPU time, memory."""
    grids, references = session.grids(seconds, MIN_GRIDS)
    speed = session.speed(references)
    replicates = session.checker.cells_per_grid * session.checker.grid.n_reps
    grid_s = statistics.median(_grid_s(c) for c in grids) * speed
    metrics = {
        "setup_s": statistics.median(c["setup_s"] for c in grids) * speed,
        "grid_s": grid_s,
        "reps_per_s": replicates / grid_s,
        "cpu_s": statistics.median(c["cpu_s"] for c in grids) * speed,
        "peak_rss_mb": statistics.median(c["peak_rss_kib"] / 1024.0 for c in grids),
    }
    units = END_TO_END_UNITS
    note = f"medians of {len(grids)} grids; " + _note(grids, references)
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, note


def trace(seconds: float, session: Session) -> tuple[dict, str]:
    """Per-layer metrics from one traced grid at one worker."""
    # leave room in --seconds for the traced grid
    plain, plain_references = session.grids(seconds, 1, ahead=2)
    (traced,), references = session.grids(0.0, 1, mode="trace")
    speed = session.speed(references)
    metrics = {}
    for name, span in traced["spans"].items():
        for key, value in span.items():
            if key.endswith("_s"):
                metrics[f"{name}.{key}"] = {"value": value * speed, "unit": "s"}
            else:
                metrics[key if "." in key else f"{name}.{key}"] = {"value": value, "unit": "count"}
    metrics["cli.output_bytes"] = {"value": traced["output_bytes"], "unit": "bytes"}
    # as measured: the grids run back to back, and scaling each by its own
    # reference runs would add their noise
    overhead = _grid_s(traced) / statistics.median(_grid_s(c) for c in plain) - 1.0
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    note = (
        f"one traced grid against the median of {len(plain)} untraced grids; "
        f"untraced {_note(plain, plain_references)}; traced {_note([traced], references)}"
    )
    return metrics, note


def _openblas_version() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def run_metadata(text: str, grid, fingerprint: str) -> dict:
    import networkx
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "blas": _openblas_version(),
        "git_revision": _git_revision(),
        "source_fingerprint": fingerprint,
        "blas_thread_vars_inherited": {
            k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ
        },
        "blas_thread_vars_in_children": "unset",
        "held_out_seed": HELD_OUT_SEED,
        "reference_s": REFERENCE_S,
        "config": text,
        "resolved_grid": dataclasses.asdict(grid),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--scale", default="full", choices=("full", "tiny"),
        help="tiny runs each workload's shape at smoke-test size",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "twoarm" / "cli.py").is_file():
        print(f"error: no twoarm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import twoarm.cli

    deadline = time.monotonic() + RUN_DEADLINE_S
    workers = 1 if args.trace else WORKLOADS[args.workload]["workers"]
    text = config_text(args.workload, args.seed, args.scale, workers)
    grid = twoarm.cli.build_grid(twoarm.cli.parse_config(text))
    fingerprint = _source_fingerprint()
    book = DigestBook(digest_key(args.workload, args.seed, args.scale, fingerprint))
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        config = run_dir / "grid.cfg"
        config.write_text(text, encoding="utf-8")
        checker = Checker(grid, book)
        session = Session(config, run_dir, deadline, workers, checker)
        step = trace if args.trace else measure
        metrics, note = step(args.seconds, session)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"meta {json.dumps(run_metadata(text, grid, fingerprint), sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} scale {args.scale}: {note}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']!r} {m['unit']}")
    ratio = checker.failed / checker.attempted
    print(f"  {'cell_fail_ratio':<44} {ratio!r} ({checker.failed}/{checker.attempted} cells)")
    print(f"gate: max |z| {checker.max_abs_z:.3f} over bcrd and block cells")
    for problem in list(dict.fromkeys(checker.problems))[:20]:
        print(f"gate: {problem}")
    print(f"digest {' '.join(sorted(set(checker.digests)))}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
