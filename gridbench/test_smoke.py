"""Smoke test of the grid benchmark at tiny scale.

    python3 -m pytest gridbench/test_smoke.py -q

Runs every workload shape untraced and traced, and checks metric names
and units against BENCHMARK.json, the output gate, and that the digest
of results.csv is the same traced and untraced and at one and two
workers.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import twoarm.cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def _bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


def _run(workload: str, trace: int) -> tuple[dict, list[str]]:
    proc = _bench(
        "--workload", workload, "--seed", str(SEED), "--seconds", "0.1",
        "--trace", str(trace), "--scale", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    digests = next(line for line in lines if line.startswith("digest ")).split()[1:]
    return json.loads(lines[-1]), digests


def _assert_metrics(result: dict, listed: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    units = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_workload_list_matches_the_benchmark_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_untraced_and_traced(workload):
    plain, plain_digests = _run(workload, trace=0)
    _assert_metrics(plain, SPEC["end_to_end"])
    traced, traced_digests = _run(workload, trace=1)
    _assert_metrics(traced, SPEC["per_layer"])
    # exp_wide_w2 runs at two workers untraced and at one worker traced
    assert len(plain_digests) == 1
    assert traced_digests == plain_digests
    text = run.config_text(workload, SEED, "tiny", 1)
    cells = len(gate.expected_cells(twoarm.cli.build_grid(twoarm.cli.parse_config(text))))
    spans = traced["metrics"]
    assert spans["montecarlo.run_cell.calls"]["value"] == cells
    assert spans["cli.run_grid.calls"]["value"] == 1
    assert plain["attempted"] % cells == 0


def _tiny_grid(tmp_path: Path):
    text = run.config_text("fig2_design", SEED, "tiny", 1).replace(
        "out = out", f"out = {tmp_path / 'out'}"
    )
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(text)
    assert twoarm.cli.main([str(cfg)]) == 0
    return twoarm.cli.build_grid(twoarm.cli.parse_config(text)), tmp_path / "out" / "results.csv"


def _rewrite(path: Path, change) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    change(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=twoarm.cli.CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def test_gate_passes_real_output_and_flags_each_defect(tmp_path):
    grid, results = _tiny_grid(tmp_path)
    report = gate.check_grid(results, grid)
    assert (report.cells, report.failed) == (18, 0), report.problems
    pristine = results.read_text()

    def bcrd_mean_far_off(rows):
        row = next(r for r in rows if r["design"] == "bcrd")
        row["mean_sq_err"] = repr(float(row["mean_sq_err"]) * 3.0)

    def pb_below_floor(rows):
        next(r for r in rows if r["design"] == "pb")["mean_sq_err"] = "0.0"

    def interval_reversed(rows):
        row = rows[0]
        row["emp_q95_lo"], row["emp_q95_hi"] = row["emp_q95_hi"], row["emp_q95_lo"]

    def not_finite(rows):
        rows[1]["approx_q95"] = "nan"

    def approx_off_formula(rows):
        row = rows[4]
        row["approx_q95"] = repr(float(row["approx_q95"]) * (1 + 1e-9))

    def sd_inflated(rows):
        # consistent with the formula, but not with the bootstrap interval
        row = next(r for r in rows if r["design"] == "pm")
        sd = 2.0 * float(row["sd_sq_err"])
        row["sd_sq_err"] = repr(sd)
        row["approx_q95"] = repr(float(row["mean_sq_err"]) + gate.C_95 * sd)

    def emp_outside_interval(rows):
        rows[5]["emp_q95"] = repr(float(rows[5]["emp_q95_hi"]) * 1.5)

    def emp_past_cantelli(rows):
        row = rows[6]
        far = repr(float(row["mean_sq_err"]) + 5.0 * float(row["sd_sq_err"]))
        row["emp_q95"] = row["emp_q95_lo"] = row["emp_q95_hi"] = far

    def error_column(rows):
        rows[2]["error"] = "ValueError: boom"

    def row_missing(rows):
        del rows[3]

    for defect in (bcrd_mean_far_off, pb_below_floor, interval_reversed,
                   not_finite, approx_off_formula, sd_inflated,
                   emp_outside_interval, emp_past_cantelli, error_column,
                   row_missing):
        results.write_text(pristine)
        _rewrite(results, defect)
        report = gate.check_grid(results, grid)
        assert report.failed == 1, (defect.__name__, report.problems)
        assert report.problems, defect.__name__

    results.write_text(pristine)
    _rewrite(results, lambda rows: rows.reverse())
    assert gate.check_grid(results, grid).failed == 18


def test_digest_ignores_runtimes_only(tmp_path):
    _, results = _tiny_grid(tmp_path)
    before = gate.results_digest(results)
    _rewrite(results, lambda rows: rows[0].update(runtime_ms="1.0"))
    assert gate.results_digest(results) == before
    _rewrite(results, lambda rows: rows[0].update(emp_q95="1.0"))
    assert gate.results_digest(results) != before


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(
        "--workload", "fig2_design", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / HERE.name / "run.py",
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
