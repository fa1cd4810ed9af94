"""Output gate and determinism digest for one grid run.

A cell fails the gate when

* its row is missing or its ``error`` column is non-empty;
* a value is not finite, or an interval has lo > hi;
* it is a bcrd or block cell whose ``mean_sq_err`` lies more than
  ``Z_LIMIT`` standard errors (``sd_sq_err / sqrt(n_reps)``) from the
  closed form ``criteria.mean_mse`` on the rebuilt panel;
* it is a pm or pb cell whose ``mean_sq_err`` lies more than ``Z_LIMIT``
  standard errors below the noise floor ``sum(rho) / 4n^2``;
* ``approx_q95`` differs from ``mean_sq_err + 1.645 * sd_sq_err``, the
  paper's normal approximation with its rounded constant;
* ``emp_q95`` or ``approx_q95`` lies outside its own bootstrap interval.
  The intervals resample the replicates and recompute each statistic,
  sd included, so a wrong ``sd_sq_err`` or quantile moves the point
  estimate out of them;
* ``emp_q95`` breaks the one-sided Chebyshev (Cantelli) bounds that hold
  for the 0.95 order statistic of any sample with that mean and sd:
  ``mean - sd/sqrt(19) <= emp_q95 <= mean + sd*sqrt(19)``.

The panel is rebuilt from public twoarm functions exactly as the grid
runner draws it: one covariate matrix per (response, p) on the
``("covariates", family, response, p)`` substream.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

from twoarm.criteria import CriterionInputs, mean_mse
from twoarm.designs import DesignSpec, build_blocking, design_covariance
from twoarm.response import (
    default_covariate_source,
    default_model,
    draw_covariates,
    potential_means,
    residual_variances,
)
from twoarm.streams import substream

Z_LIMIT = 5.0
# The normal approximation's constant for q = 0.95, as the paper rounds it.
C_95 = 1.645
# Cantelli's inequality for the ceil(0.95 N)-th order statistic: at least
# 5% of the sample lies at or above it and 95% at or below it.
CANTELLI_HI = math.sqrt(0.95 / 0.05)
CANTELLI_LO = math.sqrt(0.05 / 0.95)
RUNTIME_COLUMN = "runtime_ms"
_FINITE_COLUMNS = (
    "mean_sq_err", "sd_sq_err",
    "emp_q95", "emp_q95_lo", "emp_q95_hi",
    "approx_q95", "approx_q95_lo", "approx_q95_hi",
    "runtime_ms",
)


@dataclass
class GateReport:
    """Cells checked, cells failed, and why the first few failed."""

    cells: int = 0
    failed: int = 0
    max_abs_z: float = 0.0
    problems: list[str] = field(default_factory=list)

    def fail(self, cell: str, why: str) -> None:
        self.failed += 1
        self.problems.append(f"{cell}: {why}")


def expected_cells(grid) -> list[tuple[str, int, str, int]]:
    """(response, p, design, B) of every cell, in the runner's row order."""
    if grid.blocks is not None:
        axis = [("block", b) for b in grid.blocks]
    else:
        b_of = {"bcrd": 1, "pm": grid.n_subjects // 2, "pb": 0}
        axis = [(d, b_of[d]) for d in grid.designs]
    return [
        (resp, p, design, b)
        for resp in grid.responses
        for p in grid.p_list
        for design, b in axis
    ]


def results_digest(path: Path) -> str:
    """SHA-256 of results.csv with the runtime column removed."""
    h = hashlib.sha256()
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        drop = header.index(RUNTIME_COLUMN)
        for row in [header, *reader]:
            kept = row[:drop] + row[drop + 1 :]
            h.update(("\x1f".join(kept) + "\n").encode("utf-8"))
    return h.hexdigest()


class _Panels:
    """Closed-form inputs per (response, p) panel, built once each."""

    def __init__(self, grid):
        self.grid = grid
        self._cache: dict = {}

    def get(self, resp: str, p: int):
        key = (resp, p)
        if key not in self._cache:
            g = self.grid
            source = default_covariate_source(resp, g.covariate_family)
            rng = substream(g.seed, "covariates", g.covariate_family, resp, p)
            x = draw_covariates(source, g.n_subjects, p, rng)
            model = default_model(resp, p)
            mu_t, mu_c = potential_means(model, x)
            rho = residual_variances(model, mu_t, mu_c)
            self._cache[key] = (x, mu_t + mu_c, rho)
        return self._cache[key]


def _cell_problem(row: dict, grid, panels: _Panels, report: GateReport) -> str | None:
    if row["error"]:
        return f"error column: {row['error']}"
    if (int(row["n_reps"]), int(row["seed"]), int(row["n_subjects"])) != (
        grid.n_reps, grid.seed, grid.n_subjects
    ):
        return "n_reps, seed or n_subjects differ from the config"
    try:
        v = {c: float(row[c]) for c in _FINITE_COLUMNS}
    except ValueError as exc:
        return f"unparsable value: {exc}"
    bad = [c for c in _FINITE_COLUMNS if not math.isfinite(v[c])]
    if bad:
        return f"non-finite {', '.join(bad)}"
    for stem in ("emp_q95", "approx_q95"):
        if v[stem + "_lo"] > v[stem + "_hi"]:
            return f"{stem} interval has lo > hi"
    if v["mean_sq_err"] < 0 or v["sd_sq_err"] < 0:
        return "negative mean_sq_err or sd_sq_err"
    se = v["sd_sq_err"] / math.sqrt(grid.n_reps)
    x, mu, rho = panels.get(row["response"], int(row["p"]))
    design, b = row["design"], int(row["B"])
    if design in ("bcrd", "block"):
        spec = (
            DesignSpec.bcrd(grid.n_subjects) if design == "bcrd"
            else DesignSpec.block(build_blocking(x, b))
        )
        exact = mean_mse(CriterionInputs(mu, rho, design_covariance(spec)))
        z = (v["mean_sq_err"] - exact) / se if se > 0 else math.inf
        report.max_abs_z = max(report.max_abs_z, abs(z))
        if abs(z) > Z_LIMIT:
            return f"mean_sq_err {v['mean_sq_err']!r} is {z:+.2f} SE from {exact!r}"
    else:
        n = grid.n_subjects // 2
        floor = float(rho.sum()) / (4.0 * n * n)
        if v["mean_sq_err"] < floor - Z_LIMIT * se:
            return f"mean_sq_err {v['mean_sq_err']!r} below the noise floor {floor!r}"
    return _summary_problem(v)


def _summary_problem(v: dict) -> str | None:
    """Checks that tie the quantile figures to mean_sq_err and sd_sq_err."""
    mean, sd, emp = v["mean_sq_err"], v["sd_sq_err"], v["emp_q95"]
    approx = mean + C_95 * sd
    if not math.isclose(v["approx_q95"], approx, rel_tol=1e-12):
        return f"approx_q95 {v['approx_q95']!r} is not mean + {C_95} sd = {approx!r}"
    for stem in ("emp_q95", "approx_q95"):
        if not v[stem + "_lo"] <= v[stem] <= v[stem + "_hi"]:
            return f"{stem} {v[stem]!r} lies outside its interval"
    slack = 1e-9 * mean
    if not mean - CANTELLI_LO * sd - slack <= emp <= mean + CANTELLI_HI * sd + slack:
        return f"emp_q95 {emp!r} breaks the Cantelli bounds for mean {mean!r}, sd {sd!r}"
    return None


def check_grid(results: Path, grid) -> GateReport:
    """Gate every expected cell of one results.csv."""
    expected = expected_cells(grid)
    report = GateReport(cells=len(expected))
    if not results.is_file():
        report.fail("grid", f"{results.name} was not written")
        report.failed = report.cells
        return report
    with open(results, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    keys = [(r["response"], int(r["p"]), r["design"], int(r["B"])) for r in rows]
    present = set(keys)
    if keys != [k for k in expected if k in present]:
        # extra, repeated or reordered rows break the row-order contract
        report.fail("grid", "rows are repeated, unexpected or out of order")
        report.failed = report.cells
        return report
    by_key = dict(zip(keys, rows))
    panels = _Panels(grid)
    for key in expected:
        cell = "{} p={} {} B={}".format(*key)
        row = by_key.get(key)
        why = "row missing" if row is None else _cell_problem(row, grid, panels, report)
        if why is not None:
            report.fail(cell, why)
    return report
