"""Command line driver for simulation grids.

A grid is a product of response types, covariate counts, and a design
axis: either a list of block counts (the blocking sweep) or a list of
design families (bcrd / pm / pb).  Covariates are drawn once per
(response, p) panel and shared by every design in that panel, and so
is each chunk of outcome draws.  A panel is the unit of work: one
worker draws its covariates, builds its designs, simulates its cells
together (montecarlo.simulate_squared_errors) and summarises them in
row order, so a grid uses at most one worker per panel.  Every
stochastic step runs on a substream keyed by the master seed and its
panel or cell, so a grid is reproducible cell by cell regardless of
worker count or of how panels are scheduled.  A row's runtime_ms is its
design and summary time plus an equal share of its panel's simulation.
Block designs are sorted blockings (designs.build_blocking): bcrd is
B = 1 and pm at p = 1 is B = n, the minimum-cost pairing; pm at p >= 2
is blossom.

Config files are plain ``key=value`` lines with ``#`` comments.  Flags
override config values; the available presets are

* fig1 - blocking sweep, B in {1,...,48}, 100000 replicates per cell,
* fig2 - bcrd vs pairwise matching vs perfect balance, 30000 replicates,
* exp  - the blocking sweep with long-tailed (centered exponential)
         covariates instead of uniform ones.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import sys
import time
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .core import Blocking, CovariateMatrix
from .designs import DesignSpec, build_blocking, greedy_pair_switch
from .matching import mahalanobis_distances, match_heuristic
from . import montecarlo
from .montecarlo import CellConfig, CriterionReport, run_cell
from .response import RESPONSE_KINDS, default_covariate_source, default_model, draw_covariates
from .streams import substream

# A row's result columns are the fields of run_cell's report, in order.
_RESULT_COLUMNS = tuple(field.name for field in fields(CriterionReport))
CSV_COLUMNS = (
    "response", "p", "design", "B", "n_subjects", "n_reps", "seed",
    *_RESULT_COLUMNS, "runtime_ms", "error",
)

# bootstrap_reps is deprecated: it is still accepted and checked, and
# sets nothing.
_KNOWN_KEYS = (
    "preset", "seed", "reps", "n_subjects", "p", "responses", "designs",
    "blocks", "covariates", "bootstrap_reps", "pb_restarts", "workers", "out",
)

_PRESETS = {
    "fig1": {
        "n_subjects": "96",
        "blocks": "1,2,3,4,6,8,12,16,24,48",
        "responses": ",".join(RESPONSE_KINDS),
        "p": "1,2,5",
        "reps": "100000",
        "covariates": "uniform",
    },
    "fig2": {
        "n_subjects": "96",
        "designs": "bcrd,pm,pb",
        "responses": ",".join(RESPONSE_KINDS),
        "p": "1,2,5",
        "reps": "30000",
        "covariates": "uniform",
        "pb_restarts": "10000",
    },
}
_PRESETS["exp"] = dict(_PRESETS["fig1"], covariates="exponential")

# Covariate counts a grid may use.
_P_VALUES = range(1, 6)
# Every panel file name that emit_plot_data may write or remove.
_PANEL_FILES = tuple(f"{resp}_p{p}.csv" for resp in RESPONSE_KINDS for p in _P_VALUES)


class ConfigError(ValueError):
    """Invalid config file or option combination."""


@dataclass(frozen=True)
class ExperimentGrid:
    """A validated grid ready to run."""

    seed: int
    n_reps: int
    n_subjects: int
    responses: tuple[str, ...]
    p_list: tuple[int, ...]
    blocks: tuple[int, ...] | None
    designs: tuple[str, ...] | None
    covariate_family: str
    pb_restarts: int
    workers: int
    out_dir: str


def parse_config(text: str) -> dict[str, str]:
    """Parse ``key=value`` lines; unknown or repeated keys error."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        values[key] = value
    return values


def _parse_int(raw: dict, key: str, default: int | None, minimum: int) -> int:
    if key not in raw:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        value = int(raw[key])
    except ValueError:
        raise ConfigError(f"key {key!r} must be an integer, got {raw[key]!r}")
    if value < minimum:
        raise ConfigError(f"key {key!r} must be >= {minimum}, got {value}")
    return value


def _parse_list(raw_value: str, key: str, cast, allowed=None) -> tuple:
    items = []
    for part in raw_value.split(","):
        part = part.strip()
        try:
            item = cast(part)
        except ValueError:
            raise ConfigError(f"key {key!r}: bad entry {part!r}")
        if allowed is not None and item not in allowed:
            raise ConfigError(f"key {key!r}: {part!r} not in {sorted(allowed)}")
        if item in items:
            # a repeated entry would run every one of its cells twice
            raise ConfigError(f"key {key!r}: entry {part!r} is repeated")
        items.append(item)
    return tuple(items)


def build_grid(config: dict[str, str], overrides: dict[str, str] | None = None) -> ExperimentGrid:
    """Resolve preset defaults, config keys, then explicit overrides."""
    raw = dict(config)
    for key, value in (overrides or {}).items():
        if value is not None:
            if not str(value).strip():  # as for an empty key= line
                raise ConfigError(f"empty value for {key!r}")
            raw[key] = str(value)
    preset = raw.pop("preset", None)
    axis_keys = raw.keys() & {"blocks", "designs"}
    if len(axis_keys) == 2:
        raise ConfigError("specify blocks or designs, not both")
    if preset is not None:
        if preset not in _PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; choose from {sorted(_PRESETS)}"
            )
        defaults = dict(_PRESETS[preset])
        if axis_keys:  # a design axis given explicitly replaces the preset's
            defaults.pop("blocks", None)
            defaults.pop("designs", None)
        raw = {**defaults, **raw}
    if not raw:
        raise ConfigError("empty configuration: give a preset or explicit keys")
    if "blocks" not in raw and "designs" not in raw:
        raise ConfigError("specify a design axis: blocks=... or designs=...")

    seed = _parse_int(raw, "seed", None, 0)
    n_reps = _parse_int(raw, "reps", None, 2)
    n_subjects = _parse_int(raw, "n_subjects", 96, 4)
    if n_subjects % 2:
        raise ConfigError(f"n_subjects must be even, got {n_subjects}")
    responses = _parse_list(
        raw.get("responses", ",".join(RESPONSE_KINDS)), "responses", str,
        allowed=set(RESPONSE_KINDS),
    )
    p_list = _parse_list(raw.get("p", "1"), "p", int, allowed=set(_P_VALUES))
    blocks = designs = None
    if "blocks" in raw:
        blocks = _parse_list(raw["blocks"], "blocks", int)
        for b in blocks:
            if b < 1 or n_subjects % b or (n_subjects // b) % 2:
                raise ConfigError(
                    f"blocks entry {b} does not split {n_subjects} subjects "
                    "into equal even blocks"
                )
    else:
        designs = _parse_list(
            raw["designs"], "designs", str, allowed={"bcrd", "pm", "pb"}
        )
    family = raw.get("covariates", "uniform")
    if family not in ("uniform", "exponential"):
        raise ConfigError(f"covariates must be uniform or exponential, got {family!r}")
    if "bootstrap_reps" in raw:
        # still checked, so a config that was invalid stays invalid
        _parse_int(raw, "bootstrap_reps", None, 1)
        warnings.warn(
            "config key 'bootstrap_reps' is deprecated and sets nothing: the "
            "approx_q95 interval is now a delta-method interval that draws "
            "no resamples",
            FutureWarning,
            stacklevel=2,
        )
    return ExperimentGrid(
        seed=seed,
        n_reps=n_reps,
        n_subjects=n_subjects,
        responses=responses,
        p_list=p_list,
        blocks=blocks,
        designs=designs,
        covariate_family=family,
        pb_restarts=_parse_int(raw, "pb_restarts", 1000, 1),
        workers=_parse_int(raw, "workers", 1, 1),
        out_dir=raw.get("out", "results"),
    )


def _axis(grid: ExperimentGrid) -> list[tuple[str, int]]:
    """(design, B) of each cell of a panel, in row order."""
    if grid.blocks is not None:
        return [("block", b) for b in grid.blocks]
    b_of = {"bcrd": 1, "pm": grid.n_subjects // 2, "pb": 0}
    return [(kind, b_of[kind]) for kind in grid.designs]


def _build_design(
    label: str, b: int, x: CovariateMatrix, grid: ExperimentGrid, cell_id: str
) -> DesignSpec:
    if label == "pb":
        rng = substream(grid.seed, cell_id, "design")
        return DesignSpec.pb(greedy_pair_switch(x, grid.pb_restarts, rng))
    if label == "pm" and x.n_covariates >= 2:
        return DesignSpec.pm(match_heuristic(mahalanobis_distances(x)).pairing)
    blocking = build_blocking(x, b)
    if label == "pm":
        # Blocks draw in id order, so pairs are numbered by their lower
        # member, as the blossom matching numbers them.
        blocking = Blocking.from_pairs(blocking.pairs())
    return DesignSpec(label, blocking)


def _error(exc: Exception) -> str:
    """A failed cell's error column."""
    return f"{type(exc).__name__}: {exc}"


def _run_panel(task: tuple) -> list[dict]:
    """Run one (response, p) panel's cells in row order on one covariate
    draw and one outcome draw per chunk.

    Each cell's design is built first, and a design failure fails only
    its own row.  The cells built are then simulated together by
    montecarlo.simulate_squared_errors, whose exception fails each of
    their rows, and summarized one by one.  A row's runtime_ms is its
    design and summary time plus an equal share of the simulation."""
    grid, response, p = task
    source = default_covariate_source(response, grid.covariate_family)
    rng = substream(grid.seed, "covariates", grid.covariate_family, response, p)
    x = draw_covariates(source, grid.n_subjects, p, rng)
    model = default_model(response, p)
    rows, seconds, built = [], [], []
    for design, b in _axis(grid):
        row = {col: "" for col in CSV_COLUMNS}
        row.update(
            response=response, p=p, design=design, B=b,
            n_subjects=grid.n_subjects, n_reps=grid.n_reps, seed=grid.seed,
        )
        cell_id = f"{response}|p{p}|{design}|B{b}|n{grid.n_subjects}"
        start = time.perf_counter()
        try:
            cfg = CellConfig(
                cell_id=cell_id,
                model=model,
                x=x,
                design=_build_design(design, b, x, grid, cell_id),
                n_reps=grid.n_reps,
                master_seed=grid.seed,
            )
            built.append((len(rows), cfg))
        except Exception as exc:  # noqa: BLE001 - cell failures become rows
            row["error"] = _error(exc)
        seconds.append(time.perf_counter() - start)
        rows.append(row)
    if built:
        # the cell id without its design and B parts
        panel_id = f"{response}|p{p}|n{grid.n_subjects}"
        start = time.perf_counter()
        try:
            samples = montecarlo.simulate_squared_errors([cfg for _, cfg in built], panel_id)
        except Exception as exc:  # noqa: BLE001 - every simulated cell fails
            samples = []
            for i, _ in built:
                rows[i]["error"] = _error(exc)
        share = (time.perf_counter() - start) / len(built)
        for i, _ in built:
            seconds[i] += share
        for (i, cfg), sq in zip(built, samples):
            start = time.perf_counter()
            try:
                rows[i].update(asdict(run_cell(cfg, sq)))
            except Exception as exc:  # noqa: BLE001 - cell failures become rows
                rows[i]["error"] = _error(exc)
            seconds[i] += time.perf_counter() - start
    for row, s in zip(rows, seconds):
        row["runtime_ms"] = round(s * 1000.0, 3)
    return rows


def run_grid(grid: ExperimentGrid) -> list[dict]:
    """Run every cell, one fixed covariate draw per (response, p) panel."""
    panels = [(grid, resp, p) for resp in grid.responses for p in grid.p_list]
    workers = min(grid.workers, len(panels))
    if workers > 1:
        # the fork start method starts every worker at once, so a pool
        # larger than the panel count would only start idle processes
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            return [row for rows in pool.map(_run_panel, panels) for row in rows]
    return [row for panel in panels for row in _run_panel(panel)]


def _write_csv(path: Path, columns: tuple, rows: list[dict]) -> None:
    """Header and rows as UTF-8 with LF endings; csv writes a float as its repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([row[col] for col in columns] for row in rows)


def write_rows(rows: list[dict], path: Path) -> None:
    """Write the long-form results table."""
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(path, CSV_COLUMNS, rows)


def emit_plot_data(rows: list[dict], out_dir: Path) -> list[Path]:
    """One small series file per (response, p) panel, error rows skipped.

    Any other <response>_p<p>.csv in out_dir, left by an earlier run, is
    removed; no other file is touched.
    """
    panels: dict[tuple, list[dict]] = {}
    for row in rows:
        if row["error"]:
            continue
        panels.setdefault((row["response"], row["p"]), []).append(row)
    # the quantile figures and their intervals
    columns = ("design", "B", *(col for col in _RESULT_COLUMNS if "q95" in col))
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for (resp, p), series in sorted(panels.items()):
        path = out_dir / f"{resp}_p{p}.csv"
        _write_csv(path, columns, series)
        written.append(path)
    for name in _PANEL_FILES:
        if out_dir / name not in written:
            (out_dir / name).unlink(missing_ok=True)
    return written


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="twoarm",
        description="Run a two-arm design simulation grid and write CSV results.",
    )
    parser.add_argument("config", nargs="?", help="path to a key=value config file")
    parser.add_argument("--preset", choices=sorted(_PRESETS), help="named grid")
    parser.add_argument("--seed", type=int, help="master seed (required somewhere)")
    parser.add_argument("--reps", type=int, help="replicates per cell")
    parser.add_argument("--workers", type=int, help="parallel panel workers")
    parser.add_argument("--out", help="output directory (default: results)")
    args = parser.parse_args(argv)

    try:
        config: dict[str, str] = {}
        if args.config is not None:
            config = parse_config(Path(args.config).read_text(encoding="utf-8-sig"))
        overrides = {
            "preset": args.preset,
            "seed": args.seed,
            "reps": args.reps,
            "workers": args.workers,
            "out": args.out,
        }
        grid = build_grid(config, overrides)
        out_dir = Path(grid.out_dir)
        # an unusable output path fails here, before any cell runs
        (out_dir / "panels").mkdir(parents=True, exist_ok=True)
        for path in [out_dir / "results.csv", *(out_dir / "panels" / f for f in _PANEL_FILES)]:
            if path.is_dir():
                raise IsADirectoryError(f"{path} is a directory")
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: {args.config} is not UTF-8 text: {exc}", file=sys.stderr)
        return 2

    rows = run_grid(grid)
    write_rows(rows, out_dir / "results.csv")
    panel_files = emit_plot_data(rows, out_dir / "panels")
    failures = [row for row in rows if row["error"]]
    for row in rows:
        status = row["error"] or f"emp_q95={row['emp_q95']!r}"
        print(
            f"{row['response']} p={row['p']} {row['design']} B={row['B']}: {status}"
        )
    print(
        f"wrote {len(rows)} rows to {out_dir / 'results.csv'} "
        f"and {len(panel_files)} panel files; {len(failures)} failed cells"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
