import csv
import dataclasses
import hashlib
import math
import time
import warnings
from pathlib import Path

import pytest

import twoarm.cli as cli
import twoarm.montecarlo
from twoarm.cli import (
    CSV_COLUMNS,
    ConfigError,
    _axis,
    build_grid,
    emit_plot_data,
    main,
    parse_config,
    run_grid,
    write_rows,
)
from twoarm.montecarlo import CriterionReport
from twoarm.response import (
    RESPONSE_KINDS,
    default_covariate_source,
    draw_covariates,
    draw_outcomes,
)
from twoarm.streams import substream


def _micro_config(**extra):
    base = {
        "seed": "11",
        "reps": "400",
        "n_subjects": "8",
        "responses": "continuous",
        "p": "1",
        "blocks": "1,2",
    }
    base.update({k: str(v) for k, v in extra.items()})
    return base


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _strip_runtime(rows: list[dict]) -> list[dict]:
    return [{k: v for k, v in row.items() if k != "runtime_ms"} for row in rows]


class TestParseConfig:
    def test_values_comments_and_blanks(self):
        text = "\n".join(
            [
                "# blocking sweep",
                "",
                "seed = 7",
                "blocks=1,2,4  # axis",
                "out=run1",
            ]
        )
        assert parse_config(text) == {"seed": "7", "blocks": "1,2,4", "out": "run1"}

    def test_unknown_key_reports_the_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("seed=1\nspeed=2\n")

    def test_duplicate_key_reports_the_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("seed=1\nreps=10\nseed=2\n")

    def test_empty_value_and_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("seed=\n")
        with pytest.raises(ConfigError, match="expected key=value"):
            parse_config("just some words\n")


class TestBuildGrid:
    def test_fig1_preset(self):
        grid = build_grid({"preset": "fig1", "seed": "5"})
        assert grid.n_subjects == 96
        assert grid.blocks == (1, 2, 3, 4, 6, 8, 12, 16, 24, 48)
        assert grid.designs is None
        assert grid.responses == RESPONSE_KINDS
        assert grid.p_list == (1, 2, 5)
        assert grid.n_reps == 100_000
        assert grid.covariate_family == "uniform"

    def test_fig2_preset(self):
        grid = build_grid({"preset": "fig2", "seed": "5"})
        assert grid.designs == ("bcrd", "pm", "pb")
        assert grid.blocks is None
        assert grid.n_reps == 30_000
        assert grid.pb_restarts == 10_000

    def test_exp_preset_switches_the_covariate_family(self):
        grid = build_grid({"preset": "exp", "seed": "5"})
        assert grid.covariate_family == "exponential"
        assert grid.blocks == build_grid({"preset": "fig1", "seed": "5"}).blocks

    def test_config_beats_preset_and_overrides_beat_config(self):
        grid = build_grid({"preset": "fig1", "seed": "5", "reps": "500"})
        assert grid.n_reps == 500
        grid = build_grid(
            {"preset": "fig1", "seed": "5", "reps": "500"}, {"reps": 250}
        )
        assert grid.n_reps == 250
        # a config's design axis replaces the preset's, whichever it is
        grid = build_grid({"preset": "fig2", "seed": "5", "blocks": "1,2"})
        assert (grid.blocks, grid.designs, grid.n_reps) == ((1, 2), None, 30_000)
        grid = build_grid({"preset": "fig1", "seed": "5", "designs": "pm"})
        assert (grid.blocks, grid.designs) == (None, ("pm",))

    def test_defaults(self):
        grid = build_grid(_micro_config())
        assert grid.pb_restarts == 1000
        assert grid.workers == 1
        assert grid.out_dir == "results"

    def test_bootstrap_reps_is_deprecated_and_sets_nothing(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            grid = build_grid(_micro_config(bootstrap_reps="200"))
        assert [w.category for w in caught] == [FutureWarning]
        message = str(caught[0].message)
        assert "'bootstrap_reps'" in message and "sets nothing" in message
        assert grid == build_grid(_micro_config())
        assert not hasattr(grid, "bootstrap_reps")
        # still checked as a count >= 1
        for bad, match in (("0", ">= 1, got 0"), ("many", "must be an integer")):
            with pytest.raises(ConfigError, match=match):
                build_grid(_micro_config(bootstrap_reps=bad))

    def test_no_warning_without_bootstrap_reps(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_grid(_micro_config())
            build_grid({"preset": "fig2", "seed": "5"})

    def test_axis_is_exclusive_and_required(self):
        with pytest.raises(ConfigError, match="not both"):
            build_grid(_micro_config(designs="bcrd"))
        with pytest.raises(ConfigError, match="not both"):
            build_grid({"preset": "fig2", "seed": "5", "blocks": "1", "designs": "pm"})
        cfg = _micro_config()
        del cfg["blocks"]
        with pytest.raises(ConfigError, match="design axis"):
            build_grid(cfg)

    def test_seed_and_reps_are_required(self):
        cfg = _micro_config()
        del cfg["seed"]
        with pytest.raises(ConfigError, match="seed"):
            build_grid(cfg)
        cfg = _micro_config()
        del cfg["reps"]
        with pytest.raises(ConfigError, match="reps"):
            build_grid(cfg)

    def test_block_divisibility(self):
        with pytest.raises(ConfigError, match="blocks entry 3"):
            build_grid(_micro_config(blocks="1,3"))
        # eight subjects in eight blocks would need odd blocks of one
        with pytest.raises(ConfigError, match="blocks entry 8"):
            build_grid(_micro_config(blocks="8"))

    def test_value_validation(self):
        with pytest.raises(ConfigError, match="preset"):
            build_grid({"preset": "fig9", "seed": "1"})
        with pytest.raises(ConfigError, match="responses"):
            build_grid(_micro_config(responses="ordinal"))
        with pytest.raises(ConfigError, match="'p'"):
            build_grid(_micro_config(p="6"))
        with pytest.raises(ConfigError, match="covariates"):
            build_grid(_micro_config(covariates="cauchy"))
        with pytest.raises(ConfigError, match="reps"):
            build_grid(_micro_config(reps="1"))
        with pytest.raises(ConfigError, match="seed"):
            build_grid(_micro_config(seed="-1"))
        with pytest.raises(ConfigError, match="n_subjects"):
            build_grid(_micro_config(n_subjects="9"))
        with pytest.raises(ConfigError, match="integer"):
            build_grid(_micro_config(reps="many"))
        with pytest.raises(ConfigError, match="^key 'p': bad entry 'x'$"):
            build_grid(_micro_config(p="1,x"))
        with pytest.raises(ConfigError, match="empty configuration"):
            build_grid({})

    def test_empty_override_is_rejected(self):
        # an unset "$OUTDIR" passed as --out would write into the cwd
        for key in ("out", "seed", "preset"):
            with pytest.raises(ConfigError, match=f"empty value for '{key}'"):
                build_grid(_micro_config(), {key: ""})
        with pytest.raises(ConfigError, match="empty value for 'out'"):
            build_grid(_micro_config(), {"out": "  "})

    def test_repeated_list_entries_are_rejected(self):
        # each repeat would run its cells again under the same cell ids
        with pytest.raises(ConfigError, match="'responses': entry 'continuous' is repeated"):
            build_grid(_micro_config(responses="continuous,continuous"))
        with pytest.raises(ConfigError, match="'p': entry '1' is repeated"):
            build_grid(_micro_config(p="1,1"))
        with pytest.raises(ConfigError, match="'blocks': entry '2' is repeated"):
            build_grid(_micro_config(blocks="1,2,2"))
        cfg = _micro_config(designs="pm,bcrd,pm")
        del cfg["blocks"]
        with pytest.raises(ConfigError, match="'designs': entry 'pm' is repeated"):
            build_grid(cfg)


def _cells(grid) -> list[tuple]:
    return [
        (resp, p, design, b)
        for resp in grid.responses
        for p in grid.p_list
        for design, b in _axis(grid)
    ]


class TestTasks:
    def test_blocking_sweep_counts(self):
        grid = build_grid({"preset": "fig1", "seed": "5"})
        cells = _cells(grid)
        assert len(cells) == 5 * 3 * 10
        assert {design for _, _, design, _ in cells} == {"block"}
        assert sorted({b for *_, b in cells}) == [1, 2, 3, 4, 6, 8, 12, 16, 24, 48]

    def test_design_comparison_counts_and_b_labels(self):
        grid = build_grid({"preset": "fig2", "seed": "5"})
        cells = _cells(grid)
        assert len(cells) == 5 * 3 * 3
        b_of = {design: b for _, _, design, b in cells}
        assert b_of == {"bcrd": 1, "pm": 48, "pb": 0}


class TestRunGrid:
    def test_micro_grid_rows(self):
        rows = run_grid(build_grid(_micro_config()))
        assert len(rows) == 2
        for row in rows:
            assert row["error"] == ""
            assert row["response"] == "continuous"
            assert row["design"] == "block"
            assert row["n_subjects"] == 8
            assert row["n_reps"] == 400
            assert row["seed"] == 11
            assert row["mean_sq_err"] > 0
            assert row["emp_q95_lo"] <= row["emp_q95"] <= row["emp_q95_hi"]
            assert row["runtime_ms"] > 0
        assert [row["B"] for row in rows] == [1, 2]

    def test_rows_are_deterministic_apart_from_runtimes(self):
        grid = build_grid(_micro_config())
        a = _strip_runtime(run_grid(grid))
        b = _strip_runtime(run_grid(grid))
        assert a == b

    def test_design_axis_builds_all_three_families(self):
        cfg = _micro_config(pb_restarts=50, reps=200)
        del cfg["blocks"]
        cfg["designs"] = "bcrd,pm,pb"
        rows = run_grid(build_grid(cfg))
        assert [(row["design"], row["B"]) for row in rows] == [
            ("bcrd", 1), ("pm", 4), ("pb", 0),
        ]
        assert all(row["error"] == "" for row in rows)

    def test_worker_count_does_not_change_results(self):
        # two panels, so that two workers really start a pool
        grid = build_grid(_micro_config(p="1,2"))
        parallel = dataclasses.replace(grid, workers=2)
        assert _strip_runtime(run_grid(grid)) == _strip_runtime(run_grid(parallel))

    def test_worker_pool_is_capped_at_the_panel_count(self, monkeypatch):
        sizes = []

        class RecordingPool:
            """Records the requested pool size and runs panels in-process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        grid = build_grid(_micro_config(workers=5000, p="1,2"))
        rows = run_grid(grid)
        assert sizes == [2]
        serial = dataclasses.replace(grid, workers=1)
        assert _strip_runtime(rows) == _strip_runtime(run_grid(serial))
        # one panel, here of two cells, needs no pool at all
        run_grid(build_grid(_micro_config(workers=3)))
        assert sizes == [2]

    def test_covariates_are_drawn_once_per_panel(self, monkeypatch):
        drawn = []

        def counting_draw(source, n_subjects, n_covariates, rng):
            drawn.append((source.half_width, n_covariates))
            return draw_covariates(source, n_subjects, n_covariates, rng)

        monkeypatch.setattr(cli, "draw_covariates", counting_draw)
        responses = ("continuous", "incidence")
        grid = build_grid(_micro_config(responses=",".join(responses), p="1,2"))
        rows = run_grid(grid)
        assert len(rows) == 2 * 2 * 2
        assert drawn == [
            (default_covariate_source(resp).half_width, p)
            for resp in responses
            for p in (1, 2)
        ]

    def test_cell_failures_become_error_rows(self, monkeypatch):
        def boom(cfg, sq=None):
            raise RuntimeError("cell exploded")

        monkeypatch.setattr("twoarm.cli.run_cell", boom)
        rows = run_grid(build_grid(_micro_config()))
        assert all(row["error"] == "RuntimeError: cell exploded" for row in rows)
        assert all(row["mean_sq_err"] == "" for row in rows)

    def test_a_failing_outcome_draw_fails_only_its_own_panel(self, monkeypatch):
        grid = build_grid(_micro_config(responses="continuous,incidence", p="1,2"))
        clean = run_grid(grid)

        def draw(model, mu, rng, n_draws):
            if model.kind == "incidence" and model.n_covariates == 2:
                raise RuntimeError("draw exploded")
            return draw_outcomes(model, mu, rng, n_draws)

        monkeypatch.setattr(twoarm.montecarlo, "draw_outcomes", draw)
        rows = run_grid(grid)
        failed = [(r["response"], r["p"]) for r in rows if r["error"]]
        assert failed == [("incidence", 2)] * 2
        for got, want in zip(_strip_runtime(rows), _strip_runtime(clean)):
            if (got["response"], got["p"]) == ("incidence", 2):
                assert got["error"] == "RuntimeError: draw exploded"
                assert got["mean_sq_err"] == ""
            else:
                assert got == want

    def test_runtimes_share_out_the_panel_wall_time(self):
        grid = build_grid(_micro_config(blocks="1,2,4"))
        start = time.perf_counter()
        rows = cli._run_panel((grid, "continuous", 1))
        wall_ms = (time.perf_counter() - start) * 1000.0
        runtimes = [row["runtime_ms"] for row in rows]
        assert len(runtimes) == 3
        assert all(math.isfinite(ms) and ms >= 0 for ms in runtimes)
        assert sum(runtimes) <= wall_ms

    def test_a_failing_design_fails_only_its_own_rows(self, monkeypatch):
        cfg = _micro_config(pb_restarts=20, reps=200, p="1,2")
        del cfg["blocks"]
        cfg["designs"] = "bcrd,pm,pb"
        grid = build_grid(cfg)
        clean = run_grid(grid)

        def boom(x, restarts, rng):
            raise RuntimeError("search exploded")

        monkeypatch.setattr(cli, "greedy_pair_switch", boom)
        rows = run_grid(grid)
        assert [row["design"] for row in rows] == ["bcrd", "pm", "pb"] * 2
        for row, before in zip(rows, clean):
            if row["design"] == "pb":
                assert row["error"] == "RuntimeError: search exploded"
                assert row["mean_sq_err"] == ""
            else:
                assert before["error"] == ""
                assert _strip_runtime([row]) == _strip_runtime([before])


class TestCsvOutput:
    def test_results_round_trip(self, tmp_path):
        rows = run_grid(build_grid(_micro_config()))
        path = tmp_path / "results.csv"
        write_rows(rows, path)
        back = _read_csv(path)
        assert list(back[0].keys()) == list(CSV_COLUMNS)
        assert len(back) == 2
        # repr round-trips every float exactly
        assert float(back[0]["mean_sq_err"]) == rows[0]["mean_sq_err"]
        assert back[0]["error"] == ""

    def test_repeat_runs_write_identical_bytes_apart_from_runtimes(self, tmp_path):
        grid = build_grid(_micro_config())
        paths = []
        for tag in ("a", "b"):
            path = tmp_path / f"{tag}.csv"
            write_rows(run_grid(grid), path)
            paths.append(path)
        strip = CSV_COLUMNS.index("runtime_ms")
        cleaned = []
        for path in paths:
            with open(path, encoding="utf-8", newline="") as fh:
                cleaned.append(
                    [line[:strip] + line[strip + 1 :] for line in csv.reader(fh)]
                )
        assert cleaned[0] == cleaned[1]

    def test_panel_files_are_byte_identical(self, tmp_path):
        grid = build_grid(_micro_config())
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            files = emit_plot_data(run_grid(grid), out)
            assert [f.name for f in files] == ["continuous_p1.csv"]
            blobs.append(files[0].read_bytes())
        assert blobs[0] == blobs[1]

    def test_rerun_removes_panel_files_it_did_not_write(self, tmp_path):
        rows = run_grid(build_grid(_micro_config()))
        survival = [dict(row, response="survival") for row in rows]
        emit_plot_data(rows + survival, tmp_path)
        (tmp_path / "notes.txt").write_text("kept\n", encoding="utf-8")
        (tmp_path / "continuous_p6.csv").write_text("kept\n", encoding="utf-8")
        files = emit_plot_data(rows, tmp_path)
        assert [f.name for f in files] == ["continuous_p1.csv"]
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "continuous_p1.csv", "continuous_p6.csv", "notes.txt",
        ]
        # a panel whose every cell failed leaves no file behind either
        failed = [dict(row, error="RuntimeError: boom") for row in rows]
        assert emit_plot_data(failed, tmp_path) == []
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "continuous_p6.csv", "notes.txt",
        ]

    def test_panel_files_skip_error_rows(self, tmp_path):
        rows = run_grid(build_grid(_micro_config()))
        rows[1] = dict(rows[1], error="RuntimeError: boom")
        files = emit_plot_data(rows, tmp_path)
        table = _read_csv(files[0])
        assert len(table) == 1
        assert list(table[0].keys())[:2] == ["design", "B"]


class TestMain:
    def test_end_to_end_with_config_file(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "seed=7\nreps=300\nn_subjects=8\nresponses=continuous\n"
            f"p=1\nblocks=1,2\nout={out}\n",
            encoding="utf-8",
        )
        assert main([str(cfg)]) == 0
        table = _read_csv(out / "results.csv")
        assert len(table) == 2
        assert (out / "panels" / "continuous_p1.csv").exists()
        printed = capsys.readouterr().out
        assert "wrote 2 rows" in printed and "0 failed cells" in printed

    def test_flag_overrides_reach_the_grid(self, tmp_path):
        out = tmp_path / "run"
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "seed=7\nreps=300\nn_subjects=8\nresponses=continuous\n"
            "p=1\nblocks=1\n",
            encoding="utf-8",
        )
        assert main([str(cfg), "--reps", "200", "--out", str(out)]) == 0
        table = _read_csv(out / "results.csv")
        assert table[0]["n_reps"] == "200"

    def test_config_errors_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("seed=1\nspeed=2\n", encoding="utf-8")
        assert main([str(bad)]) == 2
        assert "unknown key" in capsys.readouterr().err
        assert main([str(tmp_path / "missing.cfg")]) == 2
        assert main(["--preset", "fig1"]) == 2  # no seed anywhere

    def test_config_with_a_byte_order_mark_runs(self, tmp_path):
        out = tmp_path / "run"
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(
            b"\xef\xbb\xbfseed=7\nreps=300\nn_subjects=8\nresponses=continuous\n"
            + f"p=1\nblocks=1\nout={out}\n".encode("utf-8")
        )
        assert main([str(cfg)]) == 0
        assert _read_csv(out / "results.csv")[0]["seed"] == "7"

    def test_config_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"seed=1 # caf\xe9\n")
        assert main([str(cfg)]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "not UTF-8" in err

    def test_empty_out_flag_exits_two_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "seed=7\nreps=300\nn_subjects=8\nresponses=continuous\n"
            "p=1\nblocks=1\n",
            encoding="utf-8",
        )
        assert main([str(cfg), "--out", ""]) == 2
        assert "empty value for 'out'" in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == ["grid.cfg"]

    def test_output_path_that_is_a_file_exits_two_before_any_cell(
        self, tmp_path, monkeypatch, capsys
    ):
        ran = []
        monkeypatch.setattr(cli, "run_grid", lambda grid: ran.append(grid) or [])
        afile = tmp_path / "afile"
        afile.write_text("not a directory\n", encoding="utf-8")
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "seed=7\nreps=300\nn_subjects=8\nresponses=continuous\n"
            f"p=1\nblocks=1\nout={afile}\n",
            encoding="utf-8",
        )
        assert main([str(cfg)]) == 2
        assert ran == []
        assert str(afile) in capsys.readouterr().err
        assert afile.read_text(encoding="utf-8") == "not a directory\n"

    @pytest.mark.parametrize("name", ["panels", "results.csv"])
    def test_unusable_output_file_exits_two_before_any_cell(
        self, tmp_path, monkeypatch, capsys, name
    ):
        # panels as a file, or results.csv as a directory, cannot be written
        ran = []
        monkeypatch.setattr(cli, "run_grid", lambda grid: ran.append(grid) or [])
        out = tmp_path / "run"
        out.mkdir()
        blocker = out / name
        if name == "panels":
            blocker.write_text("not a directory\n", encoding="utf-8")
        else:
            blocker.mkdir()
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "seed=7\nreps=300\nn_subjects=8\nresponses=continuous\n"
            f"p=1\nblocks=1\nout={out}\n",
            encoding="utf-8",
        )
        assert main([str(cfg)]) == 2
        assert ran == []
        assert str(blocker) in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["continuous_p1.csv", "survival_p5.csv"])
    def test_panel_file_that_is_a_directory_exits_two_before_any_cell(
        self, tmp_path, capsys, name
    ):
        # a panel file the grid writes, or one it removes as stale:
        # emit_plot_data would meet either only after every cell had run
        out = tmp_path / "run"
        blocker = out / "panels" / name
        blocker.mkdir(parents=True)
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "seed=7\nreps=300\nn_subjects=8\nresponses=continuous\n"
            f"p=1\nblocks=1\nout={out}\n",
            encoding="utf-8",
        )
        assert main([str(cfg)]) == 2
        assert f"error: {blocker} is a directory" in capsys.readouterr().err
        assert not (out / "results.csv").exists()
        assert blocker.is_dir()

    def test_failing_cells_exit_one(self, tmp_path, monkeypatch, capsys):
        def boom(cfg, sq=None):
            raise RuntimeError("cell exploded")

        monkeypatch.setattr("twoarm.cli.run_cell", boom)
        out = tmp_path / "run"
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "seed=7\nreps=300\nn_subjects=8\nresponses=continuous\n"
            f"p=1\nblocks=1\nout={out}\n",
            encoding="utf-8",
        )
        assert main([str(cfg)]) == 1
        assert "1 failed cells" in capsys.readouterr().out
        table = _read_csv(out / "results.csv")
        assert table[0]["error"] == "RuntimeError: cell exploded"


def _response_digests(out: Path) -> dict[str, tuple[str, str]]:
    """Per response of a p=1 grid's output: the SHA-256 of its
    results.csv rows, header first, without runtime_ms (kept fields
    joined by US, 0x1f, one LF per row, as gridbench's gate digests a
    file), and the SHA-256 of its panel file's bytes."""
    with open(out / "results.csv", encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    drop, col = header.index("runtime_ms"), header.index("response")

    def line(row):
        return ("\x1f".join(row[:drop] + row[drop + 1 :]) + "\n").encode("utf-8")

    digests = {}
    for kind in dict.fromkeys(row[col] for row in rows):
        h = hashlib.sha256(line(header))
        for row in rows:
            if row[col] == kind:
                h.update(line(row))
        panel = (out / "panels" / f"{kind}_p1.csv").read_bytes()
        digests[kind] = (h.hexdigest(), hashlib.sha256(panel).hexdigest())
    return digests


class TestPinnedOutputBytes:
    """Output bytes of three micro grids, pinned by digest per response.

    2n=16, every response, p=1, designs bcrd and pm or the blocking
    sweep B in {1, 2, 4, 8}, so no value in the output passes through a
    BLAS-summed product.  Each response has its own pair of digests (its
    results.csv rows and its panel file), so a change to one response's
    stream moves only that response's pins.  Recorded with numpy 2.4.6;
    a numpy whose random streams or reductions differ changes these
    digests without any change to twoarm.
    """

    PINNED = {
        "exponential": {
            "continuous": (
                "5435c3c5b265d7b901c62a07f8381bf629a143f9ce0bd13d2255ba425e6362a7",
                "b2bf8a9cb146fb908f75623d6f6b75a7ff5f69fee317843fcdf4084cfa605f3e",
            ),
            "incidence": (
                "62fe36af0faf351c88555330646f50f5569a833ea460e633d300993fa54d9fa7",
                "b41b9bd74ea8085ce99393f04b83f8a7a4e89344254b13028e8a25aafceb343f",
            ),
            "proportion": (
                "6cb985ee83f90a5437d43fd7e57d17c614e91d89b2c94f4ec36cffc808c1e6ac",
                "f3a061a6f9b8cf77f7246d67f0878dc553055446454723f60d273f69b6519acf",
            ),
            "count": (
                "31182d76c90ac03bfe0c7042d508817732ecf928f92aae31ce1c5fc0272f2a99",
                "3b36cbdd90f52c7c42dfe039f333ffc3a2d4447387a5636738ba40507624c703",
            ),
            "survival": (
                "f1b5a467786312bce5a7b9c7bbaddff64af8e9368d9e5def535ff9c92489e251",
                "924b846bb21be18a9fca315a35bcf5b8fe65f1ed9f352125fa26e5983b8db7df",
            ),
        },
        "uniform": {
            "continuous": (
                "3a432af3d818ea82dc50f9f3e9f27b28107070428a7ae132892c163439bf0026",
                "2499cc73e012581253ba43f7f8630593f9c50036fc771496ab39c873895a760c",
            ),
            "incidence": (
                "89e27c1d50b9b9fbf921f4628421fd8d4a2de81d7c2719e4dcf0eb2f03e09d32",
                "3b3f84af7bd87943bb3f1c0191b036fbb7efeee93c415d406b4603f26af28f0d",
            ),
            "proportion": (
                "733dbd160553baba7cac3c46d9d76a624970b349ca258e3cbf774bd11289ecf1",
                "50e906e33c39c9ffb6eea4bf798cf0a474ef3b7940e5a831eaa36e57bfd66ec7",
            ),
            "count": (
                "9d93542f318dac93ba97b3cc7cb0ba3e2602941bbdfd50e4eeb06c3b491bb7fd",
                "5cacb3d586384b4f6635ff28c049400cb0c68b3865027628a5c2e4a27de83ec2",
            ),
            "survival": (
                "70cc19cd768a7b819fbdfca6bc9b50135eef461e2f50d1e36a2fab72b00ecb4e",
                "fb9eb832a03d26346ee2602cfb889b9a5f0804ac7cc691748a3d27d7d1b22a96",
            ),
        },
    }

    def _run(self, tmp_path, axis, family):
        out = tmp_path / "out"
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            f"seed=2024\nreps=300\nn_subjects=16\np=1\n{axis}\n"
            f"covariates={family}\nout={out}\n",
            encoding="utf-8",
        )
        assert main([str(cfg)]) == 0
        names = sorted(path.name for path in (out / "panels").glob("*.csv"))
        assert names == sorted(f"{kind}_p1.csv" for kind in RESPONSE_KINDS)
        return _response_digests(out)

    @pytest.mark.parametrize("family", sorted(PINNED))
    def test_micro_grid_bytes_match_the_pinned_digests(self, family, tmp_path):
        digests = self._run(tmp_path, "designs=bcrd,pm", family)
        assert digests == self.PINNED[family]

    # The same micro grid, run as a p=1 blocking sweep.
    PINNED_SWEEP = {
        "continuous": (
            "d65eda5fec7911b66ac5ba172f277cb73dc6e3425d9e0e69193b7d2df4b3b7c9",
            "d400aeae4425150f797073e8a31f75b4864aea91a81ed8469a78ba92ee3ebfe1",
        ),
        "incidence": (
            "84d94d4d58e02891f255773c542a11917117fb876e8f4cdec02c018f0c621dbf",
            "fdc30f1884868ebf91f94ee49285ec14208dfc719bb2c8902f8168829d4e8197",
        ),
        "proportion": (
            "7ded5e85a953b90a99a11bda89fde99e5141ec5f80fc63b3349cc7c05f11dbb7",
            "a5c86e5022a13f93a592d4422a81fca7044dd9342f5b6ffe954548da70323918",
        ),
        "count": (
            "8e935cd74e15df6beabaae081b44824fda93e758a07704a2fcec421814953ad6",
            "05eb0f3422afd224a18916a6bf606cf09b8df014de7f4a1ee896f36cf6d16ec5",
        ),
        "survival": (
            "37f281f7bd6559b4f2aaa8f03dc65e95f32d6d2695956372a5dc224de4865b4e",
            "883b59f821583ccc3e79872da49b83a1a3eb25d436200ecc84e52954bb3c6260",
        ),
    }

    def test_blocking_sweep_bytes_match_the_pinned_digests(self, tmp_path):
        digests = self._run(tmp_path, "blocks=1,2,4,8", "uniform")
        assert digests == self.PINNED_SWEEP


def _grid_designs(n_subjects: int, p_list: str, designs: str):
    """(label, p, spec) of each continuous cell, with every panel drawn
    and every design built as _run_panel builds them."""
    grid = build_grid(
        {
            "seed": "2024", "reps": "2", "n_subjects": str(n_subjects),
            "responses": "continuous", "p": p_list, "designs": designs,
            "pb_restarts": "8",
        }
    )
    for p in grid.p_list:
        source = default_covariate_source("continuous", grid.covariate_family)
        rng = substream(grid.seed, "covariates", grid.covariate_family, "continuous", p)
        x = draw_covariates(source, grid.n_subjects, p, rng)
        for label, b in _axis(grid):
            cell_id = f"continuous|p{p}|{label}|B{b}|n{grid.n_subjects}"
            yield label, p, cli._build_design(label, b, x, grid, cell_id)


def _design_picks_digest(n_subjects: int) -> str:
    """SHA-256 of the integer design picks of a continuous grid: blossom
    pairings at p=2 and 5 (block ids, int64 LE) and pb's w* at p=1, 2
    and 5 (signs, int8), with 8 restarts."""
    h = hashlib.sha256()
    for label, p, spec in _grid_designs(n_subjects, "1,2,5", "pm,pb"):
        if label == "pm" and p == 1:
            continue  # sorted neighbours, not blossom
        if label == "pm":
            picks = spec.blocking.block_of.astype("<i8")
        else:
            picks = spec.w_star.signs.astype("<i1")
        h.update(f"{label}|p{p}\0".encode("utf-8") + picks.tobytes())
    return h.hexdigest()


def _sorted_block_ids_digest(n_subjects: int) -> str:
    """SHA-256 of the block ids (int64 LE) of bcrd and of pm at p=1.

    The ids, not only the pairs, are pinned: sample_allocations draws
    the blocks in id order, so relabelling the pairs moves every draw.
    """
    h = hashlib.sha256()
    for label, p, spec in _grid_designs(n_subjects, "1", "bcrd,pm"):
        ids = spec.blocking.block_of.astype("<i8")
        h.update(f"{label}|p{p}\0".encode("utf-8") + ids.tobytes())
    return h.hexdigest()


class TestPinnedDesignPicks:
    """Blossom pairings, pb picks and sorted block ids of the grid path,
    pinned by digest.

    At p >= 2 blossom and pb pass through BLAS-summed products, so a
    numpy or BLAS whose sums round differently can move a pick without
    any change to twoarm.  Recorded with numpy 2.4.6.
    """

    PINNED = {
        16: "9b4d273e41df7da3047171038f03e7ca1f08f85572a083b14895c5c5f9590b7b",
        96: "1ab8aaf16cd3631b070b4fed0147a9171b838a7eec7c4a935eb2c83c7bbea0c6",
    }

    @pytest.mark.parametrize("n_subjects", sorted(PINNED))
    def test_picks_match_the_pinned_digests(self, n_subjects):
        assert _design_picks_digest(n_subjects) == self.PINNED[n_subjects]

    PINNED_SORTED = {
        16: "c86e77996caf3f5450e2507b89c7cd78d8949d5b22e8293d517be8fde62650fa",
        96: "97f1272a4e39acfbb62960d9e1f12491e7b82282143a3109d96f00a8d8cfe2cb",
    }

    @pytest.mark.parametrize("n_subjects", sorted(PINNED_SORTED))
    def test_sorted_block_ids_match_the_pinned_digests(self, n_subjects):
        assert _sorted_block_ids_digest(n_subjects) == self.PINNED_SORTED[n_subjects]


def test_report_fields_are_the_csv_result_columns():
    # _run_panel fills the result columns straight from the report
    first, last = CSV_COLUMNS.index("seed") + 1, CSV_COLUMNS.index("runtime_ms")
    fields = tuple(f.name for f in dataclasses.fields(CriterionReport))
    assert fields == CSV_COLUMNS[first:last]
