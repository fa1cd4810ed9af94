import csv
import dataclasses
import hashlib
import math
import time
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
        "bootstrap_reps": "200",
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
        assert grid.bootstrap_reps == 200
        assert grid.pb_restarts == 1000
        assert grid.workers == 1
        assert grid.out_dir == "results"

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
            f"p=1\nblocks=1,2\nbootstrap_reps=100\nout={out}\n",
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
            "p=1\nblocks=1\nbootstrap_reps=100\n",
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
            + f"p=1\nblocks=1\nbootstrap_reps=100\nout={out}\n".encode("utf-8")
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
            "p=1\nblocks=1\nbootstrap_reps=100\n",
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
            f"p=1\nblocks=1\nbootstrap_reps=100\nout={afile}\n",
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
            f"p=1\nblocks=1\nbootstrap_reps=100\nout={out}\n",
            encoding="utf-8",
        )
        assert main([str(cfg)]) == 2
        assert ran == []
        assert str(blocker) in capsys.readouterr().err

    def test_failing_cells_exit_one(self, tmp_path, monkeypatch, capsys):
        def boom(cfg, sq=None):
            raise RuntimeError("cell exploded")

        monkeypatch.setattr("twoarm.cli.run_cell", boom)
        out = tmp_path / "run"
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "seed=7\nreps=300\nn_subjects=8\nresponses=continuous\n"
            f"p=1\nblocks=1\nbootstrap_reps=100\nout={out}\n",
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
                "daccf725078323249593c97aaf05359252466bf349f0ffd31785c8fd369fa66f",
                "d0abfb3e7fff92f3e9e7069c83a3e414627819f8c96cfd87b9d27b7483fd4a53",
            ),
            "incidence": (
                "bc5bb1c68e1d595a03e6eee7c22fc7b9aac4714a784708830621d5e5ace16814",
                "148630a6733414959587f54f50998b704b029bd4923668fc050a46fa80f8333d",
            ),
            "proportion": (
                "94e7069e1d2587e2cebd74cdf8210d6ab7d25d45926897f2e7b6ad389d8d5561",
                "012e8db959dece7252168b3a535192ca048c359d438cb05acb4567abc110a8e9",
            ),
            "count": (
                "afd111d17644a155248a20740dfa4bcddf4457bf0a0e8cd49c442766c21aed64",
                "a16b65341a037d33ef2ff13ce0f5a120f5176d94e7e6b4140b6ec4f203b4fe1f",
            ),
            "survival": (
                "4f3d729f6fd7a02971d7dc7396f835a7d535fd6d722835bdbadd4364a8e4134d",
                "cdc028b77838bac832c926c4a99f91b755a1a52c87bc88c1fa8ce714eed101f8",
            ),
        },
        "uniform": {
            "continuous": (
                "0eb1e59e862bb1f2adcb3a625858f5631ec930120867475a2876824d04ac10ec",
                "7e5f0304f6a70909ede518712c1099520404bb843fc1e395ccef0a733018f3b1",
            ),
            "incidence": (
                "384ede28bce9eca3c38db568217038330a118e3cb415258de69926910d90a702",
                "501e93e235d698594d15046a898753f4218b5109652fcfdb4a02a60c38af176b",
            ),
            "proportion": (
                "fc69b1a0b497e47bb30198e80d1765f31929ee255a3aacd9ebc55bf8281482b6",
                "0a7c4eeb5408792fd488e5d15e330cfd661ac5b6af292050b587880d02c016db",
            ),
            "count": (
                "94359ca16babead3dad8c8753a1e7b6751c953f7b840bc15752e0213746f7edc",
                "87839a882d0d2e42b819072941409f9a94485a92917f73f17e3ddaf18e36c859",
            ),
            "survival": (
                "19ac76e3b7149a24ff1ef06f3d485aa8201601da33287fec66e9b427839e9474",
                "b655c7ac1be90b3576e2b0a5ada317029e95d6907b704a8cd494a7a1be1c5280",
            ),
        },
    }

    def _run(self, tmp_path, axis, family):
        out = tmp_path / "out"
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            f"seed=2024\nreps=300\nn_subjects=16\np=1\n{axis}\n"
            f"covariates={family}\nbootstrap_reps=60\nout={out}\n",
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
            "bbedc2585573df483caa18d0ce86c9597d0880ee04aab4179b7b1b606bf742f3",
            "3defa4a4617987efd9e69d18fd5b164b14a20e9ad5832177207db225138f92fa",
        ),
        "incidence": (
            "4c78e1dc56a5e09df33796a277a076466b57c4324895ee95aa0910381449948d",
            "ceed5542b2b12b96291a229e665dd3161e7e9a7aec86da1eb0b32fd7336b0b4b",
        ),
        "proportion": (
            "859a31cf9ff754945ba190a7b051fb9c1b776b692fa0be17020967b4facb18f8",
            "4738d1027a059f22e87b3a27f2d28dcc5b32bce8254435cd506aa9fc5ba8623a",
        ),
        "count": (
            "d6567779a4b75f9e361f6b74ef7202f998e33e26afc80ef3caea68a801f5f71a",
            "a4acc746019a6a5f5d83c2fa2b882ef0f42dd226eb8ccce4ab7f945bd3b9b70d",
        ),
        "survival": (
            "41a8a0e5eace06651d78955c96b1b2cbd9605fb30885fddf216fdd18a3767fc6",
            "01f99a7bc2c0dd2542fb0acebd8bbcf560d127eb6bcd81c71030f8ade42570b3",
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
