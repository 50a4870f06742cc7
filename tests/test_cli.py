"""End-to-end subcommand behavior on temp directories."""

import functools
import gc
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import demgranulo
from demgranulo.cli import RunConfig, main
from demgranulo.dem import Dem, scale_heights
from demgranulo.synth import synthetic_terrain


@pytest.fixture()
def fixture_dir(tmp_path):
    fx = tmp_path / "fx"
    assert main(["gen-fixtures", "--out-dir", str(fx)]) == 0
    return fx


def write_row_fixture(path: Path):
    path.write_text(Dem.from_rows([[2, 5, 5, 2, 2]]).to_fixture_csv())


class TestSpectrumCommand:
    def test_exact_csv_rows(self, tmp_path):
        src = tmp_path / "demo.csv"
        write_row_fixture(src)
        out = tmp_path / "out"
        assert main(["spectrum", str(src), "--out-dir", str(out)]) == 0
        text = (out / "demo.spectrum.B4.csv").read_text()
        assert text == "n,volume,p\n0,16,6/16\n1,10,0\n2,10,10/16\n"

    def test_summary_metadata(self, tmp_path):
        src = tmp_path / "demo.csv"
        write_row_fixture(src)
        out = tmp_path / "out"
        main(["spectrum", str(src), "--out-dir", str(out)])
        doc = json.loads((out / "demo.summary.json").read_text())
        assert doc["gi"]["B4"] == pytest.approx(0.661563)
        assert doc["metadata"]["pad_convention"] == "zero-outside-domain"
        assert doc["metadata"]["entropy_log"] == "natural"
        assert doc["metadata"]["quantize_step"] == 1.0
        assert doc["n0"]["B4"] == 3

    def test_constant_raster_zero_index(self, tmp_path):
        src = tmp_path / "flat.csv"
        src.write_text(Dem.from_rows([[2, 2], [2, 2]]).to_fixture_csv())
        out = tmp_path / "out"
        assert main(["spectrum", str(src), "--out-dir", str(out)]) == 0
        doc = json.loads((out / "flat.summary.json").read_text())
        assert all(v == 0.0 for v in doc["gi"].values())

    def test_missing_file_fails_batch_survives(self, tmp_path, capsys):
        src = tmp_path / "ok.csv"
        write_row_fixture(src)
        out = tmp_path / "out"
        code = main(["spectrum", str(src), str(tmp_path / "absent.asc"),
                     "--out-dir", str(out)])
        assert code == 1
        assert (out / "ok.summary.json").exists()
        assert "absent.asc" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        src = tmp_path / "demo.csv"
        write_row_fixture(src)
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            main(["spectrum", str(src), "--out-dir", str(out)])
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outs[0] == outs[1]

    def test_parallel_matches_serial(self, fixture_dir, tmp_path):
        inputs = sorted(str(p) for p in fixture_dir.glob("reflection_0*.csv"))
        serial, parallel = tmp_path / "s", tmp_path / "p"
        assert main(["spectrum", *inputs, "--out-dir", str(serial)]) == 0
        assert main(["spectrum", *inputs, "--out-dir", str(parallel),
                     "--parallel", "3"]) == 0
        a = {p.name: p.read_bytes() for p in sorted(serial.iterdir())}
        b = {p.name: p.read_bytes() for p in sorted(parallel.iterdir())}
        assert a == b

    def test_config_file_flags_override(self, tmp_path):
        src = tmp_path / "grid.asc"
        src.write_text(Dem.from_rows([[1, 2], [3, 4]]).to_esri_ascii())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"datum": 1.0, "out_dir": str(tmp_path / "cfgout")}))
        assert main(["spectrum", str(src), "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "cfgout" / "grid.summary.json").read_text())
        assert doc["metadata"]["quantize_datum"] == 1.0
        # explicit flag beats the file
        assert main(["spectrum", str(src), "--config", str(cfg),
                     "--datum", "0.0", "--out-dir", str(tmp_path / "o2")]) == 0
        doc2 = json.loads((tmp_path / "o2" / "grid.summary.json").read_text())
        assert doc2["metadata"]["quantize_datum"] == 0.0

    # config text -> the error it prints
    BAD_CONFIGS = {
        '[1]': "{cfg}: config must be a JSON object",
        '"x"': "{cfg}: config must be a JSON object",
        'null': "{cfg}: config must be a JSON object",
        '{"directions": 5}': "directions must be a string or a list of names",
        '{"directions": [5]}': "unknown direction 5",
        '{"directions": {"row": 1}}': "directions must be a string or a list of names",
        # two faults: the first check in order names its key
        '{"directions": ["row", "row"], "out_dir": 5}': "directions names row twice",
        '{"step": true, "out_dir": 5}': "out_dir must be a string, got 5",
        '{"parallel": true, "step": "nan"}': "parallel must be an integer, got True",
        '{"step": -1, "parallel": 0}': "step must be positive and finite, got -1.0",
        '{"max_oracle_work": -1, "parallel": 0}': "parallelism degree must be >= 1",
    }

    @pytest.mark.parametrize("command", ["spectrum", "oracle-check"])
    @pytest.mark.parametrize("text", list(BAD_CONFIGS))
    def test_bad_config_is_an_error(self, tmp_path, capsys, monkeypatch, command, text):
        monkeypatch.chdir(tmp_path)  # no --out-dir flag, so the config value is read
        src = tmp_path / "demo.csv"
        write_row_fixture(src)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main([command, str(src), "--config", str(cfg)]) == 1
        message = self.BAD_CONFIGS[text].format(cfg=cfg)
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("key", ["step", "datum", "parallel", "max_oracle_work"])
    @pytest.mark.parametrize("value", [[1], None, "x", {"a": 1}, True, 2.5, float("inf")])
    def test_non_numeric_config_value_is_an_error(self, tmp_path, capsys, key, value):
        # a boolean is no number, a fraction is one only for step and datum,
        # and no count is infinite
        src = tmp_path / "demo.csv"
        write_row_fixture(src)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code = main(["oracle-check", str(src), "--config", str(cfg)])
        if value == 2.5 and key in ("step", "datum"):
            assert code == 0
            return
        assert code == 1
        if value == float("inf") and key in ("step", "datum"):
            message = ("step must be positive and finite" if key == "step"
                       else "datum must be finite")
        else:
            kind = "an integer" if key in ("parallel", "max_oracle_work") else "a number"
            message = f"{key} must be {kind}"
        assert capsys.readouterr().err == f"error: {message}, got {value!r}\n"

    @pytest.mark.parametrize("command", ["spectrum", "features", "oracle-check"])
    @pytest.mark.parametrize("value", [5, None, ["a"]])
    def test_out_dir_not_a_string_is_an_error(self, tmp_path, capsys, monkeypatch,
                                              command, value):
        # no --out-dir flag, so the config value is the one read
        monkeypatch.chdir(tmp_path)
        src = tmp_path / "demo.csv"
        write_row_fixture(src)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out_dir": value}))
        assert main([command, str(src), "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: out_dir must be a string, got {value!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "demo.csv"]

    @pytest.mark.parametrize("key", ["step", "datum"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_non_finite_step_or_datum_is_an_error(self, fixture_dir, tmp_path, capsys,
                                                   key, value, source):
        # a NaN or infinite step or datum used to flatten every raster to level 1
        argv = ["features", str(fixture_dir / "fictitious.asc"),
                "--out-dir", str(tmp_path / "out")]
        if source == "flag":
            argv += [f"--{key}", value]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: float(value)}))
            argv += ["--config", str(cfg)]
        assert main(argv) == 1
        message = ("step must be positive and finite" if key == "step"
                   else "datum must be finite")
        assert capsys.readouterr().err == f"error: {message}, got {value}\n"
        assert not (tmp_path / "out" / "features.csv").exists()

    @pytest.mark.parametrize("key,value", [("step", 10**400), ("datum", -10**400)])
    def test_config_number_past_float_range_is_an_error(self, tmp_path, capsys,
                                                        key, value):
        # float() of such an integer raises OverflowError, not ValueError
        src = tmp_path / "demo.csv"
        write_row_fixture(src)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert main(["oracle-check", str(src), "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", f"error: {key} must be a number, got {value}\n")


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig(["a.csv"])
        assert (cfg.out_dir, cfg.step, cfg.datum, cfg.parallel, cfg.max_oracle_work,
                cfg.corrupt_hook) == (Path("out"), 1.0, 0.0, 1, 300_000_000, False)
        assert cfg.directions == ("row", "column", "diag-down", "diag-up")

    def test_values_take_their_field_types(self):
        cfg = RunConfig(["a.csv"], out_dir="o", step=2, datum="-1.5", parallel=3.0,
                        directions="diag-up, row", max_oracle_work="7")
        assert (cfg.out_dir, cfg.step, cfg.datum, cfg.parallel, cfg.max_oracle_work,
                cfg.directions) == (Path("o"), 2.0, -1.5, 3, 7, ("diag-up", "row"))
        assert type(cfg.step) is float and type(cfg.parallel) is int

    def test_error_is_the_text_the_cli_prints(self, tmp_path, capsys):
        with pytest.raises(ValueError) as raised:
            RunConfig(["a.csv"], step=True)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"step": true}')
        assert main(["spectrum", "a.csv", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {raised.value}\n"
        assert str(raised.value) == "step must be a number, got True"

    def test_config_null_directions_keeps_all_four(self, tmp_path, capsys):
        src = tmp_path / "demo.csv"
        write_row_fixture(src)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"directions": null, "corrupt_hook": true, "inputs": []}')
        # corrupt_hook and inputs are no config keys: the file sets neither
        assert main(["oracle-check", str(src), "--config", str(cfg)]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [r.split()[1] for r in rows[::2]] == ["row", "column", "diag-down", "diag-up"]

    def test_options_are_keywords_with_their_declared_defaults(self):
        assert list(RunConfig.OPTIONS) == ["out_dir", "step", "datum", "parallel",
                                           "directions", "max_oracle_work", "corrupt_hook"]
        cfg = RunConfig(inputs=["a.csv"], corrupt_hook=True)
        assert (cfg.inputs, cfg.corrupt_hook) == (["a.csv"], True)
        with pytest.raises(TypeError, match="'stepp'"):
            RunConfig(["a.csv"], stepp=2)

    def test_equality_and_repr_by_fields(self):
        cfg = RunConfig(["a.csv"], step=2)
        assert cfg == RunConfig(["a.csv"], step=2.0)
        assert cfg != RunConfig(["a.csv"])
        assert repr(cfg) == (
            f"RunConfig(inputs=['a.csv'], out_dir={Path('out')!r}, step=2.0, datum=0.0, "
            "parallel=1, directions=('row', 'column', 'diag-down', 'diag-up'), "
            "max_oracle_work=300000000, corrupt_hook=False)")


class TestFeaturesCommand:
    def test_feature_row_layout(self, tmp_path):
        src = tmp_path / "w1.csv"
        src.write_text(Dem.from_rows([[1, 3, 2], [2, 2, 5], [4, 1, 1]]).to_fixture_csv())
        out = tmp_path / "out"
        assert main(["features", str(src), "--out-dir", str(out)]) == 0
        lines = (out / "features.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:6] == ["id", "gi_b1", "gi_b2", "gi_b3", "gi_b4", "gi_b"]
        assert header[-3:] == ["degenerate", "high", "low"]
        row = dict(zip(header, lines[1].split(",")))
        assert row["id"] == "w1" and row["degenerate"] == "0"
        assert row["high"] in ("B1", "B2", "B3", "B4")
        # the four z values land in distinct rank slots
        xs = [float(row[f"x{i}"]) for i in range(16)]
        assert sum(1 for v in xs if v != 0.0) == 4

    def test_flat_raster_flagged_zero_row(self, tmp_path):
        src = tmp_path / "flat.csv"
        src.write_text(Dem.from_rows([[7]]).to_fixture_csv())
        out = tmp_path / "out"
        assert main(["features", str(src), "--out-dir", str(out)]) == 0
        lines = (out / "features.csv").read_text().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["degenerate"] == "1"
        assert all(row[f"z{i}"] == "0" for i in range(1, 5))

    def test_out_of_range_cell_fails_only_its_file(self, tmp_path, capsys):
        huge = tmp_path / "huge.csv"
        huge.write_text("1,99999999999999999999\n")
        ok = tmp_path / "ok.csv"
        write_row_fixture(ok)
        out = tmp_path / "out"
        assert main(["features", str(ok), str(huge), "--out-dir", str(out)]) == 1
        assert "line 1, column 2" in capsys.readouterr().err
        ids = [ln.split(",")[0] for ln in
               (out / "features.csv").read_text().splitlines()[1:]]
        assert ids == ["ok"]

    def test_huge_esri_header_fails_only_its_file(self, tmp_path, capsys):
        # a 10**10-cell header over three values used to allocate the
        # whole grid first and end the batch with a MemoryError
        big = tmp_path / "big.asc"
        big.write_text("ncols 100000\nnrows 100000\nxllcorner 0\nyllcorner 0\n"
                       "cellsize 1\n1 2 3\n")
        ok = tmp_path / "ok.csv"
        write_row_fixture(ok)
        out = tmp_path / "o.csv"
        assert main(["features", str(ok), str(big), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "big.asc" in err and "grid ended after 3 of 10000000000 cells" in err
        assert [ln.split(",")[0] for ln in out.read_text().splitlines()[1:]] == ["ok"]

    @pytest.mark.parametrize("key", ["ncols", "nrows"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_esri_count_fails_only_its_file(self, tmp_path, capsys, key, value):
        bad = tmp_path / "bad.asc"
        bad.write_text(Dem.from_rows([[1, 2], [3, 4]]).to_esri_ascii()
                       .replace(f"{key} 2", f"{key} {value}"))
        ok = tmp_path / "ok.csv"
        write_row_fixture(ok)
        out = tmp_path / "o.csv"
        assert main(["features", str(ok), str(bad), "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: ncols/nrows must be positive integers (line 1)\n")
        assert [ln.split(",")[0] for ln in out.read_text().splitlines()[1:]] == ["ok"]

    def test_esri_grid_through_a_pipe(self, tmp_path):
        # a pipe (as from `features <(gunzip -c dem.asc.gz)`) is read once
        text = synthetic_terrain(40, levels=64, hole_fraction=0.05, seed=3).to_esri_ascii()
        src = tmp_path / "grid.asc"
        src.write_text(text, encoding="utf-8")
        read, write = os.pipe()

        def feed():
            with open(write, "w", encoding="utf-8") as f:
                f.write(text)

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            assert main(["features", f"/dev/fd/{read}", "--datum", "1",
                         "--output", str(tmp_path / "pipe.csv")]) == 0
        finally:
            writer.join()
            os.close(read)
        assert main(["features", str(src), "--datum", "1",
                     "--output", str(tmp_path / "file.csv")]) == 0
        rows = [[ln.split(",", 1)[1] for ln in (tmp_path / name).read_text().splitlines()[1:]]
                for name in ("pipe.csv", "file.csv")]
        assert rows[0] == rows[1] and len(rows[0]) == 1

    def test_colliding_fallback_ids_keep_every_input(self, tmp_path, monkeypatch):
        # a/b/x.csv and a_b/x.csv both fall back from the stem x to a_b_x.csv
        monkeypatch.chdir(tmp_path)
        inputs = ["x.csv", "a/b/x.csv", "a_b/x.csv"]
        for name in inputs:
            Path(name).parent.mkdir(parents=True, exist_ok=True)
            write_row_fixture(Path(name))
        assert main(["features", *inputs, "--output", "features.csv"]) == 0
        ids = [ln.split(",")[0] for ln in
               Path("features.csv").read_text().splitlines()[1:]]
        assert ids == ["a_b_x.csv", "a_b_x.csv~2", "x"]

    @pytest.mark.parametrize("others", [[], ["dem1.csv"]])
    def test_existing_name_with_wildcards_is_that_file(self, tmp_path, monkeypatch, others):
        # dem[1].csv names itself, not the pattern that would match dem1.csv
        monkeypatch.chdir(tmp_path)
        for name in ["dem[1].csv", *others]:
            write_row_fixture(Path(name))
        assert main(["features", "dem[1].csv", "--output", "features.csv"]) == 0
        ids = [ln.split(",")[0] for ln in
               Path("features.csv").read_text().splitlines()[1:]]
        assert ids == ["dem[1]"]

    def test_batch_order_stable(self, fixture_dir, tmp_path):
        out = tmp_path / "out"
        inputs = [str(fixture_dir / n) for n in
                  ("unipeak.csv", "constant.csv", "fictitious.csv")]
        assert main(["features", *inputs, "--out-dir", str(out)]) == 0
        ids = [ln.split(",")[0] for ln in
               (out / "features.csv").read_text().splitlines()[1:]]
        assert ids == sorted(ids)


class TestOracleCheckCommand:
    def test_fixtures_pass(self, fixture_dir, tmp_path, capsys):
        report = tmp_path / "report.csv"
        code = main(["oracle-check", str(fixture_dir / "fictitious.csv"),
                     "--report", str(report)])
        assert code == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "id,direction,family,verdict,detail"
        assert len(lines) == 1 + 8  # 4 directions x 2 families
        assert all(ln.split(",")[3] == "PASS" for ln in lines[1:])

    def test_out_dir_is_a_usage_error(self, fixture_dir, tmp_path, capsys):
        # its one file is the --report; an --out-dir would be checked and
        # never written to
        with pytest.raises(SystemExit) as exc:
            main(["oracle-check", str(fixture_dir / "fictitious.csv"),
                  "--out-dir", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --out-dir" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_corrupt_hook_fails_with_index(self, fixture_dir, capsys):
        code = main(["oracle-check", str(fixture_dir / "fictitious.csv"),
                     "--self-test-corrupt"])
        assert code == 1
        out = capsys.readouterr().out
        assert "fictitious row nse FAIL first mismatch at index 0\n" in out

    def test_volumes_scaled_by_a_common_factor_fail(self, fixture_dir, monkeypatch,
                                                     capsys):
        # doubled volumes give the same probabilities, yet not the same counts
        from demgranulo import cli
        from demgranulo.spectrum import PatternSpectrum
        counted = cli.spectrum_from_runs

        def doubled(rt, family):
            ps = counted(rt, family)
            return PatternSpectrum(ps.se_name, ps.family, tuple(2 * v for v in ps.volumes))

        monkeypatch.setattr(cli, "spectrum_from_runs", doubled)
        code = main(["oracle-check", str(fixture_dir / "fictitious.csv"),
                     "--directions", "row"])
        assert code == 1
        assert capsys.readouterr().out == (
            "fictitious row nse FAIL first mismatch at index 0\n"
            "fictitious row length FAIL first mismatch at index 0\n")

    def test_cap_skips(self, fixture_dir, capsys):
        code = main(["oracle-check", str(fixture_dir / "fictitious.csv"),
                     "--max-oracle-work", "1"])
        assert code == 0
        assert "SKIP" in capsys.readouterr().out

    @pytest.fixture()
    def terrain128(self, tmp_path):
        # 128 x 128 cells of 256 levels: work 4210688 once parsed, over
        # the old cap of 2000000
        path = tmp_path / "t128.asc"
        path.write_text(synthetic_terrain(128).to_esri_ascii())
        return path

    def test_default_cap_checks_a_terrain(self, terrain128, tmp_path, capsys):
        report = tmp_path / "report.csv"
        assert main(["oracle-check", str(terrain128), "--report", str(report)]) == 0
        rows = [ln.split(",")[1:4] for ln in report.read_text().splitlines()[1:]]
        assert rows == [[d, family, "PASS"] for d in ("row", "column", "diag-down", "diag-up")
                        for family in ("nse", "length")]

    def test_default_cap_corrupt_hook_fails_on_a_terrain(self, terrain128, capsys):
        assert main(["oracle-check", str(terrain128), "--self-test-corrupt"]) == 1
        assert "t128 row nse FAIL first mismatch at index 0\n" in capsys.readouterr().out

    def test_default_cap_skips_work_beyond_it(self, tmp_path, capsys):
        # one row of 20,000 distinct levels: work 20,000 cells x 20,000 held
        # levels = 4 * 10**8
        src = tmp_path / "tall.csv"
        src.write_text(Dem.from_rows([list(range(1, 20_001))]).to_fixture_csv())
        assert main(["oracle-check", str(src)]) == 0
        assert capsys.readouterr().out == "tall - - SKIP work 400000000 exceeds cap 300000000\n"

    def test_work_counts_held_levels_not_the_top_one(self, tmp_path, capsys):
        # 4 cells of top level 10**8 hold two levels: work 8, so it is checked
        src = tmp_path / "tall.csv"
        src.write_text(Dem.from_rows([[10**8, 1], [1, 10**8]]).to_fixture_csv())
        assert main(["oracle-check", str(src), "--max-oracle-work", "8"]) == 0
        out = capsys.readouterr().out
        assert out.count(" PASS\n") == 8 and "SKIP" not in out

    def test_held_levels_counted_only_over_the_top_level_bound(
            self, tmp_path, capsys, monkeypatch):
        # 4 cells of top level 2: work at most 8, so no level is counted
        from demgranulo import cli

        def refused(flat):
            raise AssertionError("held levels counted under the cap")

        monkeypatch.setattr(cli, "_held_levels", refused)
        src = tmp_path / "low.csv"
        src.write_text(Dem.from_rows([[2, 1], [1, 2]]).to_fixture_csv())
        assert main(["oracle-check", str(src), "--max-oracle-work", "8"]) == 0
        assert capsys.readouterr().out.count(" PASS\n") == 8

    @pytest.fixture(scope="class")
    def tall320(self, tmp_path_factory):
        # 320 x 320 cells of 254 held levels up to about 38,400: work
        # 26 million by held levels, 3.9 billion by the top level
        path = tmp_path_factory.mktemp("tall") / "t320.asc"
        path.write_text(scale_heights(synthetic_terrain(320), 150).to_esri_ascii())
        return path

    def test_default_cap_checks_a_tall_terrain(self, tall320, capsys):
        assert main(["oracle-check", str(tall320)]) == 0
        assert capsys.readouterr().out == "".join(
            f"t320 {d} {family} PASS\n" for d in ("row", "column", "diag-down", "diag-up")
            for family in ("nse", "length"))

    def test_default_cap_corrupt_hook_fails_on_a_tall_terrain(self, tall320, capsys):
        assert main(["oracle-check", str(tall320), "--self-test-corrupt"]) == 1
        out = capsys.readouterr().out
        assert out.count(" FAIL first mismatch at index 0\n") == 8 and "SKIP" not in out

    def test_empty_input_set_ok(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        report = tmp_path / "r.csv"
        code = main(["oracle-check", str(empty / "*.csv"),
                     "--report", str(report)])
        assert code == 0  # unmatched wildcard means an empty batch
        assert report.read_text().splitlines() == ["id,direction,family,verdict,detail"]

    def test_direction_subset(self, fixture_dir, capsys):
        code = main(["oracle-check", str(fixture_dir / "fictitious.csv"),
                     "--directions", "row,column"])
        assert code == 0
        out = capsys.readouterr().out
        assert "diag-down" not in out and "row nse PASS" in out

    @pytest.mark.parametrize("how,value", [("flag", ""), ("flag", ","), ("flag", " , "),
                                           ("config", []), ("config", ""),
                                           ("config", ",")])
    def test_empty_direction_subset_is_an_error(self, fixture_dir, tmp_path, capsys,
                                                how, value):
        # an empty subset must not fall back to checking all four directions
        args = ["--directions", value]
        if how == "config":
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({"directions": value}))
            args = ["--config", str(config)]
        code = main(["oracle-check", str(fixture_dir / "fictitious.csv"), *args])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "directions" in captured.err
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("how,value", [("flag", "row,row"), ("flag", "row,column,row"),
                                           ("config", ["row", "row"]),
                                           ("config", "column, row,row")])
    def test_repeated_direction_is_an_error(self, fixture_dir, tmp_path, capsys,
                                            how, value):
        # a repeated name would check its direction twice and repeat report rows
        args = ["--directions", value]
        if how == "config":
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({"directions": value}))
            args = ["--config", str(config)]
        report = tmp_path / "report.csv"
        code = main(["oracle-check", str(fixture_dir / "unipeak.csv"), *args,
                     "--report", str(report)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: directions names row twice\n"
        assert captured.out == "" and not report.exists()

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_negative_cap_is_an_error(self, fixture_dir, tmp_path, capsys, how):
        args = ["--max-oracle-work", "-5"]
        if how == "config":
            config = tmp_path / "cfg.json"
            config.write_text('{"max_oracle_work": -5}')
            args = ["--config", str(config)]
        code = main(["oracle-check", str(fixture_dir / "fictitious.csv"), *args])
        out, err = capsys.readouterr()
        assert code == 1 and "SKIP" not in out
        assert err.startswith("error: max_oracle_work must be non-negative")

    def test_one_sweep_per_direction(self, fixture_dir, monkeypatch, capsys):
        # both families of a direction read one volume curve
        from demgranulo import _kernels
        sweeps = []

        def counted(values, direction):
            sweeps.append(direction)
            return loss(values, direction)

        loss = _kernels.directional_loss
        monkeypatch.setattr(_kernels, "directional_loss", counted)
        code = main(["oracle-check", str(fixture_dir / "fictitious.csv"),
                     str(fixture_dir / "unipeak.csv")])
        assert code == 0 and capsys.readouterr().out.count("PASS") == 16
        assert sorted(sweeps) == sorted(["row", "column", "diag-down", "diag-up"] * 2)

    @pytest.mark.parametrize("command", ["spectrum", "oracle-check"])
    def test_zero_volume_reported_per_file(self, tmp_path, capsys, command):
        bad = tmp_path / "zero.csv"
        bad.write_text("0,0\n")
        ok = tmp_path / "ok.csv"
        write_row_fixture(ok)
        out = tmp_path / "out"
        report = out / "report.csv"
        extra = (["--report", str(report)] if command == "oracle-check"
                 else ["--out-dir", str(out)])
        code = main([command, str(bad), str(ok), *extra])
        assert code == 1
        assert "zero" in capsys.readouterr().err
        if command == "spectrum":
            assert (out / "ok.summary.json").exists()
        else:
            ids = [ln.split(",")[0] for ln in report.read_text().splitlines()[1:]]
            assert ids == ["ok"] * 8  # 4 directions x 2 families


class TestBatchPolicy:
    """A bad input fails alone, in place, in every batch command and runner."""

    @pytest.mark.parametrize("parallel, files, workers", [(6, 2, 2), (2, 3, 2)])
    def test_pool_no_larger_than_the_batch(self, tmp_path, monkeypatch,
                                           parallel, files, workers):
        # the pool forks every worker up front; a stub that runs the jobs
        # in this process records the size asked for without forking
        import concurrent.futures

        sizes = []

        class InlinePool:
            def __init__(self, max_workers, initializer):
                sizes.append(max_workers)
                initializer()

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        inputs = []
        for i in range(files):
            inputs.append(tmp_path / f"r{i}.csv")
            write_row_fixture(inputs[-1])
        out = tmp_path / "out"
        assert main(["spectrum", *map(str, inputs), "--out-dir", str(out),
                     "--parallel", str(parallel)]) == 0
        assert sizes == [workers]
        assert len(list(out.glob("*.summary.json"))) == files

    @pytest.mark.parametrize("parallel", ["1", "2"])
    @pytest.mark.parametrize("command", ["spectrum", "features", "oracle-check"])
    def test_bad_inputs_fail_in_place(self, tmp_path, monkeypatch, command, parallel):
        write_row_fixture(tmp_path / "a_ok.csv")
        (tmp_path / "c_cell.csv").write_text("1,x\n")
        (tmp_path / "d_zero.csv").write_text("0,0\n")
        (tmp_path / "e_ok.csv").write_text(
            Dem.from_rows([[1, 3, 2], [2, 2, 5]]).to_fixture_csv())
        inputs = [str(tmp_path / name) for name in
                  ("a_ok.csv", "b_missing.csv", "c_cell.csv", "d_zero.csv", "e_ok.csv")]
        out = tmp_path / "out"
        report = out / "report.csv"
        extra = (["--report", str(report)] if command == "oracle-check"
                 else ["--out-dir", str(out)])
        # one buffer for both streams shows where each error line falls
        both = io.StringIO()
        monkeypatch.setattr(sys, "stdout", both)
        monkeypatch.setattr(sys, "stderr", both)
        code = main([command, *inputs, "--parallel", parallel, *extra])
        monkeypatch.undo()
        assert code == 1

        def source(line):
            return line.split(": ")[1] if line.startswith("error: ") else line.split()[0]

        rows = 8 if command == "oracle-check" else 0  # 4 directions x 2 families
        assert ([source(ln) for ln in both.getvalue().splitlines()]
                == ["a_ok"] * rows + inputs[1:4] + ["e_ok"] * rows)
        if command == "spectrum":
            written = sorted(p.name.split(".")[0] for p in out.iterdir())
            assert written == ["a_ok"] * 6 + ["e_ok"] * 6  # 5 spectra and a summary
        elif command == "features":
            ids = [ln.split(",")[0] for ln in
                   (out / "features.csv").read_text().splitlines()[1:]]
            assert ids == ["a_ok", "e_ok"]
        else:
            ids = [ln.split(",")[0] for ln in report.read_text().splitlines()[1:]]
            assert ids == ["a_ok"] * rows + ["e_ok"] * rows

    @pytest.mark.parametrize("name", ["a,b.csv", 'a"b.csv', "a\rb.csv", "a\nb.csv"])
    @pytest.mark.parametrize("command, flag", [("features", "--output"),
                                               ("oracle-check", "--report")])
    def test_id_no_csv_cell_holds_fails_alone(self, tmp_path, capsys, command, flag, name):
        # its row would split into more cells than the header names
        write_row_fixture(tmp_path / name)
        write_row_fixture(tmp_path / "ok.csv")
        table = tmp_path / "table.csv"
        assert main([command, str(tmp_path / name), str(tmp_path / "ok.csv"),
                     flag, str(table)]) == 1
        assert "holds a comma, quote or line break" in capsys.readouterr().err
        header, *rows = table.read_text().splitlines()
        assert rows and {row.split(",")[0] for row in rows} == {"ok"}
        assert all(row.count(",") == header.count(",") for row in rows)


def _with_node(doc, i, **fields):
    """A tree document whose node ``i`` has ``fields`` replaced."""
    nodes = list(doc["nodes"])
    nodes[i] = {**nodes[i], **fields}
    return {**doc, "nodes": nodes}


class TestTreeCommands:
    def test_train_and_classify(self, fixture_dir, tmp_path, capsys):
        tree_dir = tmp_path / "tree"
        code = main(["train-tree", str(fixture_dir / "features_demo.csv"),
                     "--max-depth", "3", "--out-dir", str(tree_dir)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "records 138" in printed and "accuracy" in printed
        assert (tree_dir / "tree.json").exists()
        assert "x[" in (tree_dir / "tree.txt").read_text()

        preds = tmp_path / "preds.csv"
        code = main(["classify", str(fixture_dir / "features_demo.csv"),
                     "--tree", str(tree_dir / "tree.json"),
                     "--output", str(preds)])
        assert code == 0
        lines = preds.read_text().splitlines()
        assert lines[0] == "id,label"
        assert len(lines) == 139
        assert all(ln.split(",")[1] in ("indus", "wardha", "barmer")
                   for ln in lines[1:])

    def test_depth_zero_majority(self, fixture_dir, tmp_path, capsys):
        code = main(["train-tree", str(fixture_dir / "features_demo.csv"),
                     "--max-depth", "0", "--out-dir", str(tmp_path / "t0")])
        assert code == 0
        assert "accuracy 69/138" in capsys.readouterr().out

    def test_malformed_csv_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,x0\nw0,notanumber\n")
        code = main(["train-tree", str(bad), "--out-dir", str(tmp_path / "t")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train-tree", "classify"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_is_an_error(self, fixture_dir, tmp_path, capsys,
                                            command, cell):
        features = fixture_dir / "features_demo.csv"
        tree_dir = tmp_path / "tree"
        assert main(["train-tree", str(features), "--out-dir", str(tree_dir)]) == 0
        lines = features.read_text().splitlines()
        cells = lines[2].split(",")
        cells[lines[0].split(",").index("x5")] = cell
        bad = tmp_path / "bad.csv"
        # a blank line above the bad row still counts in its line number
        for above, lineno in ([], 3), ([""], 4):
            bad.write_text("\n".join(lines[:2] + above + [",".join(cells)] + lines[3:]) + "\n")
            capsys.readouterr()
            argv = (["train-tree", str(bad), "--out-dir", str(tmp_path / "t")]
                    if command == "train-tree" else
                    ["classify", str(bad), "--tree", str(tree_dir / "tree.json"),
                     "--output", str(tmp_path / "p.csv")])
            assert main(argv) == 1
            assert (capsys.readouterr().err
                    == f"error: {bad}: line {lineno} has a non-finite feature\n")

    def test_short_row_line_counts_blank_lines(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        header = ["id"] + [f"x{i}" for i in range(16)] + ["label"]
        bad.write_text(",".join(header) + "\n\nw0,1\n")
        assert main(["train-tree", str(bad), "--out-dir", str(tmp_path / "t")]) == 1
        assert capsys.readouterr().err == f"error: {bad}: line 3 has 2 cells, expected 18\n"

    @pytest.mark.parametrize("mutate", [
        lambda doc: {},
        lambda doc: [1],
        lambda doc: _with_node(doc, 0, left=0),
        lambda doc: _with_node(doc, 0, right=len(doc["nodes"])),
        lambda doc: _with_node(doc, 0, feature=99),
        lambda doc: _with_node(doc, 0, threshold="0.5"),
        lambda doc: _with_node(doc, 0, threshold=float("nan")),
        lambda doc: _with_node(doc, -1, counts=5),
        lambda doc: "{not json",
    ], ids=["empty-object", "list", "child-is-its-node", "child-past-list",
            "feature-99", "string-threshold", "nan-threshold", "leaf-counts-not-object",
            "not-json"])
    def test_malformed_tree_is_an_error(self, fixture_dir, tmp_path, capsys, mutate):
        tree_dir = tmp_path / "tree"
        assert main(["train-tree", str(fixture_dir / "features_demo.csv"),
                     "--max-depth", "2", "--out-dir", str(tree_dir)]) == 0
        doc = json.loads((tree_dir / "tree.json").read_text())
        assert "feature" in doc["nodes"][0] and "leaf" in doc["nodes"][-1]
        bad = tmp_path / "bad.json"
        text = mutate(doc)
        bad.write_text(text if isinstance(text, str) else json.dumps(text))
        capsys.readouterr()
        assert main(["classify", str(fixture_dir / "features_demo.csv"),
                     "--tree", str(bad), "--output", str(tmp_path / "p.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")


class TestGenFixtures:
    def test_emits_documented_set(self, fixture_dir):
        names = {p.name for p in fixture_dir.iterdir()}
        assert {"fictitious.csv", "fictitious.asc", "unipeak.csv",
                "constant.csv", "run_pair_a.csv", "run_pair_b.csv",
                "features_demo.csv"} <= names
        assert sum(1 for n in names if n.startswith("reflection_")) == 9

    def test_fixtures_reload(self, fixture_dir):
        from demgranulo.dem import parse_fixture_csv
        dem = parse_fixture_csv((fixture_dir / "fictitious.csv").read_text())
        assert dem.cell_count > 0
        assert dem.mask.any() and not dem.mask.all()


# Runs the CLI as ``python -m demgranulo.cli`` does, or, given
# ``module:function``, as a console script does. At exit it reports the
# exit code, whether numpy was imported, which ``demgranulo`` modules
# and which top-level standard-library modules were, and how many objects
# the collector had frozen. It imports json only after it has listed them.
_PROBE = """
import atexit, gc, importlib, runpy, sys

def report():
    loaded = set(sys.modules)
    import json
    modules = sorted(m.split(".")[1] for m in loaded if m.startswith("demgranulo."))
    stdlib = sorted({m.split(".")[0] for m in loaded} & sys.stdlib_module_names)
    print(json.dumps({"exit": code, "numpy": "numpy" in loaded, "modules": modules,
                      "stdlib": stdlib, "frozen": gc.get_freeze_count()}))

atexit.register(report)
code = None
target = sys.argv.pop(1)
try:
    if ":" in target:
        module, function = target.split(":")
        sys.exit(getattr(importlib.import_module(module), function)())
    runpy.run_module(target, run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
"""


def _run_probe(argv, target="demgranulo.cli"):
    proc = subprocess.run([sys.executable, "-c", _PROBE, target, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    probe["modules"] = set(probe["modules"])
    probe["stdlib"] = set(probe["stdlib"])
    return probe


@functools.cache
def _bare_interpreter_modules() -> frozenset:
    """Top-level modules a bare interpreter holds once its site has run."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; print(*{m.split('.')[0] for m in sys.modules})"],
        capture_output=True, text=True, timeout=120, check=True)
    return frozenset(proc.stdout.split())


def _unused_stdlib_loaded(command, probe) -> set:
    """The modules of ``_STDLIB_UNUSED[command]`` the probed child loaded.

    A module the bare interpreter already holds is no fault of the
    program's; this site may preload ``typing``, for one.
    """
    return (_STDLIB_UNUSED[command] - _bare_interpreter_modules()) & probe["stdlib"]


def _console_script():
    """The ``module:function`` that ``[project.scripts]`` names."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    (line,) = [ln for ln in scripts.splitlines() if ln.startswith("demgranulo ")]
    return line.split("=", 1)[1].strip().strip('"')


# the modules each numeric command loads, and those it must not load
_NUMERIC_LOADS = {
    "spectrum": ({"dem", "spectrum"}, {"oracle", "synth", "classify"}),
    "features": ({"dem", "spectrum"}, {"oracle", "synth", "classify"}),
    "oracle-check": ({"dem", "spectrum", "oracle"}, {"synth", "classify"}),
    "gen-fixtures": ({"dem", "spectrum", "oracle", "synth"}, {"classify"}),
}

# standard-library modules each command never calls and must not load;
# numpy loads typing, and inspect (which dataclasses adds to), by itself
_STDLIB_UNUSED = {
    "--version": {"dataclasses", "fractions", "json", "typing"},
    "train-tree": {"dataclasses", "typing"},
    "classify": {"dataclasses", "fractions", "typing"},
    "spectrum": {"dataclasses", "fractions"},
    "features": {"dataclasses", "fractions", "json"},
    "oracle-check": {"dataclasses", "fractions", "json"},
    "gen-fixtures": {"dataclasses", "fractions", "json"},
}


class TestStartup:
    def test_tree_commands_and_version_load_no_numpy(self, fixture_dir, tmp_path):
        features = str(fixture_dir / "features_demo.csv")
        tree = str(tmp_path / "tree" / "tree.json")
        runs = [(["--version"], set()),
                (["train-tree", features, "--out-dir", str(tmp_path / "tree")],
                 {"classify"}),
                (["classify", features, "--tree", tree,
                  "--output", str(tmp_path / "p.csv")], {"classify"})]
        for argv, loaded in runs:
            probe = _run_probe(argv)
            assert (probe["exit"], probe["numpy"]) == (0, False), argv
            assert probe["modules"] - {"_base"} == loaded, argv
            assert not _unused_stdlib_loaded(argv[0], probe), argv
        assert (tmp_path / "p.csv").read_text().count("\n") == 139

    @pytest.mark.parametrize("command", list(_NUMERIC_LOADS))
    def test_numeric_commands_run_from_a_cold_start(self, fixture_dir, tmp_path,
                                                    command):
        # each binds what it calls and imports no module it does not call
        loaded, not_loaded = _NUMERIC_LOADS[command]
        inputs = [] if command == "gen-fixtures" else [str(fixture_dir / "fictitious.csv")]
        output = (["--report", str(tmp_path / "out" / "report.csv")]
                  if command == "oracle-check" else ["--out-dir", str(tmp_path / "out")])
        probe = _run_probe([command, *inputs, *output])
        assert (probe["exit"], probe["numpy"]) == (0, True)
        assert loaded <= probe["modules"]
        assert not_loaded.isdisjoint(probe["modules"])
        assert not _unused_stdlib_loaded(command, probe)

    @pytest.mark.parametrize("bad_input", [False, True], ids=["version", "bad-input"])
    @pytest.mark.parametrize("target", ["demgranulo.cli", "console-script"])
    def test_program_exits_with_the_collector_frozen(self, tmp_path, bad_input, target):
        # interpreter shutdown then skips the collector's pass over them
        argv = (["features", str(tmp_path / "missing.csv"), "--out-dir", str(tmp_path)]
                if bad_input else ["--version"])
        if target == "console-script":
            target = _console_script()
        probe = _run_probe(argv, target)
        assert probe["exit"] == int(bad_input)
        assert probe["frozen"] > 0

    def test_main_in_process_leaves_the_collector_alone(self, fixture_dir, tmp_path):
        frozen = gc.get_freeze_count()
        assert main(["features", str(fixture_dir / "fictitious.csv"),
                     "--out-dir", str(tmp_path)]) == 0
        assert gc.get_freeze_count() == frozen

    def test_public_names_resolve_and_are_listed(self):
        listed = dir(demgranulo)
        for name in demgranulo.__all__:
            assert name in listed
            getattr(demgranulo, name)
        assert demgranulo.Dem is demgranulo.dem.Dem
        with pytest.raises(AttributeError):
            demgranulo.no_such_name


def _run_child(argv, *, env=None, flags=()):
    return subprocess.run([sys.executable, *flags, "-m", "demgranulo.cli", *argv],
                          capture_output=True, timeout=120,
                          env=None if env is None else {**os.environ, **env})


class TestEncoding:
    """Every file is UTF-8 whatever the locale's encoding."""

    def test_non_ascii_digits_parse_under_an_ascii_locale(self, tmp_path):
        src = tmp_path / "arabic.csv"
        # Arabic-Indic digits, which int() reads; the file is UTF-8
        src.write_bytes(",\u0662,\u0663\n\u0661,\u0665,\u0662\n".encode("utf-8"))
        outputs = []
        for locale in ("C", "C.UTF-8"):
            out = tmp_path / locale
            env = {"LC_ALL": locale, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
            proc = _run_child(["features", str(src), "--out-dir", str(out)], env=env)
            assert (proc.returncode, proc.stderr) == (0, b""), locale
            outputs.append((out / "features.csv").read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].splitlines()[1].startswith(b"arabic,")

    def test_undecodable_input_name_under_an_ascii_locale(self, fixture_dir, tmp_path):
        # the locale cannot decode the name, so its id holds lone
        # surrogates; both outputs carry the name's own bytes
        src = os.path.join(os.fsencode(tmp_path), "\u00e9t\u00e9.csv".encode("utf-8"))
        with open(src, "wb") as f:
            f.write((fixture_dir / "fictitious.csv").read_bytes())
        stem = os.fsencode(Path(os.fsdecode(src)).stem)
        env = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        features, report = tmp_path / "features.csv", tmp_path / "report.csv"
        for argv in (["features", src, "--output", str(features)],
                     ["oracle-check", src, "--report", str(report)]):
            proc = _run_child(argv, env=env)
            assert (proc.returncode, proc.stderr) == (0, b""), argv
        rows = features.read_bytes().splitlines()[1:] + report.read_bytes().splitlines()[1:]
        assert len(rows) == 9
        assert {row.split(b",")[0] for row in rows} == {stem}

    def test_summary_id_is_the_name_as_text_under_either_locale(self, fixture_dir,
                                                                 tmp_path):
        # the summary's id is the name's bytes read as UTF-8, not the lone
        # surrogates an ASCII locale decodes them to
        name = "\u00e9t\u00e9".encode("utf-8")
        src = os.path.join(os.fsencode(tmp_path), name + b".csv")
        with open(src, "wb") as f:
            f.write((fixture_dir / "fictitious.csv").read_bytes())
        summaries = []
        for locale in ("C", "C.UTF-8"):
            out = os.path.join(os.fsencode(tmp_path), locale.encode())
            env = {"LC_ALL": locale, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
            proc = _run_child(["spectrum", src, "--out-dir", out], env=env)
            assert (proc.returncode, proc.stderr) == (0, b""), locale
            with open(os.path.join(out, name + b".summary.json"), "rb") as f:
                summaries.append(f.read())
        assert summaries[0] == summaries[1]
        assert b'"id": "\\u00e9t\\u00e9"' in summaries[0]

    def test_summary_id_of_a_name_that_is_not_utf8_encodes(self, fixture_dir, tmp_path):
        # byte 0xff is no UTF-8: the summary's id spells it as the text
        # \xff, which encodes back as UTF-8, and the file names keep the byte
        src = os.path.join(os.fsencode(tmp_path), b"a\xff.csv")
        with open(src, "wb") as f:
            f.write((fixture_dir / "fictitious.csv").read_bytes())
        summaries = []
        for locale in ("C", "C.UTF-8"):
            out = os.path.join(os.fsencode(tmp_path), locale.encode())
            env = {"LC_ALL": locale, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
            proc = _run_child(["spectrum", src, "--out-dir", out], env=env)
            assert (proc.returncode, proc.stderr) == (0, b""), locale
            assert os.path.exists(os.path.join(out, b"a\xff.spectrum.B.csv"))
            with open(os.path.join(out, b"a\xff.summary.json"), "rb") as f:
                summaries.append(f.read())
        assert summaries[0] == summaries[1]
        text_id = json.loads(summaries[0])["id"]
        assert text_id == "a\\xff"
        assert text_id.encode("utf-8") == b"a\\xff"

    def test_no_command_opens_a_file_in_the_locale_encoding(self, fixture_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"step": 1}', encoding="utf-8")
        features = str(fixture_dir / "features_demo.csv")
        tree = str(tmp_path / "tree" / "tree.json")
        batch = [str(fixture_dir / "fictitious.csv"), str(fixture_dir / "fictitious.asc"),
                 "--config", str(config)]
        runs = [["--version"],
                ["gen-fixtures", "--out-dir", str(tmp_path / "fx")],
                ["spectrum", *batch, "--out-dir", str(tmp_path / "spectra")],
                ["features", *batch, "--out-dir", str(tmp_path / "features")],
                ["oracle-check", *batch, "--report", str(tmp_path / "report.csv")],
                ["train-tree", features, "--out-dir", str(tmp_path / "tree")],
                ["classify", features, "--tree", tree, "--output", str(tmp_path / "p.csv")]]
        for argv in runs:
            proc = _run_child(argv, flags=("-X", "warn_default_encoding",
                                           "-W", "error::EncodingWarning"))
            assert (proc.returncode, proc.stderr) == (0, b""), argv


# A bare interpreter spawns the CLI child and prints its exit code and max
# RSS (KiB): Linux starts a child's high-water mark from that of the process
# it was forked from, so a child of this test process would report this
# process's size at least.
_RSS_LAUNCHER = """
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_features_child_memory_on_a_large_grid(tmp_path):
    # max RSS beyond that of a child on a 2x2 grid, in int64 grids of
    # 1000x1000: measured 0.99 with the .asc streamed into int16 levels,
    # 1.94 into int64 levels, 3.33 with its text, the text's lines and a
    # float grid held at once
    def max_rss(dem, name):
        src = tmp_path / f"{name}.asc"
        src.write_text(dem.to_esri_ascii(), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-S", "-c", _RSS_LAUNCHER, "-m", "demgranulo.cli", "features",
             str(src), "--datum", "1", "--output", str(tmp_path / f"{name}.csv")],
            capture_output=True, text=True, timeout=120)
        code, kib = map(int, proc.stdout.split())
        assert code == 0, proc.stderr
        return kib * 1024

    big = max_rss(synthetic_terrain(1000, levels=256, hole_fraction=0.02, seed=1), "big")
    small = max_rss(Dem.from_rows([[1, 2], [3, 4]]), "small")
    grid = 1000 * 1000 * 8
    assert big - small <= 2.5 * grid, (big - small) / grid
