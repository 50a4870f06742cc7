"""End-to-end subcommand behavior on temp directories."""

import json
from pathlib import Path

import pytest

from demgranulo.cli import main
from demgranulo.dem import Dem


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

    @pytest.mark.parametrize("command", ["spectrum", "oracle-check"])
    @pytest.mark.parametrize("text", ['[1]', '"x"', 'null', '{"directions": 5}',
                                      '{"directions": [5]}', '{"directions": {"row": 1}}'])
    def test_bad_config_is_an_error(self, tmp_path, capsys, command, text):
        src = tmp_path / "demo.csv"
        write_row_fixture(src)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main([command, str(src), "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("key", ["step", "datum", "parallel", "max_oracle_work"])
    @pytest.mark.parametrize("value", [[1], None, "x", {"a": 1}])
    def test_non_numeric_config_value_is_an_error(self, tmp_path, capsys, key, value):
        src = tmp_path / "demo.csv"
        write_row_fixture(src)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert main(["oracle-check", str(src), "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err

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
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "out" / "features.csv").exists()


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

    def test_corrupt_hook_fails_with_index(self, fixture_dir, capsys):
        code = main(["oracle-check", str(fixture_dir / "fictitious.csv"),
                     "--self-test-corrupt"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "index 0" in out

    def test_cap_skips(self, fixture_dir, capsys):
        code = main(["oracle-check", str(fixture_dir / "fictitious.csv"),
                     "--max-oracle-work", "1"])
        assert code == 0
        assert "SKIP" in capsys.readouterr().out

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

    @pytest.mark.parametrize("command", ["spectrum", "oracle-check"])
    def test_zero_volume_reported_per_file(self, tmp_path, capsys, command):
        bad = tmp_path / "zero.csv"
        bad.write_text("0,0\n")
        ok = tmp_path / "ok.csv"
        write_row_fixture(ok)
        out = tmp_path / "out"
        report = out / "report.csv"
        extra = ["--report", str(report)] if command == "oracle-check" else []
        code = main([command, str(bad), str(ok), "--out-dir", str(out), *extra])
        assert code == 1
        assert "zero" in capsys.readouterr().err
        if command == "spectrum":
            assert (out / "ok.summary.json").exists()
        else:
            ids = [ln.split(",")[0] for ln in report.read_text().splitlines()[1:]]
            assert ids == ["ok"] * 8  # 4 directions x 2 families


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

    @pytest.mark.parametrize("mutate", [
        lambda doc: {},
        lambda doc: [1],
        lambda doc: _with_node(doc, 0, left=0),
        lambda doc: _with_node(doc, 0, right=len(doc["nodes"])),
        lambda doc: _with_node(doc, 0, feature=99),
        lambda doc: _with_node(doc, 0, threshold="0.5"),
        lambda doc: _with_node(doc, 0, threshold=float("nan")),
        lambda doc: _with_node(doc, -1, counts=5),
    ], ids=["empty-object", "list", "child-is-its-node", "child-past-list",
            "feature-99", "string-threshold", "nan-threshold", "leaf-counts-not-object"])
    def test_malformed_tree_is_an_error(self, fixture_dir, tmp_path, capsys, mutate):
        tree_dir = tmp_path / "tree"
        assert main(["train-tree", str(fixture_dir / "features_demo.csv"),
                     "--max-depth", "2", "--out-dir", str(tree_dir)]) == 0
        doc = json.loads((tree_dir / "tree.json").read_text())
        assert "feature" in doc["nodes"][0] and "leaf" in doc["nodes"][-1]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(mutate(doc)))
        capsys.readouterr()
        assert main(["classify", str(fixture_dir / "features_demo.csv"),
                     "--tree", str(bad), "--output", str(tmp_path / "p.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: ")


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
