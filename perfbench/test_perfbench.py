"""Tests of the benchmark itself: inputs, tracer and correctness gate.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import numpy as np
import pytest

import gate
import run
import tracer
import workloads
from workloads import Batch, Raster


def tiny_batch(workload: str, tmp_path, seed: int = 5) -> Batch:
    """A few small rasters written like the real workload's inputs."""
    if workload == "spectrum-small":
        rasters = workloads.make_rasters(workload, seed)[:4]
    else:
        rng = np.random.default_rng(seed)
        levels = 64 if workload == "oracle-check" else 256
        rasters = []
        for i, side in enumerate((9, 16)):
            mask = workloads.random_holes(rng, side, 0.15)
            values = np.where(mask, workloads.terrain(rng, side, levels), 0)
            rasters.append(Raster(f"r{i}", values, mask))
    return workloads.batch_of(workload, seed, rasters, tmp_path)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic_per_seed(workload):
    first = workloads.make_rasters(workload, 3)
    again = workloads.make_rasters(workload, 3)
    other = workloads.make_rasters(workload, 4)
    render = workloads.esri_ascii if workload == "features-terrain" else workloads.fixture_csv
    assert [render(r) for r in first] == [render(r) for r in again]
    assert [render(r) for r in first] != [render(r) for r in other]
    for r in first:
        assert r.cells > 0 and r.values[r.mask].min() >= 1
        assert not r.values[~r.mask].any()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracer_keeps_outputs_and_restores_attributes(workload, tmp_path):
    batch = tiny_batch(workload, tmp_path)
    refs = gate.references(batch)
    originals = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _ in tracer._targets()]

    _, plain_fail = run._in_process_round(batch, tmp_path / "plain")
    with tracer.Tracer() as tr:
        _, traced_fail = run._in_process_round(batch, tmp_path / "traced", tr)

    assert plain_fail == traced_fail == {}
    assert gate.snapshot(tmp_path / "plain") == gate.snapshot(tmp_path / "traced")
    assert gate.check(batch, tmp_path / "traced", refs) == {}
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, f"{owner}.{attr} not restored"
    metrics = tr.metrics()
    assert metrics["dem.cells"] == sum(r.cells for r in batch.rasters)
    assert metrics["morphology.calls"] == 0
    assert metrics["cli.self_s"] > 0


def test_gate_rejects_flipped_probability(tmp_path):
    batch = tiny_batch("spectrum-small", tmp_path)
    refs = gate.references(batch)
    run._in_process_round(batch, tmp_path / "out")
    assert gate.check(batch, tmp_path / "out", refs) == {}

    ident = batch.rasters[0].ident
    path = tmp_path / "out" / f"{ident}.spectrum.B4.csv"
    lines = path.read_text().splitlines()
    n, vol, p = next(ln.split(",") for ln in lines[1:] if "/" in ln)
    num, den = p.split("/")
    flipped = f"{n},{vol},{int(num) + 1}/{den}"
    path.write_text(path.read_text().replace(f"{n},{vol},{p}", flipped, 1))
    assert set(gate.check(batch, tmp_path / "out", refs)) == {ident}


def test_gate_rejects_wrong_feature_and_oracle_failure(tmp_path):
    batch = tiny_batch("features-terrain", tmp_path / "f")
    refs = gate.references(batch)
    out = tmp_path / "f" / "out"
    run._in_process_round(batch, out)
    assert gate.check(batch, out, refs) == {}
    csv = out / "features.csv"
    header, first, *rest = csv.read_text().splitlines()
    cells = first.split(",")
    cells[1] = f"{float(cells[1]) * 1.001:.6g}"
    csv.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    assert set(gate.check(batch, out, refs)) == {cells[0]}

    batch = tiny_batch("oracle-check", tmp_path / "o")
    from demgranulo import cli
    report = tmp_path / "o" / "oracle.csv"
    assert cli.main(["oracle-check", *map(str, batch.files), "--report", str(report),
                     "--self-test-corrupt"]) == 1
    assert set(gate.check_oracle(batch, tmp_path / "o")) == {r.ident for r in batch.rasters}


def test_numpy_run_counter_matches_run_table():
    from demgranulo.dem import Dem
    from demgranulo.oracle import run_table

    for seed in range(12):
        r = workloads.make_rasters("spectrum-small", seed)[seed]
        for direction in gate.DIRECTIONS:
            by_length = {}
            for (_, _, t), c in run_table(Dem(r.values, r.mask), direction).counts.items():
                by_length[t] = by_length.get(t, 0) + c
            counts = gate.run_length_counts(r.values, direction)
            assert by_length == {t: int(c) for t, c in enumerate(counts) if c}


def test_square_opening_matches_brute_force():
    rng = np.random.default_rng(2)
    values, mask = workloads.small_random(rng, (7, 9), 5, 0.2)
    h, w = values.shape
    padded = np.pad(values, 4)
    for k in (1, 2):
        eroded = np.array([[padded[4 + r - k:5 + r + k, 4 + c - k:5 + c + k].min()
                            for c in range(w)] for r in range(h)])
        ep = np.pad(eroded, 4)
        opened = np.array([[ep[4 + r - k:5 + r + k, 4 + c - k:5 + c + k].max()
                            for c in range(w)] for r in range(h)])
        assert (gate.square_opening(values, k) == opened).all()


def test_launcher_reports_the_childs_own_peak_rss(tmp_path):
    import os
    import sys
    from launcher import Launcher

    ballast = np.ones(96 * 2**20 // 8)  # this process is far larger than the child
    with Launcher(tmp_path, dict(os.environ)) as launcher:
        _, bare, code = launcher.run([sys.executable, "-c", "pass"], tmp_path / "err")
        _, grown, _ = launcher.run([sys.executable, "-c", "b = bytearray(64 << 20)"],
                                   tmp_path / "err")
    assert code == 0 and ballast.all()
    assert bare < 48 * 1024 < 64 * 1024 < grown

