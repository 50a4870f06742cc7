"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Every comparison on
probability vectors is exact rational equality (zero tolerance); the
stated float tolerances appear only where entropies are compared.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from conftest import (naive_erode, naive_window_extremum, random_dem,
                      random_interval_dem, random_unipeak_dem)
from demgranulo import _kernels
from demgranulo.classify import train_cart, training_accuracy
from demgranulo.dem import SE_FOR_DIRECTION, Dem, scale_heights, volume
from demgranulo.morphology import (StructuringElement, multiscale_opening,
                                   named_se, open_square_separable, opening)
from demgranulo.oracle import (reflection_family, run_table,
                               spectrum_from_runs, unipeak_entropy_equivalence)
from demgranulo.spectrum import (discrete_volume_derivative,
                                 high_low_direction, normalized_mdgi,
                                 pattern_spectrum)
from demgranulo.synth import synthetic_terrain, synthetic_watershed_features

DIRECTIONS = ("row", "column", "diag-down", "diag-up")
ALL_SES = ("B1", "B2", "B3", "B4", "B")


@contextmanager
def verdict(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def test_oracle_equivalence_1000_rasters():
    name = ("oracle equivalence: 1000 random masked rasters, 4 directions "
            "x 2 families, exact")
    with verdict(name):
        rng = np.random.default_rng(20240601)
        start = time.perf_counter()
        for _ in range(1000):
            dem = random_dem(rng, 12, 12, 8, hole_fraction=0.2)
            for direction in DIRECTIONS:
                rt = run_table(dem, direction)
                se = SE_FOR_DIRECTION[direction]
                for family in ("nse", "length"):
                    fast = pattern_spectrum(dem, se, family=family)
                    ref = spectrum_from_runs(rt, family)
                    assert fast.probs == ref.probs
                    assert fast.volumes == ref.volumes
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


def test_oracle_equivalence_large_rasters():
    name = ("oracle equivalence: 20 masked 128x128 terrains at 64 levels, "
            "4 directions x 2 families, exact")
    with verdict(name):
        start = time.perf_counter()
        for seed in range(20):
            dem = synthetic_terrain(128, levels=64, hole_fraction=0.15, seed=seed)
            assert not dem.mask.all()
            for direction in DIRECTIONS:
                rt = run_table(dem, direction)
                se = SE_FOR_DIRECTION[direction]
                for family in ("nse", "length"):
                    fast = pattern_spectrum(dem, se, family=family)
                    ref = spectrum_from_runs(rt, family)
                    assert fast.probs == ref.probs
                    assert fast.volumes == ref.volumes
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


def test_height_scaling_invariance():
    name = "height scaling: 200 rasters x k in {2,3,7} x 5 elements, exact"
    with verdict(name):
        rng = np.random.default_rng(20240602)
        for _ in range(200):
            dem = random_dem(rng, 10, 10, 6)
            base = {se: pattern_spectrum(dem, se).probs for se in ALL_SES}
            for k in (2, 3, 7):
                scaled = scale_heights(dem, k)
                for se in ALL_SES:
                    assert pattern_spectrum(scaled, se).probs == base[se]


def test_reflection_family_invariance():
    name = ("reflection family: 100 interval-row rasters, all 2^rows "
            "variants, identical B4 vectors and run profiles")
    with verdict(name):
        rng = np.random.default_rng(20240603)
        for _ in range(100):
            dem = random_interval_dem(rng, max_rows=6, max_width=8)
            reference_probs = pattern_spectrum(dem, "B4").probs
            reference_runs = run_table(dem, "row").counts
            members = list(reflection_family(dem))
            assert len(members) == 2 ** dem.height
            for member in members:
                assert pattern_spectrum(member, "B4").probs == reference_probs
                # equal to a common reference == equal pairwise
                assert run_table(member, "row").counts == reference_runs


def test_exact_normalization():
    name = "normalization: sum(p) == 1 exactly and terminal volume 0, every raster and element"
    with verdict(name):
        rng = np.random.default_rng(20240604)
        for _ in range(250):
            dem = random_dem(rng, 12, 12, 8)
            for se in ALL_SES:
                ps = pattern_spectrum(dem, se)
                assert sum(ps.probs, Fraction(0)) == 1
                assert ps.volumes[-1] == 0
                assert ps.volumes[0] == volume(dem)


def test_unipeak_equivalence():
    name = ("single-peak rows: 500 generated, derivative multiset == "
            "spectrum multiset exactly, entropy diff < 1e-12")
    with verdict(name):
        rng = np.random.default_rng(20240605)
        for _ in range(500):
            dem = random_unipeak_dem(rng)
            v = volume(dem)
            derivative = sorted(Fraction(d, v)
                                for d in discrete_volume_derivative(dem))
            qs = spectrum_from_runs(run_table(dem, "row"), "length")
            assert derivative == sorted(p for p in qs.probs if p > 0)
            h_deriv, h_gi = unipeak_entropy_equivalence(dem)
            assert abs(h_deriv - h_gi) < 1e-12


def test_operator_laws():
    name = ("operator laws: 500 rasters (idempotent, anti-extensive, "
            "increasing, sieving), 1000 streaming lines, 200 separable "
            "squares, exact")
    with verdict(name):
        rng = np.random.default_rng(20240606)
        for i in range(500):
            dem = random_dem(rng, 8, 8, 6)
            se_name = ALL_SES[i % 5]
            once = opening(dem, se_name)
            assert (once.values <= dem.values).all()
            assert opening(once, se_name) == once
            bump = rng.integers(0, 3, dem.values.shape)
            taller = Dem(np.where(dem.mask, dem.values + bump, 0), dem.mask)
            assert (once.values <= opening(taller, se_name).values).all()
            m, n = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            se = named_se(se_name)
            assert (multiscale_opening(multiscale_opening(dem, se, m), se, n)
                    == multiscale_opening(dem, se, max(m, n)))

        for _ in range(1000):
            length = int(rng.integers(1, 200))
            values = rng.integers(0, 50, length)
            k = int(rng.integers(0, 12))
            got = _kernels.directional_extremum(values[None, :], "row", k, True)[0]
            assert got.tolist() == naive_window_extremum(values, k, True).tolist()

        for _ in range(200):
            dem = random_dem(rng, 15, 15, 6)
            n = int(rng.integers(1, 4))
            square = StructuringElement(frozenset(
                (dx, dy) for dx in range(-n, n + 1) for dy in range(-n, n + 1)))
            direct = naive_erode(naive_erode(dem, square, True), square, False)
            assert open_square_separable(dem, n) == direct


def test_classifier_arithmetic():
    name = ("classifier: majority baseline on 31/69/38 equals 69/138 = 1/2 "
            "exactly; accuracy non-decreasing in depth on 138 records")
    with verdict(name):
        records = synthetic_watershed_features()
        labels = [r.label for r in records]
        assert (labels.count("indus"), labels.count("wardha"),
                labels.count("barmer")) == (31, 69, 38)
        baseline = train_cart(records, 0)
        acc0 = training_accuracy(baseline, records)
        assert acc0 == Fraction(69, 138) == Fraction(1, 2)
        accuracies = [acc0]
        for depth in range(1, 10):
            accuracies.append(training_accuracy(train_cart(records, depth), records))
        assert all(a <= b for a, b in zip(accuracies, accuracies[1:]))


def test_performance_streaming_path():
    name = ("performance: 2000x2000 x 256 levels, 5-element spectra + "
            "features < 10 s single-threaded; near-linear in cell count")
    pytest.importorskip("numba", reason="numba not installed")
    with verdict(name):
        per_cell = {}
        elapsed = {}
        for side in (500, 1000, 2000):
            dem = synthetic_terrain(side, levels=256)
            best = float("inf")
            for _ in range(2):
                t0 = time.perf_counter()
                record = normalized_mdgi(dem, watershed_id=str(side))
                high_low_direction(record.z)
                best = min(best, time.perf_counter() - t0)
            assert not record.degenerate
            elapsed[side] = best
            per_cell[side] = best / (side * side)
        print({s: f"{t * 1000:.0f}ms" for s, t in elapsed.items()})
        assert elapsed[2000] < 10.0, f"{elapsed[2000]:.2f}s exceeds 10s"
        ratio = max(per_cell.values()) / min(per_cell.values())
        assert ratio < 3.0, f"per-cell time ratio {ratio:.2f} is not linear-like"


def test_performance_normalized_mdgi_2000():
    name = ("performance: normalized MDGI (five spectra) of a 2000x2000 x "
            "256-level raster < 10 s single-threaded on the numpy build")
    with verdict(name):
        dem = synthetic_terrain(2000, levels=256)
        t0 = time.perf_counter()
        record = normalized_mdgi(dem)
        elapsed = time.perf_counter() - t0
        print(f"{elapsed:.2f}s")
        assert not record.degenerate
        assert elapsed < 10.0, f"{elapsed:.2f}s exceeds 10s"


def test_performance_square_spectrum_pure_build():
    name = ("performance: square-element spectrum of a 1000x1000 x 256-level "
            "raster < 15 s on the pure build")
    with verdict(name):
        dem = synthetic_terrain(1000, levels=256)
        t0 = time.perf_counter()
        ps = pattern_spectrum(dem, "B")
        elapsed = time.perf_counter() - t0
        print(f"{elapsed:.2f}s over {len(ps.scales)} scales")
        assert ps.volumes[-1] == 0
        assert elapsed < 15.0, f"{elapsed:.2f}s exceeds 15s"


def test_performance_directional_spectra_pure_build():
    name = ("performance: B1-B4 spectra of a 1000x1000 x 256-level raster "
            "< 4 s on the pure build")
    with verdict(name):
        dem = synthetic_terrain(1000, levels=256)
        t0 = time.perf_counter()
        spectra = [pattern_spectrum(dem, se) for se in ALL_SES[:4]]
        elapsed = time.perf_counter() - t0
        print(f"{elapsed:.2f}s over {sum(len(ps.scales) for ps in spectra)} scales")
        assert all(ps.volumes[-1] == 0 for ps in spectra)
        assert elapsed < 4.0, f"{elapsed:.2f}s exceeds 4s"
