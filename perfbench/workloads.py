"""Seeded inputs and CLI invocations for the three benchmark workloads.

The generators here use numpy only, not ``demgranulo.synth``, so a
change to the program cannot change what the benchmark feeds it. The
same seed always yields byte-identical input files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("features-terrain", "oracle-check", "spectrum-small")

NODATA = -9999

# Sides of the features-terrain rasters, one raster each. The mix covers
# the 128..320 range so per-cell scaling shows in one batch.
TERRAIN_SIDES = (128, 224, 320)
TERRAIN_LEVELS = 256
# one absent cell per 7x7 tile: 2 % speckle, square spectrum depth 6
TERRAIN_HOLE_BLOCK = 7

ORACLE_RASTERS = 5
ORACLE_SIDE = 128
ORACLE_LEVELS = 64
ORACLE_HOLES = 0.15

SMALL_RASTERS = 200
SMALL_MAX_SIDE = 48
SMALL_LEVELS = 16
SMALL_HOLES = 0.10
SMALL_SHAPE_SEED = 48

TREE_DEPTH = 3


@dataclass
class Raster:
    """One generated input: int64 elevations (0 where masked) and mask."""

    ident: str
    values: np.ndarray
    mask: np.ndarray

    @property
    def cells(self) -> int:
        return int(np.count_nonzero(self.mask))

    @property
    def levels(self) -> int:
        return int(self.values.max())


@dataclass
class Batch:
    """A workload's inputs as written to disk, plus how to run the CLI."""

    workload: str
    seed: int
    rasters: list[Raster]
    files: list[Path]
    work: Path
    tree: Path | None = None

    @property
    def cells(self) -> int:
        return sum(r.cells for r in self.rasters)

    def describe(self) -> dict:
        return {
            "seed": self.seed,
            "rasters": len(self.rasters),
            "sizes": _sizes([r.values.shape for r in self.rasters]),
            "cells": self.cells,
            "levels": max(r.levels for r in self.rasters),
        }


def _sizes(shapes: list[tuple[int, int]]):
    """Every raster's HxW, or the smallest and largest of a long batch."""
    names = [f"{h}x{w}" for h, w in shapes]
    if len(names) <= 12:
        return names
    by_cells = sorted(range(len(shapes)), key=lambda i: shapes[i][0] * shapes[i][1])
    return {"smallest": names[by_cells[0]], "largest": names[by_cells[-1]]}


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _box_smooth(arr: np.ndarray, k: int) -> np.ndarray:
    """Separable (2k+1)-wide box mean with edge clamping."""

    def along(a):
        csum = np.zeros((a.shape[0] + 1, a.shape[1]))
        np.cumsum(a, axis=0, out=csum[1:])
        n = a.shape[0]
        lo = np.clip(np.arange(n) - k, 0, n)
        hi = np.clip(np.arange(n) + k + 1, 0, n)
        return (csum[hi] - csum[lo]) / (hi - lo)[:, None]

    return along(along(arr).T).T


def terrain(rng: np.random.Generator, side: int, levels: int) -> np.ndarray:
    """Box-smoothed noise quantized to 1..levels."""
    noise = rng.random((side, side))
    k = max(side // 64, 1)
    smooth = _box_smooth(_box_smooth(noise, k), k)
    lo, hi = smooth.min(), smooth.max()
    return ((smooth - lo) / (hi - lo) * (levels - 1)).astype(np.int64) + 1


def random_holes(rng: np.random.Generator, side: int, fraction: float) -> np.ndarray:
    """Mask with each cell absent independently; the centre stays present."""
    mask = rng.random((side, side)) >= fraction
    mask[side // 2, side // 2] = True
    return mask


def jittered_holes(rng: np.random.Generator, side: int, block: int) -> np.ndarray:
    """Mask with one absent cell at a random spot in every block x block tile.

    The largest hole-free square, and with it the depth of the square
    spectrum, then stays the same from seed to seed.
    """
    tiles = -(-side // block)
    r = np.arange(tiles)[:, None] * block + rng.integers(0, block, (tiles, tiles))
    c = np.arange(tiles)[None, :] * block + rng.integers(0, block, (tiles, tiles))
    inside = (r < side) & (c < side)
    mask = np.ones((side, side), dtype=bool)
    mask[r[inside], c[inside]] = False
    return mask


def _masked(values: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.where(mask, values, 0), mask


def small_random(rng: np.random.Generator, shape: tuple[int, int], levels: int,
                 hole_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """Uniform random levels, at least one cell present."""
    h, w = shape
    values = rng.integers(1, levels + 1, size=(h, w)).astype(np.int64)
    mask = rng.random((h, w)) >= hole_fraction
    mask[int(rng.integers(0, h)), int(rng.integers(0, w))] = True
    return _masked(values, mask)


def small_shapes() -> list[tuple[int, int]]:
    """The spectrum-small shapes: the same on every seed.

    Per-call cost dominates that workload, so its rate depends on the mix
    of shapes; random shapes per seed moved it by several per cent.
    """
    rng = np.random.default_rng(SMALL_SHAPE_SEED)
    sides = rng.integers(1, SMALL_MAX_SIDE + 1, size=(SMALL_RASTERS, 2))
    return [(int(h), int(w)) for h, w in sides]


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), index])


def make_rasters(workload: str, seed: int) -> list[Raster]:
    """The workload's rasters for ``seed``; identical for identical seeds."""
    rasters = []
    if workload == "features-terrain":
        for i, side in enumerate(TERRAIN_SIDES):
            rng = _rng(seed, workload, i)
            values = terrain(rng, side, TERRAIN_LEVELS)
            rasters.append(Raster(f"t{i:02d}", *_masked(
                values, jittered_holes(rng, side, TERRAIN_HOLE_BLOCK))))
    elif workload == "oracle-check":
        for i in range(ORACLE_RASTERS):
            rng = _rng(seed, workload, i)
            values = terrain(rng, ORACLE_SIDE, ORACLE_LEVELS)
            rasters.append(Raster(f"o{i:02d}", *_masked(
                values, random_holes(rng, ORACLE_SIDE, ORACLE_HOLES))))
    elif workload == "spectrum-small":
        for i, shape in enumerate(small_shapes()):
            rasters.append(Raster(f"s{i:03d}", *small_random(
                _rng(seed, workload, i), shape, SMALL_LEVELS, SMALL_HOLES)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return rasters


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def esri_ascii(r: Raster) -> str:
    """ESRI ASCII grid with levels written verbatim (read with --datum 1)."""
    h, w = r.values.shape
    grid = np.where(r.mask, r.values, NODATA).astype(str)
    lines = [f"ncols {w}", f"nrows {h}", "xllcorner 0.0", "yllcorner 0.0",
             "cellsize 1.0", f"NODATA_value {NODATA}"]
    lines.extend(" ".join(row) for row in grid.tolist())
    return "\n".join(lines) + "\n"


def fixture_csv(r: Raster) -> str:
    """Fixture CSV: integer cells, empty fields for masked cells."""
    grid = np.where(r.mask, r.values.astype(str), "")
    return "\n".join(",".join(row) for row in grid.tolist()) + "\n"


def write_batch(workload: str, seed: int, work: Path) -> Batch:
    """Generate the workload's inputs for ``seed`` under ``work``."""
    return batch_of(workload, seed, make_rasters(workload, seed), work)


def batch_of(workload: str, seed: int, rasters: list[Raster], work: Path) -> Batch:
    """Write ``rasters`` under ``work``/in as the workload reads them, plus
    the workload's set-up."""
    in_dir = work / "in"
    in_dir.mkdir(parents=True, exist_ok=True)
    suffix, render = ((".asc", esri_ascii) if workload == "features-terrain"
                      else (".csv", fixture_csv))
    files = []
    for r in rasters:
        path = in_dir / f"{r.ident}{suffix}"
        path.write_text(render(r))
        files.append(path)
    batch = Batch(workload, seed, rasters, files, work)
    if workload == "features-terrain":
        train_tree(batch)
    return batch


def train_tree(batch: Batch) -> None:
    """Set-up for features-terrain: fit the tree that classify applies."""
    from demgranulo.classify import train_cart, tree_to_json
    from demgranulo.synth import synthetic_watershed_features

    tree = train_cart(synthetic_watershed_features(), TREE_DEPTH)
    batch.tree = batch.work / "tree.json"
    batch.tree.write_text(tree_to_json(tree))


# ---------------------------------------------------------------------------
# CLI invocations
# ---------------------------------------------------------------------------


def cli_argvs(batch: Batch, out: Path) -> list[list[str]]:
    """CLI argument lists for one round of the workload, run in order."""
    files = [str(p) for p in batch.files]
    if batch.workload == "features-terrain":
        features = str(out / "features.csv")
        return [
            ["features", *files, "--datum", "1", "--parallel", "1",
             "--output", features],
            ["classify", features, "--tree", str(batch.tree),
             "--output", str(out / "predictions.csv")],
        ]
    if batch.workload == "oracle-check":
        return [["oracle-check", *files, "--parallel", "1",
                 "--report", str(out / "oracle.csv")]]
    if batch.workload == "spectrum-small":
        return [["spectrum", *files, "--parallel", "1", "--out-dir", str(out)]]
    raise ValueError(f"unknown workload {batch.workload!r}")
