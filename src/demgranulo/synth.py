"""Deterministic fixtures and synthetic rasters for tests and demos.

The fictitious rasters here are constructed within this project; none
of them is copied from an external source. The random builders take an
explicit seed so fixtures stay reproducible; the random rasters the
tests draw live in ``tests/conftest.py``.
"""

from __future__ import annotations

import numpy as np

from .dem import Dem
from .spectrum import FeatureRecord, order_stat_features


def fictitious_dem() -> Dem:
    """Small non-rectangular raster with interval rows, used in docs."""
    return Dem.from_rows([
        [None, 2, 3, 2, None],
        [1, 2, 4, 4, 1],
        [None, 3, 5, 3, 1],
        [None, None, 2, 2, None],
    ])


def reflection_demo_dem() -> Dem:
    """Three interval rows with no palindromes: 8 distinct reflections."""
    return Dem.from_rows([
        [1, 3, 2],
        [2, 2, 5, 1],
        [4, 1, 1],
    ])


def run_profile_pair() -> tuple[Dem, Dem]:
    """Two single-row rasters with identical run tables that are neither
    equal nor mirror images of each other."""
    return Dem.from_rows([[2, 1, 2, 2, 1]]), Dem.from_rows([[2, 2, 1, 2, 1]])


def unipeak_demo_dem() -> Dem:
    """Single-peak row whose per-level run lengths are all distinct."""
    return Dem.from_rows([[1, 2, 3, 2, 1]])


def synthetic_terrain(side: int, levels: int = 256, hole_fraction: float = 0.02,
                      seed: int = 7) -> Dem:
    """Smooth random terrain of ``side`` x ``side`` cells with mask speckle.

    Built as box-smoothed noise quantized to 1..levels. The speckle
    bounds the largest structure, which keeps square-element spectra
    shallow the way real watershed rasters do.
    """
    rng = np.random.default_rng(seed)
    noise = rng.random((side, side))
    k = max(side // 64, 1)
    smooth = _box_smooth(_box_smooth(noise, k), k)
    lo, hi = smooth.min(), smooth.max()
    norm = (smooth - lo) / (hi - lo) if hi > lo else np.zeros_like(smooth)
    values = (norm * (levels - 1)).astype(np.int64) + 1
    mask = rng.random((side, side)) >= hole_fraction
    if not mask.any():
        mask[0, 0] = True
    return Dem(values, mask)  # Dem stores 0 at the absent cells


def _box_smooth(arr: np.ndarray, k: int) -> np.ndarray:
    """Separable (2k+1)-wide box mean with edge clamping, via cumsum."""
    if k == 0:
        return arr

    def along(a):
        csum = np.zeros((a.shape[0] + 1, a.shape[1]))
        np.cumsum(a, axis=0, out=csum[1:])
        n = a.shape[0]
        lo = np.clip(np.arange(n) - k, 0, n)
        hi = np.clip(np.arange(n) + k + 1, 0, n)
        return (csum[hi] - csum[lo]) / (hi - lo)[:, None]

    return along(along(arr).T).T


# ---------------------------------------------------------------------------
# Synthetic labeled features for the classifier demos
# ---------------------------------------------------------------------------


def synthetic_watershed_features(seed: int = 11) -> list[FeatureRecord]:
    """138 labeled records in a 31/69/38 split with overlapping classes.

    Class centers differ per direction but the noise keeps them tangled,
    so deeper trees genuinely earn more training accuracy.
    """
    rng = np.random.default_rng(seed)
    plan = [("indus", 31, (0.55, 0.75, 0.65, 0.85)),
            ("wardha", 69, (0.75, 0.60, 0.80, 0.60)),
            ("barmer", 38, (0.60, 0.50, 0.90, 0.70))]
    records = []
    idx = 0
    for label, count, centers in plan:
        for _ in range(count):
            z = tuple(max(0.0, c + rng.normal(0, 0.16)) for c in centers)
            records.append(FeatureRecord(
                watershed_id=f"w{idx:03d}", x=order_stat_features(z),
                z=z, label=label))
            idx += 1
    return records
