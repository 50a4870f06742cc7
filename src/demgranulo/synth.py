"""Deterministic fixtures and synthetic rasters for tests and demos.

The fictitious rasters here are constructed within this project; none
of them is copied from an external source. All random builders take an
explicit numpy Generator (or seed) so fixtures stay reproducible.
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


# ---------------------------------------------------------------------------
# Random builders
# ---------------------------------------------------------------------------


def _rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def random_dem(rng, max_height: int = 12, max_width: int = 12,
               levels: int = 8, hole_fraction: float = 0.2) -> Dem:
    """Random masked raster with at least one present cell."""
    rng = _rng(rng)
    h = int(rng.integers(1, max_height + 1))
    w = int(rng.integers(1, max_width + 1))
    values = rng.integers(1, levels + 1, size=(h, w)).astype(np.int64)
    mask = rng.random((h, w)) >= hole_fraction
    if not mask.any():
        mask[rng.integers(0, h), rng.integers(0, w)] = True
    return Dem(values, mask)  # Dem stores 0 at the absent cells


def random_interval_dem(rng, max_rows: int = 6, max_width: int = 10,
                        levels: int = 6) -> Dem:
    """Random raster whose every row is one unbroken interval."""
    rng = _rng(rng)
    h = int(rng.integers(1, max_rows + 1))
    w = int(rng.integers(1, max_width + 1))
    values = np.zeros((h, w), dtype=np.int64)
    mask = np.zeros((h, w), dtype=bool)
    for r in range(h):
        lo = int(rng.integers(0, w))
        hi = int(rng.integers(lo, w))
        mask[r, lo:hi + 1] = True
        values[r, lo:hi + 1] = rng.integers(1, levels + 1, size=hi - lo + 1)
    return Dem(values, mask)


def random_unipeak_dem(rng, max_levels: int = 6, max_base: int = 24) -> Dem:
    """Random single-peak row with strictly shrinking per-level runs.

    Level h carries exactly one run, each nested strictly inside the one
    below, so the run lengths are pairwise distinct and the volume-drop
    multiset matches the length-spectrum multiset exactly.
    """
    rng = _rng(rng)
    m = int(rng.integers(1, max_levels + 1))
    lengths = sorted(rng.choice(np.arange(1, max_base + 1), size=m, replace=False),
                     reverse=True)
    base = lengths[0]
    values = np.zeros(base, dtype=np.int64)
    lo, hi = 0, base  # current run is [lo, hi)
    for h, t in enumerate(lengths, start=1):
        if h > 1:
            lo = lo + int(rng.integers(0, (hi - lo) - t + 1))
            hi = lo + t
        values[lo:hi] += 1
    return Dem(values.reshape(1, -1), np.ones((1, base), dtype=bool))


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
