"""Pattern spectra, granulometric indices and order-statistic features.

A pattern spectrum is the sequence of volume losses between successive
multiscale openings, normalized into an exact-rational probability
vector. Probabilities stay rational end to end, so the invariance laws
(height scaling, row reflection) are exact equalities on spectra; only
the final entropy is evaluated in floating point, with the natural
logarithm (a base change rescales every index by the same constant and
cancels in the normalized features).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _kernels
from .dem import Dem, volume
from .morphology import (multiscale_opening, open_square_raw, opening_by_segment,
                         resolve_se)

DIRECTIONAL_SES = ("B1", "B2", "B3", "B4")
ALL_SES = ("B1", "B2", "B3", "B4", "B")


@dataclass(frozen=True)
class PatternSpectrum:
    """Volume sequence of a granulometry and its probability vector.

    ``volumes[i]`` is the volume surviving the opening at ``scales[i]``;
    the list runs until the volume first reaches 0 (always, under the
    zero-pad convention) plus that terminal zero. ``probs[i]`` is the
    normalized loss between scales i and i+1; the probabilities are
    exact rationals summing to 1.

    ``family`` is ``"nse"`` (scale n opens with the n-fold element sum;
    linear windows have length 2n+1) or ``"length"`` (scale k opens with
    a segment of exactly k cells).
    """

    se_name: str
    family: str
    scales: tuple[int, ...]
    volumes: tuple[int, ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.volumes) != len(self.probs) + 1 or len(self.scales) != len(self.volumes):
            raise ValueError("inconsistent spectrum lengths")
        if self.volumes[-1] != 0:
            raise ValueError("terminal volume must be 0")
        if any(a < b for a, b in zip(self.volumes, self.volumes[1:])):
            raise ValueError("volumes must be non-increasing")
        v0 = self.volumes[0]
        for i, p in enumerate(self.probs):
            if p != Fraction(self.volumes[i] - self.volumes[i + 1], v0):
                raise ValueError("probabilities do not match volume losses")
        if sum(self.probs, Fraction(0)) != 1:
            raise ValueError("probabilities must sum to 1 exactly")

    @property
    def n0(self) -> int:
        """First scale index whose volume equals the terminal value."""
        return len(self.volumes) - 1


@dataclass(frozen=True)
class FeatureRecord:
    """Per-watershed feature bundle derived from the five spectra."""

    watershed_id: str
    x: tuple[float, ...]
    gi: dict = field(default_factory=dict)
    z: tuple[float, ...] = (0.0, 0.0, 0.0, 0.0)
    degenerate: bool = False
    label: str | None = None


def _volume_curve(dem: Dem, direction: str) -> np.ndarray:
    """curve[w] = volume surviving an opening with a w-cell segment.

    The curve ends in zeros: no segment longer than a line survives.
    """
    loss = _kernels.directional_loss(dem.values, _kernels.DIRECTION_CODE[direction])
    curve = np.zeros(loss.shape[0] + 1, dtype=np.int64)
    curve[:-1] = loss[::-1].cumsum()[::-1]
    return curve


def _spectrum_from_points(se_name, family, scales, vols) -> PatternSpectrum:
    v0 = int(vols[0])
    keep = 1
    for v in vols[1:]:
        keep += 1
        if v == 0:
            break
    scales = tuple(int(s) for s in scales[:keep])
    vols = tuple(int(v) for v in vols[:keep])
    probs = tuple(Fraction(vols[i] - vols[i + 1], v0) for i in range(len(vols) - 1))
    return PatternSpectrum(se_name, family, scales, vols, probs)


def pattern_spectrum(dem: Dem, se, *, family: str = "nse",
                     method: str = "auto") -> PatternSpectrum:
    """Spectrum of a raster under one structuring element family.

    Args:
        dem: the raster; its volume must be positive.
        se: a StructuringElement or one of the names B1-B4, B.
        family: "nse" for the element-sum scales n = 0, 1, ...;
            "length" for segments of every length k = 1, 2, ...
            (linear elements only).
        method: "auto" picks the streaming single-pass sweep for linear
            elements and a per-scale openings loop otherwise; "sweep"
            and "openings" force one path (used for cross-checks).

    Returns:
        The exact PatternSpectrum.
    """
    se = resolve_se(se)
    v0 = volume(dem)
    if v0 <= 0:
        raise ValueError("zero-volume raster has no spectrum")
    if len(se) < 2:
        raise ValueError("single-point element never removes volume")
    line = se.as_line()
    if family == "length":
        if line is None:
            raise ValueError("length family requires a linear element")
        if method == "openings":
            return _length_spectrum_openings(dem, se, line)
        return _length_spectrum_sweep(dem, se, line)
    if family != "nse":
        raise ValueError(f"unknown family {family!r}")
    if method == "sweep" and line is None:
        raise ValueError("sweep method requires a linear element")
    if line is not None and method in ("auto", "sweep"):
        return _nse_spectrum_sweep(dem, se, line)
    square = se.as_square()
    if square is not None and method == "auto":
        return _nse_spectrum_square(dem, se, square)
    return _nse_spectrum_openings(dem, se)


def _length_spectrum_sweep(dem, se, line):
    direction, _ = line
    curve = _volume_curve(dem, direction)
    return _spectrum_from_points(se.name or direction, "length",
                                 range(1, curve.shape[0]), curve[1:])


def _length_spectrum_openings(dem, se, line):
    direction, _ = line
    code = _kernels.DIRECTION_CODE[direction]
    vols = [volume(dem)]
    w = 2
    while vols[-1] > 0:
        opened = opening_by_segment(dem.values, code, w)
        vols.append(int(np.where(dem.mask, opened, 0).sum(dtype=np.int64)))
        w += 1
    return _spectrum_from_points(se.name or direction, "length",
                                 range(1, len(vols) + 1), vols)


def _nse_spectrum_sweep(dem, se, line):
    direction, k0 = line
    # scale n opens with a window of 2*k0*n + 1 cells; the stride may
    # step past the curve's zeros, so a terminal 0 is appended
    vols = list(_volume_curve(dem, direction)[1::2 * k0]) + [0]
    return _spectrum_from_points(se.name, "nse", range(len(vols)), vols)


def _nse_spectrum_square(dem, se, k0):
    # only the volume needs the mask, so the per-scale raster wrapping
    # is skipped
    vols = [volume(dem)]
    n = 1
    while vols[-1] > 0:
        arr = open_square_raw(dem.values, k0 * n)
        vols.append(int(arr.sum(where=dem.mask, dtype=np.int64)))
        n += 1
    return _spectrum_from_points(se.name, "nse", range(len(vols)), vols)


def _nse_spectrum_openings(dem, se):
    vols = [volume(dem)]
    n = 1
    limit = dem.height + dem.width + 2
    while vols[-1] > 0:
        vols.append(volume(multiscale_opening(dem, se, n)))
        n += 1
        if n > limit:  # cannot happen for a growing element; guards a stall
            raise RuntimeError("opening volumes failed to reach zero")
    return _spectrum_from_points(se.name, "nse", range(len(vols)), vols)


# ---------------------------------------------------------------------------
# Indices and features
# ---------------------------------------------------------------------------


def granulometric_index(spectrum: PatternSpectrum) -> float:
    """Shannon entropy (natural log) of the probability vector.

    Zero probabilities contribute nothing; a point-mass spectrum has
    index 0.
    """
    acc = 0.0
    for p in spectrum.probs:
        if p > 0:
            pf = float(p)
            acc -= pf * math.log(pf)
    return acc


def normalized_mdgi(dem: Dem, watershed_id: str = "",
                    label: str | None = None) -> FeatureRecord:
    """Directional indices normalized by the 3x3-square index.

    Computes the index for B1..B4 and B, then Z_i = GI(B_i) / GI(B).
    A raster whose square-element index is 0 (a point-mass spectrum,
    e.g. a single cell) gets Z = 0 with the degenerate flag set instead
    of an error, so batch runs survive flat inputs.
    """
    gi = {name: granulometric_index(pattern_spectrum(dem, name)) for name in ALL_SES}
    gi_b = gi["B"]
    if gi_b <= 0.0:
        z = (0.0, 0.0, 0.0, 0.0)
        degenerate = True
    else:
        z = tuple(gi[name] / gi_b for name in DIRECTIONAL_SES)
        degenerate = False
    return FeatureRecord(watershed_id=watershed_id, x=order_stat_features(z),
                         gi=gi, z=z, degenerate=degenerate, label=label)


def order_stat_features(z) -> tuple[float, ...]:
    """Spread the four normalized indices over 16 rank-encoded slots.

    Direction i (1-based) with ascending rank j lands at slot
    (i-1)*4 + (j-1); every other slot is 0. Ties rank by ascending
    direction index, so four equal values fill the diagonal.
    """
    z = tuple(float(v) for v in z)
    if len(z) != 4:
        raise ValueError("expected exactly four values")
    order = sorted(range(4), key=lambda i: (z[i], i))
    x = [0.0] * 16
    for rank, i in enumerate(order):
        x[i * 4 + rank] = z[i]
    return tuple(x)


def high_low_direction(z) -> tuple[str, str]:
    """Names of the elements with the largest and smallest normalized index.

    Ties resolve to the lowest element index.
    """
    z = tuple(float(v) for v in z)
    hi = max(range(4), key=lambda i: (z[i], -i))
    lo = min(range(4), key=lambda i: (z[i], i))
    return DIRECTIONAL_SES[hi], DIRECTIONAL_SES[lo]


def volume_above(dem: Dem, h0: int) -> int:
    """Volume on and above level ``h0``: sum of (f - h0 + 1) where f >= h0."""
    if h0 < 1:
        raise ValueError("h0 must be >= 1")
    return int(np.maximum(dem.values - np.int64(h0 - 1), 0).sum(dtype=np.int64))


def discrete_volume_derivative(dem: Dem) -> list[int]:
    """Volume drop per level: entry h-1 counts the cells with f >= h.

    The entries telescope back to the total volume.
    """
    return [int(np.count_nonzero(dem.values >= h)) for h in range(1, dem.zmax + 1)]
