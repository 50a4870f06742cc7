"""Pattern spectra, granulometric indices and order-statistic features.

A pattern spectrum is the sequence of volume losses between successive
multiscale openings, normalized into an exact-rational probability
vector. Probabilities stay rational end to end, so the invariance laws
(height scaling, row reflection) are exact equalities on spectra; only
the final entropy is evaluated in floating point, with the natural
logarithm (a base change rescales every index by the same constant and
cancels in the normalized features).

Each spectrum has one code path, :func:`pattern_spectra`. An element
is a line or a square (``morphology`` refuses any other shape). A linear
element takes the slab sweep, one pass that yields every scale of every
family asked for in the call. A square runs one loop over the scales:
each scale erodes the last one's erosion by the element and dilates it,
both through ``morphology._raw_extremum``, the one square-erosion path.
The scales run until the erosion, and so the volume, reaches 0.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from . import _kernels
from ._base import SE_NAMES, FeatureRecord, FrozenRecord
from .dem import Dem, volume
from .morphology import _raw_extremum, resolve_se


class PatternSpectrum(FrozenRecord):
    """Volume sequence of a granulometry, frozen; scales and probs derive from it.

    ``volumes[i]`` is the volume surviving the opening at ``scales[i]``,
    up to and including the first 0. ``probs[i]`` is the exact
    ``Fraction`` (volumes[i] - volumes[i+1]) / volumes[0].

    ``family`` is ``"nse"`` (scale n = 0, 1, ... opens with the n-fold
    element sum; linear windows have length 2n+1) or ``"length"`` (scale
    k = 1, 2, ... opens with a segment of exactly k cells).
    """

    _fields = ("se_name", "family", "volumes")

    def __init__(self, se_name: str, family: str, volumes: tuple[int, ...]):
        if family not in ("nse", "length"):
            raise ValueError(f"unknown family {family!r}")
        if len(volumes) < 2 or volumes[0] <= 0:
            raise ValueError("a spectrum needs a positive volume and a terminal 0")
        if volumes[-1] != 0:
            raise ValueError("terminal volume must be 0")
        if any(a < b for a, b in zip(volumes, volumes[1:])):
            raise ValueError("volumes must be non-increasing")
        vars(self).update(se_name=se_name, family=family, volumes=volumes)

    @property
    def n0(self) -> int:
        """First scale index whose volume equals the terminal value."""
        return len(self.volumes) - 1

    @property
    def scales(self) -> tuple[int, ...]:
        first = 0 if self.family == "nse" else 1
        return tuple(range(first, first + len(self.volumes)))

    @property
    def probs(self) -> tuple[Fraction, ...]:
        from fractions import Fraction  # the batch commands build none
        v0 = self.volumes[0]
        return tuple(Fraction(a - b, v0) for a, b in zip(self.volumes, self.volumes[1:]))


def _volume_curve(levels: np.ndarray, direction: str) -> np.ndarray:
    """curve[w] = volume surviving an opening with a w-cell segment.

    The curve ends in zeros: no segment longer than a line survives.
    """
    loss = _kernels.directional_loss(levels, direction)
    curve = np.zeros(loss.shape[0] + 1, dtype=np.int64)
    curve[:-1] = loss[::-1].cumsum()[::-1]
    return curve


def _spectrum_from_points(se_name, family, vols) -> PatternSpectrum:
    vols = [int(v) for v in vols]  # cut after the first 0 past the start
    return PatternSpectrum(se_name, family, tuple(vols[:vols.index(0, 1) + 1]))


def pattern_spectrum(dem: Dem, se, *, family: str = "nse") -> PatternSpectrum:
    """Spectrum of a raster under one structuring element family.

    Linear elements take the single-pass slab sweep, which yields every
    scale at once; a square (B among them) opens the raster once per
    scale, eroding each scale's erosion from the last one's. The scales
    run until the volume reaches 0.

    Args:
        dem: the raster; its volume must be positive.
        se: a StructuringElement or one of the names B1-B4, B.
        family: "nse" for the element-sum scales n = 0, 1, ...;
            "length" for segments of every length k = 1, 2, ...
            (linear elements only).

    Returns:
        The exact PatternSpectrum.
    """
    return pattern_spectra(dem, se, (family,))[0]


def pattern_spectra(dem: Dem, se, families) -> tuple[PatternSpectrum, ...]:
    """Spectra of one element, one per entry of ``families``, from one sweep.

    Every argument is checked before the work starts; a square takes
    only "nse", from one loop over the scales.
    """
    se = resolve_se(se)
    v0 = volume(dem)
    if v0 <= 0:
        raise ValueError("zero-volume raster has no spectrum")
    if len(se) < 2:
        raise ValueError("single-point element never removes volume")
    line = se.as_line()
    for family in families:
        if family == "length" and line is None:
            raise ValueError("length family requires a linear element")
        if family not in ("nse", "length"):
            raise ValueError(f"unknown family {family!r}")
    if line is None:
        return (_nse_spectrum_square(dem, se, v0),) * len(families)
    curve = _volume_curve(dem.values, line[0])
    # read from the module per call: perfbench/tracer.py wraps them by name
    build = {"nse": _nse_spectrum_sweep, "length": _length_spectrum_sweep}
    return tuple(build[family](se, line, curve) for family in families)


def _length_spectrum_sweep(se, line, curve):
    direction, _ = line
    return _spectrum_from_points(se.name or direction, "length", curve[1:])


def _nse_spectrum_sweep(se, line, curve):
    _, k0 = line
    # scale n opens with a window of 2*k0*n + 1 cells; the stride may
    # step past the curve's zeros, so a terminal 0 is appended
    vols = list(curve[1::2 * k0]) + [0]
    return _spectrum_from_points(se.name, "nse", vols)


def _nse_spectrum_square(dem, se, v0):
    """The spectrum of a square element, one scale at a time.

    Scale n erodes the last scale's erosion once more by the element and
    dilates the result by n·se into a second raster, so beyond its levels
    B holds two rasters. The erosion by (n+1)·se is the erosion by se of
    the erosion by n·se, since (n+1)·se = se ⊕ n·se; that holds exactly
    under the zero pad too, as the element holds the origin and every
    cell outside the domain reads 0. Only the volume needs the mask, so
    no opening is wrapped in a raster.
    (perfbench/tracer.py times this function by name.)
    """
    eroded = dem.values.copy()
    opened = np.empty_like(eroded)
    vols, n = [v0], 0
    while vols[-1]:
        n += 1
        _raw_extremum(eroded, se, 1, True, out=eroded)
        # an erosion is 0 off the mask and the dilation keeps each cell's
        # own value, so the volume is 0 exactly when the erosion is, and
        # an all-zero erosion is copied, not dilated
        _raw_extremum(eroded, se, n, False, out=opened)
        np.multiply(opened, dem.mask, out=opened)
        vols.append(int(opened.sum(dtype=np.int64)))
    return _spectrum_from_points(se.name, "nse", vols)


# ---------------------------------------------------------------------------
# Indices and features
# ---------------------------------------------------------------------------


def granulometric_index(spectrum: PatternSpectrum) -> float:
    """Shannon entropy (natural log) of the probability vector.

    Each term divides an integer loss by the first volume, which rounds
    the exact rational once, as ``float(Fraction)`` does. Zero losses
    contribute nothing; a point-mass spectrum has index 0.
    """
    vols = spectrum.volumes
    acc = 0.0
    for a, b in zip(vols, vols[1:]):
        if a > b:
            pf = (a - b) / vols[0]
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
    gi = {name: granulometric_index(pattern_spectrum(dem, name)) for name in SE_NAMES}
    gi_b = gi["B"]
    if gi_b <= 0.0:
        z = (0.0, 0.0, 0.0, 0.0)
        degenerate = True
    else:
        z = tuple(gi[name] / gi_b for name in SE_NAMES[:4])
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
    if len(z) != 4:
        raise ValueError("expected exactly four values")
    hi = max(range(4), key=lambda i: (z[i], -i))
    lo = min(range(4), key=lambda i: (z[i], i))
    return SE_NAMES[hi], SE_NAMES[lo]


def volume_above(dem: Dem, h0: int) -> int:
    """Volume on and above level ``h0``: sum of (f - h0 + 1) where f >= h0.

    ``h0`` is an int or numpy integer: a float raises ``TypeError``."""
    h0 = operator.index(h0)
    if h0 < 1:
        raise ValueError("h0 must be >= 1")
    # widened first: the difference may not fit the raster's own dtype
    above = np.subtract(dem.values, np.int64(h0 - 1), dtype=np.int64)
    return int(np.maximum(above, 0, out=above).sum(dtype=np.int64))


def discrete_volume_derivative(dem: Dem) -> list[int]:
    """Volume drop per level: entry h-1 counts the cells with f >= h.

    The entries telescope back to the total volume. The cells are
    counted per held level and summed from the top down; between two
    consecutive held levels the count does not change, so it repeats.
    """
    held, counts = np.unique(dem.values, return_counts=True)
    above = np.cumsum(counts[::-1])[::-1]
    keep = held > 0
    return np.repeat(above[keep], np.diff(held[keep], prepend=0)).tolist()
