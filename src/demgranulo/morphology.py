"""Flat greyscale morphology on masked rasters.

Boundary convention: reads outside the domain (beyond the raster or at a
masked cell) yield 0 for both erosion and dilation. With non-negative
elevations this makes erosion anti-extensive down to the mask edge, so an
opening equals the supremum over structuring-element translates that fit
entirely inside the domain (0 where none fits), structures touching the
mask boundary are genuinely removed, and opening volumes decay to zero.
Operators never create or destroy domain cells.

Line and square elements run through the van Herk / Gil-Werman scan-line
kernel (O(1) comparisons per cell regardless of size); any other element
folds in one shifted view of the zero-padded raster per offset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dem import Dem

# Unit offset (dx, dy) generating each named linear element; dx steps
# columns and dy steps rows, so B4 = {(-1,0),(0,0),(1,0)} runs along a row.
_LINE_UNITS = {
    (1, 0): "row",
    (0, 1): "column",
    (1, 1): "diag-down",
    (1, -1): "diag-up",
}


@dataclass(frozen=True)
class StructuringElement:
    """Finite symmetric offset set containing the origin.

    Offsets are (dx, dy) pairs: dx moves along columns, dy along rows.
    """

    offsets: frozenset[tuple[int, int]]
    name: str = ""

    def __post_init__(self):
        offsets = frozenset((int(x), int(y)) for x, y in self.offsets)
        if (0, 0) not in offsets:
            raise ValueError("structuring element must contain the origin")
        for dx, dy in offsets:
            if (-dx, -dy) not in offsets:
                raise ValueError("structuring element must be symmetric")
        object.__setattr__(self, "offsets", offsets)

    def __len__(self):
        return len(self.offsets)

    def as_line(self) -> tuple[str, int] | None:
        """(direction, half-length) when the offsets form a centred segment."""
        if self.offsets == frozenset({(0, 0)}):
            return "row", 0
        for unit, direction in _LINE_UNITS.items():
            k = len(self.offsets) // 2
            segment = {(i * unit[0], i * unit[1]) for i in range(-k, k + 1)}
            if self.offsets == segment:
                return direction, k
        return None

    def as_square(self) -> int | None:
        """Half-width when the offsets form a centred square block."""
        k = 0
        for dx, dy in self.offsets:
            k = max(k, abs(dx), abs(dy))
        if len(self.offsets) == (2 * k + 1) ** 2:
            return k
        return None

    def offset_rc(self) -> np.ndarray:
        """Offsets as an (m, 2) array of (row, col) steps."""
        return np.array(sorted((dy, dx) for dx, dy in self.offsets), dtype=np.int64)


_NAMED = {
    "B1": frozenset({(-1, 1), (0, 0), (1, -1)}),
    "B2": frozenset({(0, 1), (0, 0), (0, -1)}),
    "B3": frozenset({(-1, -1), (0, 0), (1, 1)}),
    "B4": frozenset({(-1, 0), (0, 0), (1, 0)}),
    "B": frozenset((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)),
}

SE_NAMES = ("B1", "B2", "B3", "B4", "B")


def named_se(name: str) -> StructuringElement:
    """One of the five canonical elements: B1-B4 (directional) or B (3x3)."""
    try:
        return StructuringElement(_NAMED[name], name=name)
    except KeyError:
        raise ValueError(f"unknown structuring element {name!r}") from None


def resolve_se(se) -> StructuringElement:
    if isinstance(se, StructuringElement):
        return se
    return named_se(se)


def nse(se: StructuringElement, n: int) -> StructuringElement:
    """n-fold Minkowski self-sum; n = 0 gives the single-point identity.

    The telescoping definition (n - 1 dilations of the element with
    itself) leaves n = 0 open; the identity element is the one choice
    under which a 0-scale opening leaves the raster untouched.
    """
    se = resolve_se(se)
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return StructuringElement(frozenset({(0, 0)}), name="identity")
    line = se.as_line()
    if line is not None:
        direction, k = line
        unit = next(u for u, d in _LINE_UNITS.items() if d == direction)
        offs = frozenset((i * unit[0], i * unit[1]) for i in range(-n * k, n * k + 1))
        return StructuringElement(offs, name=f"{n}{se.name or 'L'}")
    square = se.as_square()
    if square is not None:
        k = n * square
        offs = frozenset((dx, dy) for dx in range(-k, k + 1) for dy in range(-k, k + 1))
        return StructuringElement(offs, name=f"{n}{se.name or 'SQ'}")
    acc = se.offsets
    for _ in range(n - 1):
        acc = frozenset((ax + bx, ay + by) for ax, ay in acc for bx, by in se.offsets)
    return StructuringElement(acc, name=f"{n}{se.name}")


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def _raw_extremum(values: np.ndarray, se: StructuringElement, minimum: bool) -> np.ndarray:
    """Erosion/dilation on the raw value array (0 at masked cells)."""
    line = se.as_line()
    if line is not None:
        direction, k = line
        code = _kernels.DIRECTION_CODE[direction]
        return _kernels.directional_extremum(values, code, k, minimum)
    square = se.as_square()
    if square is not None:
        # separable and exact under the zero-pad convention
        tmp = _kernels.directional_extremum(values, _kernels.ROW, square, minimum)
        return _kernels.directional_extremum(tmp, _kernels.COLUMN, square, minimum)
    return _kernels.offset_extremum(values, se.offset_rc(), minimum)


def erode(dem: Dem, se) -> Dem:
    """Windowed minimum over the element; out-of-domain reads as 0."""
    se = resolve_se(se)
    out = _raw_extremum(dem.values, se, True)
    return Dem(np.where(dem.mask, out, 0), dem.mask)


def dilate(dem: Dem, se) -> Dem:
    """Windowed maximum over the element; the 0 pad is neutral here."""
    se = resolve_se(se)
    out = _raw_extremum(dem.values, se, False)
    return Dem(np.where(dem.mask, out, 0), dem.mask)


def opening(dem: Dem, se) -> Dem:
    """Erosion then dilation with the same element.

    Under the zero-pad convention this equals, at every domain cell, the
    maximum over all element translates fully contained in the domain
    and covering the cell of the minimum elevation over the translate,
    and 0 where no translate fits.
    """
    se = resolve_se(se)
    return dilate(erode(dem, se), se)


def multiscale_opening(dem: Dem, se, n: int) -> Dem:
    """Opening by the n-fold Minkowski sum of the element; n = 0 is identity."""
    if n == 0:
        return dem
    return opening(dem, nse(resolve_se(se), n))


def open_square_raw(values: np.ndarray, k: int) -> np.ndarray:
    """Opening of a raw array by the (2k+1)x(2k+1) square, four passes.

    Horizontal then vertical erosion, then vertical then horizontal
    dilation. The intermediate dilation values at masked cells must be
    kept (not re-masked) for the factorization to be exact; the result
    still has to be restricted to the domain.
    """
    arr = _kernels.directional_extremum(values, _kernels.ROW, k, True)
    arr = _kernels.directional_extremum(arr, _kernels.COLUMN, k, True)
    arr = _kernels.directional_extremum(arr, _kernels.COLUMN, k, False)
    return _kernels.directional_extremum(arr, _kernels.ROW, k, False)


def open_square_separable(dem: Dem, n: int) -> Dem:
    """Opening by the (2n+1)x(2n+1) square via four streaming passes."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return dem
    return Dem(np.where(dem.mask, open_square_raw(dem.values, n), 0), dem.mask)


def erode_line_streaming(values, window: int) -> np.ndarray:
    """Streaming 1-D windowed minimum with zero padding.

    Output is identical to the naive windowed minimum that reads 0
    outside the sequence, at O(1) comparisons per sample regardless of
    the window length.

    Args:
        values: 1-D integer sequence.
        window: odd window length >= 1.

    Returns:
        int64 array of the same length.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 1, got {window}")
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("expected a 1-D array")
    return _kernels.directional_extremum(arr[None, :], _kernels.ROW, window // 2, True)[0]


def opening_by_segment(values: np.ndarray, direction_code: int, length: int) -> np.ndarray:
    """Opening of a raw array by a directional segment of any length.

    An opening does not depend on where the element's origin sits, so
    the segment is anchored at its first cell: the erosion reads the
    ``length - 1`` cells after each cell and the adjoint dilation the
    ``length - 1`` cells before it. Even lengths, which have no centred
    symmetric element, take the same path.
    """
    if length < 1:
        raise ValueError("segment length must be >= 1")
    er = _kernels.directional_extremum(values, direction_code, 0, True, after=length - 1)
    return _kernels.directional_extremum(er, direction_code, length - 1, False, after=0)
