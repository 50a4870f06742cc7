"""Flat greyscale morphology on masked rasters.

Boundary convention: reads outside the domain (beyond the raster or at a
masked cell) yield 0 for both erosion and dilation. With non-negative
elevations this makes erosion anti-extensive down to the mask edge, so an
opening equals the supremum over structuring-element translates that fit
entirely inside the domain (0 where none fits), structures touching the
mask boundary are genuinely removed, and opening volumes decay to zero.
Operators never create or destroy domain cells.

Every operator and the per-scale spectrum loop go through one raw
extremum and the one raw opening built on it. Line and square elements
run through the doubling scan-line window kernel (O(log width) per
cell) at the scaled half-width, so no scaled element is ever built for
them; any other element folds in one shifted view of the zero-padded
raster per offset of its n-fold sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def _line_passes(self) -> tuple[tuple[int, ...], int]:
        """Kernel direction codes and half-width of the line passes that
        make up the element: one for a line, row then column for a square
        (separable and exact under the zero-pad convention), none for any
        other element. Cached, so a spectrum detects the shape once.
        """
        line = self.as_line()
        if line is not None:
            direction, k = line
            return (_kernels.DIRECTION_CODE[direction],), k
        square = self.as_square()
        if square is not None:
            return (_kernels.ROW, _kernels.COLUMN), square
        return (), 0

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


def _raw_extremum(values: np.ndarray, se: StructuringElement, n: int,
                  minimum: bool) -> np.ndarray:
    """Erosion/dilation of the raw value array (0 at masked cells) by n·se.

    The only place an element becomes kernel calls. A line or square of
    half-width k runs at half-width k*n, so no scaled element is built;
    any other element folds the offsets of ``nse(se, n)``. An all-zero
    array dilates to itself, with no kernel call.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not (minimum or values.any()):
        return values
    passes, k = se._line_passes
    if not passes:
        return _kernels.offset_extremum(values, nse(se, n).offset_rc(), minimum)
    for direction in passes:
        values = _kernels.directional_extremum(values, direction, k * n, minimum)
    return values


def opening_raw(values: np.ndarray, se: StructuringElement, n: int) -> np.ndarray:
    """Opening of a raw array by n·se, not yet restricted to the domain.

    The erosion is 0 at every masked cell (the element holds the origin
    and masked cells store 0), so it feeds the dilation unmasked; the
    dilation can spill onto masked cells, which the caller discards.
    """
    return _raw_extremum(_raw_extremum(values, se, n, True), se, n, False)


def _on_domain(dem: Dem, values: np.ndarray) -> Dem:
    return Dem(np.where(dem.mask, values, 0), dem.mask)


def erode(dem: Dem, se) -> Dem:
    """Windowed minimum over the element; out-of-domain reads as 0."""
    return _on_domain(dem, _raw_extremum(dem.values, resolve_se(se), 1, True))


def dilate(dem: Dem, se) -> Dem:
    """Windowed maximum over the element; the 0 pad is neutral here."""
    return _on_domain(dem, _raw_extremum(dem.values, resolve_se(se), 1, False))


def opening(dem: Dem, se) -> Dem:
    """Erosion then dilation with the same element.

    Under the zero-pad convention this equals, at every domain cell, the
    maximum over all element translates fully contained in the domain
    and covering the cell of the minimum elevation over the translate,
    and 0 where no translate fits.
    """
    return _on_domain(dem, opening_raw(dem.values, resolve_se(se), 1))


def multiscale_opening(dem: Dem, se, n: int) -> Dem:
    """Opening by the n-fold Minkowski sum of the element; n = 0 is identity."""
    return _on_domain(dem, opening_raw(dem.values, resolve_se(se), n))


def open_square_separable(dem: Dem, n: int) -> Dem:
    """Opening by the (2n+1)x(2n+1) square via four streaming passes."""
    return _on_domain(dem, opening_raw(dem.values, named_se("B"), n))


def erode_line_streaming(values, window: int) -> np.ndarray:
    """Streaming 1-D windowed minimum with zero padding.

    Output is identical to the naive windowed minimum that reads 0
    outside the sequence, at O(log window) comparisons per sample.

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
