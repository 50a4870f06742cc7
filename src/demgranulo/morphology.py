"""Flat greyscale morphology on masked rasters.

Boundary convention: reads outside the domain (beyond the raster or at a
masked cell) yield 0 for both erosion and dilation. With non-negative
elevations this makes erosion anti-extensive down to the mask edge, so an
opening equals the supremum over structuring-element translates that fit
entirely inside the domain (0 where none fits), structures touching the
mask boundary are genuinely removed, and opening volumes decay to zero.
Operators never create or destroy domain cells.

A structuring element is one of the shapes the paper's index uses: a
centred segment of one scan direction (B1-B4 and their n-fold sums) or a
centred square (B and its sums); the single point is both. Any other
offset set, such as a cross or a diamond, is refused when the element is
built, so every n-fold sum is a line or a square again.

Every operator goes through one raw extremum, :func:`_raw_extremum`,
and the one raw opening built on it. It is the one place an element
turns into kernel passes: a line (:meth:`StructuringElement.as_line`) is
one pass of the doubling scan-line window kernel (O(log width) per cell)
along its direction, a square (:meth:`StructuringElement.as_square`) a
row pass then a column pass, each at the scaled half-width, so no scaled
element is ever built for them. A line element's spectrum takes the
slab sweep instead; a square's runs one loop over the scales through
these passes, each scale eroding the last one's erosion by the element
and dilating it at the scale's half-width.

Linear elements derive from ``_base.DIRECTION_STEPS``, the one table of
scan directions: B1-B4, :meth:`StructuringElement.as_line` and the scaled
segments of :func:`nse` all step by the unit ``(dx, dy) = (dcol, drow)``.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
# SE_NAMES is part of this module's interface
from ._base import DIRECTION_STEPS, SE_FOR_DIRECTION, SE_NAMES, FrozenRecord  # noqa: F401
from .dem import Dem


def _segment(direction: str, k: int) -> frozenset[tuple[int, int]]:
    """Offsets (dx, dy) of the centred 2k+1-cell segment along ``direction``.

    dx steps columns and dy rows, so B4 is {(-1,0),(0,0),(1,0)}.
    """
    drow, dcol = DIRECTION_STEPS[direction]
    return frozenset((i * dcol, i * drow) for i in range(-k, k + 1))


def _square(k: int) -> frozenset[tuple[int, int]]:
    """Offsets of the centred (2k+1)x(2k+1) square."""
    return frozenset((dx, dy) for dx in range(-k, k + 1) for dy in range(-k, k + 1))


class StructuringElement(FrozenRecord):
    """A centred segment of one scan direction or a centred square (frozen).

    Offsets are (dx, dy) pairs: dx moves along columns, dy along rows.
    The set must hold the origin and be symmetric, and its shape is
    classified once, when the element is built; the answer is kept
    outside the fields, so equality, hash and repr read the offsets and
    the name alone.
    """

    _fields = ("offsets", "name")

    def __init__(self, offsets: frozenset[tuple[int, int]], name: str = ""):
        offsets = frozenset((int(x), int(y)) for x, y in offsets)
        if (0, 0) not in offsets:
            raise ValueError("structuring element must contain the origin")
        for dx, dy in offsets:
            if (-dx, -dy) not in offsets:
                raise ValueError("structuring element must be symmetric")
        k = max(max(abs(dx), abs(dy)) for dx, dy in offsets)
        line = next(((d, k) for d in DIRECTION_STEPS if offsets == _segment(d, k)), None)
        # every offset lies within k of the origin, so (2k+1)^2 of them
        # fill the square
        square = k if len(offsets) == (2 * k + 1) ** 2 else None
        if line is None and square is None:
            raise ValueError("structuring element must be a centred segment of one "
                             "scan direction or a centred square")
        vars(self).update(offsets=offsets, name=name, _shape=(line, square))

    def __len__(self):
        return len(self.offsets)

    def as_line(self) -> tuple[str, int] | None:
        """(direction, half-length) when the offsets form a centred segment.

        The single point is the 0-length segment of the first direction,
        ``("row", 0)``.
        """
        return self._shape[0]

    def as_square(self) -> int | None:
        """Half-width when the offsets form a centred square block.

        The single point is the 1x1 square, half-width 0.
        """
        return self._shape[1]


# B1-B4 are the unit segments of their scan directions, B the 3x3 square
_NAMED = {se: StructuringElement(_segment(d, 1), name=se) for d, se in SE_FOR_DIRECTION.items()}
_NAMED["B"] = StructuringElement(_square(1), name="B")


def named_se(name: str) -> StructuringElement:
    """One of the five canonical elements: B1-B4 (directional) or B (3x3).

    Each name has one element, built once and shared by every caller; it
    is frozen, and its shape is classified once, when it is built.
    """
    try:
        return _NAMED[name]
    except KeyError:
        raise ValueError(f"unknown structuring element {name!r}") from None


def resolve_se(se) -> StructuringElement:
    if isinstance(se, StructuringElement):
        return se
    return named_se(se)


def nse(se: StructuringElement, n: int) -> StructuringElement:
    """n-fold Minkowski self-sum; n = 0 gives the single-point identity.

    The sum of a line or square of half-width k has half-width nk. The
    telescoping definition (n - 1 dilations of the element with itself)
    leaves n = 0 open; the identity element is the one choice under
    which a 0-scale opening leaves the raster untouched.
    """
    se = resolve_se(se)
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return StructuringElement(frozenset({(0, 0)}), name="identity")
    line = se.as_line()
    if line is not None:
        direction, k = line
        return StructuringElement(_segment(direction, n * k), name=f"{n}{se.name or 'L'}")
    return StructuringElement(_square(n * se.as_square()), name=f"{n}{se.name or 'SQ'}")


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def _raw_extremum(values: np.ndarray, se: StructuringElement, n: int,
                  minimum: bool, out: np.ndarray | None = None) -> np.ndarray:
    """Erosion/dilation of the raw value array (0 at masked cells) by n·se.

    The one place an element turns into kernel passes, for the operators
    and the spectra alike. A line or square of half-width k runs at
    half-width k*n, so no scaled element is built. The result goes to
    ``out`` when given, a C-contiguous array of the values' shape and
    dtype, which may be ``values`` itself. An all-zero array dilates to
    itself, with no kernel call.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not (minimum or values.any()):
        if out is None:
            return values
        np.copyto(out, values)
        return out
    line = se.as_line()
    if line is not None:
        direction, k = line
        return _kernels.directional_extremum(values, direction, k * n, minimum, out=out)
    k = se.as_square()
    # a square is separable, and exactly so under the zero-pad convention;
    # the column pass writes over the row pass's result
    values = _kernels.directional_extremum(values, "row", k * n, minimum, out=out)
    return _kernels.directional_extremum(values, "column", k * n, minimum, out=values)


def opening_raw(values: np.ndarray, se: StructuringElement, n: int) -> np.ndarray:
    """Opening of a raw array by n·se, not yet restricted to the domain.

    The erosion is 0 at every masked cell (the element holds the origin
    and masked cells store 0), so it feeds the dilation unmasked; the
    dilation can spill onto masked cells, which the caller discards.
    """
    return _raw_extremum(_raw_extremum(values, se, n, True), se, n, False)


def erode(dem: Dem, se) -> Dem:
    """Windowed minimum over the element; out-of-domain reads as 0."""
    return Dem(_raw_extremum(dem.values, resolve_se(se), 1, True), dem.mask)


def dilate(dem: Dem, se) -> Dem:
    """Windowed maximum over the element; the 0 pad is neutral here."""
    return Dem(_raw_extremum(dem.values, resolve_se(se), 1, False), dem.mask)


def opening(dem: Dem, se) -> Dem:
    """Erosion then dilation with the same element.

    Under the zero-pad convention this equals, at every domain cell, the
    maximum over all element translates fully contained in the domain
    and covering the cell of the minimum elevation over the translate,
    and 0 where no translate fits.
    """
    return Dem(opening_raw(dem.values, resolve_se(se), 1), dem.mask)


def multiscale_opening(dem: Dem, se, n: int) -> Dem:
    """Opening by the n-fold Minkowski sum of the element; n = 0 is identity."""
    return Dem(opening_raw(dem.values, resolve_se(se), n), dem.mask)


def open_square_separable(dem: Dem, n: int) -> Dem:
    """Opening by the (2n+1)x(2n+1) square via four streaming passes."""
    return Dem(opening_raw(dem.values, named_se("B"), n), dem.mask)


def opening_by_segment(values: np.ndarray, direction: str, length: int) -> np.ndarray:
    """Opening of a raw array by a directional segment of any length.

    An opening does not depend on where the element's origin sits, so
    the segment is anchored at its first cell: the erosion reads the
    ``length - 1`` cells after each cell and the adjoint dilation the
    ``length - 1`` cells before it. Even lengths, which have no centred
    symmetric element, take the same path.
    """
    if length < 1:
        raise ValueError("segment length must be >= 1")
    er = _kernels.directional_extremum(values, direction, 0, True, after=length - 1)
    return _kernels.directional_extremum(er, direction, length - 1, False, after=0)
