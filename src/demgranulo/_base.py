"""Numpy-free names shared by the numeric modules and the CLI.

The raster errors, the scan directions, the structuring-element names and
the feature record live here rather than in ``dem``, ``morphology`` and
``spectrum``, which re-export them; so does the step/datum check that
``dem`` and the CLI's ``RunConfig`` share. ``classify`` and the CLI's
``train-tree``, ``classify`` and ``--version`` paths import only this
module, so they start without loading numpy. Every record class is a
plain class over :class:`Record`, the one record mechanism, or over its
frozen variant :class:`FrozenRecord`; no module loads ``dataclasses``,
which would bring in ``inspect`` and its own imports, and compile each
class's methods at import.

A direction is passed around by its name only; ``DIRECTION_STEPS`` is the
one table of what a name means, the unit lattice step ``(drow, dcol)``
from one cell of a scan line to the next.
"""

from __future__ import annotations

import math

# Scan directions and their unit steps (drow, dcol), and the directional
# structuring element whose scans run along each one.
DIRECTION_STEPS = {
    "row": (0, 1),
    "column": (1, 0),
    "diag-down": (1, 1),
    "diag-up": (1, -1),
}
DIRECTIONS = tuple(DIRECTION_STEPS)
SE_FOR_DIRECTION = {
    "row": "B4",
    "column": "B2",
    "diag-down": "B3",
    "diag-up": "B1",
}
# The four directional elements and the 3x3 square, in feature order.
SE_NAMES = ("B1", "B2", "B3", "B4", "B")


class DemError(Exception):
    """Base error for DEM construction and ingestion."""


class DemParseError(DemError):
    """Malformed input file; carries the 1-based line/column of the fault."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + loc)
        self.line = line
        self.column = column


def _check_step_and_datum(step: float, datum: float) -> None:
    """Reject a quantization step or datum that is not a usable number."""
    # a NaN or infinite step or datum would map every cell to level 1
    if not (step > 0 and math.isfinite(step)):
        raise ValueError(f"step must be positive and finite, got {step}")
    if not math.isfinite(datum):
        raise ValueError(f"datum must be finite, got {datum}")


class Record:
    """Equality by fields and a readable repr for a plain class.

    A subclass names its fields in ``_fields``; two records are equal
    when they are of the same class and their fields are equal, and the
    repr reads like the constructor call.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A :class:`Record` frozen as a frozen dataclass is: ``__init__`` sets
    each attribute once, through ``vars(self)``, assigning or deleting one
    raises ``AttributeError``, and the hash is that of the field values."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())


class FeatureRecord(FrozenRecord):
    """Per-watershed feature bundle derived from the five spectra.

    Frozen; its ``gi`` dict makes it unhashable. ``gi`` defaults to a
    fresh empty dict.
    """

    _fields = ("watershed_id", "x", "gi", "z", "degenerate", "label")

    def __init__(self, watershed_id: str, x: tuple[float, ...], gi: dict | None = None,
                 z: tuple[float, ...] = (0.0, 0.0, 0.0, 0.0), degenerate: bool = False,
                 label: str | None = None):
        vars(self).update(watershed_id=watershed_id, x=x, gi={} if gi is None else gi,
                          z=z, degenerate=degenerate, label=label)
