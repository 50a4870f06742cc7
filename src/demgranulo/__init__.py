"""Directional granulometric roughness indices on masked integer rasters.

The package computes multiscale pattern spectra of elevation rasters
under directional and square structuring elements, the Shannon-entropy
roughness index of each spectrum, normalized order-statistic features,
and a small deterministic decision tree over those features. A fully
independent run-counting path re-derives every directional spectrum for
exact cross-validation.
"""

__version__ = "0.1.0"

from .classify import (DecisionTree, predict, render_tree, train_cart,
                       training_accuracy, tree_from_json, tree_to_json)
from .dem import (DIRECTIONS, SE_FOR_DIRECTION, Dem, DemError, DemParseError,
                  ScanLine, Segment, parse_esri_ascii, parse_fixture_csv,
                  quantize, reflect_rows, scale_heights, scan_lines, volume)
from .morphology import (SE_NAMES, StructuringElement, dilate, erode,
                         erode_line_streaming, multiscale_opening, named_se,
                         nse, open_square_separable, opening)
from .oracle import (RunTable, is_unipeak, reflection_family, run_profile_equal,
                     run_table, spectrum_from_runs, unipeak_entropy_equivalence)
from .spectrum import (FeatureRecord, PatternSpectrum, discrete_volume_derivative,
                       granulometric_index, high_low_direction, normalized_mdgi,
                       order_stat_features, pattern_spectrum, volume_above)

__all__ = [
    "numba_active",
    "DecisionTree", "predict", "render_tree", "train_cart",
    "training_accuracy", "tree_from_json", "tree_to_json",
    "DIRECTIONS", "SE_FOR_DIRECTION", "Dem", "DemError", "DemParseError",
    "ScanLine", "Segment", "parse_esri_ascii", "parse_fixture_csv",
    "quantize", "reflect_rows", "scale_heights", "scan_lines", "volume",
    "SE_NAMES", "StructuringElement", "dilate", "erode",
    "erode_line_streaming", "multiscale_opening", "named_se", "nse",
    "open_square_separable", "opening",
    "RunTable", "is_unipeak", "reflection_family", "run_profile_equal",
    "run_table", "spectrum_from_runs", "unipeak_entropy_equivalence",
    "FeatureRecord", "PatternSpectrum", "discrete_volume_derivative",
    "granulometric_index", "high_low_direction", "normalized_mdgi",
    "order_stat_features", "pattern_spectrum", "volume_above",
]


def numba_active():
    """Always ``False``: every kernel is numpy code and there is no numba build.

    Kept for callers that label their runs by kernel build, such as the
    benchmark in ``perfbench/``.
    """
    return False
