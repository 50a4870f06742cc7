"""Directional granulometric roughness indices on masked integer rasters.

The package computes multiscale pattern spectra of elevation rasters
under directional and square structuring elements, the Shannon-entropy
roughness index of each spectrum, normalized order-statistic features,
and a small deterministic decision tree over those features. A fully
independent run-counting path re-derives every directional spectrum for
exact cross-validation.

Importing the package loads none of its modules: each public name is
imported from its module on first access (PEP 562), so a program that
uses only the decision tree, such as ``demgranulo classify``, never
loads numpy.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the names in _base are also exported by dem, morphology and spectrum;
# taking them from _base keeps them numpy-free
_EXPORTS = {
    "_base": ("DIRECTIONS", "SE_FOR_DIRECTION", "SE_NAMES", "DemError",
              "DemParseError", "FeatureRecord"),
    "classify": ("DecisionTree", "predict", "render_tree", "train_cart",
                 "training_accuracy", "tree_from_json", "tree_to_json"),
    "dem": ("Dem", "ScanLine", "Segment", "parse_esri_ascii", "parse_fixture_csv",
            "quantize", "reflect_rows", "scale_heights", "scan_lines", "volume"),
    "morphology": ("StructuringElement", "dilate", "erode", "multiscale_opening",
                   "named_se", "nse", "open_square_separable", "opening"),
    "oracle": ("RunLengths", "RunTable", "is_unipeak", "reflection_family",
               "run_lengths", "run_profile_equal", "run_table", "spectrum_from_runs",
               "unipeak_entropy_equivalence"),
    "spectrum": ("PatternSpectrum", "discrete_volume_derivative",
                 "granulometric_index", "high_low_direction", "normalized_mdgi",
                 "order_stat_features", "pattern_spectra", "pattern_spectrum",
                 "volume_above"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["numba_active", *_MODULE_OF]


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


def numba_active():
    """Always ``False``: every kernel is numpy code and there is no numba build.

    Kept for callers that label their runs by kernel build, such as the
    benchmark in ``perfbench/``.
    """
    return False
