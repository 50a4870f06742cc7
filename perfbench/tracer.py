"""Per-layer spans around the calls one demgranulo module makes into another.

:class:`Tracer` swaps module attributes for timing wrappers while it is
active and puts the originals back on exit, so the program itself is
not edited. Each wrapped call records a span (name, start, end, parent
span); a span's self time is its duration minus the time its child spans
cover. Spans stay in memory and are reduced to per-layer metrics by
:meth:`Tracer.metrics`.

A layer is named after the module it lives in. The wrapped bindings are
the ones the CLI paths go through: ``cli`` reaches ``dem``, ``spectrum``,
``oracle`` and ``classify`` through names it imported; ``spectrum``
reaches ``_kernels`` through the module object and its own helpers
through module globals; ``oracle`` reaches ``dem.scan_lines`` through
its import; every file the CLI writes goes through ``Path.write_text``.
"""

from __future__ import annotations

import functools
import pathlib
import time
from collections import Counter

from demgranulo import _kernels, cli, morphology, oracle, spectrum

MORPHOLOGY_OPS = ("erode", "dilate", "opening", "multiscale_opening",
                  "open_square_separable", "opening_by_segment")


def _targets():
    """(owner, attribute, span name) for every wrapped binding."""
    out = [
        (cli, "parse_esri_ascii", "dem.parse"),
        (cli, "parse_fixture_csv", "dem.parse"),
        (oracle, "scan_lines", "dem.scan_lines"),
        (_kernels, "directional_extremum", "kernels.extremum"),
        (_kernels, "directional_loss", "kernels.loss"),
        (cli, "normalized_mdgi", "spectrum"),
        (cli, "high_low_direction", "spectrum"),
        (cli, "pattern_spectrum", "spectrum.pattern_spectrum"),
        (spectrum, "pattern_spectrum", "spectrum.pattern_spectrum"),
        (spectrum, "_nse_spectrum_square", "spectrum.square"),
        (spectrum, "_nse_spectrum_sweep", "spectrum.directional"),
        (spectrum, "_length_spectrum_sweep", "spectrum.directional"),
        (cli, "granulometric_index", "spectrum.entropy"),
        (spectrum, "granulometric_index", "spectrum.entropy"),
        (cli, "run_table", "oracle.run_table"),
        (cli, "spectrum_from_runs", "oracle.from_runs"),
        (cli, "predict", "classify.predict"),
        (pathlib.Path, "write_text", "cli.write"),
    ]
    for name in MORPHOLOGY_OPS:
        out.append((morphology, name, "morphology"))
        if hasattr(spectrum, name):
            out.append((spectrum, name, "morphology"))
    return out


def _tally(name, args, result, counts: Counter) -> None:
    """Work counts recorded at the boundary, outside the timed span."""
    if name == "dem.parse":
        counts["dem.cells"] += result.cell_count
    elif name == "kernels.extremum":
        counts["kernels.extremum_cells"] += args[0].size
    elif name == "kernels.loss":
        counts["kernels.loss_cells"] += args[0].size
    elif name == "spectrum.pattern_spectrum" and result.family == "nse":
        key = "spectrum.scales_B" if result.se_name == "B" else "spectrum.scales_dir"
        counts[key] += result.n0
    elif name == "oracle.run_table":
        counts["oracle.runs"] += sum(result.counts.values())
    elif name == "cli.write":
        counts["cli.bytes_written"] += len(args[1].encode())


class Tracer:
    """Context manager that records spans while the wrappers are installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, t0, t1, parent
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object, bool]] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(index)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[index] = (name, t0, t1, spans[index][3])
            _tally(name, args, result, counts)
            return result

        return traced

    def __enter__(self):
        for owner, attr, name in _targets():
            own = attr in vars(owner)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original, own))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        return False

    def run_cli(self, argv) -> int:
        """``cli.main(argv)`` as a root span named ``cli``."""
        return self._wrap("cli", cli.main)(argv)

    # -- reduction ------------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """(self seconds, inclusive seconds, calls) per span name."""
        own, incl, calls = Counter(), Counter(), Counter()
        covered = Counter()
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            own[name] += (t1 - t0) - covered[i]
            incl[name] += t1 - t0
            calls[name] += 1
        return own, incl, calls

    def metrics(self) -> dict[str, float]:
        own, incl, calls = self.totals()
        c = self.counts
        return {
            "dem.parse_s": own["dem.parse"],
            "dem.scan_lines_s": own["dem.scan_lines"],
            "dem.cells": c["dem.cells"],
            "dem.calls": calls["dem.parse"] + calls["dem.scan_lines"],
            "kernels.extremum_s": own["kernels.extremum"],
            "kernels.extremum_calls": calls["kernels.extremum"],
            "kernels.extremum_cells": c["kernels.extremum_cells"],
            # computed, not measured: one int64 read and one write per cell
            "kernels.extremum_bytes": c["kernels.extremum_cells"] * 8 * 2,
            "kernels.loss_s": own["kernels.loss"],
            "kernels.loss_calls": calls["kernels.loss"],
            "kernels.loss_cells": c["kernels.loss_cells"],
            "spectrum.square_s": incl["spectrum.square"],
            "spectrum.directional_s": incl["spectrum.directional"],
            "spectrum.self_s": (own["spectrum"] + own["spectrum.pattern_spectrum"]
                                + own["spectrum.square"] + own["spectrum.directional"]),
            "spectrum.entropy_s": own["spectrum.entropy"],
            "spectrum.calls": calls["spectrum.pattern_spectrum"],
            "spectrum.scales_B": c["spectrum.scales_B"],
            "spectrum.scales_dir": c["spectrum.scales_dir"],
            "oracle.run_table_s": own["oracle.run_table"],
            "oracle.runs": c["oracle.runs"],
            "oracle.from_runs_s": own["oracle.from_runs"],
            "oracle.calls": calls["oracle.run_table"] + calls["oracle.from_runs"],
            "classify.predict_s": own["classify.predict"],
            "classify.rows": calls["classify.predict"],
            "cli.self_s": own["cli"],
            "cli.write_s": own["cli.write"],
            "cli.files_written": calls["cli.write"],
            "cli.bytes_written": c["cli.bytes_written"],
            "morphology.calls": calls["morphology"],
        }
