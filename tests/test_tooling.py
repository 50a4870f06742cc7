"""What the benchmark reads of the package still resolves.

``perfbench/`` lies outside the tier-1 test paths, so renaming a function
that ``perfbench/tracer.py`` wraps by name, or an attribute it or
``perfbench/gate.py`` reads off a spectrum, would otherwise pass here and
only break a benchmark run (``perfbench/run.py``).
"""

import types
from pathlib import Path

import pytest

from demgranulo.dem import Dem
from demgranulo.oracle import run_table, spectrum_from_runs
from demgranulo.spectrum import pattern_spectrum

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    # executed from its source text, so nothing is written under perfbench/
    tracer = types.ModuleType("perfbench_tracer")
    tracer.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), tracer.__dict__)
    targets = tracer._targets()
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _ in targets if not hasattr(owner, attr)]
    assert missing == []


@pytest.mark.parametrize("build", ["pattern_spectrum", "spectrum_from_runs"])
def test_spectrum_attributes_perfbench_reads(build):
    # tracer.py reads se_name, family and n0; gate.py reads scales and volumes
    dem = Dem.from_rows([[2, 5, 5, 2, 2]])
    ps = (pattern_spectrum(dem, "B4") if build == "pattern_spectrum"
          else spectrum_from_runs(run_table(dem, "row")))
    assert (ps.se_name, ps.family, ps.n0) == ("B4", "nse", 3)
    assert ps.scales == (0, 1, 2, 3)
    assert ps.volumes == (16, 10, 10, 0)
