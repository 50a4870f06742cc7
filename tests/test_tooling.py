"""What the benchmark reads of the package still resolves.

``perfbench/`` lies outside the tier-1 test paths, so renaming a function
that ``perfbench/tracer.py`` wraps by name, or an attribute it or
``perfbench/gate.py`` reads off a spectrum, would otherwise pass here and
only break a benchmark run (``perfbench/run.py``). The same holds for the
CLI binding its numeric names late: a binding that replaced the tracer's
wrappers would leave their spans empty, not fail.
"""

import subprocess
import sys
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


def test_oracle_scan_lines_is_the_package_function():
    # oracle.py keeps this import only for the tracer, whose dem.scan_lines
    # span wraps oracle.scan_lines: it must be dem's function, not a shadow
    from demgranulo import dem, oracle
    assert oracle.scan_lines is dem.scan_lines


# A cold ``cli`` (nothing bound yet) gets wrappers the way the tracer
# installs them: one replaces an attribute it has just read (which binds
# the numeric names), one is set before anything is bound. The features
# run must call both; a late binding that overwrote them would not.
_COLD_WRAPPERS = """
import sys
from demgranulo import cli, spectrum

calls = []

def wrap(name, fn):
    def traced(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return traced

assert "normalized_mdgi" not in vars(cli) and "parse_esri_ascii" not in vars(cli)
cli.normalized_mdgi = wrap("normalized_mdgi", spectrum.normalized_mdgi)
cli.parse_esri_ascii = wrap("parse_esri_ascii", cli.parse_esri_ascii)
code = cli.main(["features", *sys.argv[1:]])
print(code, sorted(calls))
"""

# The tracer itself on a cold ``cli``, as ``perfbench/run.py --trace 1``
# would meet it if its first traced round came before any untraced one.
_COLD_TRACER = """
import sys, types
tracer = types.ModuleType("perfbench_tracer")
tracer.__file__ = sys.argv[1]
exec(compile(open(sys.argv[1]).read(), sys.argv[1], "exec"), tracer.__dict__)
with tracer.Tracer() as t:
    code = t.run_cli(["features", *sys.argv[2:]])
own, incl, calls = t.totals()
print(code, calls["dem.parse"], calls["spectrum"], calls["spectrum.pattern_spectrum"])
"""


def _run_cold(code, args):
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.fixture()
def two_asc(tmp_path):
    paths = []
    for i, rows in enumerate([[[1, 3, 2], [2, 5, 1]], [[4, 4, 1, 2]]]):
        path = tmp_path / f"r{i}.asc"
        path.write_text(Dem.from_rows(rows).to_esri_ascii())
        paths.append(str(path))
    return paths


def test_wrappers_on_cold_cli_are_called(tmp_path, two_asc):
    args = [*two_asc, "--output", str(tmp_path / "f.csv")]
    assert _run_cold(_COLD_WRAPPERS, args) == (
        "0 ['normalized_mdgi', 'normalized_mdgi', 'parse_esri_ascii', 'parse_esri_ascii']")


def test_tracer_on_cold_cli_records_parse_and_spectra(tmp_path, two_asc):
    args = [str(TRACER), *two_asc, "--output", str(tmp_path / "f.csv")]
    # per raster: one parse; normalized_mdgi and high_low_direction under
    # "spectrum"; five spectra
    assert _run_cold(_COLD_TRACER, args) == "0 2 4 10"


@pytest.mark.parametrize("build", ["pattern_spectrum", "spectrum_from_runs"])
def test_spectrum_attributes_perfbench_reads(build):
    # tracer.py reads se_name, family and n0; gate.py reads scales and volumes
    dem = Dem.from_rows([[2, 5, 5, 2, 2]])
    ps = (pattern_spectrum(dem, "B4") if build == "pattern_spectrum"
          else spectrum_from_runs(run_table(dem, "row")))
    assert (ps.se_name, ps.family, ps.n0) == ("B4", "nse", 3)
    assert ps.scales == (0, 1, 2, 3)
    assert ps.volumes == (16, 10, 10, 0)
