"""CLI outputs pinned byte for byte by SHA-256 digest.

``spectrum``, ``features`` and ``oracle-check`` must write the same
bytes for the same configuration, across refactors as well as runs.
Each case runs one command on every raster ``gen-fixtures`` writes and
on a side-64 ``synthetic_terrain`` written both as fixture CSV and as
ESRI ASCII grid, then hashes every output file (name and bytes), stdout,
stderr and the exit code into one digest.

The inputs are passed as relative paths from their own directory, so
the ids that the batch gives files sharing a stem (``fictitious.csv``
and ``fictitious.asc``) do not depend on where the test runs. A digest
that changes means an output changed: compare the files against the
previous release before pinning a new one.
"""

import hashlib

import pytest

from demgranulo.cli import main
from demgranulo.synth import synthetic_terrain

DIGESTS = {
    "spectrum":
        "227ebe026b0d2ca40677bc40e0f46370683e3c087d60405f6f5260294996d4c2",
    "features-datum0":
        "9d7444df260438adbaf05088a528f33fe96b3da04b375f0774dbdb2673bfa4ce",
    "features-datum1":
        "c3e25138ea36115d1c93450c0ee068171f3a714883b8f2d6e6552b98d429663e",
    "oracle-check":
        "1c3f49aa6030c36972a981bff22b9ae06bc68de1328b151aba8bc4e6573080b7",
}

INPUTS = ["in/*.csv", "in/*.asc"]


@pytest.fixture(scope="module")
def raster_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    assert main(["gen-fixtures", "--out-dir", str(root / "in")]) == 0
    (root / "in" / "features_demo.csv").unlink()  # feature rows, not a raster
    terrain = synthetic_terrain(64)
    (root / "in" / "terrain64.csv").write_text(terrain.to_fixture_csv())
    (root / "in" / "terrain64.asc").write_text(terrain.to_esri_ascii())
    return root


def _args(case, out):
    if case == "spectrum":
        return ["spectrum", *INPUTS, "--out-dir", str(out)]
    if case.startswith("features"):
        return ["features", *INPUTS, "--output", str(out / "features.csv"),
                "--datum", case[-1]]
    return ["oracle-check", *INPUTS, "--report", str(out / "report.csv")]


def _digest(out, code, stdout, stderr) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        h.update(f"{path.name} {len(data)}\n".encode())
        h.update(data)
    for name, text in (("stdout", stdout), ("stderr", stderr)):
        h.update(f"{name} {len(text)}\n{text}".encode())
    h.update(f"exit {code}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_cli_outputs_are_pinned(case, raster_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(raster_dir)
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()  # drop what the fixture printed
    code = main(_args(case, out))
    captured = capsys.readouterr()
    assert _digest(out, code, captured.out, captured.err) == DIGESTS[case]
