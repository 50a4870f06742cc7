"""Make the benchmark modules and the repository's sources importable."""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
os.environ["DEMGRANULO_NO_NUMBA"] = "1"
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
