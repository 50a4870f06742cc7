"""The benchmark tracer's wrapped names still resolve in the package.

``perfbench/`` lies outside the tier-1 test paths, so renaming a function
that ``perfbench/tracer.py`` wraps by name would otherwise pass here and
only break a traced benchmark run (``perfbench/run.py --trace 1``).
"""

import types
from pathlib import Path

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
