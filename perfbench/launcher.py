"""Spawn the CLI children from a small helper process.

The max RSS that ``os.wait4`` reports for a child starts from the RSS of
the process it was forked from: Linux keeps the high-water mark of the
address space a child replaces when it execs. The benchmark process
holds numpy, the inputs and the references, so children spawned from it
would all report at least its size. This helper is a bare interpreter
(``python -S``, a few MB) that spawns every child and reports its wall
time, max RSS and exit code, so ``peak_rss_mb`` is the child's own.

Protocol: one JSON line ``[argv, stderr_path]`` in, one JSON line
``[wall_s, max_rss_kib, exit_code]`` out. The helper exits at end of
input, after its last child has ended.
"""

from __future__ import annotations

import json
import os
import sys
import time


def serve() -> None:
    for line in sys.stdin:
        argv, err_path = json.loads(line)
        err = os.open(err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            t0 = time.perf_counter()
            pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
                (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
                (os.POSIX_SPAWN_DUP2, err, 2),
            ])
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - t0
        finally:
            os.close(err)
        print(json.dumps([wall, usage.ru_maxrss, os.waitstatus_to_exitcode(status)]),
              flush=True)


class Launcher:
    """The helper process, started in ``cwd`` with the children's ``env``."""

    def __init__(self, cwd, env: dict) -> None:
        import subprocess

        self._proc = subprocess.Popen(
            [sys.executable, "-S", os.path.abspath(__file__)], cwd=cwd, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], err_path) -> tuple[float, int, int]:
        """Run one child to completion: (wall s, max RSS KiB, exit code)."""
        self._proc.stdin.write(json.dumps([argv, str(err_path)]) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with code {self._proc.wait()}")
        wall, rss, code = json.loads(line)
        return wall, rss, code

    def close(self) -> None:
        """End the helper once its current child, if any, has ended."""
        if self._proc.stdin and not self._proc.stdin.closed:
            try:
                self._proc.stdin.close()
            except BrokenPipeError:
                pass
        self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    serve()
