"""Start child processes from a small helper process and measure them.

On Linux a child's ``ru_maxrss`` includes the peak RSS of the process
that forked it: exec folds the old address space's high-water mark into
the child's. The benchmark process holds generated inputs and reference
results, so children are started by this module running as a separate,
small helper (``Spawner``), which was itself started before the
benchmark process grew. The helper times each child from just before
it is started until it has been reaped and reads the child's own
``wait4`` rusage, not RUSAGE_CHILDREN, which would mix in every earlier
child.

This module imports only the standard library, so that the helper stays
small.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# An argv element equal to this is replaced by the spawn time, a
# time.perf_counter() reading (CLOCK_MONOTONIC, shared by all processes).
SPAWN_TIME = "{spawn}"


class RunAborted(Exception):
    """The run cannot go on: a child hung, the probe failed or the time budget is spent."""


@dataclass(frozen=True)
class ChildResult:
    spawn: float
    wall: float
    returncode: int
    maxrss_kb: int
    stdout: bytes
    stderr: bytes


def _run(request: dict) -> dict:
    with open(request["out"], "wb") as out, open(request["err"], "wb") as err:
        spawn = time.perf_counter()
        argv = [repr(spawn) if a == SPAWN_TIME else a for a in request["argv"]]
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            env=request["env"],
            cwd=request["cwd"],
        )
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - spawn
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "spawn": spawn,
        "wall": wall,
        "returncode": proc.returncode,
        "maxrss_kb": usage.ru_maxrss,
        "timed_out": wall >= request["timeout"],
    }


def serve() -> None:
    """Helper loop: one JSON request per input line, one reply per output line."""
    for line in sys.stdin:
        sys.stdout.write(json.dumps(_run(json.loads(line))) + "\n")
        sys.stdout.flush()


class Spawner:
    """Handle on the helper process; use as a context manager."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()

    def run(self, argv: list[str], *, env: dict, cwd: Path, scratch: Path, timeout: float) -> ChildResult:
        """Run ``argv`` to completion; SPAWN_TIME elements become the spawn time."""
        out, err = scratch / "child.out", scratch / "child.err"
        request = {
            "argv": argv,
            "env": env,
            "cwd": str(cwd),
            "out": str(out),
            "err": str(err),
            "timeout": timeout,
        }
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = json.loads(self._proc.stdout.readline())
        if reply["timed_out"]:
            raise RunAborted(f"child ran longer than {timeout:.0f} s and was killed")
        return ChildResult(
            spawn=reply["spawn"],
            wall=reply["wall"],
            returncode=reply["returncode"],
            maxrss_kb=reply["maxrss_kb"],
            stdout=out.read_bytes(),
            stderr=err.read_bytes(),
        )


if __name__ == "__main__":
    serve()
