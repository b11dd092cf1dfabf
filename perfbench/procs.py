"""Fresh-process runs of the program, timed from spawn to exit.

Each child is started with posix_spawn and reaped with wait4, which gives
its exit status and its own resource usage (CPU time of all its threads and
its peak resident set size) without polling.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

CLI_MAIN = "import sys; from metaaudit.cli import main; sys.exit(main())"
IMPORT_CLI = "import metaaudit.cli"
# A fixed task outside the program, shaped like it: a fresh interpreter that
# imports numpy, then runs small-array numpy work and plain-Python float sums
# like the two-segment fit's. Its CPU time, measured beside the program's,
# tracks how fast the host is at that moment.
REFERENCE = (
    "import math\n"
    "import numpy as np\n"
    "rng = np.random.default_rng(0)\n"
    "total = 0.0\n"
    "for _ in range(1500):\n"
    "    x = np.sort(rng.random(64))\n"
    "    total += float(np.cumsum(x)[-1])\n"
    "xs = [float(i) for i in range(200)]\n"
    "for _ in range(300):\n"
    "    m = math.fsum(xs) / len(xs)\n"
    "    total += math.fsum((x - m) ** 2 for x in xs)\n"
)
# Thread pools pinned to one thread, so a process's CPU time is its own work
# and not an idle BLAS worker spinning for as long as the scheduler lets it.
ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ProcResult:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    exit_code: int


def program_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH", "")) if p
    )
    return env


def spawn(argv: list[str], env: dict[str, str], stdout: Path, stderr: Path) -> ProcResult:
    """Run argv to completion with its output sent to the two files."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    reaped = threading.Event()
    lock = threading.Lock()

    def kill() -> None:
        with lock:
            if not reaped.is_set():
                os.kill(pid, signal.SIGKILL)

    watchdog = threading.Timer(TIMEOUT_S, kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        end = time.perf_counter()
        with lock:
            reaped.set()
        watchdog.cancel()
        watchdog.join()
    return ProcResult(
        wall_s=end - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
        exit_code=os.waitstatus_to_exitcode(status),
    )


def python(*args: str) -> list[str]:
    return [sys.executable, *args]
