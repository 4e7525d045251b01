"""Child processes, quantiles, scaling exponents and provenance."""
from __future__ import annotations

import math
import os
import platform
import signal
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class ChildRun:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


class ChildGuard:
    """Tracks the one running child so a deadline can kill and reap it."""

    pid: int | None = None

    def kill(self) -> None:
        if self.pid is not None:
            try:
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
            self.pid = None


def run_child(argv: list[str], env: dict[str, str], stdout: Path, stderr: Path,
              guard: ChildGuard) -> ChildRun:
    """Run one command to completion; wall time brackets spawn and reap,
    CPU time and peak RSS come from that child's own rusage (wait4)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    guard.pid = os.posix_spawnp(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(guard.pid, 0)
    wall = time.perf_counter() - start
    guard.pid = None
    return ChildRun(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,  # Linux reports KiB
        exit_code=os.waitstatus_to_exitcode(status),
    )


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def slow_half_mean(values: list[float]) -> float:
    """Mean of the slower half: every value at or above the median."""
    ordered = sorted(values)
    return sum(ordered[len(ordered) // 2:]) / (len(ordered) - len(ordered) // 2)


def tail_percentile(values: list[float], q: float = 0.99, beyond: int = 10) -> float | None:
    """The q-quantile, or None when fewer than `beyond` samples lie above it."""
    if len(values) * (1 - q) < beyond - 1e-9:
        return None
    return nearest_rank(sorted(values), q)


def exponent(sizes: list[float], times: list[float]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    points = [(math.log(n), math.log(t)) for n, t in zip(sizes, times) if n > 0 and t > 0]
    if len(points) < 2:
        return float("nan")
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    if sxx == 0:
        return float("nan")
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def provenance(root: Path) -> dict:
    """Interpreter, cores, commit and the size of src/ for a results record."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None  # a checkout without git
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted((root / "src").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_lines": src_lines,
    }
