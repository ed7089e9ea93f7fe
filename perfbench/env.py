"""Isolation, provenance and resource probes for one benchmark run.

Every run keeps its files inside the checkout: a base artifact store that
is built once (untimed) and reused by later runs, and a per-run work
directory holding a hard-linked copy of that store plus the run's
``TMPDIR``. The copy matters: lifecycle updates persist their results in
the store, and a later run with the same seed must not find them there.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import subprocess
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Everything a run leaves behind lives under here (ignored by git).
WORK = HERE / ".work"
BASE_STORE = WORK / "store"
SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "repro_shm"


def program_available() -> bool:
    """Whether the program's sources are present next to the benchmark."""
    return (SRC / "repro" / "__init__.py").is_file()


class RunDirs:
    """The per-run work directory; removed again by :meth:`cleanup`."""

    def __init__(self, tag: str) -> None:
        self.root = WORK / f"run-{tag}-{os.getpid()}"
        self.store = self.root / "store"
        self.tmp = self.root / "tmp"
        self.out = WORK / "out"

    def enter(self) -> "RunDirs":
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.out.mkdir(parents=True, exist_ok=True)
        # The program must not log slow queries into a shared file, and
        # anything that asks tempfile for scratch space stays in the run.
        os.environ.pop("REPRO_SLOW_QUERY_LOG", None)
        os.environ["TMPDIR"] = str(self.tmp)
        import tempfile

        tempfile.tempdir = str(self.tmp)
        return self

    def copy_base_store(self) -> Path:
        """Hard-link the warm base store into this run's own store."""
        if self.store.exists():
            shutil.rmtree(self.store)
        shutil.copytree(BASE_STORE, self.store, copy_function=os.link)
        return self.store

    def cleanup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def ready_marker(tag: str) -> Path:
    return BASE_STORE / f"READY-{tag}"


def shm_segments() -> set[str]:
    """Names of the program's shared-memory segments currently present."""
    try:
        return {
            entry.name
            for entry in SHM_DIR.iterdir()
            if entry.name.startswith(SHM_PREFIX)
        }
    except OSError:
        return set()


def _child_pids(pid: int) -> list[int]:
    """Children of every thread of ``pid`` (a thread that forks owns the child)."""
    pids: list[int] = []
    try:
        tasks = list(Path(f"/proc/{pid}/task").iterdir())
    except OSError:
        return pids
    for task in tasks:
        try:
            pids.extend(int(part) for part in (task / "children").read_text().split())
        except OSError:
            continue
    return pids


def _rss_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def tree_rss_kb(pid: int | None = None) -> int:
    """Resident set of ``pid`` plus all its descendants, in KiB."""
    pid = os.getpid() if pid is None else pid
    total, stack = 0, [pid]
    while stack:
        current = stack.pop()
        total += _rss_kb(current)
        stack.extend(_child_pids(current))
    return total


class RssSampler:
    """Samples the process tree's RSS every ``interval`` seconds.

    The peak also folds in ``ru_maxrss`` of this process, which catches a
    spike shorter than the sampling interval.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.peak_kb = max(self.peak_kb, tree_rss_kb())
            self._stop.wait(self.interval)

    def start(self) -> "RssSampler":
        self._thread.start()
        return self

    def stop(self) -> float:
        """Stop sampling; returns the peak in MB."""
        import resource

        self._stop.set()
        self._thread.join(timeout=5.0)
        self.peak_kb = max(self.peak_kb, tree_rss_kb())
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(self.peak_kb, own) / 1024.0


def stop_children(timeout: float = 10.0) -> list[int]:
    """Stop every child process still running; returns their pids.

    The multiprocessing resource tracker, started on the program's first
    shared-memory segment or the first spawned process, is stopped
    through its own shutdown path; anything else still running is given
    ``timeout`` seconds to exit and then killed. Every child is reaped.
    """
    import signal
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()
    children = _child_pids(os.getpid())
    deadline = time.monotonic() + timeout
    for pid in children:
        while True:
            try:
                reaped, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                break
            if reaped == pid:
                break
            if time.monotonic() >= deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.05)
    return children


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit() -> str:
    """The git commit, or a digest of the program sources outside git."""
    if (ROOT / ".git").exists():
        try:
            result = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            )
            if result.returncode == 0 and result.stdout.strip():
                return result.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def pin_to_one_cpu() -> int:
    """Pin this process, and every process it starts, to one CPU.

    On a small shared virtual machine a request that hops between
    processes (HTTP client, worker, dispatcher) or threads (the cluster's
    scatter pool) otherwise wakes an idle virtual CPU on each hop, and
    that wake-up time varies with the host's load. On one CPU a hop is a
    local context switch. The highest-numbered CPU is taken because the
    first tends to take the interrupts.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def provenance(seed: int) -> dict:
    """Where and on what the run measured; call before pinning."""
    import numpy

    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "commit": _commit(),
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str))

