"""Shared benchmark machinery: paths, child environment, timing, statistics.

Everything here is workload-agnostic: the checkout layout, the pinned
environment every child process gets, set-up timing in fresh
interpreters, the timed-round loop, the percentile rule, digests, the
environment fingerprint and the result line.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Iterable

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch space for ledgers, ready files and service logs; removed
#: after every run and listed in the root ``.gitignore``.
WORK_DIR = os.path.join(BENCH_DIR, ".work")
DIGEST_FILE = os.path.join(BENCH_DIR, "digests.json")

#: The seed whose simulated statistics are pinned in ``digests.json``.
DEFAULT_SEED = 0

#: BLAS/OpenMP pools are pinned to one thread in this process (set
#: before NumPy is imported) and in every child: the benchmark is sized
#: for a small shared machine, and a pool that grows with the core count
#: would make timings depend on the neighbours.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing program, bad input)."""


def prepare_env(env: dict[str, str]) -> dict[str, str]:
    """Pin the thread pools and keep ``REPRO_OBS`` from switching the
    program's own instrumentation on."""
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("REPRO_OBS", None)
    return env


def child_env() -> dict[str, str]:
    """The environment of every child: as prepared, ``src`` importable."""
    env = prepare_env(dict(os.environ))
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def require_program() -> None:
    """Fail unless the program's sources sit beside the benchmark."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# -- statistics ---------------------------------------------------------------


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile, refused without support.

    Raises :class:`BenchError` unless at least :data:`MIN_BEYOND`
    samples lie strictly beyond the returned order statistic.
    """
    if not 0.0 < q < 100.0:
        raise ValueError("percentile must be in (0, 100)")
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise BenchError(f"p{q:g} of {n} samples has {n - rank} beyond it; "
                         f"need {MIN_BEYOND}")
    return float(sorted(samples)[rank - 1])


def rss_peak_mb(pid: int | None = None) -> float:
    """Peak resident set size (VmHWM) of ``pid`` (default: this process)."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM in {path}")


# -- digests ------------------------------------------------------------------


def number_digest(numbers: Iterable[float]) -> str:
    """SHA-256 over simulated numbers only, at 10 significant digits.

    Callers pass numbers in a fixed order taken from named fields, never
    from a serialized document, so neither run ids nor schema versions
    nor document layout reach the hash.
    """
    text = ",".join(format(float(x), ".10g") for x in numbers)
    return hashlib.sha256(text.encode()).hexdigest()


def recorded_digest(workload: str) -> str | None:
    """The default seed's pinned digest.  ``digests.json`` is edited by
    hand, copying a run's printed ``default_digest``, and only by a change
    that redefines the benchmark."""
    try:
        with open(DIGEST_FILE) as fh:
            return json.load(fh).get(workload)
    except FileNotFoundError:
        return None


# -- set-up time --------------------------------------------------------------


def time_fresh_setup(workload: str, repeats: int) -> float:
    """Median seconds for a fresh interpreter to import and build the
    workload's inputs (``setup_probe.py``), over ``repeats`` launches."""
    script = os.path.join(BENCH_DIR, "setup_probe.py")
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, script, workload],
                              env=child_env(), cwd=ROOT, timeout=120,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise BenchError(f"set-up of {workload} failed: "
                             f"{done.stderr.decode(errors='replace')[-2000:]}")
    return statistics.median(times)


def stop_process(proc: subprocess.Popen, timeout: float = 30.0) -> None:
    """SIGTERM (the service drains), then SIGKILL; always waits."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def fresh_work_dir(name: str) -> str:
    path = os.path.join(WORK_DIR, f"{name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# -- rounds -------------------------------------------------------------------


def timed_rounds(round_fn: Callable[[], Any], seconds: float, *,
                 after: Callable[[Any], Any] = lambda out: out,
                 min_rounds: int = 3) -> tuple[list[float], list[Any]]:
    """Run ``round_fn`` back to back for ``seconds`` (at least
    ``min_rounds`` times); returns per-round wall seconds and
    ``after(output)`` of each round, computed outside the timed region
    so that a round's output need not outlive it."""
    times: list[float] = []
    kept: list[Any] = []
    deadline = time.perf_counter() + seconds
    while len(times) < min_rounds or time.perf_counter() < deadline:
        start = time.perf_counter()
        out = round_fn()
        times.append(time.perf_counter() - start)
        kept.append(after(out))
        del out
    return times, kept


# -- environment fingerprint --------------------------------------------------


def calibration_ms() -> float:
    """Median time of a fixed NumPy kernel (recorded, never folded in)."""
    import numpy as np
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((192, 192))
    v = rng.standard_normal(1 << 18)
    times = []
    for _ in range(7):
        start = time.perf_counter()
        b = a
        for _ in range(8):
            b = np.tanh(b @ a)
        np.sort(v)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def fingerprint() -> dict[str, Any]:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_ms": round(calibration_ms(), 4),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS[:2]},
    }


# -- the result line ----------------------------------------------------------


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, dict[str, Any]]) -> str:
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})
