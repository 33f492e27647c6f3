"""One benchmark run in a fresh interpreter: the closed loop over a job list.

Usage: ``python3 bench/worker.py JOBS.json RESULT.json SECONDS TRACE``, from
the checkout root with ``src`` on ``PYTHONPATH``.  One client calls
``decaygraph.cli.main`` for each job in turn, in this process; the whole
list is one pass, and passes repeat while another one fits in ``SECONDS``
(at least three).  With ``TRACE`` = 1, untraced and traced passes
alternate, so the tracing overhead is measured in the same process.  Refuses to run (exit 3) unless every OpenBLAS loaded reports one
thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy
import scipy

import decaygraph
import decaygraph.cli
from tracer import Tracer

MIN_PASSES = 3  # per-job medians need three samples; a trace run gets both kinds
BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
BLAS_CONFIG_SYMBOLS = ("scipy_openblas_get_config64_", "scipy_openblas_get_config", "openblas_get_config")


def _symbol(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            fn.argtypes = []
            return fn
    return None


def blas_libraries() -> list[dict]:
    """Every OpenBLAS mapped into this process, with its thread count."""
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.split()[-1]})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        threads = _symbol(lib, BLAS_THREAD_SYMBOLS, ctypes.c_int)
        config = _symbol(lib, BLAS_CONFIG_SYMBOLS, ctypes.c_char_p)
        out.append({
            "library": os.path.basename(path),
            "threads": threads() if threads else None,
            "config": config().decode() if config else None,
        })
    return out


def cpu_model() -> str:
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(Path("src").rglob("*.py")))


def environment(blas: list[dict]) -> dict:
    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": sorted({b["config"] for b in blas if b["config"]}),
        "blas_threads": sorted({b["threads"] for b in blas}, key=str),
        "decaygraph": decaygraph.__version__,
        "src_lines": src_lines(),
    }


def run_job(argv: list[str]) -> tuple[object, float, str]:
    """(exit code or exception text, seconds, the error line or last output line)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = decaygraph.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crash is a failed job, not a failed run
        rc = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    return rc, elapsed, (errors or out.getvalue().splitlines() or [""])[-1][:300]


def main(argv: list[str]) -> int:
    jobs_path, result_path, seconds, trace = argv[0], argv[1], float(argv[2]), argv[3] == "1"
    blas = blas_libraries()
    if not blas or any(b["threads"] != 1 for b in blas):
        print(f"refusing to run: BLAS thread counts {blas} (need exactly 1)", file=sys.stderr)
        return 3
    jobs = json.loads(Path(jobs_path).read_text())
    tracer = Tracer() if trace else None
    passes = []
    started = time.perf_counter()
    while True:
        traced = bool(trace and len(passes) % 2 == 1)
        if traced:
            tracer.spans = []
            tracer.install()
        pass_start = time.perf_counter()
        records = []
        for job in jobs:
            if traced:
                tracer.job = job["id"]
            rc, elapsed, message = run_job(job["argv"])
            records.append({"rc": rc, "s": elapsed, "message": message})
        pass_s = time.perf_counter() - pass_start
        if traced:
            tracer.uninstall()
        passes.append({"traced": traced, "wall_s": pass_s, "jobs": records,
                       "spans": tracer.spans if traced else None})
        elapsed = time.perf_counter() - started
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break
    result = {
        "environment": environment(blas),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
