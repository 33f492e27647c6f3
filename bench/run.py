"""decaygraph benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (the directory holding ``src/decaygraph``)::

    python3 bench/run.py --workload structured-large --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each run generates the workload's job list from the seed, writes the spec
files under ``.bench_run/<workload>/``, and times ``import decaygraph`` in
several fresh interpreters (``setup_s``).  It then starts one fresh
interpreter (``bench/worker.py``) that runs the jobs through
``decaygraph.cli.main`` in a closed loop with one client and OpenBLAS pinned
to one thread.  Every job's exit code and outputs are checked against
oracles computed from the spec (``bench/oracles.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones:

* ``setup_s``: median cold ``import decaygraph`` time;
* ``wall_s``: time to finish the fixed job list, the mean over the passes;
* ``peak_rss_mb``: peak resident memory of the run process;
* ``ok_frac``: jobs that passed over jobs attempted.

The report also prints ``failed_frac`` (the complement of ``ok_frac``, with
both counts), ``job_s_p50`` (median over jobs of each job's median time)
and ``job_s_tail`` (the highest of p99, p95, p90 and p75 with at least ten
job samples beyond it, where defined).  They are not result metrics:
``failed_frac`` is zero on some workloads, ``job_s_tail`` is undefined on
workloads with few jobs, and ``job_s_p50`` over ten or so jobs of
different sizes follows one or two jobs, so its run-to-run spread on a
shared 2-CPU host (up to 0.23 of its median) is too wide for a bound.

With ``--trace 1`` the metrics are the per-layer calls, self times, failed
calls and exported bytes per pass, recorded by ``bench/tracer.py``, plus the
tracing overhead (traced minus untraced ``wall_s``).

A job fails when its exit code differs from the one the theory and the
README document, or when an output fails its oracle.  ``correct`` is false
only in the second case: the package claimed success with a wrong output.
The known defects fail loudly (a wrong exit code), so they count in
``failed`` but leave ``correct`` true.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
OUT = Path(".bench_run")
SETUP_IMPORTS = 7
TIME_LIMIT_S = 170.0
TAIL_LADDER = (99, 95, 90, 75)
TAIL_MIN_BEYOND = 10
IMPORT_TIMER = (
    "import time; s = time.perf_counter(); import decaygraph; print(time.perf_counter() - s)"
)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": "src",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
    })
    return env


def measure_setup() -> list[float]:
    """Cold ``import decaygraph`` times, one fresh interpreter each."""
    times = []
    for _ in range(SETUP_IMPORTS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER], env=child_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout.strip()))
    return times


def prepare(workload: str, seed: int, tiny: bool) -> tuple[Path, list[dict]]:
    """Generate the jobs and write their spec files and CLI arguments."""
    base = OUT / workload
    shutil.rmtree(base, ignore_errors=True)
    (base / "specs").mkdir(parents=True)
    jobs = workloads.generate(workload, seed, tiny)
    for job in jobs:
        job["out"] = str(base / "out" / job["id"])
        if job["lattice"] is None:
            job["argv"] = job["cmd"] + ["--out", job["out"]]
            continue
        spec = base / "specs" / f"{job['id']}.json"
        spec.write_text(json.dumps({"lattice": job["lattice"]}, indent=1) + "\n")
        job["argv"] = job["cmd"][:1] + ["--spec", str(spec)] + job["cmd"][1:] + ["--out", job["out"]]
    (base / "jobs.json").write_text(json.dumps(jobs))
    return base, jobs


def verdicts(jobs: list[dict], passes: list[dict]) -> list[dict]:
    """Per job: failure reason (or None) and whether an output was wrong."""
    out = []
    for i, job in enumerate(jobs):
        codes = [p["jobs"][i]["rc"] for p in passes]
        wrong = [rc for rc in codes if rc != job["expect"]]
        if wrong:
            message = passes[0]["jobs"][i]["message"]
            reason = f"exit {wrong[0]!r}, expected {job['expect']}: {message}"
            out.append({"id": job["id"], "reason": reason, "wrong_output": False})
            continue
        reason = oracles.check(job, Path(job["out"]))
        out.append({"id": job["id"], "reason": reason, "wrong_output": reason is not None})
    return out


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest ladder percentile with at least ten samples beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return p, ordered[rank - 1]
    return None


def job_medians(passes: list[dict]) -> list[float]:
    """Each job's median time over the passes."""
    return [statistics.median(p["jobs"][i]["s"] for p in passes) for i in range(len(passes[0]["jobs"]))]


def end_to_end(passes, setup, peak_rss_mb, attempted, failed) -> tuple[dict, list[str]]:
    walls = [p["wall_s"] for p in passes]
    samples = [r["s"] for p in passes for r in p["jobs"]]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.fmean(walls), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    lines = [
        f"setup_s     = {metrics['setup_s'][0]:.4f} s (median of {len(setup)} cold imports)",
        f"wall_s      = {metrics['wall_s'][0]:.4f} s (mean of {len(passes)} passes over {attempted} jobs: "
        f"{' '.join(f'{w:.2f}' for w in walls)} s)",
        f"job_s_p50   = {statistics.median(job_medians(passes)):.4f} s (median over jobs of each job's "
        f"median over the passes)",
    ]
    t = tail(samples)
    if t is None:
        lines.append(f"job_s_tail  = undefined ({len(samples)} samples; p{TAIL_LADDER[-1]} needs "
                     f"{TAIL_MIN_BEYOND} beyond it)")
    else:
        lines.append(f"job_s_tail  = {t[1]:.4f} s (p{t[0]} of {len(samples)} job samples)")
    lines += [
        f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.1f} MiB",
        f"failed_frac = {failed / attempted:.4f} ({failed} failed / {attempted} attempted)",
        f"ok_frac     = {metrics['ok_frac'][0]:.4f} ratio",
    ]
    return metrics, lines


def per_layer(passes: list[dict]) -> tuple[dict, list[str]]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    totals = [tracer.layer_totals(p["spans"]) for p in traced]
    metrics = {}
    for layer in tracer.LAYERS:
        metrics[f"{layer}.calls"] = (statistics.median(t[layer]["calls"] for t in totals), "count")
        metrics[f"{layer}.self_s"] = (statistics.median(t[layer]["self_s"] for t in totals), "s")
        if layer in tracer.WITH_FAILED:
            metrics[f"{layer}.failed"] = (statistics.median(t[layer]["failed"] for t in totals), "count")
    metrics["io.export.bytes"] = (statistics.median(t["io.export"]["bytes"] for t in totals), "B")
    # the first pass warms caches and lazy imports; leave it out of the
    # untraced side when another untraced pass exists
    plain = plain[1:] or plain
    overhead = statistics.fmean(p["wall_s"] for p in traced) - statistics.fmean(p["wall_s"] for p in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    lines = [f"{name:34s} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"(per pass, median of {len(traced)} traced passes; overhead = traced wall_s - "
                 f"untraced wall_s, from {len(plain)} untraced passes)")
    return metrics, lines


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; prints the report and returns the result object."""
    base, jobs = prepare(workload, seed, tiny)
    setup = measure_setup()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(base / "jobs.json"), str(base / "result.json"),
         str(seconds), "1" if trace else "0"],
        env=child_env(), capture_output=True, text=True, timeout=TIME_LIMIT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads((base / "result.json").read_text())
    passes = result["passes"]
    checks = verdicts(jobs, passes)
    failed = sum(c["reason"] is not None for c in checks)
    print(f"workload {workload}, seed {seed}, {seconds:g} s, trace {int(trace)}: {len(jobs)} jobs, "
          f"{len(passes)} passes")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for job, c in zip(jobs, checks):
        if c["reason"] is not None:
            defect = f" [known defect {job['defect']}]" if job["defect"] else ""
            print(f"FAILED {c['id']}: {c['reason']}{defect}")
    if trace:
        metrics, lines = per_layer(passes)
        (base / "spans.json").write_text(json.dumps([p["spans"] for p in passes if p["traced"]]))
    else:
        metrics, lines = end_to_end(passes, setup, result["peak_rss_mb"], len(jobs), failed)
    print("\n".join(lines))
    summary = {
        "correct": not any(c["wrong_output"] for c in checks),
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (base / "summary.json").write_text(json.dumps(
        {**summary, "environment": result["environment"], "jobs": checks, "seed": seed}, indent=1))
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path("src/decaygraph/__init__.py").is_file():
        print("error: run from the root of a decaygraph checkout (src/decaygraph not found)",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            summary = run(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.SubprocessError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(summary))
    print(f"(benchmark took {time.perf_counter() - started:.1f} s)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
