"""Digest of every benchmark job's observable output, for byte-identity checks.

Runs each job of the four benchmark workloads (``bench/workloads.py``, read
as is) at the given seeds, plus ``reproduce all``, through
``decaygraph.cli.main``, and prints one JSON object: per job its argv, exit
code, stdout, stderr and the sha256 of every export but ``manifest.json``
(which records run times), and the job and export counts.  Run it from the
root of two checkouts and compare the outputs::

    python tools/export_digest.py --seeds 1 2 3 > digest.json

Specs and exports go to a temporary directory under relative paths, so the
output does not depend on where it runs.  OpenBLAS is pinned to one thread
unless the environment says otherwise, as in ``bench/run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(name, "1")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import decaygraph.cli  # noqa: E402
import workloads  # noqa: E402


def run(argv: list[str], out: Path) -> dict:
    """Exit code (or exception text), stdout, stderr and export digests of one job."""
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = decaygraph.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crash is part of the digest
        rc = f"{type(exc).__name__}: {exc}"
    exports = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.glob("*")) if p.name != "manifest.json"}
    return {"argv": argv, "rc": rc, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "exports": exports}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)
    jobs = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for seed in args.seeds:
            for workload in workloads.WORKLOADS:
                for job in workloads.generate(workload, seed):
                    key = f"{workload}/{seed}/{job['id']}"
                    cmd, out = job["cmd"], ["--out", f"out/{key}"]
                    if job["lattice"] is None:
                        cmd_argv = cmd + out
                    else:
                        spec = Path("specs", f"{key}.json")
                        spec.parent.mkdir(parents=True, exist_ok=True)
                        spec.write_text(json.dumps({"lattice": job["lattice"]}, indent=1) + "\n")
                        cmd_argv = cmd[:1] + ["--spec", str(spec)] + cmd[1:] + out
                    jobs[key] = run(cmd_argv, Path(out[1]))
        jobs["reproduce-all"] = run(["reproduce", "all", "--out", "out/reproduce-all"], Path("out/reproduce-all"))
    exports = sum(len(j["exports"]) for j in jobs.values())
    print(json.dumps({"jobs": len(jobs), "exports": exports, "results": jobs}, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
