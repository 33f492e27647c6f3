"""The benchmark's own tests; not part of the package suite.

Run from the checkout root: ``python3 -m pytest bench/tests -q``.  Each
smoke run uses the ``--tiny`` job sizes and the minimum of three passes; the
known-defect jobs keep their full size, so the structured-large and
drive-sweep runs take about ten seconds each.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
PER_LAYER = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _load(workload: str):
    base = run.OUT / workload
    jobs = json.loads((base / "jobs.json").read_text())
    passes = json.loads((base / "result.json").read_text())["passes"]
    return jobs, passes


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload, capsys):
    summary = run.run(workload, seed=0, seconds=0.01, trace=False, tiny=True)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["attempted"] >= 1
    assert set(summary["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in summary["metrics"].values())
    jobs, passes = _load(workload)
    failed = {c["id"] for c in run.verdicts(jobs, passes) if c["reason"]}
    defects = {j["id"] for j in jobs if j["defect"]}
    assert summary["failed"] == len(failed)
    assert defects <= failed
    if workload in ("structured-large", "drive-sweep"):
        assert len(defects) == 2


def test_generator_is_seeded():
    for workload in workloads.WORKLOADS:
        assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
        assert workloads.generate(workload, 7) != workloads.generate(workload, 8)
    defects = {j["defect"] for w in workloads.WORKLOADS for j in workloads.generate(w, 3) if j["defect"]}
    assert defects == {j["defect"] for j in workloads.DEFECT_JOBS}


def test_tampered_output_counts_as_failed():
    run.run("figures-small", seed=0, seconds=0.01, trace=False, tiny=True)
    jobs, passes = _load("figures-small")
    defects = {j["id"] for j in jobs if j["defect"]}
    assert {c["id"] for c in run.verdicts(jobs, passes) if c["reason"]} == defects
    charges = next(j for j in jobs if j["cmd"][0] == "charges" and j["expect"] == 0)
    path = Path(charges["out"]) / "charges.csv"
    lines = path.read_text().splitlines()
    node, q_amp, q_comb = lines[1].split(",")
    lines[1] = f"{node},{float(q_amp) + 0.5!r},{q_comb}"
    path.write_text("\n".join(lines) + "\n")
    checks = {c["id"]: c for c in run.verdicts(jobs, passes)}
    assert checks[charges["id"]]["reason"] and checks[charges["id"]]["wrong_output"]
    assert {i for i, c in checks.items() if c["reason"]} == defects | {charges["id"]}


def test_wrong_exit_code_counts_as_failed():
    run.run("figures-small", seed=0, seconds=0.01, trace=False, tiny=True)
    jobs, passes = _load("figures-small")
    control = next(j for j in jobs if j["cmd"][0] == "decay" and j["expect"] == 1)
    i = jobs.index(control)
    passes[0]["jobs"][i]["rc"] = 0
    check = run.verdicts(jobs, passes)[i]
    assert check["reason"].startswith("exit 0, expected 1")
    assert check["wrong_output"] is False


def test_self_times_sum_to_root_spans(capsys):
    summary = run.run("figures-small", seed=0, seconds=0.01, trace=True, tiny=True)
    assert set(summary["metrics"]) == PER_LAYER
    spans = json.loads((run.OUT / "figures-small" / "spans.json").read_text())[0]
    roots = [s for s in spans if s["parent"] is None]
    assert {s["name"] for s in roots} == {"cli.main"}
    assert len(roots) == summary["attempted"]
    own = tracer.self_times(spans)
    assert min(own) >= 0.0
    for root in roots:
        job_self = sum(o for s, o in zip(spans, own) if s["job"] == root["job"])
        assert job_self == pytest.approx(root["end"] - root["start"], rel=1e-9, abs=1e-12)
    layer_self = sum(summary["metrics"][f"{name}.self_s"]["value"] for name in tracer.LAYERS)
    assert layer_self == pytest.approx(sum(s["end"] - s["start"] for s in roots), rel=1e-9)


def test_tracer_patches_every_binding_site(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    dg = importlib.import_module("decaygraph")
    spectra, decay, response = dg.spectra, dg.decay, dg.response
    original = spectra.eigendecompose
    method = spectra.EigenSystem.degenerate_groups
    h = dg.build(dg.SegmentedRing((("A", 3), ("B", 3))), 1.5)
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = spectra.eigendecompose
        assert wrapped is not original
        assert decay.eigendecompose is wrapped and response.eigendecompose is wrapped
        assert dg.eigendecompose is wrapped
        assert spectra.EigenSystem.degenerate_groups is not method
        decay.pure_decay_check(decay.eigendecompose(h), h.spec, 1.5)
    finally:
        t.uninstall()
    assert spectra.eigendecompose is original and decay.eigendecompose is original
    assert spectra.EigenSystem.degenerate_groups is method
    names = [s["name"] for s in t.spans]
    assert names[0] == "spectra.eigendecompose"
    assert {"decay.pure_decay_check", "spectra.degenerate_groups", "decay.extract_decay_constants"} <= set(names)


def test_oracle_edges_follow_the_convention():
    lat = workloads.ring([("A", 2), ("B", 2)], 1.5)
    tail, head, t = oracles.edges(lat)
    # A bonds (0,1), (1,2) point backwards; B bonds (2,3), (3,0) point forwards
    assert sorted(zip(tail.tolist(), head.tolist())) == [(1, 0), (2, 1), (2, 3), (3, 0)]
    prod = workloads.product(lat, workloads.circulant(3, (1,), 2.0))
    tail, head, t = oracles.edges(prod)
    assert len(tail) == 4 * 3 + 3 * 4
    assert sorted(set(t.tolist())) == [1.5, 2.0]
