"""Seeded job lists for the four benchmark workloads.

A job is one ``decaygraph`` CLI invocation: a command, the lattice document
it reads (written to a spec file by the runner), and the exit code the
package documents for it.  Expected codes come from the theory, not from
what the package does today: every ring and circulant is pure-decay, so
``decay``, ``charges``, ``spectrum`` and ``drive`` on them must exit 0; the
open chain is the oscillatory control, so ``decay`` on it must exit 1 and
``charges`` on it is refused with exit 2.

The same ``(workload, seed)`` always gives the same jobs.  The seed varies
hopping ratios, segment splits and circulant offsets inside fixed family,
size and ratio slots, in a fixed job order, so that run time and the
set of failing slots stay comparable from seed to seed.  The known-defect
jobs are included in every seed, at the size where they fail.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("figures-small", "structured-large", "drive-sweep", "product-cap")

NEAR_ONE = (1.01, 1.1)
MODERATE = (1.3, 1.6)


def ring(segments, t: float) -> dict:
    return {"kind": "ring", "t": t, "segments": [{"type": k, "len": n} for k, n in segments]}


def circulant(n: int, offsets, t: float) -> dict:
    a = [0] * (n - 1)
    for q in offsets:
        a[q - 1] = 1
        a[n - q - 1] = 1
    return {"kind": "circulant", "t": t, "n": n, "a": a}


def obc_chain(n: int, t: float) -> dict:
    return {"kind": "obc_chain", "t": t, "n": n}


def product(*axes: dict) -> dict:
    return {"kind": "product", "axes": list(axes)}


def raw(dim: int, entries) -> dict:
    return {"kind": "raw", "dim": dim, "entries": [list(e) for e in entries]}


def job(cmd, lattice: dict | None, expect: int = 0, defect: str | None = None) -> dict:
    return {"cmd": list(cmd), "lattice": lattice, "expect": expect, "defect": defect}


# Known defects at the parent commit.  The first four are ROADMAP items 1
# and 2: theory says each lattice has a certifiable answer, so each expects
# exit 0.
DEFECT_JOBS = (
    job(["decay"], ring([("A", 150), ("B", 150)], 1.5), defect="decay-ring-A150-B150-t1.5"),
    job(["decay"], ring([("A", 100), ("B", 200)], 1.5), defect="decay-ring-A100-B200-t1.5"),
    job(["drive"], ring([("A", 400), ("B", 200)], 1.02), defect="drive-ring-A400-B200-t1.02"),
    job(["drive"], circulant(300, (1, 2), 1.05), defect="drive-circulant-N300-q1,2-t1.05"),
    # the open-chain control must FAIL (exit 1); with N + 1 composite some
    # modes have exact zeros and the check stops with UnderflowSites (exit 2)
    job(["decay"], obc_chain(13, 1.5), expect=1, defect="decay-obc-N13-t1.5"),
)


def _t(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _two_segment(rng: random.Random, n: int, balanced: bool = False):
    """A/B split; unbalanced rings put 38-42% of the sites on the A chain,
    clear of n/2, because only an exactly balanced ring is degenerate."""
    n_a = n // 2 if balanced else rng.randint(int(0.38 * n), int(0.42 * n))
    return (("A", n_a), ("B", n - n_a))


def _four_segment(rng: random.Random, n: int, balanced: bool = False):
    quarter = n // 4
    jitter = quarter // 10
    a1 = rng.randint(quarter - jitter, quarter + jitter)
    b1 = rng.randint(quarter - jitter, quarter + jitter)
    if balanced:
        a2, b2 = n // 2 - a1, n - n // 2 - b1
    else:
        a2 = rng.randint(quarter - jitter, quarter + jitter)
        b2 = n - a1 - b1 - a2
    return (("A", a1), ("B", b1), ("A", a2), ("B", b2))


def _offsets(rng: random.Random, n: int, count: int):
    """Offsets of a connected circulant: gcd(n, offsets) = 1, because a
    disconnected one repeats every eigenvalue and takes another route."""
    while True:
        offsets = tuple(sorted(rng.sample(range(1, (n + 1) // 2), count)))
        if math.gcd(n, *offsets) == 1:
            return offsets


def _axis(rng: random.Random, n: int, kind: str, t_range=(1.2, 1.8)) -> dict:
    """One pure-decay axis of length n: a two- or four-segment ring
    ("ring2", "ring4"), a uniform ring, or a circulant with two offset
    pairs."""
    t = _t(rng, *t_range)
    if kind == "ring2":
        return ring(_two_segment(rng, n), t)
    if kind == "ring4":
        return ring(_four_segment(rng, n), t)
    if kind == "uniform":
        return ring([("A", n)], t)
    return circulant(n, _offsets(rng, n, 2), t)


def _has_analytic(lattice: dict) -> bool:
    """Whether ``spectrum --analytic`` has a closed form for this lattice."""
    if lattice["kind"] == "product":
        return all(_has_analytic(axis) for axis in lattice["axes"])
    if lattice["kind"] == "ring":
        return len(lattice["segments"]) == 2
    return lattice["kind"] in ("circulant", "obc_chain")


def _spectrum(lattice: dict, profiles: bool = False) -> dict:
    cmd = ["spectrum", "--numeric"] + (["--analytic"] if _has_analytic(lattice) else [])
    return job(cmd + (["--profiles"] if profiles else []), lattice)


def figures_small(rng: random.Random, tiny: bool) -> list[dict]:
    """The paper's configurations plus one seeded extra of fixed size per
    family, N <= 64, through every command, and ``reproduce all``."""
    rings = [
        ring([("A", 29), ("B", 1)], 1.5),
        ring([("A", 13), ("B", 17)], 1.5),
        ring([("A", 4), ("B", 11), ("A", 3), ("B", 12)], 1.5),
        ring([("A", 6), ("B", 8), ("A", 7), ("B", 4)], 1.5),
        ring([("A", 11), ("B", 1)], 1.5),
        ring([("A", 30)], 1.5),
        ring(rng.choice((_two_segment, _four_segment))(rng, rng.randint(40, 48)), _t(rng, 1.4, 1.6)),
    ]
    circulants = [
        circulant(6, (1, 3), 1.5),
        circulant(8, (1, 2), 1.5),
        circulant(7, (1, 2), 1.5),
        circulant(4, (1, 2), 1.5),
        circulant((n := rng.randint(40, 48)), _offsets(rng, n, 2), _t(rng, 1.4, 1.6)),
    ]
    # when N + 1 is composite some modes have exact sine nodes, and decay can
    # stop with UnderflowSites depending on t; that defect is the fixed
    # 13-site job, so the seeded chain has N + 1 prime
    chains = [obc_chain(12, 1.5), obc_chain(rng.choice((22, 28, 30)), _t(rng, 1.4, 1.6))]
    products = [
        product(ring([("A", 5), ("B", 3)], 2.0), ring([("A", 8)], 1.5)),
        product(*(_axis(rng, 4, kind, (1.4, 1.6)) for kind in ("ring2", "uniform", "ring2"))),
    ]
    if tiny:
        rings, circulants, chains, products = rings[:2], circulants[:1], chains[:1], products[:1]
    jobs = [job(["reproduce", "all"], None)]
    for lattice in rings + circulants + products:
        jobs += [job(["build"], lattice), _spectrum(lattice, profiles=True), job(["charges"], lattice),
                 job(["drive"], lattice)]
        if lattice["kind"] != "product":
            jobs.append(job(["decay"], lattice))
    for lattice in chains:
        jobs += [job(["build"], lattice), _spectrum(lattice, profiles=True), job(["drive"], lattice),
                 job(["decay"], lattice, expect=1), job(["charges"], lattice, expect=2)]
    return jobs + [dict(j) for j in DEFECT_JOBS[4:]]


def structured_large(rng: random.Random, tiny: bool) -> list[dict]:
    """decay, charges and spectrum on two- and four-segment rings and on
    circulants, N from 300 to 600, in the near-1 band (1.01 to 1.1) and the
    moderate band (1.3 to 1.6).

    Each slot fixes the family, size and a narrow ratio window, clear of the
    conditioning edge where the dense route flips between certifying and
    not, so a slot passes or fails the same way on every seed.  Balanced
    rings (A total = B total) have degenerate spectra and take the
    degenerate-subspace swap.
    """
    s = 0.1 if tiny else 1.0

    def n(size: int) -> int:
        return max(12, int(size * s) // 4 * 4)

    def t(lo: float, hi: float) -> float:
        return _t(rng, lo, hi)

    jobs = [
        job(["decay"], ring(_two_segment(rng, n(300)), t(1.03, 1.05))),
        job(["decay"], ring(_four_segment(rng, n(300)), t(1.3, 1.32))),
        job(["decay"], circulant(n(300), _offsets(rng, n(300), 2), t(1.4, 1.45))),
        job(["decay"], ring(_two_segment(rng, n(450), balanced=True), t(1.02, 1.03))),
        job(["charges"], ring(_four_segment(rng, n(300)), t(1.06, 1.08))),
        job(["charges"], circulant(n(300), _offsets(rng, n(300), 2), t(1.05, 1.07))),
        _spectrum(ring(_two_segment(rng, n(300)), t(1.04, 1.06))),
        _spectrum(circulant(n(600), _offsets(rng, n(600), 2), t(1.05, 1.07))),
    ]
    return jobs + [dict(j) for j in DEFECT_JOBS[:2]]


def _raw_graph(rng: random.Random, n: int) -> dict:
    """A hand-drawn non-Hermitian graph: a ring of random directed weights
    plus random chords, some with complex weights."""
    entries = {}
    for i in range(n):
        j = (i + 1) % n
        entries[(i, j)] = (round(rng.uniform(0.5, 1.5), 3), 0.0)
        entries[(j, i)] = (round(rng.uniform(0.5, 1.5), 3), 0.0)
    for _ in range(n // 2):
        i, j = rng.sample(range(n), 2)
        entries[(i, j)] = (round(rng.uniform(-0.5, 0.5), 3), round(rng.uniform(-0.3, 0.3), 3))
    return raw(n, [(i + 1, j + 1, re, im) for (i, j), (re, im) in sorted(entries.items())])


def _raw_bonds(rng: random.Random, n: int, t: float) -> dict:
    """A hand-drawn directed graph given with its ratio t: ring bonds and
    random chords, each a {1, t} pair in a random orientation, so that the
    package derives its edge list from the entries."""
    pairs = {(i, (i + 1) % n) for i in range(n)} | {tuple(rng.sample(range(n), 2)) for _ in range(n // 4)}
    entries = set()
    for a, b in sorted(pairs):
        if (b, a) in pairs and a > b:
            continue
        tail, head = (a, b) if rng.random() < 0.5 else (b, a)
        entries |= {(tail + 1, head + 1, t, 0.0), (head + 1, tail + 1, 1.0, 0.0)}
    return {**raw(n, sorted(entries)), "t": t}


def drive_sweep(rng: random.Random, tiny: bool) -> list[dict]:
    """drive with the default 401-point grid on rings and circulants (N from
    60 to 160, and 300 and 600 in the defect jobs), a small product and raw
    matrices."""
    s = 0.25 if tiny else 1.0

    def n(size: int) -> int:
        return max(8, int(size * s) // 4 * 4)

    lattices = [
        ring(_two_segment(rng, n(60)), _t(rng, *MODERATE)),
        ring(_four_segment(rng, n(120)), _t(rng, *NEAR_ONE)),
        ring(_two_segment(rng, n(160)), _t(rng, 1.01, 1.03)),
        circulant(n(100), _offsets(rng, n(100), 2), _t(rng, *MODERATE)),
        circulant(n(120), _offsets(rng, n(120), 1), _t(rng, *NEAR_ONE)),
        product(_axis(rng, n(10), "ring4"), _axis(rng, n(8), "circulant")),
        _raw_graph(rng, n(60)),
        _raw_bonds(rng, n(100), _t(rng, *NEAR_ONE)),
    ]
    return [job(["drive"], lattice) for lattice in lattices] + [dict(j) for j in DEFECT_JOBS[2:4]]


def product_cap(rng: random.Random, tiny: bool) -> list[dict]:
    """build and charges on 2D and 3D products from about 1000 nodes up to
    the 4096-node cap."""
    if tiny:
        shapes = [(8, 8), (6, 6, 6)]
    else:
        shapes = [(64, 64), (16, 16, 16), (32, 32), (10, 10, 10), (48, 64), (12, 16, 16)]
    kinds = ("ring2", "circulant", "ring4")
    jobs = []
    for shape in shapes:
        lattice = product(*(_axis(rng, n, kind) for n, kind in zip(shape, kinds)))
        jobs += [job(["build"], lattice), job(["charges"], lattice)]
    return jobs


GENERATORS = {
    "figures-small": figures_small,
    "structured-large": structured_large,
    "drive-sweep": drive_sweep,
    "product-cap": product_cap,
}


def generate(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The workload's job list for ``seed``, each job with a stable id."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = GENERATORS[workload](rng, tiny)
    for i, j in enumerate(jobs):
        lattice = j["lattice"]
        what = lattice["kind"] if lattice else j["cmd"][1]
        j["id"] = f"{i:02d}-{j['cmd'][0]}-{what}"
    return jobs
