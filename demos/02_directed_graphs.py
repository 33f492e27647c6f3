"""Beyond rings: directed graphs with symmetric connectivity.

A graph on N nodes whose connectivity vector satisfies a_q = a_{N-q}
supports pure decay modes with the universal profile r^(m-1),
r = t^(-1/N), for every mode at once.  The eigenbasis is geometric-
times-Fourier, so the whole spectrum is available in closed form.

Run:  python3 demos/02_directed_graphs.py
"""

import numpy as np

import decaygraph as dg

t = 1.5

# 6 nodes, each connected to 3 others (offsets 1, 3, 5)
g6 = dg.validate_circulant(6, [1, 0, 1, 0, 1])
print(f"6-node graph, {g6.degree} neighbors per node, offsets {g6.offsets}")
sys6 = dg.closed_form(g6, t)
r = t ** (-1 / 6)
want = r ** np.arange(6)
worst = max(np.max(np.abs(sys6.profile(n) - want)) for n in range(6))
print(f"all 6 closed-form modes match r^m to {worst:.2e} (r = t^-1/6 = {r:.6f})")

numeric = dg.eigendecompose(dg.build(g6, t))
dev = max(min(abs(e - a) for a in sys6.values) for e in numeric.values)
print(f"dense solver agrees with the closed form to {dev:.2e}")

# 8 nodes, each connected to 4 others
g8 = dg.validate_circulant(8, [1, 1, 0, 0, 0, 1, 1])
check8 = dg.pure_decay_check(dg.eigendecompose(dg.build(g8, t)), g8, t)
print(f"\n8-node graph, {g8.degree} neighbors per node: purity {check8.purity:.2e}")

# the symmetry rule is necessary: a_1 = 1 without a_3 = 1 is rejected
try:
    dg.validate_circulant(4, [1, 0, 0])
except dg.SymmetryViolation as exc:
    print(f"\nasymmetric vector rejected as expected: {exc}")

# the 4-node complete graph of the tabletop experiment
g4 = dg.validate_circulant(4, [1, 1, 1])
h4 = dg.build(g4, t)
print(f"\n4-node complete graph: upper triangle all {t}, lower all 1.0")
print(h4.matrix)
profile = dg.decay_profile(g4, t)
steps = profile[1:] / profile[:-1]
print(f"profile steps {np.round(steps, 6)} vs r = t^-1/4 = {t ** (-1 / 4):.6f}")
