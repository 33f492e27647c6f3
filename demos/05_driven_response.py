"""Emulating the driven measurement: loss, point drive, mode selection.

With uniform loss gamma just above the least-damped eigenvalue line, a
point drive at the resonance frequency excites that single mode: the
steady-state profile is the pure exponential, its log is a straight
line, and the shape no longer depends on where the drive sits.  The
open-boundary chain, driven the same way, stays oscillatory.

Run:  python3 demos/05_driven_response.py
"""

import numpy as np

import decaygraph as dg

t = 1.5

ring = dg.SegmentedRing((("A", 11), ("B", 1)))
h = dg.build(ring, t)
sys = dg.eigendecompose(h)
sel = dg.least_damped_mode(sys)
omega = float(sys.values[sel].real)
g_floor = float(np.max(sys.values.imag))
print(f"12-site ring: least-damped mode at E = {sys.values[sel]:.4f}, drive at omega = {omega:.4f}")

# the closer gamma sits to the least-damped line, the cleaner the selection
print("\nloss sweep (drive at site 1):")
for excess in (0.1, 0.02, 0.005, 1e-4):
    cfg = dg.DriveConfig(0, g_floor + excess, np.array([omega]))
    x = dg.steady_state(h, cfg, omega, sys)
    check = dg.mode_selection_check(x, sys)
    lp = dg.log_profile(x, ring)
    print(
        f"  gamma - max Im E = {excess:7.0e}: overlap with least-damped mode "
        f"{check.overlap:.6f}, log-fit residual {lp.residual:.1e}"
    )

# at tight loss the response shape forgets the source position
cfg = dg.DriveConfig(0, g_floor + 1e-4, np.array([omega]))
ref = dg.steady_state(h, cfg, omega, sys)
ref = ref / np.linalg.norm(ref)
print("\nsource independence at gamma - max Im E = 1e-4:")
for source in (3, 7, 11):
    cfg_s = dg.DriveConfig(source, g_floor + 1e-4, np.array([omega]))
    x = dg.steady_state(h, cfg_s, omega, sys)
    overlap = abs(np.vdot(ref, x / np.linalg.norm(x)))
    print(f"  drive at site {source + 1}: shape overlap with site-1 drive {overlap:.6f}")

# a frequency sweep peaks at the selected mode, coherently on every node
cfg_sweep = dg.DriveConfig(0, g_floor + 0.01, np.linspace(omega - 1.2, omega + 1.2, 241))
sweep = dg.frequency_sweep(h, cfg_sweep, sys)
peak = cfg_sweep.omega_grid[int(np.argmax(np.max(np.abs(sweep), axis=1)))]
print(f"\nsweep peak at omega = {peak:+.4f} (resonance at {omega:+.4f})")

# non-reciprocity: site 7 hears site 1 differently than site 1 hears site 7
x_1 = dg.steady_state(h, dg.DriveConfig(0, g_floor + 0.05, np.array([omega])), omega, sys)
x_7 = dg.steady_state(h, dg.DriveConfig(6, g_floor + 0.05, np.array([omega])), omega, sys)
print(f"\n|x_7| driven at 1: {abs(x_1[6]):.4f}   |x_1| driven at 7: {abs(x_7[0]):.4f}")

# the open-chain control stays oscillatory from every source
chain = dg.ObcChain(12)
hc = dg.build(chain, t)
sys_c = dg.eigendecompose(hc)
omega_c = float(sys_c.values[dg.least_damped_mode(sys_c)].real)
gamma_c = float(np.max(sys_c.values.imag)) + 0.05 * hc.norm_inf()
print("\nopen 12-site chain (control):")
for source in (0, 3, 5):
    x = dg.steady_state(hc, dg.DriveConfig(source, gamma_c, np.array([omega_c])), omega_c, sys_c)
    lp = dg.log_profile(x, chain)
    print(f"  drive at site {source + 1}: log-fit residual {lp.residual:.2f} (oscillatory)")
