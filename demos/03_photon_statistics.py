"""Photocount statistics: super-Poissonian ensembles, Poissonian trajectories.

Before any photon is recorded, the cavity light is a mixture of coherent
states (one amplitude per atom number z), so ensemble photocounts are
super-Poissonian: Fano factor > 1, Mandel Q > 0.  Along one trajectory the
measurement gradually pins down z, and the conditional light converges to a
single coherent state with Q -> 0.  The count histogram of many simulated
trajectories reproduces the mixture-of-Poissonians law exactly.
"""

import numpy as np

from latticemc import (LatticeSpec, ProbeModel, Scenario, amplitude_table,
                       photocount_distribution, run_ensemble,
                       run_trajectory, superfluid_atom_number)

spec = LatticeSpec(n_atoms=100, n_sites=100, n_illuminated=50)
p0 = superfluid_atom_number(spec)
model = ProbeModel(Scenario.MAXIMUM, kappa=1.0, u10=1.0, a0=1.0)
table = amplitude_table(model, p0.z_values)
c2 = abs(table.c_constant) ** 2

# --- ensemble law at a short counting time
tau = 0.002
t = tau / (2.0 * c2 * model.kappa)
theory = photocount_distribution(p0, table, model.kappa, t)
print(f"counting window tau = {tau:g}:")
print(f"  theory: <m> = {theory.mean:.3f}, Fano = {theory.fano:.3f}, "
      f"Mandel Q = {theory.mandel_q:.3f}")

# with no stop rule every member counts to the horizon
ensemble = run_ensemble(p0, model, [[31, i] for i in range(500)],
                        max_tau=tau, stop_fwhm=0.0,
                        sample_interval_tau=tau / 10)
ms = ensemble.m[:, -1]
print(f"  500 simulated trajectories: <m> = {ms.mean():.3f}, "
      f"Fano = {ms.var() / ms.mean():.3f}")
print()

print(f"{'m':>4} {'empirical':>10} {'theory':>10}")
hist = np.bincount(ms, minlength=13) / len(ms)
for m in range(13):
    print(f"{m:4d} {hist[m]:10.4f} {theory.probabilities[m]:10.4f}")
print()

# --- conditional statistics sharpen along one trajectory
record = run_trajectory(p0, model, seed=[31, 999], max_tau=30.0,
                        stop_fwhm=0.0, sample_interval_tau=1.0)
print("Mandel Q of the conditional light along one trajectory "
      "(reduced units):")
s = record.samples
for tau, q in zip(s.tau[::6], s.mandel_q_reduced[::6]):
    print(f"  tau = {tau:6.2f}:  Q = {q:.3e}")
print()
print("the ensemble stays super-Poissonian, but each single record ends")
print("with coherent (Q = 0) light: the measurement has used up all the")
print("atom-number uncertainty.")
