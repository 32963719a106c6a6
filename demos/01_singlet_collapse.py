"""Watch continuous photodetection squeeze a superfluid into a Fock state.

100 atoms over 100 sites, half of them illuminated at the diffraction
maximum: the scattered light amplitude is proportional to the atom number z
at the illuminated sites, so every detected photon multiplies p(z) by z^2
and every quiet stretch suppresses the strongly scattering components.
The initially binomial distribution (mean 50, width 5) narrows around a
random z1 and freezes there — a quantum nondemolition measurement whose
answer is decided by the detection record itself.
"""

import numpy as np

from latticemc import (LatticeSpec, ProbeModel, Scenario, run_trajectory,
                       superfluid_atom_number)

spec = LatticeSpec(n_atoms=100, n_sites=100, n_illuminated=50)
p0 = superfluid_atom_number(spec)
model = ProbeModel(Scenario.MAXIMUM, kappa=1.0, u10=1.0, a0=1.0)

print(f"initial distribution: mean = {p0.mean:.1f}, std = {p0.std:.2f}")
print()
print(f"{'tau':>8} {'m':>8} {'<z>':>8} {'width':>8}")

record = run_trajectory(p0, model, seed=[2024, 0], max_tau=30.0,
                        stop_fwhm=0.5, sample_interval_tau=0.25)
s = record.samples  # one array per observable, one entry per stride
for k in range(0, len(record.m), len(record.m) // 12):
    print(f"{s.tau[k]:8.2f} {s.m[k]:8d} {s.mean_z[k]:8.3f} {s.width[k]:8.4f}")

final = record.final_state
out = record.outcome
print()
print(f"collapsed after m = {final.m} detections at tau = {final.tau:.2f}")
print(f"outcome: {out.kind} at z1 = {out.z1}")
print(f"measurement estimate sqrt(m/tau) = {np.sqrt(final.m / final.tau):.3f}")
print(f"probability of z1 in the initial state: "
      f"{p0.probabilities[out.z1]:.4f}")
print()
print("run it again with a different seed and the lattice picks a "
      "different z1,")
print("with frequency given by the initial binomial weights.")
