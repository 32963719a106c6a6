"""Prepare a Schroedinger-cat state by measuring cavity transmission.

Driving the cavity through a mirror makes the light amplitude a Lorentzian
in the atom number z, resonant at z_p.  Because the Lorentzian is symmetric
about z_p, the detection record cannot distinguish z_p + dz from z_p - dz:
a trajectory that settles off resonance therefore keeps BOTH mirror images
alive — a macroscopic superposition of two atom numbers, with the two
components dressed by different light phases.
"""

import numpy as np

from latticemc import (LatticeSpec, ProbeModel, Scenario, amplitude_table,
                       run_trajectory, superfluid_atom_number)

spec = LatticeSpec(n_atoms=100, n_sites=100, n_illuminated=50)
p0 = superfluid_atom_number(spec)

# resonant atom number z_p = 60 sits one sigma above the superfluid mean,
# so doublets with visibly unequal wings are common
model = ProbeModel(Scenario.TRANSMISSION, kappa=1.0, u11=1.0, eta=1.0,
                   delta_p=60.0)

record = run_trajectory(p0, model, seed=[2024, 7], max_tau=6e6,
                        stop_fwhm=0.003, sample_interval_tau=2e3)
out = record.outcome
final = record.final_state

print(f"detections m = {final.m}, dimensionless time tau' = {final.tau:.0f}")
print(f"count-to-time ratio m/tau' = {final.m / final.tau:.3f} "
      f"({'singlet' if final.m / final.tau >= 1 else 'doublet'} regime)")
print()
print(f"outcome: {out.kind}")
if out.kind == "doublet":
    w1, w2 = out.component_weights
    print(f"  satellites at z = {out.z1} and z = {out.z2} "
          f"(z_p +/- {out.delta_z:g})")
    print(f"  weights {w1:.4f} / {w2:.4f}  "
          f"(initial-state ratio p0({out.z1})/p0({out.z2}) = "
          f"{p0.probabilities[out.z1] / p0.probabilities[out.z2]:.4f})")
    print(f"  splitting predicted from (m, tau') alone: "
          f"{out.delta_z_predicted:.3f}")
    print(f"  light phase difference 2*phi = {2 * out.phase_phi:.4f} rad")
    c2 = abs(model.c_constant) ** 2
    lam = amplitude_table(model, p0.z_values).intensity
    photons = lam @ final.dist.probabilities / c2
    print(f"  reduced cavity photon number {photons:.6f} "
          f"(Lorentzian value {1 / (1 + out.delta_z**2):.6f})")
print()
print("both components sit symmetrically about z_p = 60; the light that")
print("leaked out never said which side the atoms are on.")
