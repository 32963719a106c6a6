"""Validate the reduced engine against a brute-force joint simulation.

The production engine only tracks the distribution p(z) — it assumes the
cavity follows each atomic component adiabatically and that all phases
factor out of the photocount statistics.  Here we drop that reduction:
three atoms on two sites and a truncated photon ladder are evolved as one
joint wavefunction under the non-Hermitian generator, with annihilation
operators applied at scripted detection times.  The z marginal of the
joint state must match the reduced calculation to numerical precision.
"""

import numpy as np

from latticemc import (LatticeSpec, ProbeModel, Scenario, exact_distribution,
                       run_script, superfluid_atom_number,
                       superfluid_joint_state, z_marginal)

spec = LatticeSpec(n_atoms=3, n_sites=2, n_illuminated=1)
model = ProbeModel(Scenario.TRANSMISSION, kappa=1.0, u11=1.0, eta=1e-4,
                   delta_p=1.0)

jump_times = (16.0, 18.5)
t_end = 20.0

joint = superfluid_joint_state(spec, n_max=4)
print(f"joint state shape: {joint.shape} (configurations x photon levels)")

joint = run_script(joint, model, spec, jump_times, t_end)
full = z_marginal(joint, Scenario.TRANSMISSION, spec)

p0 = superfluid_atom_number(spec)
reduced = exact_distribution(p0, model, jump_times, t_end)

print(f"detection record: jumps at t = {jump_times}, end at t = {t_end}")
print()
print(f"{'z':>3} {'full joint':>14} {'reduced':>14} {'diff':>10}")
for z, pf, pr in zip(full.z_values, full.probabilities,
                     reduced.probabilities):
    print(f"{z:3d} {pf:14.10f} {pr:14.10f} {abs(pf - pr):10.2e}")
print()
print(f"max deviation: {np.abs(full.probabilities - reduced.probabilities).max():.3e}")
print("(the command-line entry point `latticemc oracle-check` runs this")
print("comparison over several system sizes and both probing geometries)")
