"""Quantum-trajectory simulation of measurement back-action on lattice atoms.

Continuous photodetection of light scattered by ultracold lattice atoms
into a cavity collapses the conditional atom-number distribution to
number-squeezed (singlet) or macroscopic-superposition (doublet) states.
This package simulates single trajectories and ensembles, the companion
photon statistics, and the purity of the prepared superpositions under
photon loss.
"""

from .geometry import (LatticeSpec, ModeFunction, Scenario, ScenarioGeometry,
                       ZMeaning, coupling_coefficient, mode_value,
                       scenario_geometry)
from .optics import (AmplitudeTable, ProbeModel, amplitude_table, cat_phase,
                     prefactor_exponent, steady_amplitude, transient_amplitude)
from .oracle import (JointState, apply_jump, compare_with_exact,
                     evolve_nonhermitian, mott_joint_state, run_script,
                     superfluid_joint_state, z_marginal)
from .photostats import (PhotonDistribution, cavity_photon_distribution,
                         conditional_photocount_distribution,
                         photocount_distribution)
from .purity import CatMixture, density_matrix, purity, purity_sweep
from .states import (ZDistribution, gaussian_approximation, load_distribution,
                     mott_distribution, superfluid_atom_number,
                     superfluid_difference)
from .trajectory import (OutcomeReport, RunRecord, TrajectoryState,
                         classify_outcome, closed_form_distribution,
                         conditional_photon_number, exact_distribution,
                         jump, mandel_q, no_count_step,
                         predicted_widths, run_trajectory, width)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
