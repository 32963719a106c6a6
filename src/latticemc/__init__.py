"""Quantum-trajectory simulation of measurement back-action on lattice atoms.

Continuous photodetection of light scattered by ultracold lattice atoms
into a cavity collapses the conditional atom-number distribution to
number-squeezed (singlet) or macroscopic-superposition (doublet) states.
This package simulates single trajectories and ensembles, the companion
photon statistics, and the purity of the prepared superpositions under
photon loss.
"""

from .geometry import (LatticeSpec, Scenario, ScenarioGeometry,
                       coupling_coefficient, scenario_geometry)
from .optics import (AmplitudeTable, ProbeModel, amplitude_table, cat_phase,
                     steady_amplitude, transient_amplitude)
from .oracle import (apply_jump, compare_with_exact, evolve_nonhermitian,
                     run_script, superfluid_joint_state, z_marginal)
from .photostats import PhotonDistribution, photocount_distribution
from .purity import purity, purity_sweep
from .states import (ZDistribution, load_distribution, mott_distribution,
                     superfluid_atom_number, superfluid_difference)
from .trajectory import (OutcomeReport, RunRecord, classify_outcome,
                         closed_form_distribution, exact_distribution,
                         run_ensemble, run_trajectory)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
