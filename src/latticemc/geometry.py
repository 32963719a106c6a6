"""Lattice and light geometry.

Probe and cavity mode functions, each its values at the lattice sites, and
the weighted atom-number sums D_lm = sum_j u_l*(r_j) u_m(r_j) n_j over the
illuminated sites.  Each measurement scenario fixes its pair of mode
functions, and z is the D of the pair, D_10 = sum_j u_1* u_0 n_j:

* diffraction maximum  -> u_1* u_0 = 1: z is the atom number at the K
  illuminated sites,
* diffraction minimum  -> u_1* u_0 = (-1)^(j+1), a standing cavity mode at
  k_x = pi / d: z is the atom-number difference between odd and even sites
  (all sites illuminated),
* transmission         -> the cavity mode is its own probe, |u_1|^2 = 1: z
  is again the atom number at K sites, entering through the dispersive
  cavity shift.

The oracle derives its couplings and the Mott state its z from these sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class Scenario(Enum):
    MAXIMUM = "maximum"
    MINIMUM = "minimum"
    TRANSMISSION = "transmission"


@dataclass(frozen=True)
class LatticeSpec:
    """Atom / site / illumination counts: the probe lights the contiguous
    block of sites j = 1..K."""

    n_atoms: int
    n_sites: int
    n_illuminated: int

    def __post_init__(self):
        if self.n_atoms < 1:
            raise ValueError("n_atoms must be >= 1")
        if self.n_sites < 1:
            raise ValueError("n_sites must be >= 1")
        if not 1 <= self.n_illuminated <= self.n_sites:
            raise ValueError("need 1 <= n_illuminated <= n_sites")


@dataclass(frozen=True)
class ScenarioGeometry:
    """z grid and the probe (u_0) and cavity (u_1) modes whose D_10 is z,
    each a read-only array of its values at sites 1..M."""

    z_grid: tuple[int, ...]
    probe: np.ndarray
    cavity: np.ndarray


def coupling_coefficient(q, mode_l, mode_m,
                         spec: LatticeSpec) -> complex | np.ndarray:
    """D^q_lm = sum over illuminated sites of u_l*(r_j) u_m(r_j) q_j.

    q is one configuration or an array of them, one per row; a mode is its
    values at sites 1..M.
    """
    q = np.asarray(q)
    if q.shape[-1:] != (spec.n_sites,):
        raise ValueError(f"configuration shape {q.shape} does not end in "
                         f"n_sites = {spec.n_sites}")
    if np.any(q < 0):
        raise ValueError("occupations must be nonnegative")
    mode_l, mode_m = np.asarray(mode_l), np.asarray(mode_m)
    if {mode_l.shape, mode_m.shape} != {(spec.n_sites,)}:
        raise ValueError(f"mode shapes {mode_l.shape}, {mode_m.shape} are "
                         f"not (n_sites,) = ({spec.n_sites},)")
    k = spec.n_illuminated
    d = q[..., :k] @ (np.conj(mode_l[:k]) * mode_m[:k])
    return complex(d) if d.ndim == 0 else d


def scenario_geometry(scenario: Scenario, spec: LatticeSpec) -> ScenarioGeometry:
    """z grid and mode functions of the given scenario.

    Maximum / transmission: z in {0, ..., N}.  Minimum (requires all sites
    illuminated): z in {-N, -N+2, ..., N}.
    """
    n = spec.n_atoms
    flat = np.ones(spec.n_sites, dtype=complex)  # u = 1 at every site
    if scenario in (Scenario.MAXIMUM, Scenario.TRANSMISSION):
        # in transmission the mirror-driven cavity mode is its own probe
        grid, cavity = range(n + 1), flat
    elif scenario is Scenario.MINIMUM:
        if spec.n_illuminated != spec.n_sites:
            raise ValueError("diffraction minimum requires K = M "
                             "(all sites illuminated)")
        # transverse probe, cavity standing wave along the lattice at
        # k_x = pi / d: cos(j pi + pi) = (-1)^(j+1) at site j
        grid = range(-n, n + 1, 2)
        cavity = np.where(np.arange(spec.n_sites) % 2, -1.0, 1.0) + 0j
    else:
        raise ValueError(f"unknown scenario {scenario!r}")
    flat.flags.writeable = cavity.flags.writeable = False
    return ScenarioGeometry(tuple(grid), flat, cavity)
