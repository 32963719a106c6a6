"""Lattice and light geometry.

Probe and cavity mode functions evaluated on lattice sites, and the
weighted atom-number sums D_lm = sum_j u_l*(r_j) u_m(r_j) n_j over the
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
    """Atom / site / illumination counts.

    Illuminated sites default to the contiguous block j = 1..K; an explicit
    1-based site mask can be given instead (e.g. every second site).
    """

    n_atoms: int
    n_sites: int
    n_illuminated: int
    illuminated_sites: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.n_atoms < 1:
            raise ValueError("n_atoms must be >= 1")
        if self.n_sites < 1:
            raise ValueError("n_sites must be >= 1")
        if not 1 <= self.n_illuminated <= self.n_sites:
            raise ValueError("need 1 <= n_illuminated <= n_sites")
        if self.illuminated_sites is not None:
            sites = tuple(self.illuminated_sites)
            if len(sites) != self.n_illuminated:
                raise ValueError("site mask length must equal n_illuminated")
            if len(set(sites)) != len(sites):
                raise ValueError("site mask has repeated sites")
            if any(not 1 <= j <= self.n_sites for j in sites):
                raise ValueError("site mask entries must lie in 1..n_sites")
            object.__setattr__(self, "illuminated_sites", sites)

    @property
    def sites(self) -> tuple[int, ...]:
        """1-based indices of the illuminated sites."""
        if self.illuminated_sites is not None:
            return self.illuminated_sites
        return tuple(range(1, self.n_illuminated + 1))


@dataclass(frozen=True)
class ModeFunction:
    """Plane-wave mode function on the lattice.

    kind is 'traveling' or 'standing'; projected_wavenumber is
    k_x = |k| sin(theta) in units of 1/d; phase is site-independent
    (plane-wave approximation).
    """

    kind: str
    projected_wavenumber: float
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in ("traveling", "standing"):
            raise ValueError(f"unknown mode kind {self.kind!r}")


@dataclass(frozen=True)
class ScenarioGeometry:
    """z grid and the probe (u_0) and cavity (u_1) modes whose D_10 is z."""

    z_grid: tuple[int, ...]
    probe: ModeFunction
    cavity: ModeFunction


def mode_value(mode: ModeFunction, site_index: int, spec: LatticeSpec) -> complex:
    """Mode function u(r_j) at site j (1-based).

    exp(i(j k_x + phi)) for traveling waves, cos(j k_x + phi) for standing
    waves (k_x in units of 1/d).
    """
    if not 1 <= site_index <= spec.n_sites:
        raise IndexError(f"site index {site_index} outside 1..{spec.n_sites}")
    arg = site_index * mode.projected_wavenumber + mode.phase
    if mode.kind == "traveling":
        return complex(np.exp(1j * arg))
    return complex(np.cos(arg))


def coupling_coefficient(q, mode_l: ModeFunction, mode_m: ModeFunction,
                         spec: LatticeSpec) -> complex | np.ndarray:
    """D^q_lm = sum over illuminated sites of u_l*(r_j) u_m(r_j) q_j.

    q is one configuration or an array of them, one per row.
    """
    q = np.asarray(q)
    if q.shape[-1:] != (spec.n_sites,):
        raise ValueError(f"configuration shape {q.shape} does not end in "
                         f"n_sites = {spec.n_sites}")
    if np.any(q < 0):
        raise ValueError("occupations must be nonnegative")
    weights = [np.conj(mode_value(mode_l, j, spec)) * mode_value(mode_m, j, spec)
               for j in spec.sites]
    d = q[..., np.array(spec.sites) - 1] @ np.array(weights)
    return complex(d) if d.ndim == 0 else d


def scenario_geometry(scenario: Scenario, spec: LatticeSpec) -> ScenarioGeometry:
    """z grid and mode functions of the given scenario.

    Maximum / transmission: z in {0, ..., N}.  Minimum (requires all sites
    illuminated): z in {-N, -N+2, ..., N}.
    """
    n = spec.n_atoms
    flat = ModeFunction("traveling", 0.0)  # u = 1 at every site
    if scenario in (Scenario.MAXIMUM, Scenario.TRANSMISSION):
        # in transmission the mirror-driven cavity mode is its own probe
        return ScenarioGeometry(tuple(range(n + 1)), flat, flat)
    if scenario is Scenario.MINIMUM:
        if spec.n_illuminated != spec.n_sites:
            raise ValueError("diffraction minimum requires K = M "
                             "(all sites illuminated)")
        # transverse probe, cavity standing wave along the lattice with
        # cos(j pi + pi) = (-1)^(j+1) at site j
        cavity = ModeFunction("standing", np.pi, np.pi)
        return ScenarioGeometry(tuple(range(-n, n + 1, 2)), flat, cavity)
    raise ValueError(f"unknown scenario {scenario!r}")
