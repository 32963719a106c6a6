"""Brute-force validator on the full configuration x photon Hilbert space.

Evolves the joint state of all atomic configurations and a truncated photon
Fock ladder under the non-Hermitian generator, applies jump operators at
detection times, and reduces to the z marginal.  Confirms the reduced
trajectory engine on tiny systems; never meant to scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln

from .geometry import LatticeSpec, Scenario, configuration_z, scenario_geometry
from .optics import ProbeModel
from .states import (ZDistribution, superfluid_atom_number,
                     superfluid_difference)
from .trajectory import exact_distribution

_TAIL_BOUND = 1e-10


class CutoffError(RuntimeError):
    """Photon truncation too small for the requested evolution."""


def compositions(n_atoms: int, n_sites: int) -> list[tuple[int, ...]]:
    """All occupation vectors of n_atoms over n_sites, lexicographic."""
    if n_sites == 1:
        return [(n_atoms,)]
    out = []
    for first in range(n_atoms + 1):
        for rest in compositions(n_atoms - first, n_sites - 1):
            out.append((first,) + rest)
    out.sort()
    return out


@dataclass(frozen=True)
class JointState:
    """Amplitudes indexed by (configuration, photon number)."""

    configs: tuple[tuple[int, ...], ...]
    n_max: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (len(self.configs), self.n_max + 1):
            raise ValueError("amplitude array shape mismatch")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def photon_tail_fraction(self) -> float:
        """Weight fraction sitting in the topmost photon level."""
        w = np.abs(self.amplitudes) ** 2
        total = w.sum()
        return float(w[:, -1].sum() / total) if total > 0 else 0.0


def _coherent_column(alpha: complex, n_max: int) -> np.ndarray:
    n = np.arange(n_max + 1)
    if alpha == 0:
        return (n == 0).astype(complex)
    return np.exp(-0.5 * abs(alpha) ** 2 + n * np.log(complex(alpha))
                  - 0.5 * gammaln(n + 1))


def superfluid_joint_state(spec: LatticeSpec, alpha0: complex = 0.0,
                           n_max: int = 8) -> JointState:
    """Superfluid atomic state (multinomial amplitudes) times coherent light."""
    cfgs = compositions(spec.n_atoms, spec.n_sites)
    c = np.array([math.sqrt(math.factorial(spec.n_atoms)
                            / math.prod(math.factorial(qj) for qj in q))
                  for q in cfgs])
    c = c / math.sqrt(spec.n_sites ** spec.n_atoms)
    light = _coherent_column(alpha0, n_max)
    return JointState(tuple(cfgs), n_max, np.outer(c, light))


def mott_joint_state(spec: LatticeSpec, alpha0: complex = 0.0,
                     n_max: int = 8) -> JointState:
    if spec.n_atoms != spec.n_sites:
        raise ValueError("Mott state requires unit filling")
    cfgs = compositions(spec.n_atoms, spec.n_sites)
    c = np.array([1.0 if all(qj == 1 for qj in q) else 0.0 for q in cfgs])
    return JointState(tuple(cfgs), n_max, np.outer(c, _coherent_column(alpha0, n_max)))


def _config_couplings(state: JointState, model: ProbeModel, spec: LatticeSpec
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(dispersive detuning delta_q, probe coupling g_q) per configuration."""
    d11 = np.array([configuration_z(q, Scenario.TRANSMISSION, spec)
                    for q in state.configs], dtype=float)
    if model.scenario is Scenario.TRANSMISSION:
        d10 = np.zeros(len(state.configs))
    else:
        d10 = np.array([configuration_z(q, model.scenario, spec)
                        for q in state.configs], dtype=float)
    delta = model.u11 * d11 - model.delta_p
    g = model.u10 * model.a0 * d10
    return delta, g


def _derivative(amp: np.ndarray, delta: np.ndarray, g: np.ndarray,
                eta: complex, kappa: float) -> np.ndarray:
    """Right-hand side of the rotating-frame non-Hermitian Schroedinger eq."""
    n_max = amp.shape[1] - 1
    n = np.arange(n_max + 1, dtype=float)
    sq = np.sqrt(n)
    lower = np.zeros_like(amp)  # (a c)_n = sqrt(n+1) c_{n+1}
    lower[:, :-1] = sq[1:][None, :] * amp[:, 1:]
    raise_ = np.zeros_like(amp)  # (a+ c)_n = sqrt(n) c_{n-1}
    raise_[:, 1:] = sq[1:][None, :] * amp[:, :-1]
    out = (-1j * delta[:, None] - kappa) * n[None, :] * amp
    out += -1j * (np.conj(g)[:, None] * lower + g[:, None] * raise_)
    out += -np.conj(eta) * lower + eta * raise_
    return out


def evolve_nonhermitian(state: JointState, model: ProbeModel,
                        spec: LatticeSpec, duration: float) -> JointState:
    """Advance the unnormalized joint state by `duration` (exact propagator).

    One stacked `expm` of every configuration's photon-ladder generator.
    Raises CutoffError when the topmost photon level holds more than the
    allowed tail mass; retry with a larger n_max.
    """
    if duration < 0:
        raise ValueError("duration must be >= 0")
    if duration == 0:
        return state
    delta, g = _config_couplings(state, model, spec)
    k = state.n_max + 1  # row q*k + j of `cols`: generator of config q on |j>
    cols = _derivative(np.tile(np.eye(k, dtype=complex), (len(delta), 1)),
                       np.repeat(delta, k), np.repeat(g, k), model.eta,
                       model.kappa)
    prop = expm(cols.reshape(-1, k, k).transpose(0, 2, 1) * duration)
    out = replace(state, amplitudes=np.einsum("qij,qj->qi", prop,
                                              state.amplitudes))
    if out.photon_tail_fraction() > _TAIL_BOUND:
        raise CutoffError(f"photon tail fraction {out.photon_tail_fraction():.3g} "
                          f"exceeds {_TAIL_BOUND:g}; enlarge n_max")
    return out


def apply_jump(state: JointState) -> JointState:
    """Detection: apply the annihilation operator and renormalize."""
    amp = state.amplitudes
    n_max = state.n_max
    sq = np.sqrt(np.arange(1, n_max + 1, dtype=float))
    new = np.zeros_like(amp)
    new[:, :-1] = sq[None, :] * amp[:, 1:]
    norm = np.linalg.norm(new)
    if norm <= 0:
        raise ValueError("jump on a vacuum-only state")
    return replace(state, amplitudes=new / norm)


def z_marginal(state: JointState, scenario: Scenario,
               spec: LatticeSpec) -> ZDistribution:
    """Probability of each z, summed over photons and same-z configurations."""
    geom = scenario_geometry(scenario, spec)
    grid = np.asarray(geom.z_grid)
    weights = np.abs(state.amplitudes) ** 2
    per_config = weights.sum(axis=1)
    total = per_config.sum()
    if total <= 0:
        raise ValueError("zero-norm state has no marginal")
    p = np.zeros(len(grid))
    for q, w in zip(state.configs, per_config):
        z = configuration_z(q, scenario, spec)
        idx = np.searchsorted(grid, z)
        p[idx] += w
    return ZDistribution(grid, p / total, geom.z_meaning)


def run_script(state: JointState, model: ProbeModel, spec: LatticeSpec,
               jump_times, t_end: float) -> JointState:
    """Exact-propagator evolution between jumps at jump_times, up to t_end."""
    times = sorted(jump_times)
    if times and times[-1] > t_end:
        raise ValueError("jump times must not exceed t_end")
    now = 0.0
    for ti in times:
        state = evolve_nonhermitian(state, model, spec, ti - now)
        state = apply_jump(state)
        now = ti
    return evolve_nonhermitian(state, model, spec, t_end - now)


def compare_with_exact(spec: LatticeSpec, model: ProbeModel, jump_times,
                       t_end: float, n_max: int
                       ) -> tuple[ZDistribution, ZDistribution]:
    """Oracle and `exact_distribution` z marginals from the superfluid."""
    joint = run_script(superfluid_joint_state(spec, n_max=n_max), model, spec,
                       jump_times, t_end)
    p0 = (superfluid_difference(spec) if model.scenario is Scenario.MINIMUM
          else superfluid_atom_number(spec))
    return (z_marginal(joint, model.scenario, spec),
            exact_distribution(p0, model, jump_times, t_end))
