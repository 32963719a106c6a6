"""Brute-force validator on the full configuration x photon Hilbert space.

Evolves the joint state of all atomic configurations and a truncated photon
Fock ladder under the non-Hermitian generator, applies jump operators at
detection times, and reduces to the z marginal.  Confirms the reduced
trajectory engine on tiny systems; never meant to scale.  The propagator is
numpy's own Pade-13 scaling and squaring (`_expm`), which the tests hold
within 1e-12 of a reference matrix exponential.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .geometry import (LatticeSpec, Scenario, coupling_coefficient,
                       scenario_geometry)
from .optics import ProbeModel
from .states import (ZDistribution, superfluid_atom_number,
                     superfluid_difference)
from .trajectory import exact_distribution

_TAIL_BOUND = 1e-10


class CutoffError(RuntimeError):
    """Photon truncation too small for the requested evolution."""


def compositions(n_atoms: int, n_sites: int) -> list[tuple[int, ...]]:
    """All occupation vectors of n_atoms over n_sites, lexicographic."""
    return [q for q in itertools.product(range(n_atoms + 1), repeat=n_sites)
            if sum(q) == n_atoms]


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


def superfluid_joint_state(spec: LatticeSpec, n_max: int = 8) -> JointState:
    """Superfluid atomic state (multinomial amplitudes) in the empty cavity:
    every configuration's light sits in the photon vacuum."""
    cfgs = compositions(spec.n_atoms, spec.n_sites)
    c = np.array([math.sqrt(math.factorial(spec.n_atoms)
                            / math.prod(math.factorial(qj) for qj in q))
                  for q in cfgs])
    amplitudes = np.zeros((len(cfgs), n_max + 1), dtype=complex)
    amplitudes[:, 0] = c / math.sqrt(spec.n_sites ** spec.n_atoms)
    return JointState(tuple(cfgs), n_max, amplitudes)


@lru_cache(maxsize=32)
def _mode_sums(configs: tuple, scenario: Scenario, spec: LatticeSpec
               ) -> tuple[np.ndarray, np.ndarray]:
    """(D_10, D_11) per configuration from the scenario's mode functions.

    D_10 is the configuration's z; read-only, computed once per lattice.
    """
    geom = scenario_geometry(scenario, spec)
    q = np.array(configs)
    d10 = coupling_coefficient(q, geom.cavity, geom.probe, spec)
    d11 = coupling_coefficient(q, geom.cavity, geom.cavity, spec).real
    d10.flags.writeable = d11.flags.writeable = False
    return d10, d11


def _config_couplings(state: JointState, model: ProbeModel, spec: LatticeSpec
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(dispersive detuning delta_q, probe coupling g_q) per configuration.

    The shift u11 vanishes for transverse probing and the probe a0 in
    transmission, so each scenario keeps only its own term.
    """
    d10, d11 = _mode_sums(state.configs, model.scenario, spec)
    return model.u11 * d11 - model.delta_p, model.u10 * model.a0 * d10


# Higham's degree-13 Pade approximant (SIAM J. Matrix Anal. Appl. 26, 2005)
# and the 1-norm up to which it needs no scaling.  Its coefficients b_0..b_13
# are divided by b_0, so that exp(0) is the identity bit for bit.
_THETA13 = 5.371920351148152
_PADE13_B = np.array([
    64764752532480000., 32382376266240000., 7771770303897600.,
    1187353796428800., 129060195264000., 10559470521600., 670442572800.,
    33522128640., 1323241920., 40840800., 960960., 16380., 182., 1.]
    ) / 64764752532480000.
# Row r: the weights of (A^6, A^4, A^2, I) in S_r, where U = A (A^6 S_0 + S_2)
# and V = A^6 S_1 + S_3 (index 14 is a zero weight).
_PADE13_SUMS = np.append(_PADE13_B, 0.0)[[[13, 11, 9, 14], [12, 10, 8, 14],
                                          [7, 5, 3, 1], [6, 4, 2, 0]]
                                         ].astype(complex)


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of each matrix of a stack (k, n, n): Pade-13 scaling and squaring.

    Each slice is scaled by 2^-s, its own s from its own 1-norm, and squared
    s times under a mask.  Every product is one matrix product per slice, so
    no slice's bits depend on the rest of the stack.
    """
    # s: the least power of two with 1-norm / 2^s below theta_13
    s = np.maximum(np.frexp(np.abs(a).sum(axis=-2).max(axis=-1)
                            / _THETA13)[1], 0)
    a = a * np.ldexp(1.0, -s)[:, None, None]
    k, n = a.shape[:2]
    powers = np.empty((k, 4, n, n), dtype=complex)  # A^6, A^4, A^2, I
    powers[:, 3] = np.eye(n)
    np.matmul(a, a, out=powers[:, 2])
    np.matmul(powers[:, 2], powers[:, 2], out=powers[:, 1])
    np.matmul(powers[:, 1], powers[:, 2], out=powers[:, 0])
    sums = (_PADE13_SUMS @ powers.reshape(k, 4, n * n)).reshape(k, 2, 2, n, n)
    uv = powers[:, :1] @ sums[:, 0] + sums[:, 1]
    u = a @ uv[:, 0]
    v = uv[:, 1]
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s.min()):
        r = r @ r
    for j in range(s.min(), s.max()):
        sel = s > j
        rs = r[sel]
        r[sel] = rs @ rs
    return r


def evolve_nonhermitian(state: JointState, model: ProbeModel,
                        spec: LatticeSpec, duration: float) -> JointState:
    """Advance the unnormalized joint state by `duration` (exact propagator).

    One stacked `_expm` (Pade-13 scaling and squaring, within 1e-12 of a
    reference exponential relative to the largest entry) of every
    configuration's photon-ladder generator
    -(i delta_q + kappa) a+ a - i (g_q* a + g_q a+) - eta* a + eta a+, the
    rotating-frame non-Hermitian Schroedinger equation's right-hand side.
    Raises CutoffError when the topmost photon level holds more than the
    allowed tail mass; retry with a larger n_max.
    """
    if duration < 0:
        raise ValueError("duration must be >= 0")
    if duration == 0:
        return state

    delta, g = _config_couplings(state, model, spec)
    n = np.arange(state.n_max + 1)
    sq = np.sqrt(n[1:])
    gen = np.zeros((len(delta), len(n), len(n)), dtype=complex)
    gen[:, n, n] = (-1j * delta[:, None] - model.kappa) * n
    # <n-1| a |n> = <n| a+ |n-1> = sqrt(n)
    gen[:, n[:-1], n[1:]] = (-1j * np.conj(g)[:, None] * sq
                             - np.conj(model.eta) * sq)
    gen[:, n[1:], n[:-1]] = -1j * g[:, None] * sq + model.eta * sq
    prop = _expm(gen * duration)
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
    z = np.rint(_mode_sums(state.configs, scenario, spec)[0].real)
    p = np.bincount(np.searchsorted(grid, z), weights=per_config,
                    minlength=len(grid))
    return ZDistribution(grid, p / total)


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
