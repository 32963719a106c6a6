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
from functools import lru_cache

import numpy as np

from .geometry import (LatticeSpec, Scenario, coupling_coefficient,
                       scenario_geometry)
from .optics import ProbeModel
from .states import ZDistribution, superfluid_distribution
from .trajectory import exact_distribution

_TAIL_BOUND = 1e-10


class CutoffError(RuntimeError):
    """Photon truncation too small for the requested evolution."""


def compositions(n_atoms: int, n_sites: int) -> list[tuple[int, ...]]:
    """All occupation vectors of n_atoms over n_sites, lexicographic."""
    return [q for q in itertools.product(range(n_atoms + 1), repeat=n_sites)
            if sum(q) == n_atoms]


def superfluid_joint_state(spec: LatticeSpec, n_max: int) -> np.ndarray:
    """Superfluid atomic state (multinomial amplitudes) in the empty cavity.

    The joint state is a complex (configuration x photon number 0..n_max)
    array, its rows in `compositions` order; every configuration's light
    sits in the photon vacuum.
    """
    cfgs = compositions(spec.n_atoms, spec.n_sites)
    c = np.array([math.sqrt(math.factorial(spec.n_atoms)
                            / math.prod(math.factorial(qj) for qj in q))
                  for q in cfgs])
    amplitudes = np.zeros((len(cfgs), n_max + 1), dtype=complex)
    amplitudes[:, 0] = c / math.sqrt(spec.n_sites ** spec.n_atoms)
    return amplitudes


@lru_cache(maxsize=32)
def _mode_sums(scenario: Scenario, spec: LatticeSpec
               ) -> tuple[np.ndarray, np.ndarray]:
    """(D_10, D_11) per configuration, in `compositions` order.

    D_10 is the configuration's z; read-only, computed once per lattice.
    """
    geom = scenario_geometry(scenario, spec)
    q = np.array(compositions(spec.n_atoms, spec.n_sites))
    d10 = coupling_coefficient(q, geom.cavity, geom.probe, spec)
    d11 = coupling_coefficient(q, geom.cavity, geom.cavity, spec).real
    d10.flags.writeable = d11.flags.writeable = False
    return d10, d11


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


def _propagators(model: ProbeModel, d10: np.ndarray, d11: np.ndarray,
                 durations: np.ndarray, n_levels: int) -> np.ndarray:
    """exp(G_q d_k) for each duration d_k and configuration q, (k, q, n, n).

    G_q is the configuration's photon-ladder generator
    -(i delta_q + kappa) a+ a - i (g_q* a + g_q a+) - eta* a + eta a+, the
    rotating-frame non-Hermitian Schroedinger equation's right-hand side,
    built once; one `_expm` call exponentiates the whole (duration x
    configuration) stack, within 1e-12 of a reference exponential relative
    to the largest entry.  For a script that is (jumps + 1) x configurations
    x (n_max + 1)^2 complex entries, 12 x 25 for oracle-check's N = 3 cases,
    and `_expm` holds a few times that while it runs.
    """
    # detuning delta_q and probe coupling g_q: u11 = 0 for transverse probing
    # and a0 = 0 in transmission, so each scenario keeps only its own term
    delta = model.u11 * d11 - model.delta_p
    g = model.u10 * model.a0 * d10
    n = np.arange(n_levels)
    sq = np.sqrt(n[1:])
    gen = np.zeros((len(delta), n_levels, n_levels), dtype=complex)
    gen[:, n, n] = (-1j * delta[:, None] - model.kappa) * n
    # <n-1| a |n> = <n| a+ |n-1> = sqrt(n)
    gen[:, n[:-1], n[1:]] = (-1j * np.conj(g)[:, None] * sq
                             - np.conj(model.eta) * sq)
    gen[:, n[1:], n[:-1]] = -1j * g[:, None] * sq + model.eta * sq
    stack = durations[:, None, None, None] * gen
    return _expm(stack.reshape(-1, n_levels, n_levels)).reshape(stack.shape)


def evolve_nonhermitian(amplitudes: np.ndarray, model: ProbeModel,
                        spec: LatticeSpec, duration: float) -> np.ndarray:
    """Advance the unnormalized joint state by `duration` (exact propagator).

    `run_script` with no jumps: ValueError on a negative duration or a state
    without one row per configuration, the state itself at duration 0, and
    CutoffError when the photon ladder is too short.
    """
    return run_script(amplitudes, model, spec, (), duration)


def apply_jump(amplitudes: np.ndarray) -> np.ndarray:
    """Detection: apply the annihilation operator and renormalize."""
    sq = np.sqrt(np.arange(1, amplitudes.shape[1], dtype=float))
    new = np.zeros_like(amplitudes)
    new[:, :-1] = sq[None, :] * amplitudes[:, 1:]
    norm = np.linalg.norm(new)
    if norm <= 0:
        raise ValueError("jump on a vacuum-only state")
    return new / norm


def z_marginal(amplitudes: np.ndarray, scenario: Scenario,
               spec: LatticeSpec) -> ZDistribution:
    """Probability of each z, summed over photons and same-z configurations."""
    d10 = _mode_sums(scenario, spec)[0]
    if np.ndim(amplitudes) != 2 or len(amplitudes) != len(d10):
        raise ValueError("joint state needs one row per configuration")
    grid = np.asarray(scenario_geometry(scenario, spec).z_grid)
    per_config = (np.abs(amplitudes) ** 2).sum(axis=1)
    total = per_config.sum()
    if total <= 0:
        raise ValueError("zero-norm state has no marginal")
    p = np.bincount(np.searchsorted(grid, np.rint(d10.real)),
                    weights=per_config, minlength=len(grid))
    return ZDistribution(grid, p / total)


def run_script(amplitudes: np.ndarray, model: ProbeModel, spec: LatticeSpec,
               jump_times, t_end: float) -> np.ndarray:
    """Exact-propagator evolution between jumps at jump_times, up to t_end.

    One `_propagators` call exponentiates every interval between 0, the
    sorted jump times and t_end at once; each interval of nonzero length
    then advances the state, and each jump follows its interval.  Raises
    CutoffError at the first interval after which the topmost photon level
    holds more than the allowed tail mass; retry with a larger n_max.
    """
    times = sorted(jump_times)
    if times and times[-1] > t_end:
        raise ValueError("jump times must not exceed t_end")
    durations = np.diff(np.array([0.0, *times, t_end], dtype=float))
    if (durations < 0).any():
        raise ValueError("duration must be >= 0")
    d10, d11 = _mode_sums(model.scenario, spec)
    if np.ndim(amplitudes) != 2 or len(amplitudes) != len(d10):
        raise ValueError("joint state needs one row per configuration")
    props = _propagators(model, d10, d11, durations, amplitudes.shape[1])
    for k, (duration, prop) in enumerate(zip(durations, props)):
        if duration != 0:
            amplitudes = np.einsum("qij,qj->qi", prop, amplitudes)
            w = np.abs(amplitudes) ** 2
            total = w.sum()
            tail = w[:, -1].sum() / total if total > 0 else 0.0
            if tail > _TAIL_BOUND:
                raise CutoffError(f"photon tail fraction {tail:.3g} "
                                  f"exceeds {_TAIL_BOUND:g}; enlarge n_max")
        if k < len(times):
            amplitudes = apply_jump(amplitudes)
    return amplitudes


def compare_with_exact(spec: LatticeSpec, model: ProbeModel, jump_times,
                       t_end: float, n_max: int
                       ) -> tuple[ZDistribution, ZDistribution]:
    """Oracle and `exact_distribution` z marginals from the superfluid."""
    joint = run_script(superfluid_joint_state(spec, n_max=n_max), model, spec,
                       jump_times, t_end)
    p0 = superfluid_distribution(spec, model.scenario)
    return (z_marginal(joint, model.scenario, spec),
            exact_distribution(p0, model, jump_times, t_end))
