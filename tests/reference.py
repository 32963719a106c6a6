"""Plain reference implementations that several test files share."""

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln
from scipy.stats import chisquare

from latticemc.geometry import (LatticeSpec, Scenario, coupling_coefficient,
                                scenario_geometry)
from latticemc.optics import (AmplitudeTable, ProbeModel,
                              prefactor_exponent_exact, transient_amplitude)
from latticemc.oracle import compositions, superfluid_joint_state
from latticemc.states import ZDistribution
from latticemc.trajectory import LN2, _reweighted


@dataclass(frozen=True)
class TrajectoryState:
    """Conditional distribution plus detection bookkeeping, updated event by
    event by `no_count_step` and `jump`."""

    dist: ZDistribution
    amplitudes: AmplitudeTable
    kappa: float
    m: int = 0
    t: float = 0.0

    @property
    def tau(self) -> float:
        """Dimensionless time 2|C|^2 kappa t."""
        return 2.0 * abs(self.amplitudes.c_constant) ** 2 * self.kappa * self.t


def log_intensity(table: AmplitudeTable) -> np.ndarray:
    """log |alpha_z|^2 on the grid, -inf where alpha_z = 0."""
    lam = table.intensity
    return np.log(lam, out=np.full(lam.shape, -np.inf), where=lam > 0)


def no_count_step(state: TrajectoryState, dt: float) -> TrajectoryState:
    """No-detection evolution over dt: p(z) *= exp(-2|alpha_z|^2 kappa dt).

    The multiplicative update is exact for any dt > 0.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    p = _reweighted(state.dist.probabilities,
                    -2.0 * state.kappa * state.amplitudes.intensity * dt)
    return replace(state, dist=state.dist.with_probabilities(p),
                   t=state.t + dt)


def jump(state: TrajectoryState) -> TrajectoryState:
    """Photodetection update: p(z) *= |alpha_z|^2, m -> m + 1."""
    lam = state.amplitudes.intensity
    if np.dot(lam, state.dist.probabilities) <= 0:
        raise RuntimeError("jump on a dark state: all support has alpha_z = 0")
    p = _reweighted(state.dist.probabilities, log_intensity(state.amplitudes))
    return replace(state, dist=state.dist.with_probabilities(p), m=state.m + 1)


def gaussian_approximation(mean: float, sigma: float, z_grid) -> ZDistribution:
    """Discrete Gaussian weights renormalized on the given z grid."""
    z = np.asarray(z_grid, dtype=int)
    logw = -0.5 * ((z - mean) / sigma) ** 2
    w = np.exp(logw - logw.max())
    return ZDistribution(z, w / w.sum())


def fwhm_of_peak(dist: ZDistribution, peak_index: int) -> float:
    """FWHM of one peak via half-maximum crossings, linearly interpolated.

    Peaks narrower than the grid spacing report the interpolation floor,
    never zero, unless the peak is a strict point mass.
    """
    z = dist.z_values.astype(float)
    p = dist.probabilities
    half = p[peak_index] / 2.0
    i = peak_index
    while i > 0 and p[i - 1] > half and p[i - 1] < p[i]:
        i -= 1
    if i == 0 or p[i - 1] >= p[i]:
        left = z[i]
    else:
        frac = (p[i] - half) / (p[i] - p[i - 1])
        left = z[i] - frac * (z[i] - z[i - 1])
    j = peak_index
    n = len(p)
    while j < n - 1 and p[j + 1] > half and p[j + 1] < p[j]:
        j += 1
    if j == n - 1 or p[j + 1] >= p[j]:
        right = z[j]
    else:
        frac = (p[j] - half) / (p[j] - p[j + 1])
        right = z[j] + frac * (z[j + 1] - z[j])
    return float(right - left)


def predicted_widths(scenario: Scenario, m: int, tau: float,
                     kappa_over_u11: float | None = None,
                     delta_z: float | None = None) -> float:
    """Analytic FWHM prediction for the collapsing peak.

    Maximum/minimum: sqrt(2 ln2 / tau).  Transmission singlet:
    2 (kappa/u11) (2 ln2 / tau')^(1/4).  Transmission doublet component:
    dz (1 + (kappa/u11)^2/dz^2) sqrt((2 ln2 / tau')(1 + dz^2/(kappa/u11)^2)).
    Regime-guard violations are flagged with warnings, not errors.
    """
    if tau <= 0:
        raise ValueError("tau must be > 0")
    if scenario in (Scenario.MAXIMUM, Scenario.MINIMUM):
        dz = float(np.sqrt(2.0 * LN2 / tau))
        if m > 0:
            z1 = np.sqrt(m / tau)
            if dz > z1 / 3:
                warnings.warn("width formula outside its regime: "
                              f"fwhm {dz:.3g} not << peak centre {z1:.3g}",
                              stacklevel=2)
        return dz
    if kappa_over_u11 is None:
        raise ValueError("transmission width needs kappa_over_u11")
    w = kappa_over_u11
    if delta_z is None:
        dz = float(2.0 * w * (2.0 * LN2 / tau) ** 0.25)
        if dz > w / 3:
            warnings.warn("singlet width formula outside its regime: "
                          f"fwhm {dz:.3g} not << kappa/u11 {w:.3g}",
                          stacklevel=2)
        return dz
    ratio = delta_z / w
    dz = float(delta_z * (1.0 + 1.0 / ratio**2)
               * np.sqrt(2.0 * LN2 / tau * (1.0 + ratio**2)))
    if dz > delta_z / 3:
        warnings.warn("doublet width formula outside its regime: "
                      f"fwhm {dz:.3g} not << splitting {delta_z:.3g}",
                      stacklevel=2)
    return dz


@dataclass(frozen=True)
class CatMixture:
    """Two-component superposition mixed over L unknown lost counts.

    phi is the per-count phase jump half-angle; gamma collects the known
    deterministic phase; weights are the component populations.
    """

    phi: float
    gamma: float = 0.0
    losses: int = 0
    weights: tuple[float, float] = (0.5, 0.5)

    def __post_init__(self):
        if self.losses < 0:
            raise ValueError("losses must be >= 0")
        w1, w2 = self.weights
        if w1 < 0 or w2 < 0 or abs(w1 + w2 - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")


def _loss_phase_average(L: int, phi: float) -> complex:
    """(1/(L+1)) sum_{l=0..L} exp(i 2 l phi)."""
    l = np.arange(L + 1)
    return complex(np.exp(2j * l * phi).sum() / (L + 1))


def density_matrix(mix: CatMixture) -> np.ndarray:
    """2x2 density matrix of the loss mixture in the component basis.

    The two components are orthonormal (distinct atomic Fock factors), so
    coherent-state overlaps never enter.
    """
    w1, w2 = mix.weights
    off = (np.sqrt(w1 * w2) * np.exp(2j * mix.gamma)
           * _loss_phase_average(mix.losses, mix.phi))
    return np.array([[w1, off], [np.conj(off), w2]], dtype=complex)


def mott_joint_state(spec: LatticeSpec, n_max: int = 8) -> np.ndarray:
    """The unit-filling Mott configuration in the empty cavity, as the
    oracle's (configuration x photon number) array."""
    if spec.n_atoms != spec.n_sites:
        raise ValueError("Mott state requires unit filling")
    cfgs = compositions(spec.n_atoms, spec.n_sites)
    amplitudes = np.zeros((len(cfgs), n_max + 1), dtype=complex)
    amplitudes[cfgs.index((1,) * spec.n_sites), 0] = 1.0
    return amplitudes


def coherent_script_state(spec: LatticeSpec, model: ProbeModel, jump_times,
                          t_end: float, n_max: int) -> np.ndarray:
    """The oracle's joint state after a jump script from the superfluid, in
    closed form and up to one global constant (the jumps' renormalization).

    Under the no-count generator each configuration's light stays coherent,
    so its row is c_q e^(Phi_q(t)) prod_i alpha_q(t_i) |alpha_q(t)>, at
    t = t_end, with alpha_q `transient_amplitude` and Phi_q
    `prefactor_exponent_exact` at the configuration's z = D_10 and c_q its
    superfluid amplitude.  Truncated to photon numbers 0..n_max.
    """
    geom = scenario_geometry(model.scenario, spec)
    q = np.array(compositions(spec.n_atoms, spec.n_sites))
    z = coupling_coefficient(q, geom.cavity, geom.probe, spec).real
    weight = (superfluid_joint_state(spec, n_max)[:, 0]
              * np.exp(prefactor_exponent_exact(model, z, t_end)))
    for t in jump_times:
        weight = weight * transient_amplitude(model, z, t)
    alpha = transient_amplitude(model, z, t_end)[:, None]
    n = np.arange(n_max + 1)
    return (weight[:, None] * np.exp(-0.5 * np.abs(alpha) ** 2) * alpha ** n
            / np.sqrt(np.exp(gammaln(n + 1))))


def pooled_chisquare_p(observed_counts, expected_counts, min_expected=5.0):
    """Chi-square p value after pooling adjacent bins to >= min_expected."""
    po, pe, ao, ae = [], [], 0.0, 0.0
    for o, e in zip(observed_counts, expected_counts):
        ao += o
        ae += e
        if ae >= min_expected:
            po.append(ao)
            pe.append(ae)
            ao = ae = 0.0
    po[-1] += ao
    pe[-1] += ae
    pe = np.array(pe) * (sum(po) / sum(pe))
    return chisquare(po, pe).pvalue


def poisson_mixture_per_z(rates, weights):
    """`photostats.poisson_mixture`'s (n, p) as one slice update per z: the
    loop that summed the mixture before runs of narrow windows shared one
    `exp`."""
    rates = np.asarray(rates, dtype=float)
    weights = np.asarray(weights, dtype=float)
    top = rates.max(initial=0.0)
    n_max = int(np.ceil(top + 10.0 * np.sqrt(top) + 20.0))
    reach = 40.0 * np.sqrt(rates) + 40.0
    lows = np.maximum(np.floor(rates - reach), 0.0).astype(int)
    highs = np.ceil(rates + reach).astype(int) + 1
    n = np.arange(n_max + 1)
    log_factorial = gammaln(n + 1.0)
    p = np.zeros(n_max + 1)
    for rate, w, lo, hi in zip(rates, weights, lows, highs):
        if w == 0 or rate == 0:
            p[0] += w
            continue
        k = n[lo:hi]
        p[lo:hi] += w * np.exp(k * np.log(rate) - rate - log_factorial[lo:hi])
    p = p / p.sum()
    running = np.cumsum(p)
    stop = int(np.searchsorted(running, running[-1])) + 1
    return n[:stop], p[:stop]
