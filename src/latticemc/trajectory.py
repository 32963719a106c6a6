"""Quantum Monte Carlo engine for the conditional distribution p(z, m, t).

Between photodetections each z component is damped by exp(-2|alpha_z|^2
kappa dt); a detection multiplies the distribution by |alpha_z|^2.  Both
updates are multiplicative per z, so the whole trajectory state is the
z marginal plus the photocount m.  The final distribution depends on the
record only through (m, t), which permits an exact stride sampler: the
number of counts in any interval, conditioned on the current state, is a
p(z)-mixture of Poissonians.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import Scenario
from .optics import (AmplitudeTable, ProbeModel, amplitude_table, cat_phase,
                     prefactor_exponent_exact, steady_amplitude,
                     transient_amplitude)
from .states import ZDistribution

PEAK_WEIGHT_THRESHOLD = 1e-3
LN2 = float(np.log(2.0))


class NumericalAbort(RuntimeError):
    """Total conditional weight underflowed; the trajectory is lost."""


class ClassificationError(RuntimeError):
    """Final distribution does not fit the singlet/doublet taxonomy."""


@dataclass(frozen=True)
class TrajectoryState:
    """Conditional distribution plus detection bookkeeping."""

    dist: ZDistribution
    amplitudes: AmplitudeTable
    kappa: float
    m: int = 0
    t: float = 0.0
    jump_times: tuple[float, ...] = ()

    @property
    def tau(self) -> float:
        """Dimensionless time 2|C|^2 kappa t."""
        return 2.0 * abs(self.amplitudes.c_constant) ** 2 * self.kappa * self.t

    @property
    def rates(self) -> np.ndarray:
        """Per-z detection rates 2 kappa |alpha_z|^2."""
        return 2.0 * self.kappa * self.amplitudes.intensity


@dataclass(frozen=True)
class OutcomeReport:
    kind: str  # "singlet" | "doublet"
    z1: int
    z2: int | None = None
    delta_z: float | None = None
    phase_phi: float = 0.0
    phase_big_phi: float = 0.0
    component_weights: tuple[float, float] = (1.0, 0.0)
    delta_z_predicted: float | None = None


@dataclass(frozen=True)
class Sample:
    t: float
    tau: float
    m: int
    mean_z: float
    width: float
    cond_photons_reduced: float
    mandel_q_reduced: float


@dataclass
class RunRecord:
    samples: list[Sample]
    seed: object
    config: dict
    outcome: OutcomeReport | None = None
    snapshots: dict = field(default_factory=dict)
    final_state: TrajectoryState | None = None


def _apply_log_factor(state: TrajectoryState, log_factor: np.ndarray
                      ) -> np.ndarray:
    """Multiply p(z) by exp(log_factor) in log space and renormalize."""
    p = state.dist.probabilities
    with np.errstate(divide="ignore"):
        logp = np.where(p > 0, np.log(np.where(p > 0, p, 1.0)) + log_factor,
                        -np.inf)
    peak = logp.max()
    if not np.isfinite(peak):
        raise NumericalAbort("all conditional weights suppressed to zero")
    w = np.exp(logp - peak)
    return w / w.sum()


def no_count_step(state: TrajectoryState, dt: float) -> TrajectoryState:
    """No-detection evolution over dt: p(z) *= exp(-2|alpha_z|^2 kappa dt).

    The multiplicative update is exact for any dt > 0.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    p = _apply_log_factor(state, -state.rates * dt)
    return replace(state, dist=state.dist.with_probabilities(p),
                   t=state.t + dt)


def jump(state: TrajectoryState) -> TrajectoryState:
    """Photodetection update: p(z) *= |alpha_z|^2, m -> m + 1."""
    lam = state.amplitudes.intensity
    if np.dot(lam, state.dist.probabilities) <= 0:
        raise RuntimeError("jump on a dark state: all support has alpha_z = 0")
    with np.errstate(divide="ignore"):
        logf = np.where(lam > 0, np.log(np.where(lam > 0, lam, 1.0)), -np.inf)
    p = _apply_log_factor(state, logf)
    return replace(state, dist=state.dist.with_probabilities(p),
                   m=state.m + 1, jump_times=state.jump_times + (state.t,))


def mc_step(state: TrajectoryState, dt: float, u: float
            ) -> tuple[TrajectoryState, bool]:
    """One first-order Monte Carlo step with a supplied uniform variate.

    A jump is applied iff 2 kappa <a+a>_c dt > u, then a no-count step of
    dt; dt must keep the per-step jump probability <= 0.05.
    """
    rate = float(np.dot(state.rates, state.dist.probabilities))
    if dt <= 0:
        raise ValueError("dt must be > 0")
    max_rate = state.rates.max()
    if max_rate > 0 and dt > 0.05 / max_rate:
        raise ValueError("dt too large: per-step jump probability may "
                         "exceed 0.05")
    jumped = rate * dt > u
    if jumped:
        state = jump(state)
    return no_count_step(state, dt), jumped


def advance(state: TrajectoryState, dt: float, counts: int) -> TrajectoryState:
    """Closed-form update for `counts` detections within a no-count span dt.

    Equivalent to `counts` jumps plus no-count evolution of total length dt
    in any interleaving (the updates commute); detection times are binned
    at the end of the stride.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if counts < 0:
        raise ValueError("counts must be >= 0")
    lam = state.amplitudes.intensity
    log_factor = -state.rates * dt
    if counts > 0:
        with np.errstate(divide="ignore"):
            log_factor = log_factor + counts * np.where(
                lam > 0, np.log(np.where(lam > 0, lam, 1.0)), -np.inf)
    p = _apply_log_factor(state, log_factor)
    t_end = state.t + dt
    return replace(state, dist=state.dist.with_probabilities(p),
                   m=state.m + counts, t=t_end,
                   jump_times=state.jump_times + (t_end,) * counts)


def conditional_photon_number(state: TrajectoryState) -> float:
    """<a+ a>_c = sum_z |alpha_z|^2 p(z)."""
    return float(np.dot(state.amplitudes.intensity, state.dist.probabilities))


def mandel_q(state: TrajectoryState) -> float:
    """Mandel Q of the p(z) mixture of coherent components.

    Equals Var_z(|alpha_z|^2) / <|alpha_z|^2>; zero once p(z) has support
    on a single intensity value (coherent light), positive otherwise.
    """
    lam = state.amplitudes.intensity
    p = state.dist.probabilities
    mean = float(np.dot(lam, p))
    if mean <= 0:
        raise ValueError("Mandel Q undefined: zero mean photon number")
    var = float(np.dot(lam**2, p)) - mean**2
    return var / mean


def width(state: TrajectoryState) -> float:
    """Standard deviation of the atom-number distribution."""
    return state.dist.std


def detect_peaks(dist: ZDistribution,
                 threshold: float = PEAK_WEIGHT_THRESHOLD) -> list[int]:
    """Indices of local maxima of p(z) carrying weight above threshold."""
    p = dist.probabilities
    padded = np.concatenate(([-np.inf], p, [-np.inf]))
    peaks = [i for i in range(len(p))
             if padded[i + 1] > padded[i] and padded[i + 1] >= padded[i + 2]
             and p[i] >= threshold]
    # collapse plateau pairs (equal neighbours count once)
    out = []
    for i in peaks:
        if out and i == out[-1] + 1 and p[i] == p[out[-1]]:
            continue
        out.append(i)
    return out


def fwhm_of_peak(dist: ZDistribution, peak_index: int) -> float:
    """FWHM of one peak via half-maximum crossings, linearly interpolated.

    Peaks narrower than the grid spacing report the interpolation floor,
    never zero, unless the peak is a strict point mass.
    """
    z = dist.z_values.astype(float)
    p = dist.probabilities
    half = p[peak_index] / 2.0
    # walk left
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


def closed_form_distribution(p0: ZDistribution, amplitudes: AmplitudeTable,
                             kappa: float, m: int, t: float) -> ZDistribution:
    """Direct steady-regime distribution: |alpha_z|^(2m) e^(-2|a|^2 kt) p0 / F^2."""
    lam = amplitudes.intensity
    p = p0.probabilities
    with np.errstate(divide="ignore"):
        logw = np.where(
            p > 0,
            np.log(np.where(p > 0, p, 1.0)) - 2.0 * kappa * lam * t,
            -np.inf)
        if m > 0:
            logw = logw + m * np.where(lam > 0,
                                       np.log(np.where(lam > 0, lam, 1.0)),
                                       -np.inf)
    peak = logw.max()
    if not np.isfinite(peak):
        raise NumericalAbort("closed form: all weights vanish")
    w = np.exp(logw - peak)
    return p0.with_probabilities(w / w.sum())


def exact_distribution(p0: ZDistribution, model: ProbeModel,
                       jump_times, t: float) -> ZDistribution:
    """Finite-time distribution including cavity transients.

    Uses the full time-dependent amplitudes at the recorded jump times and
    the quadrature no-count exponent; valid for any t, t_i >= 0.  Intended
    for validation against the full-Hilbert-space oracle.
    """
    z = p0.z_values
    p = p0.probabilities
    logw = np.full(len(z), -np.inf)
    for i in range(len(z)):
        if p[i] <= 0:
            continue
        acc = np.log(p[i])
        ok = True
        for ti in jump_times:
            a2 = abs(transient_amplitude(model, z[i], ti)) ** 2
            if a2 <= 0:
                ok = False
                break
            acc += np.log(a2)
        if not ok:
            continue
        acc += 2.0 * prefactor_exponent_exact(model, z[i], t).real
        logw[i] = acc
    peak = logw.max()
    if not np.isfinite(peak):
        raise NumericalAbort("exact form: all weights vanish")
    w = np.exp(logw - peak)
    return p0.with_probabilities(w / w.sum())


def classify_outcome(state: TrajectoryState, model: ProbeModel,
                     threshold: float = PEAK_WEIGHT_THRESHOLD) -> OutcomeReport:
    """Classify the final conditional state as a singlet or doublet."""
    dist = state.dist
    peaks = detect_peaks(dist, threshold)
    if not peaks:
        raise ClassificationError("no peak above the weight threshold")
    z = dist.z_values
    p = dist.probabilities

    if model.scenario is Scenario.MINIMUM:
        if len(peaks) > 2:
            raise ClassificationError(f"{len(peaks)} peaks in minimum scenario")
        z_top = int(z[max(peaks, key=lambda i: abs(z[i]))])
        z1, z2 = abs(z_top), -abs(z_top)
        w1 = float(p[np.searchsorted(z, z1)])
        w2 = float(p[np.searchsorted(z, z2)])
        total = w1 + w2
        dz_pred = None
        if state.tau > 0 and state.m > 0:
            dz_pred = float(np.sqrt(state.m / state.tau))
        # each detection flips the relative sign of the two components
        return OutcomeReport("doublet", z1=z1, z2=z2, delta_z=float(z1),
                             phase_phi=np.pi / 2.0,
                             phase_big_phi=0.0,
                             component_weights=(w1 / total, w2 / total),
                             delta_z_predicted=dz_pred)

    if model.scenario is Scenario.MAXIMUM:
        if len(peaks) == 1:
            z1 = int(z[peaks[0]])
            return OutcomeReport("singlet", z1=z1,
                                 component_weights=(1.0, 0.0))
        if len(peaks) == 2 and np.isclose(p[peaks[0]], p[peaks[1]]):
            za, zb = int(z[peaks[1]]), int(z[peaks[0]])
            return OutcomeReport("doublet", z1=za, z2=zb,
                                 delta_z=(za - zb) / 2.0,
                                 component_weights=(0.5, 0.5))
        raise ClassificationError(f"{len(peaks)} peaks in maximum scenario")

    # transmission: the photocount-to-time ratio separates the regimes
    ratio = state.m / state.tau if state.tau > 0 else np.inf
    z_p = model.z_p
    if len(peaks) == 1 and ratio >= 1.0:
        return OutcomeReport("singlet", z1=int(z[peaks[0]]),
                             component_weights=(1.0, 0.0))
    if len(peaks) > 2:
        raise ClassificationError(f"{len(peaks)} peaks in transmission scenario")
    if len(peaks) == 2:
        zb, za = (int(z[peaks[0]]), int(z[peaks[1]]))
    else:
        za = int(z[peaks[0]])
        zb = int(round(2 * z_p - za))  # mirror satellite below threshold
        if za < z_p:
            za, zb = zb, za
    if abs((za + zb) / 2.0 - z_p) > 0.75:
        raise ClassificationError(
            f"doublet at ({zb}, {za}) is not centred on z_p = {z_p}")
    dz = (za - zb) / 2.0
    w_over_u = model.kappa / model.u11
    dz_pred = None
    if state.m > 0 and state.tau > state.m:
        dz_pred = float(w_over_u * np.sqrt(state.tau / state.m - 1.0))
    idx_a = np.searchsorted(z, za)
    idx_b = np.searchsorted(z, zb)
    w1 = float(p[idx_a]) if 0 <= idx_a < len(z) and z[idx_a] == za else 0.0
    w2 = float(p[idx_b]) if 0 <= idx_b < len(z) and z[idx_b] == zb else 0.0
    total = w1 + w2
    if total <= 0:
        raise ClassificationError("doublet satellites carry no weight")
    phi = cat_phase(model, dz)
    big_phi = (abs(steady_amplitude(model, za)) ** 2
               * model.u11 * dz * state.t)
    return OutcomeReport("doublet", z1=za, z2=zb, delta_z=dz,
                         phase_phi=phi, phase_big_phi=big_phi,
                         component_weights=(w1 / total, w2 / total),
                         delta_z_predicted=dz_pred)


def peak_collapse_width(dist: ZDistribution, peak_index: int) -> float:
    """Gaussian-equivalent FWHM 2 sqrt(2 ln2) sigma of one peak's basin.

    Unlike the interpolated FWHM this goes to zero for a point mass, so it
    can drive the stop condition below one grid unit.
    """
    z = dist.z_values.astype(float)
    p = dist.probabilities
    i = j = peak_index
    while i > 0 and p[i - 1] < p[i]:
        i -= 1
    while j < len(p) - 1 and p[j + 1] < p[j]:
        j += 1
    w = p[i:j + 1]
    zz = z[i:j + 1]
    total = w.sum()
    mean = np.dot(zz, w) / total
    var = np.dot((zz - mean) ** 2, w) / total
    return float(2.0 * np.sqrt(2.0 * LN2 * max(var, 0.0)))


def _all_peaks_narrow(dist: ZDistribution, stop_fwhm: float,
                      threshold: float) -> bool:
    if stop_fwhm <= 0:
        return False
    peaks = detect_peaks(dist, threshold)
    if not peaks:
        return False
    return all(peak_collapse_width(dist, i) < stop_fwhm for i in peaks)


def _sample_index(rng: np.random.Generator, p: np.ndarray) -> int:
    c = np.cumsum(p)
    return int(np.searchsorted(c, rng.random() * c[-1]))


def run_trajectory(p0: ZDistribution, model: ProbeModel, *,
                   seed, max_tau: float, stop_fwhm: float = 0.5,
                   sample_interval_tau: float | None = None,
                   snapshot_taus=(), config: dict | None = None,
                   peak_threshold: float = PEAK_WEIGHT_THRESHOLD) -> RunRecord:
    """Simulate one quantum trajectory and record its observables.

    The sampler is exact at the recording cadence: given the current state,
    the count number in a stride is drawn from the p(z)-mixture of
    Poissonians and the state is updated in closed form.  Deterministic for
    a given seed.
    """
    if max_tau <= 0:
        raise ValueError("max_tau must be > 0")
    rng = np.random.default_rng(seed)
    table = amplitude_table(model, p0.z_values)
    c2 = abs(table.c_constant) ** 2
    if c2 <= 0:
        raise ValueError("zero drive: the dimensionless time is undefined")
    tau_to_t = 1.0 / (2.0 * c2 * model.kappa)

    if sample_interval_tau is None:
        sample_interval_tau = max_tau / 400.0
    n_steps = max(1, int(np.ceil(max_tau / sample_interval_tau)))
    taus = np.linspace(0.0, max_tau, n_steps + 1)
    snap_set = sorted(set(float(s) for s in snapshot_taus))
    taus = np.unique(np.concatenate([taus, np.asarray(snap_set)]))
    taus = taus[(taus >= 0) & (taus <= max_tau)]

    state = TrajectoryState(dist=p0, amplitudes=table, kappa=model.kappa)
    record = RunRecord(samples=[], seed=seed, config=dict(config or {}))

    def push_sample(st: TrajectoryState):
        lam = st.amplitudes.intensity
        p = st.dist.probabilities
        mean_lam = float(np.dot(lam, p))
        q_red = ((float(np.dot(lam**2, p)) - mean_lam**2) / mean_lam / c2
                 if mean_lam > 0 else 0.0)
        record.samples.append(Sample(
            t=st.t, tau=st.tau, m=st.m, mean_z=st.dist.mean,
            width=st.dist.std, cond_photons_reduced=mean_lam / c2,
            mandel_q_reduced=q_red))

    push_sample(state)
    if snap_set and np.isclose(snap_set[0], 0.0):
        record.snapshots[0.0] = state.dist

    rates = state.rates
    for k in range(1, len(taus)):
        dt = (taus[k] - taus[k - 1]) * tau_to_t
        zi = _sample_index(rng, state.dist.probabilities)
        counts = int(rng.poisson(rates[zi] * dt))
        state = advance(state, dt, counts)
        push_sample(state)
        for s in snap_set:
            if s > 0 and np.isclose(s, taus[k]) and s not in record.snapshots:
                record.snapshots[s] = state.dist
        if _all_peaks_narrow(state.dist, stop_fwhm, peak_threshold):
            break

    record.final_state = state
    record.outcome = classify_outcome(state, model, peak_threshold)
    return record
