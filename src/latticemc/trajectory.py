"""Quantum Monte Carlo engine for the conditional distribution p(z, m, t).

Between photodetections each z component is damped by exp(-2|alpha_z|^2
kappa dt); a detection multiplies the distribution by |alpha_z|^2.  Both
updates are diagonal in z, so a trajectory is its photocount record and
its state is the closed-form posterior p0(z) |alpha_z|^(2m) e^(-2 kappa
|alpha_z|^2 t).  The sampler therefore draws a latent z* ~ p0 once and each
stride's count at the rate 2 kappa |alpha_z*|^2: by Bayes' chain rule, the
law of drawing each count from the current posterior's Poisson mixture
(Wiseman & Milburn, Quantum Measurement and Control, 2010).  Observables,
stop check and outcome come from the posterior, over blocks of strides;
an exact necessary condition on each row's highest peak passes to the full
stop check only the few strides where it can fire.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .geometry import Scenario
from .optics import (AmplitudeTable, ProbeModel, amplitude_table, cat_phase,
                     prefactor_exponent_exact, steady_amplitude,
                     transient_amplitude)
from .states import ZDistribution

PEAK_WEIGHT_THRESHOLD = 1e-3
# strides whose posteriors run_trajectory evaluates as one array
_BLOCK_STRIDES = 128
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


class Sample(NamedTuple):
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
    # snapshot tau -> index into `samples` of the stride it was taken at
    snapshot_strides: dict = field(default_factory=dict)
    final_state: TrajectoryState | None = None


def _reweighted(p: np.ndarray, log_factor: np.ndarray) -> np.ndarray:
    """p(z) exp(log_factor) renormalized in log space, per row of log_factor.

    The one posterior kernel of the updates, the closed form and the
    sampler's blocks of strides.
    """
    logw = np.log(p, out=np.full(p.shape, -np.inf), where=p > 0) + log_factor
    peak = logw.max(axis=-1, keepdims=True)
    if not np.isfinite(peak).all():
        raise NumericalAbort("all conditional weights suppressed to zero")
    w = np.exp(logw - peak)
    return w / w.sum(axis=-1, keepdims=True)


def no_count_step(state: TrajectoryState, dt: float) -> TrajectoryState:
    """No-detection evolution over dt: p(z) *= exp(-2|alpha_z|^2 kappa dt).

    The multiplicative update is exact for any dt > 0.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    p = _reweighted(state.dist.probabilities, -state.rates * dt)
    return replace(state, dist=state.dist.with_probabilities(p),
                   t=state.t + dt)


def jump(state: TrajectoryState) -> TrajectoryState:
    """Photodetection update: p(z) *= |alpha_z|^2, m -> m + 1."""
    lam = state.amplitudes.intensity
    if np.dot(lam, state.dist.probabilities) <= 0:
        raise RuntimeError("jump on a dark state: all support has alpha_z = 0")
    p = _reweighted(state.dist.probabilities, state.amplitudes.log_intensity)
    return replace(state, dist=state.dist.with_probabilities(p),
                   m=state.m + 1, jump_times=state.jump_times + (state.t,))


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
    """Indices of local maxima of p(z) carrying weight above threshold.

    A maximum rises strictly from its left neighbour and is not exceeded by
    its right one, so a plateau counts once, at its left end.
    """
    p = dist.probabilities
    padded = np.concatenate(([-np.inf], p, [-np.inf]))
    mid = padded[1:-1]
    return np.flatnonzero((mid > padded[:-2]) & (mid >= padded[2:])
                          & (p >= threshold)).tolist()


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
    log_factor = -2.0 * kappa * amplitudes.intensity * t
    if m > 0:
        log_factor = log_factor + m * amplitudes.log_intensity
    return p0.with_probabilities(_reweighted(p0.probabilities, log_factor))


def exact_distribution(p0: ZDistribution, model: ProbeModel,
                       jump_times, t: float) -> ZDistribution:
    """Finite-time distribution including cavity transients.

    Uses the full time-dependent amplitudes at the recorded jump times and
    the closed-form transient no-count exponent; valid for any t, t_i >= 0.
    Intended for validation against the full-Hilbert-space oracle.
    """
    z = p0.z_values
    log_factor = 2.0 * prefactor_exponent_exact(model, z, t).real
    for ti in jump_times:
        a2 = np.abs(transient_amplitude(model, z, ti)) ** 2
        log_factor += np.log(a2, out=np.full(len(z), -np.inf), where=a2 > 0)
    return p0.with_probabilities(_reweighted(p0.probabilities, log_factor))


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
    p = dist.probabilities
    (i,), (j,) = _basin_bounds(p, [peak_index])
    w = p[i:j + 1]
    zz = dist.z_values[i:j + 1].astype(float)
    total = w.sum()
    mean = np.dot(zz, w) / total
    var = np.dot((zz - mean) ** 2, w) / total
    return float(2.0 * np.sqrt(2.0 * LN2 * max(var, 0.0)))


def _basin_bounds(p: np.ndarray, peaks) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of each peak's basin.

    The basin runs out from the peak while p falls strictly: left to just
    after the last k < peak with p[k] >= p[k + 1], right to the first
    k >= peak with p[k + 1] >= p[k].
    """
    no_rise = np.concatenate(([-1], np.flatnonzero(p[:-1] >= p[1:])))
    no_fall = np.concatenate((np.flatnonzero(p[1:] >= p[:-1]), [len(p) - 1]))
    first = no_rise[np.searchsorted(no_rise, peaks) - 1] + 1
    last = no_fall[np.searchsorted(no_fall, peaks)]
    return first, last


def _stop_rows(p: np.ndarray, z: np.ndarray, stop_fwhm: float,
               threshold: float) -> np.ndarray:
    """Per row of p (strides x z): a peak exists and every peak is narrow.

    Peaks as `detect_peaks`, each with `peak_collapse_width` < stop_fwhm.
    The rows lie end to end between -inf walls, which no basin crosses,
    for one `_basin_bounds` call; each basin's moments are masked sums
    about its own mean.
    """
    n_rows, n = p.shape
    wall = np.full((n_rows, 1), -np.inf)
    padded = np.hstack([wall, p, wall])
    rows, cols = np.nonzero((p > padded[:, :-2]) & (p >= padded[:, 2:])
                            & (p >= threshold))
    start = (rows * (n + 2) + 1)[:, None]  # flat index of each row's z[0]
    first, last = _basin_bounds(padded.ravel(), start[:, 0] + cols)
    cols = np.arange(n)
    w = np.where((cols >= first[:, None] - start)
                 & (cols <= last[:, None] - start), p[rows], 0.0)
    total = w.sum(axis=1)
    mean = w @ z / total
    var = (w * (z - mean[:, None]) ** 2).sum(axis=1) / total
    wide = ~(2.0 * np.sqrt(2.0 * LN2 * np.maximum(var, 0.0)) < stop_fwhm)
    return ((np.bincount(rows, minlength=n_rows) > 0)
            & (np.bincount(rows, weights=wide, minlength=n_rows) == 0))


def _may_stop(p: np.ndarray, z: np.ndarray, stop_fwhm: float,
              threshold: float) -> np.ndarray:
    """Per row of p: False where `_stop_rows` cannot hold, an exact test.

    The row's first argmax k rises strictly from its left neighbour and is
    not exceeded on its right, so it is a peak if p_k >= threshold, and
    without it no value reaches the threshold.  Its basin holds k - 1 and,
    when p_{k+1} < p_k, k + 1, so the peak's share f of the basin weight is
    at most f_u = p_k / (p_k + p_{k-1} + p_{k+1} [p_{k+1} < p_k]).  Let mu
    be the basin mean, d the least grid spacing and a = |z_k - mu|.  Every
    other basin point is at least d from z_k, hence at least d - a from mu:
    Var >= f a^2 + (1 - f) max(d - a, 0)^2 >= d^2 f (1 - f).  At most one grid
    point lies within d/2 of mu and it holds at most the share f, so also
    Var >= d^2 (1 - f) / 4.  Over f <= f_u the larger bound is at least
    d^2 min(3/16, f_u (1 - f_u)).  The row can stop only if that variance's
    FWHM is below stop_fwhm; the comparison allows a relative margin of
    1e-6, far above the rounding of `_stop_rows`' masked sums.
    """
    walled = np.zeros((len(p), p.shape[1] + 2))  # zero weight off the grid
    walled[:, 1:-1] = p
    cols = p.argmax(axis=1)[:, None] + np.arange(3)  # k - 1, k, k + 1
    left, peak, right = walled[np.arange(len(p))[:, None], cols].T
    rest = left + np.where(right < peak, right, 0.0)
    spacing = np.diff(z).min() if len(z) > 1 else 0.0
    var = spacing**2 * np.minimum(3.0 / 16.0, peak * rest / (peak + rest) ** 2)
    return ((peak >= threshold)
            & (2.0 * np.sqrt(2.0 * LN2 * var) < stop_fwhm * (1.0 + 1e-6)))


@lru_cache(maxsize=32)
def _recording_grid(max_tau: float, sample_interval_tau: float | None,
                    snapshot_taus: tuple) -> tuple[np.ndarray, tuple]:
    """The strides' tau grid (read-only), and (snapshot tau, stride) pairs.

    A snapshot within `isclose` of an even-grid point or of another
    snapshot shares its stride, at the snapshot's own tau (stride 0 stays
    at 0).  Cached: an ensemble's members build it once.
    """
    if sample_interval_tau is None:
        sample_interval_tau = max_tau / 400.0
    n_steps = max(1, int(np.ceil(max_tau / sample_interval_tau)))
    snaps = np.unique([float(s) for s in snapshot_taus if 0 <= s <= max_tau])
    points = np.concatenate([np.linspace(0.0, max_tau, n_steps + 1), snaps])
    order = np.argsort(points, kind="stable")
    points, is_snap = points[order], order > n_steps
    merged = (np.isclose(points[1:], points[:-1])
              & (is_snap[1:] | is_snap[:-1]))
    stride = np.concatenate(([0], np.cumsum(~merged)))
    taus = points[np.concatenate(([True], ~merged))]
    taus[stride[is_snap]] = points[is_snap]
    taus[0] = 0.0
    taus.flags.writeable = False
    return taus, tuple(zip(points[is_snap].tolist(), stride[is_snap].tolist()))


def run_trajectory(p0: ZDistribution, model: ProbeModel, *,
                   seed, max_tau: float, stop_fwhm: float = 0.5,
                   sample_interval_tau: float | None = None,
                   snapshot_taus=(), config: dict | None = None,
                   peak_threshold: float = PEAK_WEIGHT_THRESHOLD) -> RunRecord:
    """Simulate one quantum trajectory and record its observables.

    z* ~ p0 is drawn once and every stride's count in one Poisson call.
    Each block of strides' (m, t) posteriors is one array; the run stops at
    the first stride after the start whose peaks are all narrower than
    stop_fwhm.  `_stop_rows` sees only the strides `_may_stop` passes.
    Deterministic for a given seed.
    """
    if max_tau <= 0:
        raise ValueError("max_tau must be > 0")
    rng = np.random.default_rng(seed)
    table = amplitude_table(model, p0.z_values)
    c2 = abs(table.c_constant) ** 2
    if c2 <= 0:
        raise ValueError("zero drive: the dimensionless time is undefined")
    taus, snap_strides = _recording_grid(max_tau, sample_interval_tau,
                                         tuple(snapshot_taus))
    t = taus * (1.0 / (2.0 * c2 * model.kappa))
    p, z, lam = p0.probabilities, p0.z_values.astype(float), table.intensity
    rates = 2.0 * model.kappa * lam
    z_star = rng.choice(len(p), p=p)
    m = np.concatenate(([0], np.cumsum(rng.poisson(rates[z_star]
                                                   * np.diff(t)))))
    moments = np.array([z, z * z, lam, lam * lam]).T
    dark = lam == 0
    log_lam = np.log(lam, out=np.zeros(len(lam)), where=~dark)
    blocks, last = [], len(taus) - 1
    for start in range(0, len(taus), _BLOCK_STRIDES):
        block = slice(start, start + _BLOCK_STRIDES)
        log_factor = np.outer(m[block], log_lam) - np.outer(t[block], rates)
        if dark.any():  # no z is dark in transmission
            log_factor[np.ix_(m[block] > 0, dark)] = -np.inf
        post = _reweighted(p, log_factor)
        blocks.append(post @ moments)
        if stop_fwhm > 0:
            rows = np.flatnonzero(_may_stop(post, z, stop_fwhm, peak_threshold))
            rows = rows[rows + start > 0]  # the initial state never stops
            if rows.size:
                stop = _stop_rows(post[rows], z, stop_fwhm, peak_threshold)
                if stop.any():
                    last = start + int(rows[np.argmax(stop)])
                    break

    mean_z, mean_z2, mean_lam, mean_lam2 = np.concatenate(blocks)[:last + 1].T
    q = np.divide(mean_lam2 - mean_lam**2, mean_lam * c2,
                  out=np.zeros(len(mean_lam)), where=mean_lam > 0)
    columns = (t, 2.0 * c2 * model.kappa * t, m, mean_z,
               np.sqrt(np.maximum(mean_z2 - mean_z**2, 0.0)), mean_lam / c2, q)
    record = RunRecord(
        samples=list(map(Sample, *(c[:last + 1].tolist() for c in columns))),
        seed=seed, config=dict(config or {}))
    for s, k in snap_strides:
        if k <= last:
            record.snapshots[s] = closed_form_distribution(
                p0, table, model.kappa, int(m[k]), t[k])
            record.snapshot_strides[s] = k
    m_end, t_end = int(m[last]), float(t[last])
    record.final_state = TrajectoryState(
        dist=closed_form_distribution(p0, table, model.kappa, m_end, t_end),
        amplitudes=table, kappa=model.kappa, m=m_end, t=t_end)
    record.outcome = classify_outcome(record.final_state, model, peak_threshold)
    return record
