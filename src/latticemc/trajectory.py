"""Quantum Monte Carlo engine for the conditional distribution p(z, m, t).

Between photodetections each z component is damped by exp(-2|alpha_z|^2
kappa dt); a detection multiplies the distribution by |alpha_z|^2.  Both
updates are diagonal in z, so a trajectory is its photocount record (m, t)
and its state is the closed-form posterior p0(z) |alpha_z|^(2m) e^(-2 kappa
|alpha_z|^2 t).  The sampler therefore draws a latent z* ~ p0 once and each
stride's count at the rate 2 kappa |alpha_z*|^2: by Bayes' chain rule, the
law of drawing each count from the current posterior's Poisson mixture
(Wiseman & Milburn, Quantum Measurement and Control, 2010).  An ensemble
is a table over its members: their counts m at the grid times t, their stop
strides and the final posteriors there, all built at once.  Its members
share one stop loop over blocks of strides: each block's log weights for
every member still running come from one [1, m, t] product, and an exact
necessary condition on them, which allows for the product's rounding,
passes to the stop check only the few strides where it can fire.  A single
run is the ensemble of one, classified; its other observables are computed
when read.  Every posterior the stop check, the outputs and the closed form
use comes from one kernel, `_posteriors`, which builds each (m, t) row on
its own: the block sizes set speed and memory, never an output bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geometry import Scenario
from .optics import (AmplitudeTable, ProbeModel, amplitude_table, cat_phase,
                     prefactor_exponent_exact, steady_amplitude,
                     transient_amplitude)
from .states import ZDistribution

PEAK_WEIGHT_THRESHOLD = 1e-3
# strides per block of the stop loop and of a record's observables, and
# rows per log-weight product and per chunk of exact stop checks: they set
# speed and memory, never a bit of the output, as every row is computed on
# its own
_BLOCK_STRIDES = 128
_PRODUCT_ROWS = 512
# a finite stand-in for log 0 in the log-weight product
_NO_WEIGHT = -1e300
LN2 = float(np.log(2.0))


class NumericalAbort(RuntimeError):
    """Total conditional weight underflowed; the trajectory is lost."""


class ClassificationError(RuntimeError):
    """Final distribution does not fit the singlet/doublet taxonomy."""


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


class FinalState(NamedTuple):
    """The posterior where a run stopped, its count m, time t and tau."""

    dist: ZDistribution
    m: int
    t: float
    tau: float


class Ensemble(NamedTuple):
    """Members' count records to the horizon over the grid times t (and
    their tau), in seed order, each member's stop stride and `FinalState`
    there, and the (snapshot tau, stride) pairs of the grid."""

    m: np.ndarray
    t: np.ndarray
    tau: np.ndarray
    stops: np.ndarray
    final_states: list[FinalState]
    snapshot_strides: tuple


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
    """A run's counts m at the grid times t; observables computed on read."""

    m: np.ndarray  # counts at strides 0..stop
    t: np.ndarray  # times of every stride of the recording grid
    tau: np.ndarray  # the same strides' tau
    p0: ZDistribution
    model: ProbeModel
    final_state: FinalState
    outcome: OutcomeReport
    snapshot_strides: dict  # snapshot tau -> its stride, up to the stop
    seed: object

    @cached_property
    def samples(self) -> list[Sample]:
        """Per-stride observables of the posterior, strides 0..stop."""
        table = amplitude_table(self.model, self.p0.z_values)
        c2, n = abs(table.c_constant) ** 2, len(self.m)
        z, lam = self.p0.z_values.astype(float), table.intensity
        moments = np.array([z, lam, lam * lam]).T
        t, b, blocks = self.t[:n], _BLOCK_STRIDES, []
        for i in range(0, n, b):
            post = _posteriors(self.p0.probabilities, table, self.model.kappa,
                               self.m[i:i + b], t[i:i + b])
            # einsum sums each row alone, unlike a BLAS product; the
            # variance is taken about the row's mean, so it does not cancel
            mean_z, mean_lam, mean_lam2 = np.einsum("ij,jk->ik", post,
                                                    moments).T
            blocks.append((mean_z, mean_lam, mean_lam2, np.einsum(
                "ij,ij->i", post, (z - mean_z[:, None]) ** 2)))
        mean_z, mean_lam, mean_lam2, var_z = np.concatenate(blocks, axis=1)
        q = np.divide(mean_lam2 - mean_lam**2, mean_lam * c2,
                      out=np.zeros(n), where=mean_lam > 0)
        columns = (t, self.tau[:n], self.m, mean_z, np.sqrt(var_z),
                   mean_lam / c2, q)
        return list(map(Sample, *(c.tolist() for c in columns)))

    @cached_property
    def snapshots(self) -> dict:
        """Snapshot tau -> the posterior at its stride."""
        table = amplitude_table(self.model, self.p0.z_values)
        return {s: closed_form_distribution(self.p0, table, self.model.kappa,
                                            int(self.m[k]), self.t[k])
                for s, k in self.snapshot_strides.items()}


def _reweighted(p: np.ndarray, log_factor: np.ndarray) -> np.ndarray:
    """p(z) exp(log_factor) renormalized in log space, per row of log_factor."""
    logw = np.log(p, out=np.full(p.shape, -np.inf), where=p > 0) + log_factor
    peak = logw.max(axis=-1, keepdims=True)
    if not np.isfinite(peak).all():
        raise NumericalAbort("all conditional weights suppressed to zero")
    w = np.exp(logw - peak)
    return w / w.sum(axis=-1, keepdims=True)


def _posteriors(p: np.ndarray, table: AmplitudeTable, kappa: float,
                m: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The steady posterior p(z) |alpha_z|^(2m) e^(-2 kappa |alpha_z|^2 t),
    normalized, per (m, t) row.

    The one posterior kernel of the closed form, the stop check, the final
    states and the observables.  Every step is elementwise or a reduction
    along its own row, so a row's bits do not depend on the other rows.
    """
    lam, dark = table.intensity, table.intensity == 0
    log_factor = (np.outer(m, np.log(lam, out=np.zeros(len(lam)), where=~dark))
                  - np.outer(t, 2.0 * kappa * lam))
    if dark.any():  # no z is dark in transmission
        log_factor[np.ix_(m > 0, dark)] = -np.inf
    return _reweighted(p, log_factor)


def closed_form_distribution(p0: ZDistribution, amplitudes: AmplitudeTable,
                             kappa: float, m: int, t: float) -> ZDistribution:
    """Direct steady-regime distribution: |alpha_z|^(2m) e^(-2|a|^2 kt) p0 / F^2."""
    return p0.with_probabilities(_posteriors(
        p0.probabilities, amplitudes, kappa, np.array([m]), np.array([t]))[0])


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


def classify_outcome(state: FinalState, model: ProbeModel) -> OutcomeReport:
    """Classify the final conditional state as a singlet or doublet."""
    z, p = state.dist.z_values, state.dist.probabilities
    peaks = _peaks(p[None], PEAK_WEIGHT_THRESHOLD)[1].tolist()
    if not peaks:
        raise ClassificationError("no peak above the weight threshold")

    if model.scenario is Scenario.MINIMUM:
        if len(peaks) > 2:
            raise ClassificationError(f"{len(peaks)} peaks in minimum scenario")
        z_top = int(z[max(peaks, key=lambda i: abs(z[i]))])
        if z_top == 0:  # one peak, at the dark z = 0
            return OutcomeReport("singlet", z1=0)
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


def _peaks(p: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every peak of p (rows x z), in row-major order.

    A peak is a local maximum of its row carrying weight at or above
    threshold: it rises strictly from its left neighbour and is not
    exceeded by its right one, so a plateau counts once, at its left end.
    """
    peak = p >= threshold
    peak[:, 1:] &= p[:, 1:] > p[:, :-1]
    peak[:, :-1] &= p[:, :-1] >= p[:, 1:]
    return np.nonzero(peak)


def _peak_widths(p: np.ndarray, z: np.ndarray, threshold: float
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and basin FWHM of every one of p's `_peaks`.

    The width is the Gaussian-equivalent FWHM 2 sqrt(2 ln2) sigma of the
    peak's basin; unlike a half-maximum width it goes to zero for a point
    mass, so it can stop a run below one grid unit.  One `_basin_bounds`
    call walks the rows end to end, and a walk past its row's ends is cut
    there by the mask of the basin's columns; each basin's moments are
    masked sums about its own mean.
    """
    rows, cols = _peaks(p, threshold)
    start = (rows * p.shape[1])[:, None]  # flat index of each row's z[0]
    first, last = _basin_bounds(p.ravel(), start[:, 0] + cols)
    grid = np.arange(p.shape[1])
    w = np.where((grid >= first[:, None] - start)
                 & (grid <= last[:, None] - start), p[rows], 0.0)
    total = w.sum(axis=1)
    mean = w @ z / total
    var = (w * (z - mean[:, None]) ** 2).sum(axis=1) / total
    return rows, cols, 2.0 * np.sqrt(2.0 * LN2 * np.maximum(var, 0.0))


def _stop_rows(p: np.ndarray, z: np.ndarray, stop_fwhm: float,
               threshold: float) -> np.ndarray:
    """Per row of p (strides x z): a peak exists and every peak's
    `_peak_widths` FWHM is below stop_fwhm."""
    rows, _, fwhm = _peak_widths(p, z, threshold)
    return ((np.bincount(rows, minlength=len(p)) > 0)
            & (np.bincount(rows, weights=~(fwhm < stop_fwhm),
                           minlength=len(p)) == 0))


def _may_stop(logw: np.ndarray, z: np.ndarray, stop_fwhm: float,
              threshold: float = PEAK_WEIGHT_THRESHOLD,
              slack=0.0) -> np.ndarray:
    """Per row of log weights logw = log p0 + log_factor: False where
    `_stop_rows` at `threshold` cannot hold on the row's posterior p, an
    exact test that needs no normaliser.

    `slack` (per row, or one value) bounds how far each finite entry of a
    row may lie from the log weight `_posteriors` sums; it is 0 when logw is
    that sum.  An entry may stand in for -inf by any value far below the
    row's largest.  Take the first argmax k.  With slack 0, p_k is the
    largest p, so if any peak reaches the threshold, so does k.  With slack
    s > 0, logw_k is within 2s of the largest exact log weight, so p_k >=
    e^(-2s) max p >= e^(-2s) / n, above the threshold when
    n threshold e^(2s) < 1; every row with s > 0 passes where that fails.
    A row passes if a neighbour's log weight is within 1e-9 + 2s of logw_k,
    as p_k might not exceed it after the exponential.  Else p_k exceeds
    p_{k+-1} strictly, so k is a peak at the threshold, or none is, and its
    basin holds k - 1 and k + 1: the peak's share f of the basin weight is
    at most f_u = 1 / (1 + r), r the ratios p_{k+-1} / p_k summed, at least
    exp(logw_{k+-1} - logw_k - 2s) summed.  With mu the basin mean, d the
    least grid spacing and a = |z_k - mu|, every other basin point is at
    least d from z_k, hence d - a from mu: Var >= f a^2 + (1 - f)
    max(d - a, 0)^2 >= d^2 f (1 - f).  At most one grid point lies within d/2
    of mu and it holds at most the share f, so also
    Var >= d^2 (1 - f) / 4.  Over f <= f_u the larger bound is at least
    d^2 min(3/16, f_u (1 - f_u)), which does not grow with f_u, so the least
    r gives a bound.  The row can stop only if that variance's FWHM is
    below stop_fwhm, up to a relative margin of 1e-6, far above the
    rounding of r and of `_stop_rows`' masked sums.
    """
    k, n = logw.argmax(axis=1), logw.shape[1]
    at = k + n * np.arange(len(logw))  # flat index of each row's argmax
    near = np.take(logw, [at - 1, at + 1], mode="clip")  # k - 1 and k + 1
    near[0, k == 0] = near[1, k == n - 1] = -np.inf  # off the grid
    gaps = logw.ravel()[at] - near  # +inf where p is 0, nan if all are
    ratio = np.exp(-(gaps + 2.0 * slack)).sum(axis=0)
    spacing = (z[1:] - z[:-1]).min() if n > 1 else 0.0
    var = spacing**2 * np.minimum(3.0 / 16.0, ratio / (1.0 + ratio) ** 2)
    unsure = (slack > 0) & (n * threshold * (1.0 + 1e-6)
                            >= np.exp(-2.0 * slack))
    return (~(gaps - 2.0 * slack >= 1e-9).all(axis=0) | unsure
            | (2.0 * np.sqrt(2.0 * LN2 * var) < stop_fwhm * (1.0 + 1e-6)))


def _log_weight_operands(p: np.ndarray, table: AmplitudeTable,
                         kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """[log p0; log lam; -2 kappa lam], whose product with [1, m, t] rows
    gives each row's log weights log p0 + log_factor, and the coefficients
    whose product with the same rows bounds the rows' rounding.

    The product and the sums `_posteriors` takes each round within
    3 eps/2 (|log p0| + m |log lam| + 2 kappa lam t) of the exact value, so
    4 eps times the operands' largest magnitudes bounds their distance.  A
    zero prior's or a dark z's log is the finite `_NO_WEIGHT`, as 0 * -inf is
    nan: such an entry, where the exact log weight is -inf, lies far below
    every other, and a dark z at m = 0 gets its exact log p0.
    """
    lam = table.intensity
    operands = np.array([
        np.log(p, out=np.full(len(p), _NO_WEIGHT), where=p > 0),
        np.log(lam, out=np.full(len(lam), _NO_WEIGHT), where=lam > 0),
        -(2.0 * kappa * lam)])
    magnitude = np.abs(operands, where=operands > _NO_WEIGHT,
                       out=np.zeros_like(operands)).max(axis=1)
    return operands, 4.0 * np.finfo(float).eps * magnitude


def sample_counts(p0: ZDistribution, table: AmplitudeTable, kappa: float,
                  t: np.ndarray, seeds) -> np.ndarray:
    """Each seed's count record over the strides' times t, one row per seed.

    A seed's own `default_rng` draws z* ~ p0 once and every stride's count
    in one Poisson call at the rate 2 kappa |alpha_z*|^2.  z* is drawn by
    inverting p0's cdf at one uniform, as `rng.choice(len(p), p=p)` does.
    """
    cdf, dt = p0.probabilities.cumsum(), np.diff(t)
    cdf /= cdf[-1]
    rates = 2.0 * kappa * table.intensity
    m = np.zeros((len(seeds), len(t)), dtype=np.int64)
    for counts, seed in zip(m, seeds):
        rng = np.random.default_rng(seed)
        rate = rates[cdf.searchsorted(rng.random(), side="right")]
        np.cumsum(rng.poisson(rate * dt), out=counts[1:])
    return m


def stop_strides(p0: ZDistribution, table: AmplitudeTable, kappa: float,
                 m: np.ndarray, t: np.ndarray, stop_fwhm: float) -> np.ndarray:
    """Per count record (a row of m over the strides' times t), the first
    stride after the start whose posterior `_stop_rows` accepts, else the
    last stride.

    One loop over blocks of strides holds every record still running.  Each
    block's log weights come from [1, m, t] rows' product with
    `_log_weight_operands`, `_PRODUCT_ROWS` rows at a time.  Only rows that
    `_may_stop` passes get the exact `_posteriors` and `_stop_rows`, also
    `_PRODUCT_ROWS` at a time: each record's first passed row, then its next
    2, 4, ... until one stops.  A stopped record's later rows
    go unchecked, and those of later blocks are never built.  The latent z*
    of a sampled record has a finite log weight on every row, so
    `_posteriors` cannot abort here.
    """
    last = np.full(len(m), len(t) - 1)
    if stop_fwhm <= 0:
        return last
    p, z = p0.probabilities, p0.z_values.astype(float)
    operands, bound = _log_weight_operands(p, table, kappa)
    live = np.arange(len(m))
    # the initial state never stops a run
    for start in range(1, len(t), _BLOCK_STRIDES):
        counts = m[live, start:start + _BLOCK_STRIDES]
        rows = np.ones((counts.size, 3))
        rows[:, 1] = counts.ravel()
        rows[:, 2] = np.tile(t[start:start + counts.shape[1]], len(live))
        may = np.concatenate([
            _may_stop(chunk @ operands, z, stop_fwhm, PEAK_WEIGHT_THRESHOLD,
                      chunk @ bound)
            for chunk in np.split(rows, range(_PRODUCT_ROWS, len(rows),
                                              _PRODUCT_ROWS))
        ]).reshape(counts.shape)
        rank = np.cumsum(may, axis=1) * may  # 1, 2, ... along passed rows
        stop = np.zeros(counts.shape, dtype=bool)
        done = np.zeros(len(live), dtype=bool)
        below = 0
        while (todo := np.flatnonzero((rank > below) & (rank <= 2 * below + 1)
                                      & ~done[:, None])).size:
            for sub in np.split(todo, range(_PRODUCT_ROWS, len(todo),
                                            _PRODUCT_ROWS)):
                stop.flat[sub] = _stop_rows(
                    _posteriors(p, table, kappa, rows[sub, 1], rows[sub, 2]),
                    z, stop_fwhm, PEAK_WEIGHT_THRESHOLD)
            done = stop.any(axis=1)
            below = 2 * below + 1
        last[live[done]] = start + stop[done].argmax(axis=1)
        live = live[~done]
        if not live.size:
            break
    return last


def _recording_grid(max_tau: float, sample_interval_tau: float | None,
                    snapshot_taus) -> tuple[np.ndarray, tuple]:
    """The strides' tau grid, and (snapshot tau, stride) pairs.

    A snapshot within `isclose` of an even-grid point or of another
    snapshot shares its stride, at the snapshot's own tau (stride 0 stays
    at 0).
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
    return taus, tuple(zip(points[is_snap].tolist(), stride[is_snap].tolist()))


def run_ensemble(p0: ZDistribution, model: ProbeModel, seeds, *,
                 max_tau: float, stop_fwhm: float = 0.5,
                 sample_interval_tau: float | None = None,
                 snapshot_taus=()) -> Ensemble:
    """Simulate one quantum trajectory per seed (a sequence), as a table.

    `sample_counts` draws every member's count record to the horizon, and
    `stop_strides` finds in one loop over blocks of strides where each
    stops, at the first stride after the start whose peaks are all
    narrower than stop_fwhm.  One `_posteriors` call builds every member's
    final posterior.  Deterministic for given seeds; a member does not
    depend on the other seeds.
    """
    if max_tau <= 0:
        raise ValueError("max_tau must be > 0")
    table = amplitude_table(model, p0.z_values)
    c2 = abs(table.c_constant) ** 2
    if c2 <= 0:
        raise ValueError("zero drive: the dimensionless time is undefined")
    taus, snap_strides = _recording_grid(max_tau, sample_interval_tau,
                                         snapshot_taus)
    t = taus * (1.0 / (2.0 * c2 * model.kappa))
    m = sample_counts(p0, table, model.kappa, t, seeds)
    stops = stop_strides(p0, table, model.kappa, m, t, stop_fwhm)
    m_end, t_end = m[np.arange(len(m)), stops], t[stops]
    dists = _posteriors(p0.probabilities, table, model.kappa, m_end, t_end)
    final_states = [FinalState(p0.with_probabilities(p), mk, tk, sk)
                    for p, mk, tk, sk in zip(dists, m_end.tolist(),
                                             t_end.tolist(),
                                             taus[stops].tolist())]
    return Ensemble(m, t, taus, stops, final_states, snap_strides)


def run_trajectory(p0: ZDistribution, model: ProbeModel, *, seed,
                   **kwargs) -> RunRecord:
    """One quantum trajectory: `run_ensemble` for the one seed, classified."""
    run = run_ensemble(p0, model, [seed], **kwargs)
    k, final_state = int(run.stops[0]), run.final_states[0]
    return RunRecord(
        m=run.m[0, :k + 1], t=run.t, tau=run.tau, p0=p0, model=model,
        final_state=final_state, outcome=classify_outcome(final_state, model),
        snapshot_strides={s: j for s, j in run.snapshot_strides if j <= k},
        seed=seed)
