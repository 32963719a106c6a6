"""Photon-counting statistics.

The photocount distribution is a p(z)-mixture of Poissonians, summed by one
log-space mixture kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .optics import AmplitudeTable
from .states import ZDistribution, log_factorials

_TAIL_BOUND = 1e-10
_START_SDS = 10.0  # truncation lies this many sds past the largest rate
_MIXTURE_TERMS = 1 << 10  # Poisson terms one run of windows sums at once


@dataclass(frozen=True)
class PhotonDistribution:
    n_values: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.n_values, dtype=int)
        p = np.asarray(self.probabilities, dtype=float)
        if abs(p.sum() - 1.0) > _TAIL_BOUND:
            raise ValueError("distribution not normalized after truncation")
        object.__setattr__(self, "n_values", n)
        object.__setattr__(self, "probabilities", p)

    @property
    def mean(self) -> float:
        return float(np.dot(self.n_values, self.probabilities))

    @property
    def variance(self) -> float:
        return float(np.dot(self.n_values**2, self.probabilities) - self.mean**2)

    @property
    def fano(self) -> float:
        if self.mean <= 0:
            raise ValueError("Fano factor undefined at zero mean")
        return self.variance / self.mean

    @property
    def mandel_q(self) -> float:
        return self.fano - 1.0


def poisson_mixture(rates: np.ndarray, weights: np.ndarray
                    ) -> PhotonDistribution:
    """sum_z weights[z] * Poisson(n; rates[z]), truncated to tail < 1e-10.

    Poisson terms use log factorials; each z adds them only over rate +-
    (40 sqrt(rate) + 40), beyond which they underflow.  A run of consecutive
    z whose windows hold at most _MIXTURE_TERMS terms shares one `exp` and
    one `np.add.at`, and a wider window is added as one slice; either way
    each n's terms are added in z order, so no bit depends on the bound.
    The truncation point lies _START_SDS sds past the largest rate, plus 20,
    where a Chernoff bound puts every z's tail below e^-50; so a mass short
    of 1 by the tail bound means weights that do not sum to 1, and raises.
    The terms are normalised over that whole range, and the support ends at
    the first n where their running sum reaches its final value: the terms
    past it do not change the sum in double precision.
    """
    rates = np.asarray(rates, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if np.any(rates < 0):
        raise ValueError("rates must be nonnegative")
    top = rates.max(initial=0.0)
    n_max = int(np.ceil(top + _START_SDS * np.sqrt(top) + 20.0))
    reach = 40.0 * np.sqrt(rates) + 40.0
    lows = np.maximum(np.floor(rates - reach), 0.0).astype(int)
    highs = np.ceil(rates + reach).astype(int) + 1
    n = np.arange(n_max + 1)
    log_factorial = log_factorials(n_max)
    p = np.zeros(n_max + 1)
    # a zero rate or weight adds its weight to p[0]: a window of one term
    # whose exponent is 0 - rate - 0
    point = (weights == 0) | (rates == 0)
    lows[point] = 0
    highs = np.where(point, 1, np.minimum(highs, n_max + 1))
    log_rates = np.log(np.where(point, 1.0, rates))
    widths = highs - lows
    ends = np.cumsum(widths)
    starts = ends - widths
    stops = np.searchsorted(ends, starts + _MIXTURE_TERMS, "right").tolist()
    z = 0
    while z < len(rates):  # a run of narrow windows, or one wide window
        stop = stops[z]
        if stop == z:  # a window wider than a run: one slice
            lo, hi = lows[z], highs[z]
            x = n[lo:hi] * log_rates[z]
            x -= rates[z]
            x -= log_factorial[lo:hi]
            np.exp(x, out=x)
            x *= weights[z]
            p[lo:hi] += x
            z += 1
            continue
        run, widths_run = slice(z, stop), widths[z:stop]
        k = np.arange(ends[stop - 1] - starts[z]) + np.repeat(
            lows[run] - (starts[run] - starts[z]), widths_run)
        x = k * np.repeat(log_rates[run], widths_run)
        x -= np.repeat(rates[run], widths_run)
        x -= log_factorial[k]
        np.exp(x, out=x)
        x *= np.repeat(weights[run], widths_run)
        np.add.at(p, k, x)  # each n's terms in z order
        z = stop
    if not 1.0 - p.sum() < _TAIL_BOUND:
        raise ValueError(f"mass {p.sum()!r} up to n = {n_max}: weights sum "
                         f"to {weights.sum()!r}, not 1")
    p = p / p.sum()
    running = np.cumsum(p)
    stop = int(np.searchsorted(running, running[-1])) + 1
    return PhotonDistribution(n[:stop], p[:stop])


def photocount_distribution(p0: ZDistribution, amplitudes: AmplitudeTable,
                            kappa: float, t: float) -> PhotonDistribution:
    """Ensemble probability of m detections in [0, t] (steady regime).

    The mean grows as 2 kappa t <a+ a>_0; the distribution is never
    sub-Poissonian.  Given the conditional distribution reached at T in
    place of p0, it is the law of the counts in (T, T + t].
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    return poisson_mixture(2.0 * kappa * amplitudes.intensity * t,
                           p0.probabilities)
