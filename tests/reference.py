"""Plain reference implementations that several test files share."""

from dataclasses import dataclass, replace

import numpy as np

from latticemc.optics import AmplitudeTable
from latticemc.states import ZDistribution
from latticemc.trajectory import _reweighted


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
