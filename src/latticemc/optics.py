"""Cavity light amplitudes per atomic configuration class z.

Steady-state Lorentzian amplitudes alpha_z, their transient approach, and
the complex no-count exponent Phi_z(t) that weights each z component of the
conditional state between photodetections.  All amplitudes are in the frame
rotating at the probe frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import Scenario


@dataclass(frozen=True)
class ProbeModel:
    """Cavity / drive parameters of one measurement scenario.

    For the diffraction maximum and minimum only the transverse probe a0
    drives the cavity (eta = 0) and the dispersive shift is neglected
    (u11 = 0).  For the transmission scenario only the mirror drive eta is
    present (a0 = 0) and the atoms enter through the shift u11 * z.
    """

    scenario: Scenario
    kappa: float
    u10: float = 0.0
    u11: float = 0.0
    a0: complex = 0.0
    eta: complex = 0.0
    delta_p: float = 0.0
    alpha0: complex = 0.0

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be > 0")
        if self.scenario is Scenario.TRANSMISSION:
            if self.a0 != 0:
                raise ValueError("transmission scenario requires a0 = 0")
            if self.u11 == 0:
                raise ValueError("transmission scenario requires u11 != 0")
        else:
            if self.eta != 0:
                raise ValueError("transverse probing requires eta = 0")
            if self.u11 != 0:
                raise ValueError("dispersive shift is neglected for "
                                 "transverse probing; set u11 = 0")

    @property
    def c_constant(self) -> complex:
        """C (maximum/minimum) or C' (transmission): the amplitude scale."""
        if self.scenario is Scenario.TRANSMISSION:
            return self.eta / self.kappa
        return 1j * self.u10 * self.a0 / (1j * self.delta_p - self.kappa)

    @property
    def z_p(self) -> float:
        """Resonant atom number delta_p / u11 (transmission only)."""
        if self.scenario is not Scenario.TRANSMISSION:
            raise ValueError("z_p is defined for the transmission scenario")
        return self.delta_p / self.u11


@dataclass(frozen=True)
class AmplitudeTable:
    """Steady amplitudes alpha_z on the z grid, read-only."""

    z_values: np.ndarray
    alpha: np.ndarray
    c_constant: complex

    def __post_init__(self):
        z = np.array(self.z_values, dtype=int)
        a = np.array(self.alpha, dtype=complex)
        if z.shape != a.shape:
            raise ValueError("z_values and alpha must have equal shape")
        if not np.all(np.isfinite(a)):
            raise ValueError("non-finite amplitude")
        z.flags.writeable = a.flags.writeable = False
        object.__setattr__(self, "z_values", z)
        object.__setattr__(self, "alpha", a)

    @cached_property
    def intensity(self) -> np.ndarray:
        """|alpha_z|^2 on the grid (computed once, read-only)."""
        lam = np.abs(self.alpha) ** 2
        lam.flags.writeable = False
        return lam


def steady_amplitude(model: ProbeModel, z) -> complex | np.ndarray:
    """Steady-state amplitude alpha_z.

    Maximum/minimum: alpha_z = C z.  Transmission: the Lorentzian
    alpha_z = C' (kappa/u11) / (i (z - z_p) + kappa/u11).
    """
    z = np.asarray(z, dtype=float)
    if model.scenario is Scenario.TRANSMISSION:
        w = model.kappa / model.u11
        out = model.c_constant * w / (1j * (z - model.z_p) + w)
    else:
        out = model.c_constant * z
    return complex(out) if np.ndim(out) == 0 else np.asarray(out, dtype=complex)


def amplitude_table(model: ProbeModel, z_grid) -> AmplitudeTable:
    z = np.asarray(z_grid, dtype=int)
    return AmplitudeTable(z, steady_amplitude(model, z), model.c_constant)


def _decay_exponent(model: ProbeModel, z: float) -> complex:
    """Exponent rate of the transient term (rotating frame)."""
    return -1j * model.u11 * z + 1j * model.delta_p - model.kappa


def transient_amplitude(model: ProbeModel, z, t: float) -> complex:
    """Cavity amplitude at finite time from the initial value alpha0.

    Steady term plus (alpha0 - steady) * exp((-i u11 z + i delta_p - kappa) t);
    the carrier phases are removed by the slowly-varying convention.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    steady = steady_amplitude(model, z)
    return steady + (model.alpha0 - steady) * np.exp(_decay_exponent(model, z) * t)


def _drive_term(model: ProbeModel, z, alpha) -> complex:
    """eta alpha* - i u10 a0 z alpha*  (the drive part of the exponent rate)."""
    return (model.eta - 1j * model.u10 * model.a0 * z) * np.conj(alpha)


def prefactor_exponent_exact(model: ProbeModel, z, t: float
                             ) -> complex | np.ndarray:
    """Exact Phi_z(t) including the transient, in closed form.

    Integrates i Im(eta alpha* - i u10 a0 z alpha*) - kappa |alpha|^2 over
    [0, t] with the full time-dependent amplitude alpha(s) = S + D e^(lam s)
    (S steady, D = alpha0 - S, Re lam = -kappa).  Every term is an
    exponential integral int_0^t e^(c s) ds = expm1(c t) / c; needed for
    t < 1/kappa validation.  A complex array for an array z.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    steady = steady_amplitude(model, z)
    d = model.alpha0 - steady
    lam = _decay_exponent(model, z)
    e1 = np.expm1(lam * t) / lam
    e2 = -np.expm1(-2.0 * model.kappa * t) / (2.0 * model.kappa)
    mean_sq = (abs(steady) ** 2 * t + 2.0 * (np.conj(steady) * d * e1).real
               + abs(d) ** 2 * e2)
    # the drive term is linear in alpha*, so it integrates with alpha
    im = np.imag(_drive_term(model, z, steady * t + d * e1))
    phi = -model.kappa * mean_sq + 1j * im
    return complex(phi) if np.ndim(phi) == 0 else phi


def cat_phase(model: ProbeModel, delta_z: float) -> float:
    """Light phase of the upper doublet component, -arctan(u11 dz / kappa)."""
    if model.scenario is not Scenario.TRANSMISSION:
        raise ValueError("cat phase is defined for the transmission scenario")
    return float(-np.arctan(model.u11 * delta_z / model.kappa))
