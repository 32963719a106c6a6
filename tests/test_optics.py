import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from latticemc.geometry import Scenario
from latticemc.optics import (AmplitudeTable, ProbeModel, amplitude_table,
                              _drive_term, cat_phase,
                              prefactor_exponent_exact, steady_amplitude,
                              transient_amplitude)


def transverse(u10=1.0, a0=1.0, kappa=1.0, delta_p=0.0,
               scenario=Scenario.MAXIMUM, alpha0=0.0):
    return ProbeModel(scenario=scenario, kappa=kappa, u10=u10, a0=a0,
                      delta_p=delta_p, alpha0=alpha0)


def transmission(eta=1.0, u11=1.0, kappa=1.0, z_p=0.0, alpha0=0.0):
    return ProbeModel(scenario=Scenario.TRANSMISSION, kappa=kappa, u11=u11,
                      eta=eta, delta_p=z_p * u11, alpha0=alpha0)


def test_probe_model_validation():
    with pytest.raises(ValueError):
        ProbeModel(Scenario.TRANSMISSION, kappa=1.0, eta=1.0, u11=1.0, a0=1.0)
    with pytest.raises(ValueError):
        ProbeModel(Scenario.TRANSMISSION, kappa=1.0, eta=1.0, u11=0.0)
    with pytest.raises(ValueError):
        ProbeModel(Scenario.MAXIMUM, kappa=1.0, u10=1.0, eta=0.5)
    with pytest.raises(ValueError):
        ProbeModel(Scenario.MAXIMUM, kappa=1.0, u10=1.0, u11=0.2)
    with pytest.raises(ValueError):
        ProbeModel(Scenario.MAXIMUM, kappa=0.0, u10=1.0)


def test_steady_amplitude_linear_in_z():
    model = transverse(u10=0.3, a0=2.0, kappa=1.0, delta_p=0.5)
    c = model.c_constant
    assert steady_amplitude(model, 0) == 0
    assert steady_amplitude(model, 7) == pytest.approx(7 * c)
    # odd in z, so the two diffraction-minimum components differ by a sign
    assert steady_amplitude(model, -7) == pytest.approx(-7 * c)


def test_steady_amplitude_transmission_resonance_and_halfwidth():
    model = transmission(eta=2.0, u11=1.0, kappa=1.0, z_p=50.0)
    on_res = steady_amplitude(model, 50)
    assert on_res == pytest.approx(model.c_constant)
    # one half width off resonance the intensity drops to half
    off = steady_amplitude(model, 51)
    assert abs(off) ** 2 == pytest.approx(abs(on_res) ** 2 / 2)
    assert off == pytest.approx(model.c_constant / (1j + 1))


def test_steady_amplitude_lorentzian_symmetry():
    model = transmission(u11=0.7, kappa=1.4, z_p=20.0)
    for s in (1, 3, 8.5):
        up = steady_amplitude(model, 20.0 + s)
        dn = steady_amplitude(model, 20.0 - s)
        assert abs(up) == pytest.approx(abs(dn), rel=1e-12)
        assert np.angle(up) == pytest.approx(-np.angle(dn), abs=1e-12)


def test_amplitude_table_matches_pointwise():
    model = transmission(z_p=5.0)
    table = amplitude_table(model, np.arange(11))
    for i, z in enumerate(table.z_values):
        assert table.alpha[i] == pytest.approx(steady_amplitude(model, z))
    np.testing.assert_allclose(table.intensity, np.abs(table.alpha) ** 2)


def test_amplitude_table_cached_and_read_only():
    model = transmission(z_p=5.0)
    z = np.arange(11)
    table = amplitude_table(model, z)
    assert z.flags.writeable  # the caller's grid is not frozen
    for arr in (table.alpha, table.z_values, table.intensity):
        with pytest.raises(ValueError):
            arr[0] = 0
    built = AmplitudeTable(z, np.ones(11), 1.0 + 0j)
    assert z.flags.writeable and not built.z_values.flags.writeable


def test_amplitude_table_rejects_nonfinite():
    with pytest.raises(ValueError):
        AmplitudeTable(np.array([0, 1]), np.array([0.0, np.nan]), 1.0 + 0j)


def test_transient_amplitude_limits():
    model = transmission(eta=1.5, u11=1.0, kappa=1.0, z_p=10.0, alpha0=0.3 + 0.1j)
    assert transient_amplitude(model, 4, 0.0) == pytest.approx(0.3 + 0.1j)
    late = transient_amplitude(model, 4, 20.0)
    assert late == pytest.approx(steady_amplitude(model, 4), abs=1e-8)
    with pytest.raises(ValueError):
        transient_amplitude(model, 4, -1.0)


def test_transient_amplitude_resonant_halflife():
    # from vacuum, on resonance: alpha(t) = C' (1 - exp(-kappa t))
    model = transmission(eta=1.0, u11=1.0, kappa=1.0, z_p=7.0)
    got = transient_amplitude(model, 7, np.log(2))
    assert got == pytest.approx(model.c_constant / 2, abs=1e-12)


def test_transient_amplitude_solves_cavity_ode():
    """Cross-check against direct integration of the amplitude equation."""
    model = transmission(eta=0.8, u11=0.6, kappa=1.1, z_p=3.0,
                         alpha0=0.2 - 0.4j)
    z = 5.0

    def rhs(t, y):
        a = y[0] + 1j * y[1]
        da = (1j * (model.delta_p - model.u11 * z) - model.kappa) * a + model.eta
        return [da.real, da.imag]

    for t_end in (0.3, 1.0, 4.0):
        sol = solve_ivp(rhs, (0.0, t_end), [0.2, -0.4], rtol=1e-11, atol=1e-12)
        want = sol.y[0, -1] + 1j * sol.y[1, -1]
        assert transient_amplitude(model, z, t_end) == pytest.approx(want, abs=1e-8)


def prefactor_exponent_steady(model, z, t):
    """The steady-regime exponent: -kappa |alpha_z|^2 t + i Im(drive) t."""
    alpha = steady_amplitude(model, z)
    return (-abs(alpha) ** 2 * model.kappa * t
            + 1j * np.imag(_drive_term(model, z, alpha)) * t)


def test_prefactor_exponent_exact_reduces_to_steady():
    model = transmission(eta=1.0, u11=1.0, kappa=1.0, z_p=10.0)
    z = 12.0
    t0, t1 = 30.0, 31.0
    exact = (prefactor_exponent_exact(model, z, t1)
             - prefactor_exponent_exact(model, z, t0))
    steady = (prefactor_exponent_steady(model, z, t1)
              - prefactor_exponent_steady(model, z, t0))
    assert exact == pytest.approx(steady, abs=1e-9)


def test_prefactor_exponent_exact_transient_differs_early():
    # over the first cavity lifetime the buildup makes |Phi| smaller
    model = transmission(eta=1.0, u11=1.0, kappa=1.0, z_p=10.0)
    exact = prefactor_exponent_exact(model, 10.0, 0.5)
    steady = prefactor_exponent_steady(model, 10.0, 0.5)
    assert abs(exact.real) < abs(steady.real)


def _prefactor_exponent_quad(model, z, t, tol=1e-12):
    """Reference: adaptive quadrature of the no-count exponent rate."""
    re, _ = quad(lambda s: -model.kappa
                 * abs(transient_amplitude(model, z, s)) ** 2,
                 0.0, t, epsabs=tol, epsrel=tol, limit=400)
    im, _ = quad(lambda s: np.imag(_drive_term(
        model, z, transient_amplitude(model, z, s))),
        0.0, t, epsabs=tol, epsrel=tol, limit=400)
    return re + 1j * im


@pytest.mark.parametrize("make", [
    lambda d: transmission(eta=d, u11=1.0, kappa=1.0, z_p=1.0),
    lambda d: transmission(eta=0.7 * d, u11=0.4, kappa=0.7, z_p=5.0,
                           alpha0=0.1 + 0.05j),
    lambda d: transverse(u10=d, kappa=1.0),
    lambda d: transverse(u10=d, kappa=1.3, delta_p=0.4, alpha0=-0.2j),
], ids=["transmission", "transmission-alpha0", "maximum", "maximum-detuned"])
def test_prefactor_exponent_exact_matches_quadrature(make):
    zs = (0, 1, 2, 3, 7)
    for drive in (1e-4, 0.05, 0.3):
        model = make(drive)
        for t in (1e-3, 0.01, 0.3, 1.0, 2.5, 16.0, 20.0, 50.0):
            row = prefactor_exponent_exact(model, np.array(zs), t)
            assert row.shape == (len(zs),) and row.dtype == complex
            for z, in_row in zip(zs, row):
                want = _prefactor_exponent_quad(model, z, t)
                got = prefactor_exponent_exact(model, z, t)
                assert type(got) is complex
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), \
                    (drive, z, t, got, want)
                # an array z gives each z's value, to rounding
                assert abs(in_row - got) <= 1e-15 * max(1.0, abs(got))


def test_prefactor_exponent_exact_at_zero_and_negative_time():
    model = transmission(eta=0.3, z_p=2.0)
    assert prefactor_exponent_exact(model, 1, 0.0) == 0
    with pytest.raises(ValueError):
        prefactor_exponent_exact(model, 1, -1.0)


def test_cat_phase_examples():
    model = transmission(u11=1.0, kappa=1.0)
    assert cat_phase(model, 0.0) == 0.0
    assert cat_phase(model, 1.0) == pytest.approx(-np.pi / 4)
    assert cat_phase(model, 1e9) == pytest.approx(-np.pi / 2, abs=1e-6)
    with pytest.raises(ValueError):
        cat_phase(transverse(), 1.0)


def test_cat_phase_cancellation_point():
    """The measurement phase m*phi cancels the deterministic phase when
    u11 dz / kappa solves x = tan(x/...); the root sits near 2.33."""
    model = transmission(u11=1.0, kappa=1.0, z_p=0.0)

    def residual(dz):
        # mean counts 2 kappa |alpha|^2 t times phi, plus Phi(t) per unit t
        alpha2 = abs(steady_amplitude(model, dz)) ** 2
        return 2 * model.kappa * alpha2 * cat_phase(model, dz) \
            + alpha2 * model.u11 * dz

    root = brentq(residual, 1.0, 3.0)
    assert root == pytest.approx(2.331, abs=2e-3)
