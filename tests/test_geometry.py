import math

import numpy as np
import pytest

from latticemc.geometry import (LatticeSpec, ModeFunction, Scenario,
                                coupling_coefficient, mode_value,
                                scenario_geometry)
from latticemc.oracle import compositions

SPEC4 = LatticeSpec(n_atoms=6, n_sites=4, n_illuminated=4)


def configuration_z(q, scenario, spec):
    """Reference z of a configuration, the paper's reduced sums: the atom
    number at the illuminated sites, or their odd-even difference at the
    diffraction minimum."""
    q = np.asarray(q)
    if scenario is Scenario.MINIMUM:
        return int(sum((-1) ** (j + 1) * q[j - 1]
                       for j in range(1, spec.n_illuminated + 1)))
    return int(sum(q[:spec.n_illuminated]))


def scenario_z(q, scenario, spec):
    """z as the scenario's mode functions define it, D_10 = sum u_1* u_0 q_j."""
    geom = scenario_geometry(scenario, spec)
    return coupling_coefficient(q, geom.cavity, geom.probe, spec)


def max_modes():
    """Pair of modes with u1* u0 = 1 at every site (diffraction maximum)."""
    m = ModeFunction("traveling", 0.0, 0.0)
    return m, m


def min_modes():
    """Pair of modes with u1* u0 = (-1)^(j+1) (diffraction minimum)."""
    return (ModeFunction("traveling", np.pi, np.pi),
            ModeFunction("traveling", 0.0, 0.0))


def test_mode_value_zero_phase_accumulation():
    mode = ModeFunction("traveling", 0.0, 0.0)
    for j in (1, 2, 3, 4):
        assert mode_value(mode, j, SPEC4) == pytest.approx(1.0 + 0.0j)


def test_mode_value_standing_alternating():
    mode = ModeFunction("standing", np.pi, 0.0)
    for j in (1, 2, 3, 4):
        assert mode_value(mode, j, SPEC4) == pytest.approx((-1.0) ** j)


def test_mode_value_traveling_quarter_wave():
    # exp(i 3 pi/2) = -i; cross-check against a series evaluation of exp
    mode = ModeFunction("traveling", np.pi / 2, 0.0)
    got = mode_value(mode, 3, SPEC4)
    assert got == pytest.approx(-1j, abs=1e-12)
    x = 3j * np.pi / 2
    series = sum(x**k / math.factorial(k) for k in range(40))
    assert got == pytest.approx(complex(series), abs=1e-12)


def test_mode_value_out_of_range():
    mode = ModeFunction("traveling", 0.0, 0.0)
    with pytest.raises(IndexError):
        mode_value(mode, 0, SPEC4)
    with pytest.raises(IndexError):
        mode_value(mode, 5, SPEC4)


def test_mode_value_unit_modulus_and_real():
    rng = np.random.default_rng(1)
    for _ in range(100):
        k, phi = rng.uniform(-4, 4, size=2)
        j = int(rng.integers(1, 5))
        trav = mode_value(ModeFunction("traveling", k, phi), j, SPEC4)
        assert abs(abs(trav) - 1.0) < 1e-12
        stand = mode_value(ModeFunction("standing", k, phi), j, SPEC4)
        assert stand.imag == 0.0


def test_coupling_maximum_is_occupation_sum():
    spec = LatticeSpec(3, 4, 2)
    got = coupling_coefficient([2, 1, 0, 0], *max_modes(), spec)
    assert got == pytest.approx(3.0)


def test_coupling_minimum_uniform_cancels():
    spec = LatticeSpec(4, 4, 4)
    got = coupling_coefficient([1, 1, 1, 1], *min_modes(), spec)
    assert got == pytest.approx(0.0, abs=1e-12)


def test_coupling_minimum_alternating_sum():
    spec = LatticeSpec(6, 4, 4)
    got = coupling_coefficient([3, 1, 2, 0], *min_modes(), spec)
    assert got == pytest.approx(3 - 1 + 2 - 0, abs=1e-12)


def test_coupling_input_validation():
    spec = LatticeSpec(3, 4, 2)
    with pytest.raises(ValueError):
        coupling_coefficient([1, 2], *max_modes(), spec)
    with pytest.raises(ValueError):
        coupling_coefficient([1, -1, 2, 1], *max_modes(), spec)


def test_coupling_maximum_property_random_configs():
    rng = np.random.default_rng(7)
    spec = LatticeSpec(10, 6, 3)
    ml, mm = max_modes()
    for _ in range(1000):
        q = rng.multinomial(10, np.ones(6) / 6)
        got = coupling_coefficient(q, ml, mm, spec)
        assert got == pytest.approx(q[:3].sum(), abs=1e-9)


def test_coupling_linearity():
    rng = np.random.default_rng(8)
    spec = LatticeSpec(5, 5, 5)
    ml, mm = min_modes()
    for _ in range(200):
        q1 = rng.integers(0, 4, size=5)
        q2 = rng.integers(0, 4, size=5)
        lhs = coupling_coefficient(q1 + q2, ml, mm, spec)
        rhs = (coupling_coefficient(q1, ml, mm, spec)
               + coupling_coefficient(q2, ml, mm, spec))
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_scenario_geometry_maximum():
    spec = LatticeSpec(100, 100, 50)
    geom = scenario_geometry(Scenario.MAXIMUM, spec)
    assert geom.z_grid == tuple(range(101))
    # u_1* u_0 = 1 on the illuminated sites j = 1..50, 0 elsewhere
    per_site = scenario_z(np.eye(100, dtype=int), Scenario.MAXIMUM, spec)
    np.testing.assert_array_equal(per_site, np.arange(100) < 50)


def test_scenario_geometry_minimum():
    spec = LatticeSpec(100, 100, 100)
    geom = scenario_geometry(Scenario.MINIMUM, spec)
    assert geom.z_grid == tuple(range(-100, 101, 2))
    per_site = scenario_z(np.eye(100, dtype=int), Scenario.MINIMUM, spec)
    np.testing.assert_array_equal(per_site, (-1.0) ** np.arange(100))


def test_scenario_geometry_transmission_small():
    geom = scenario_geometry(Scenario.TRANSMISSION, LatticeSpec(2, 2, 1))
    assert geom.z_grid == (0, 1, 2)


def test_scenario_geometry_minimum_requires_full_illumination():
    with pytest.raises(ValueError):
        scenario_geometry(Scenario.MINIMUM, LatticeSpec(4, 4, 2))


def test_configuration_z():
    spec, spec2 = LatticeSpec(6, 4, 4), LatticeSpec(6, 4, 2)
    for scenario, lattice, want in ((Scenario.MAXIMUM, spec, 6),
                                    (Scenario.MINIMUM, spec, 4),
                                    (Scenario.TRANSMISSION, spec2, 4)):
        assert configuration_z([3, 1, 2, 0], scenario, lattice) == want
        assert scenario_z([3, 1, 2, 0], scenario, lattice) == want


@pytest.mark.parametrize("spec", [
    LatticeSpec(3, 2, 1), LatticeSpec(4, 4, 4),
    LatticeSpec(5, 4, 4)],
    ids=["N3M2K1", "N4M4K4", "N5M4K4"])
def test_scenario_d_equals_reduced_z(spec):
    """Each scenario's D_10 is the reference z on every configuration."""
    configs = np.array(compositions(spec.n_atoms, spec.n_sites))
    scenarios = [Scenario.MAXIMUM, Scenario.TRANSMISSION]
    if spec.n_illuminated == spec.n_sites:
        scenarios.append(Scenario.MINIMUM)
    for scenario in scenarios:
        want = [configuration_z(q, scenario, spec) for q in configs]
        np.testing.assert_array_equal(scenario_z(configs, scenario, spec),
                                      want)
        assert [scenario_z(q, scenario, spec) for q in configs] == want


def test_coupling_rows_equal_single_configurations():
    rng = np.random.default_rng(9)
    spec = LatticeSpec(8, 5, 3)
    ml, mm = ModeFunction("traveling", 1.3, 0.2), ModeFunction("standing", 0.4)
    q = rng.integers(0, 4, size=(20, 5))
    rows = coupling_coefficient(q, ml, mm, spec)
    assert rows.shape == (20,)
    for qi, d in zip(q, rows):
        assert coupling_coefficient(qi, ml, mm, spec) == pytest.approx(d)
