import numpy as np
import pytest
from scipy.stats import binom

from latticemc.geometry import LatticeSpec, Scenario
from latticemc.optics import ProbeModel, transient_amplitude
from latticemc.oracle import (CutoffError, JointState, apply_jump,
                              compare_with_exact, compositions,
                              evolve_nonhermitian, run_script,
                              superfluid_joint_state, z_marginal)
from latticemc.states import ZDistribution, superfluid_atom_number
from latticemc.trajectory import exact_distribution
from reference import mott_joint_state


def coherent_amplitudes(alpha, n_max):
    n = np.arange(n_max + 1)
    fact = np.array([np.prod(np.arange(1, k + 1), dtype=float) for k in n])
    return np.exp(-0.5 * abs(alpha) ** 2) * alpha**n / np.sqrt(fact)


def test_compositions_count_and_order():
    out = compositions(2, 3)
    assert len(out) == 6  # C(2+2, 2)
    assert out == sorted(out)
    assert all(sum(q) == 2 for q in out)
    assert compositions(3, 1) == [(3,)]


def test_superfluid_joint_state_marginal():
    spec = LatticeSpec(4, 2, 1)
    joint = superfluid_joint_state(spec, n_max=3)
    assert joint.norm == pytest.approx(1.0, abs=1e-12)
    marg = z_marginal(joint, Scenario.MAXIMUM, spec)
    want = superfluid_atom_number(spec)
    np.testing.assert_allclose(marg.probabilities, want.probabilities,
                               atol=1e-12)


def test_mott_joint_state():
    spec = LatticeSpec(3, 3, 2)
    joint = mott_joint_state(spec, n_max=2)
    marg = z_marginal(joint, Scenario.MAXIMUM, spec)
    assert marg.probabilities[2] == pytest.approx(1.0, abs=1e-12)
    full = LatticeSpec(3, 3, 3)  # two odd sites, one even: z = 1
    marg = z_marginal(mott_joint_state(full, n_max=2), Scenario.MINIMUM, full)
    assert marg.probabilities.tolist() == [0.0, 0.0, 1.0, 0.0]
    with pytest.raises(ValueError):
        mott_joint_state(LatticeSpec(2, 3, 2))


def test_joint_state_shape_guard():
    with pytest.raises(ValueError):
        JointState(((1, 0),), 3, np.zeros((2, 4)))


def test_evolution_matches_coherent_solution():
    """A driven empty cavity stays coherent; amplitudes follow the cavity ODE.

    Transmission drives through eta; the maximum scenario through the atomic
    coupling g = u10 a0 z, the generator's other drive term.
    """
    spec = LatticeSpec(1, 1, 1)
    models = (ProbeModel(Scenario.TRANSMISSION, kappa=1.0, u11=0.5,
                         eta=0.4, delta_p=0.3),
              ProbeModel(Scenario.MAXIMUM, kappa=1.0, u10=0.4, a0=1.0))
    joint = superfluid_joint_state(spec, n_max=12)
    t = 2.0
    for model in models:
        out = evolve_nonhermitian(joint, model, spec, t)
        # single configuration q = (1,): z = 1
        alpha_t = transient_amplitude(model, 1.0, t)
        want = coherent_amplitudes(alpha_t, 12)
        got = out.amplitudes[0]
        # compare ray direction: the non-Hermitian norm decay drops out
        got = got / np.linalg.norm(got)
        want = want / np.linalg.norm(want)
        phase = want[0] / got[0]
        np.testing.assert_allclose(got * phase, want, atol=1e-9)


def test_evolution_norm_decays():
    spec = LatticeSpec(2, 2, 1)
    model = ProbeModel(Scenario.MAXIMUM, kappa=1.0, u10=0.2, a0=1.0)
    joint = superfluid_joint_state(spec, n_max=8)
    out = evolve_nonhermitian(joint, model, spec, 3.0)
    assert out.norm < 1.0
    assert evolve_nonhermitian(joint, model, spec, 0.0) is joint
    with pytest.raises(ValueError):
        evolve_nonhermitian(joint, model, spec, -1.0)


def test_cutoff_error_on_tiny_ladder():
    spec = LatticeSpec(1, 1, 1)
    model = ProbeModel(Scenario.TRANSMISSION, kappa=1.0, u11=0.5,
                       eta=2.0, delta_p=0.0)
    joint = superfluid_joint_state(spec, n_max=3)  # steady |alpha|^2 = 4
    with pytest.raises(CutoffError):
        evolve_nonhermitian(joint, model, spec, 5.0)


def test_apply_jump_on_coherent_state_is_identity():
    spec = LatticeSpec(1, 1, 1)
    alpha = 0.6 - 0.2j
    cols = coherent_amplitudes(alpha, 30)
    joint = JointState(((1,),), 30, cols[None, :])
    out = apply_jump(joint)
    got = out.amplitudes[0]
    phase = cols[0] / got[0]
    np.testing.assert_allclose(got * phase, cols, atol=1e-9)


def test_apply_jump_fock_one_gives_vacuum():
    amp = np.zeros((1, 3), dtype=complex)
    amp[0, 1] = 1.0
    out = apply_jump(JointState(((1,),), 2, amp))
    np.testing.assert_allclose(out.amplitudes[0], [1.0, 0.0, 0.0], atol=1e-12)
    with pytest.raises(ValueError):
        apply_jump(out)  # vacuum only


def probe(scenario, drive=1e-4):
    """The oracle-check probe: resonant at z = 1 in transmission."""
    if scenario is Scenario.TRANSMISSION:
        return ProbeModel(scenario, kappa=1.0, u11=1.0, eta=drive, delta_p=1.0)
    return ProbeModel(scenario, kappa=1.0, u10=drive, a0=1.0)


def max_deviation(spec, model, n_max=4):
    """Oracle vs `exact_distribution` for the oracle-check record."""
    got, want = compare_with_exact(spec, model, (16.0, 18.5), 20.0, n_max)
    np.testing.assert_array_equal(got.z_values, want.z_values)
    return np.abs(got.probabilities - want.probabilities).max()


def test_run_script_matches_reduced_engine():
    """No-count + jump record on the full space reproduces the reduced form."""
    for n_atoms, scenario in ((2, Scenario.TRANSMISSION),
                              (3, Scenario.MAXIMUM)):
        spec = LatticeSpec(n_atoms, 2, 1)
        assert max_deviation(spec, probe(scenario)) < 1e-9


@pytest.mark.parametrize("spec", [LatticeSpec(n, 2, 2) for n in (2, 3, 4, 6)]
                         + [LatticeSpec(n, 4, 4) for n in (2, 3)],
                         ids=lambda s: f"N{s.n_atoms}M{s.n_sites}")
def test_oracle_minimum_scenario(spec):
    """Diffraction minimum: z is the odd-even difference, dark at z = 0."""
    assert max_deviation(spec, probe(Scenario.MINIMUM)) < 1e-6


def test_oracle_minimum_odd_sites():
    """On M = 3 sites z = 2 n_odd - N, n_odd ~ Binomial(N, 2/3): p0 is not
    symmetric in z, so a sign slip in the minimum's D shows."""
    spec = LatticeSpec(3, 3, 3)
    model = probe(Scenario.MINIMUM, drive=0.3)
    joint = run_script(superfluid_joint_state(spec, n_max=10), model, spec,
                       (16.0, 18.5), 20.0)
    p0 = ZDistribution(np.arange(-3, 4, 2), binom.pmf(np.arange(4), 3, 2 / 3))
    got = z_marginal(joint, Scenario.MINIMUM, spec)
    want = exact_distribution(p0, model, (16.0, 18.5), 20.0)
    assert np.abs(got.probabilities - want.probabilities).max() < 1e-6


@pytest.mark.parametrize("scenario", [Scenario.TRANSMISSION, Scenario.MAXIMUM],
                         ids=lambda s: s.value)
@pytest.mark.parametrize("n_atoms,n_illuminated",
                         [(5, 1), (5, 2), (6, 1), (6, 2)],
                         ids=["N5K1", "N5K2", "N6K1", "N6K2"])
def test_oracle_three_sites(n_atoms, n_illuminated, scenario):
    """Several configurations share each z once M = 3 sites hold 5-6 atoms."""
    spec = LatticeSpec(n_atoms, 3, n_illuminated)
    assert max_deviation(spec, probe(scenario)) < 1e-6


@pytest.mark.parametrize("scenario", [Scenario.TRANSMISSION, Scenario.MAXIMUM],
                         ids=lambda s: s.value)
def test_oracle_strong_drive(scenario):
    """A drive at which the no-count damping 2 kappa |alpha_z|^2 t matters.

    At the oracle-check drive 1e-4 the damping is at most ~4e-6, so a no-count
    exponent off by a factor 2 moves p(z) by less than the 1e-6 tolerance.
    At drive 0.3 it reaches 3.6 (transmission) and 32 (maximum), and the
    same error moves p(z) by 0.1-0.2.
    """
    spec = LatticeSpec(3, 2, 1)
    assert max_deviation(spec, probe(scenario, drive=0.3), n_max=10) < 1e-6


def test_run_script_rejects_late_jumps():
    spec = LatticeSpec(1, 1, 1)
    model = ProbeModel(Scenario.TRANSMISSION, kappa=1.0, u11=0.5,
                       eta=1e-3, delta_p=0.0)
    joint = superfluid_joint_state(spec, n_max=3)
    with pytest.raises(ValueError):
        run_script(joint, model, spec, (5.0,), 2.0)
