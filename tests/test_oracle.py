import contextlib

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import binom

from latticemc import oracle
from latticemc.geometry import LatticeSpec, Scenario
from latticemc.optics import ProbeModel, transient_amplitude
from latticemc.oracle import (CutoffError, _expm, apply_jump,
                              compare_with_exact, compositions,
                              evolve_nonhermitian, run_script,
                              superfluid_joint_state, z_marginal)
from latticemc.states import ZDistribution, superfluid_atom_number
from latticemc.trajectory import exact_distribution
from reference import coherent_script_state, mott_joint_state


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
    assert joint.shape == (len(compositions(4, 2)), 4)
    assert np.linalg.norm(joint) == pytest.approx(1.0, abs=1e-12)
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
    """A joint state must hold one row per configuration of its lattice."""
    spec = LatticeSpec(1, 2, 1)  # configurations (0, 1) and (1, 0)
    model = ProbeModel(Scenario.MAXIMUM, kappa=1.0, u10=0.2, a0=1.0)
    for rows in (1, 3):
        bad = np.zeros((rows, 4), dtype=complex)
        bad[0, 0] = 1.0
        with pytest.raises(ValueError, match="one row per configuration"):
            evolve_nonhermitian(bad, model, spec, 1.0)
        with pytest.raises(ValueError, match="one row per configuration"):
            z_marginal(bad, Scenario.MAXIMUM, spec)
    with pytest.raises(ValueError, match="one row per configuration"):
        z_marginal(np.ones(2, dtype=complex), Scenario.MAXIMUM, spec)
    with pytest.raises(ValueError, match="zero-norm state"):
        z_marginal(np.zeros((2, 4), dtype=complex), Scenario.MAXIMUM, spec)


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
        got = out[0]
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
    assert np.linalg.norm(out) < 1.0
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
    alpha = 0.6 - 0.2j
    cols = coherent_amplitudes(alpha, 30)
    out = apply_jump(cols[None, :])
    got = out[0]
    phase = cols[0] / got[0]
    np.testing.assert_allclose(got * phase, cols, atol=1e-9)


def test_apply_jump_fock_one_gives_vacuum():
    amp = np.zeros((1, 3), dtype=complex)
    amp[0, 1] = 1.0
    out = apply_jump(amp)
    np.testing.assert_allclose(out[0], [1.0, 0.0, 0.0], atol=1e-12)
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


# Jump scripts on one lattice per scenario: drives of a few tenths, so the
# light, not only its no-count damping, shapes the amplitudes
SCRIPT_CASES = {
    "transmission": (LatticeSpec(3, 2, 1),
                     ProbeModel(Scenario.TRANSMISSION, kappa=1.0, u11=1.0,
                                eta=0.6, delta_p=1.5)),
    "maximum": (LatticeSpec(3, 2, 1),
                ProbeModel(Scenario.MAXIMUM, kappa=1.0, u10=0.4, a0=1.0)),
    "maximum-detuned": (LatticeSpec(3, 2, 1),
                        ProbeModel(Scenario.MAXIMUM, kappa=1.0, u10=0.4,
                                   a0=1.0, delta_p=0.7)),
    "minimum": (LatticeSpec(2, 4, 4),
                ProbeModel(Scenario.MINIMUM, kappa=1.0, u10=0.4, a0=1.0)),
}


def chained(amplitudes, model, spec, jump_times, t_end):
    """The script one interval at a time: `evolve_nonhermitian`, then
    `apply_jump`, at each sorted jump time."""
    now = 0.0
    for ti in sorted(jump_times):
        amplitudes = apply_jump(evolve_nonhermitian(amplitudes, model, spec,
                                                    ti - now))
        now = ti
    return evolve_nonhermitian(amplitudes, model, spec, t_end - now)


@pytest.mark.parametrize("case", ["transmission", "maximum", "minimum"])
def test_run_script_is_its_intervals_in_turn(monkeypatch, case):
    """One `_expm` call for the whole script gives the chained intervals'
    state bit for bit, with a jump at t = 0, a repeated jump time and a
    jump at t_end (three intervals of zero length)."""
    spec, model = SCRIPT_CASES[case]
    # a jump at t = 0 needs light in the cavity already
    start = evolve_nonhermitian(superfluid_joint_state(spec, n_max=24), model,
                                spec, 1.0)
    jumps, t_end = (2.0, 0.0, 0.7, 2.0, 6.0), 6.0
    want = chained(start, model, spec, jumps, t_end)
    stacks = []

    def counted(a):
        stacks.append(len(a))
        return _expm(a)

    monkeypatch.setattr(oracle, "_expm", counted)
    got = run_script(start, model, spec, jumps, t_end)
    assert stacks == [6 * len(start)]  # every interval, every configuration
    assert got.tobytes() == want.tobytes()


def test_run_script_raises_as_its_intervals_do():
    """CutoffError at the first interval whose photon tail is too large (the
    second at n_max = 7), with the chained intervals' message; a negative
    jump time is a negative duration."""
    spec, model = SCRIPT_CASES["transmission"]
    start = superfluid_joint_state(spec, n_max=7)
    jumps = (0.7, 2.0, 3.5)
    evolve_nonhermitian(start, model, spec, 0.7)  # the first interval passes
    with pytest.raises(CutoffError) as want:
        chained(start, model, spec, jumps, 6.0)
    with pytest.raises(CutoffError) as got:
        run_script(start, model, spec, jumps, 6.0)
    assert str(got.value) == str(want.value)
    with pytest.raises(ValueError, match="duration must be >= 0"):
        run_script(start, model, spec, (-0.5, 2.0), 6.0)


@pytest.mark.parametrize("case", SCRIPT_CASES)
def test_oracle_amplitudes_are_coherent_states(case):
    """The whole amplitude, phases included, not only |amplitude|^2: the
    oracle's state after jumps at 0.7, 2.0 and 3.5 equals each
    configuration's coherent state c_q e^Phi_q prod alpha_q(t_i)
    |alpha_q(t)> at t = 6 (`coherent_script_state`), up to one global
    constant fitted by least squares.  Measured: 1.2e-15 (transmission),
    1.5e-13 and 3.3e-15 (maximum, delta_p 0 and 0.7), 7.3e-16 (minimum)."""
    spec, model = SCRIPT_CASES[case]
    jumps, t_end = (0.7, 2.0, 3.5), 6.0
    got = run_script(superfluid_joint_state(spec, n_max=24), model, spec,
                     jumps, t_end)
    want = coherent_script_state(spec, model, jumps, t_end, n_max=24)
    scale = np.vdot(want, got) / np.vdot(want, want)
    assert np.abs(got - scale * want).max() <= 1e-10 * np.abs(got).max()


def assert_close_to_scipy(a):
    """_expm within 1e-12 of scipy's `expm`, relative to each slice's
    largest entry."""
    got, want = _expm(a), expm(a)
    scale = np.abs(want).max(axis=(-2, -1))
    assert (np.abs(got - want).max(axis=(-2, -1)) <= 1e-12 * scale).all()


def test_expm_matches_scipy_on_oracle_generators(monkeypatch):
    """The stacks `evolve_nonhermitian` exponentiates: N = 2-3 atoms on
    M = 2 sites, photon ladders of 5 and 11 levels, weak and strong drive,
    durations from 0.5 to 20."""
    stacks = []

    def record(a):
        stacks.append(a.copy())
        return expm(a)

    monkeypatch.setattr(oracle, "_expm", record)
    for n_atoms in (2, 3):
        spec = LatticeSpec(n_atoms, 2, 1)
        for n_max in (4, 10):
            joint = superfluid_joint_state(spec, n_max=n_max)
            for scenario in (Scenario.TRANSMISSION, Scenario.MAXIMUM):
                for drive in (1e-4, 0.3):
                    for t in (0.5, 2.5, 16.0, 20.0):
                        with contextlib.suppress(CutoffError):
                            evolve_nonhermitian(joint, probe(scenario, drive),
                                                spec, t)
    assert len(stacks) == 64
    for a in stacks:
        assert_close_to_scipy(a)


def test_expm_matches_scipy_on_random_stacks():
    """Complex stacks of 1-11 levels with strongly damped diagonals."""
    rng = np.random.default_rng(5)
    for _ in range(200):
        k, n = rng.integers(1, 5), rng.integers(1, 12)
        a = (rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))
             ) * rng.uniform(0.01, 5.0)
        a -= rng.uniform(0.0, 60.0, size=(k, 1, n)) * np.eye(n)
        assert_close_to_scipy(a)


def test_expm_of_zero_is_the_identity_bit_for_bit():
    got = _expm(np.zeros((2, 4, 4), dtype=complex))
    assert got.tobytes() == np.array([np.eye(4, dtype=complex)] * 2).tobytes()


def test_expm_of_a_diagonal_is_elementwise_exp():
    rng = np.random.default_rng(6)
    d = rng.uniform(-60.0, 1.0, (3, 6)) + 1j * rng.uniform(-10.0, 10.0, (3, 6))
    eye = np.eye(6)
    np.testing.assert_allclose(_expm(d[:, :, None] * eye),
                               np.exp(d)[:, :, None] * eye, rtol=1e-13, atol=0)


@pytest.mark.parametrize("c", [1.0, 10.0])
def test_expm_of_a_nilpotent_jordan_block(c):
    """exp(c N) = I + c N + (c N)^2 / 2 for the 3 x 3 shift N; at c = 10 the
    1-norm exceeds theta_13, so the squarings run."""
    nil = c * np.eye(3, k=1)
    want = np.eye(3) + nil + nil @ nil / 2
    np.testing.assert_allclose(_expm(nil[None] + 0j)[0], want,
                               rtol=1e-14, atol=1e-14)


def test_expm_slices_do_not_depend_on_their_stack():
    """Each slice of a stack whose 1-norms need 0 to 8 squarings equals the
    slice exponentiated alone, bit for bit."""
    rng = np.random.default_rng(8)
    a = (rng.normal(size=(8, 5, 5)) + 1j * rng.normal(size=(8, 5, 5))
         ) * np.logspace(-3, 2, 8)[:, None, None]
    a -= np.logspace(-2, 2.5, 8)[:, None, None] * np.eye(5)
    full = _expm(a)
    for i in range(len(a)):
        assert full[i].tobytes() == _expm(a[i:i + 1])[0].tobytes()
