"""Acceptance suite.

Each test covers one numbered acceptance criterion at its stated tolerance
and prints a single [PASS]/[FAIL] line on the real terminal.  Expensive
ensembles are computed once and shared between criteria.
"""

import time
import warnings

import numpy as np
import pytest

from latticemc.cli import main as cli_main
from latticemc.geometry import LatticeSpec, Scenario
from latticemc.optics import ProbeModel, amplitude_table
from latticemc.oracle import compare_with_exact
from latticemc.photostats import photocount_distribution
from latticemc.purity import purity, purity_sweep
from latticemc.states import superfluid_atom_number, superfluid_difference
from latticemc.trajectory import PEAK_WEIGHT_THRESHOLD, _peaks, run_trajectory
from reference import (CatMixture, TrajectoryState, density_matrix,
                       fwhm_of_peak, jump, no_count_step, pooled_chisquare_p,
                       predicted_widths)

SPEC = LatticeSpec(100, 100, 50)
P0 = superfluid_atom_number(SPEC)
MAX_MODEL = ProbeModel(Scenario.MAXIMUM, kappa=1.0, u10=1.0, a0=1.0)

_cache = {}


def report(capsys, ok, num, text):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def maximum_ensemble():
    """200 diffraction-maximum trajectories run to full collapse (tau = 30)."""
    if "maximum" not in _cache:
        _cache["maximum"] = [
            run_trajectory(P0, MAX_MODEL, seed=[1234, i], max_tau=30.0,
                           stop_fwhm=0.0, sample_interval_tau=0.5)
            for i in range(200)]
    return _cache["maximum"]


def transmission_ensemble():
    """200 transmission trajectories at z_p = 50, kappa/u11 = 1, tau' = 2e5."""
    if "transmission" not in _cache:
        model = ProbeModel(Scenario.TRANSMISSION, kappa=1.0, u11=1.0,
                           eta=1.0, delta_p=50.0)
        _cache["transmission"] = [
            run_trajectory(P0, model, seed=[777, i], max_tau=2e5,
                           stop_fwhm=0.0, sample_interval_tau=1e3,
                           snapshot_taus=(20.0,))
            for i in range(200)]
    return _cache["transmission"]


def test_criterion_1_oracle_equivalence(capsys):
    """Full-Hilbert-space evolution vs the reduced engine on tiny systems."""
    worst = 0.0
    jumps = (16.0, 18.5)
    t_end = 20.0
    for n_atoms in (2, 3, 4):
        spec = LatticeSpec(n_atoms, 2, 1)
        p0 = superfluid_atom_number(spec)
        for scenario in (Scenario.TRANSMISSION, Scenario.MAXIMUM):
            if scenario is Scenario.TRANSMISSION:
                model = ProbeModel(scenario=scenario, kappa=1.0, u11=1.0,
                                   eta=1e-4, delta_p=1.0)
            else:
                model = ProbeModel(scenario=scenario, kappa=1.0,
                                   u10=1e-4, a0=1.0)
            oracle, exact = compare_with_exact(spec, model, jumps, t_end,
                                               n_max=4)
            oracle_p = oracle.probabilities

            # replay the same record through the reduced engine
            table = amplitude_table(model, p0.z_values)
            st = TrajectoryState(dist=p0, amplitudes=table, kappa=model.kappa)
            now = 0.0
            for ti in jumps:
                st = no_count_step(st, ti - now)
                st = jump(st)
                now = ti
            st = no_count_step(st, t_end - now)
            worst = max(worst, np.abs(st.dist.probabilities - oracle_p).max())

            # and through the transient-aware evaluator
            worst = max(worst, np.abs(exact.probabilities - oracle_p).max())
    report(capsys, worst < 1e-6, 1,
           f"oracle equivalence, worst |dp| = {worst:.3e} < 1e-6")


@pytest.mark.slow
def test_criterion_2_closed_form(capsys):
    """Final p(z) of any simulated run equals its record replayed event by
    event: each stride's counts as `jump`s, then `no_count_step` over the
    stride (the updates commute, so the order within a stride is free)."""
    worst = 0.0
    runs = [(P0, MAX_MODEL, 6.0),
            (superfluid_difference(LatticeSpec(100, 100, 100)),
             ProbeModel(Scenario.MINIMUM, kappa=1.0, u10=1.0, a0=1.0), 6.0),
            (P0, ProbeModel(Scenario.TRANSMISSION, kappa=1.0, u11=1.0,
                            eta=1.0, delta_p=50.0), 100.0)]
    for k, (p0, model, max_tau) in enumerate(runs):
        for i in range(5):
            rec = run_trajectory(p0, model, seed=[21, k, i], max_tau=max_tau,
                                 stop_fwhm=0.0)
            final = rec.final_state
            st = TrajectoryState(dist=p0,
                                 amplitudes=amplitude_table(model, p0.z_values),
                                 kappa=model.kappa)
            for before, after in zip(rec.samples, rec.samples[1:]):
                for _ in range(after.m - before.m):
                    st = jump(st)
                st = no_count_step(st, after.t - before.t)
            assert st.m == final.m and abs(st.t - final.t) <= 1e-9 * final.t
            worst = max(worst, np.abs(final.dist.probabilities
                                      - st.dist.probabilities).max())
    report(capsys, worst < 1e-9, 2,
           f"record replay equals the final state, worst |dp| = "
           f"{worst:.3e} < 1e-9")


def test_criterion_3_maximum_collapse(capsys):
    t0 = time.time()
    records = maximum_ensemble()
    c2 = abs(MAX_MODEL.c_constant) ** 2
    table = amplitude_table(MAX_MODEL, P0.z_values)
    worst_z = worst_ph = 0.0
    z1s = []
    for rec in records:
        st = rec.final_state
        assert rec.outcome.kind == "singlet"
        z1 = rec.outcome.z1
        z1s.append(z1)
        worst_z = max(worst_z, abs(z1 - np.sqrt(st.m / st.tau)))
        worst_ph = max(worst_ph,
                       abs(table.intensity @ st.dist.probabilities
                           - c2 * z1**2))
    obs = np.bincount(z1s, minlength=len(P0.z_values)).astype(float)
    pval = pooled_chisquare_p(obs, P0.probabilities * len(z1s))
    elapsed = time.time() - t0
    ok = (worst_z <= 1.0 and worst_ph < 1e-6 and pval > 0.01
          and elapsed < 60.0)
    report(capsys, ok, 3,
           f"maximum collapse over 200 trajectories: "
           f"|z1 - sqrt(m/tau)| <= {worst_z:.3f}, photon dev {worst_ph:.2e}, "
           f"chi2 p = {pval:.3f}, {elapsed:.1f} s")


def test_criterion_4_minimum_cat(capsys):
    spec = LatticeSpec(100, 100, 100)
    p0 = superfluid_difference(spec)
    model = ProbeModel(Scenario.MINIMUM, kappa=1.0, u10=1.0, a0=1.0)
    worst_sym = worst_z = 0.0
    grid_step = 2.0
    for i in range(20):
        # snapshots at every stride so symmetry is checked along the path
        rec = run_trajectory(p0, model, seed=[333, i], max_tau=30.0,
                             stop_fwhm=0.0, sample_interval_tau=0.25,
                             snapshot_taus=tuple(np.arange(0.25, 30.01, 0.25)))
        for dist in rec.snapshots.values():
            worst_sym = max(worst_sym, np.abs(dist.probabilities
                                              - dist.probabilities[::-1]).max())
        o = rec.outcome
        st = rec.final_state
        # z = 0 is dark: with no count the state collapses onto it
        if st.m == 0:
            assert (o.kind, o.z1) == ("singlet", 0)
        else:
            assert o.kind == "doublet" and o.z1 == -o.z2 > 0
        worst_z = max(worst_z, abs(o.z1 - np.sqrt(st.m / st.tau)))
    ok = worst_sym < 1e-12 and worst_z <= grid_step
    report(capsys, ok, 4,
           f"minimum-scenario cat: asymmetry {worst_sym:.2e} < 1e-12, "
           f"|z1 - sqrt(m/tau)| <= {worst_z:.3f} (grid step {grid_step:g})")


def test_criterion_5_transmission_regimes(capsys):
    records = transmission_ensemble()
    n_singlet = n_doublet = 0
    worst = 0.0
    for rec in records:
        o = rec.outcome
        st = rec.final_state
        ratio = st.m / st.tau
        if o.kind == "singlet":
            n_singlet += 1
            assert ratio >= 1.0 and o.z1 == 50
        else:
            n_doublet += 1
            assert ratio < 1.0
            worst = max(worst, abs(o.delta_z - o.delta_z_predicted))
    ok = worst < 0.5 and n_singlet > 0 and n_doublet > 0
    report(capsys, ok, 5,
           f"transmission regimes: {n_singlet} singlets / {n_doublet} "
           f"doublets, worst |dz - dz_pred| = {worst:.3f} < 0.5")


def test_criterion_6_wing_doublet(capsys):
    p0 = P0
    model = ProbeModel(Scenario.TRANSMISSION, kappa=1.0, u11=1.0,
                       eta=1.0, delta_p=60.0)
    c2 = abs(model.c_constant) ** 2
    table = amplitude_table(model, p0.z_values)
    logp0 = np.full(len(p0.z_values), -np.inf)
    mask = p0.probabilities > 0
    logp0[mask] = np.log(p0.probabilities[mask])
    worst_ph = 0.0
    ratio_devs = []
    seven = None
    n_doublet = 0
    for i in range(100):
        rec = run_trajectory(p0, model, seed=[888, i], max_tau=6e6,
                             stop_fwhm=0.003, sample_interval_tau=2e3)
        o = rec.outcome
        if o.kind != "doublet":
            continue
        n_doublet += 1
        w1, w2 = o.component_weights
        want = np.exp(logp0[o.z1] - logp0[o.z2])
        ratio_devs.append(w1 / w2 - want)
        if (o.z1, o.z2) == (67, 53):
            seven = w1 / w2
        st = rec.final_state
        ph = table.intensity @ st.dist.probabilities / c2
        worst_ph = max(worst_ph, abs(ph - 1.0 / (1.0 + o.delta_z**2)))
    ratio_devs = np.array(ratio_devs)
    sem = ratio_devs.std(ddof=1) / np.sqrt(len(ratio_devs))
    mean_ok = abs(ratio_devs.mean()) <= 3 * sem + 1e-9
    seven_ok = seven is None or abs(
        seven - np.exp(logp0[67] - logp0[53])) < 1e-9
    ok = mean_ok and seven_ok and worst_ph < 1e-6 and n_doublet > 0
    report(capsys, ok, 6,
           f"wing doublet (z_p = 60): {n_doublet} doublets, weight-ratio "
           f"deviation {abs(ratio_devs.mean()):.2e} (3 sem bound), "
           f"photon-number dev {worst_ph:.2e} < 1e-6")


def test_criterion_7_width_laws(capsys):
    # maximum: FWHM ~ sqrt(2 ln2 / tau), checked where it spans > 1 grid unit
    snap_taus = (0.15, 0.35)
    ratios = []
    for i in range(20):
        rec = run_trajectory(P0, MAX_MODEL, seed=[99, i], max_tau=0.35,
                             stop_fwhm=0.0, sample_interval_tau=0.05,
                             snapshot_taus=snap_taus)
        for s in snap_taus:
            dist = rec.snapshots[s]
            peaks = _peaks(dist.probabilities[None], PEAK_WEIGHT_THRESHOLD)[1]
            if len(peaks) != 1:
                continue
            meas = fwhm_of_peak(dist, peaks[0])
            pred = predicted_widths(Scenario.MAXIMUM, m=rec.final_state.m,
                                    tau=s)
            ratios.append(meas / pred)
    max_mean = float(np.mean(ratios))
    max_ok = abs(max_mean - 1.0) < 0.3

    # transmission singlet: FWHM ~ 2 (kappa/u11) (2 ln2 / tau')^(1/4),
    # measured at the largest tau' where the peak still spans the grid
    tau_meas = 20.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pred = predicted_widths(Scenario.TRANSMISSION, m=1, tau=tau_meas,
                                kappa_over_u11=1.0)
    tratios = []
    for rec in transmission_ensemble():
        if rec.outcome.kind != "singlet":
            continue
        dist = rec.snapshots[tau_meas]
        peaks = _peaks(dist.probabilities[None], PEAK_WEIGHT_THRESHOLD)[1]
        if len(peaks) != 1:
            continue
        tratios.append(fwhm_of_peak(dist, peaks[0]) / pred)
    trans_mean = float(np.mean(tratios))
    trans_ok = len(tratios) > 0 and abs(trans_mean - 1.0) < 0.3
    report(capsys, max_ok and trans_ok, 7,
           f"width laws within 30% (ensemble mean measured/predicted): "
           f"maximum {max_mean:.2f} (n={len(ratios)}), "
           f"transmission singlet {trans_mean:.2f} (n={len(tratios)})")


def test_criterion_8_photon_statistics(capsys):
    # ensemble photocount histogram vs the mixture law, 10^3 trajectories
    tau = 0.002
    ms = [run_trajectory(P0, MAX_MODEL, seed=[555, i], max_tau=tau,
                         stop_fwhm=0.0,
                         sample_interval_tau=tau / 10).final_state.m
          for i in range(1000)]
    ms = np.array(ms)
    table = amplitude_table(MAX_MODEL, P0.z_values)
    c2 = abs(table.c_constant) ** 2
    t_phys = tau / (2 * c2 * MAX_MODEL.kappa)
    theory = photocount_distribution(P0, table, MAX_MODEL.kappa, t_phys)
    n_bins = len(theory.n_values)
    obs = np.bincount(np.minimum(ms, n_bins - 1),
                      minlength=n_bins).astype(float)
    pval = pooled_chisquare_p(obs, theory.probabilities * len(ms))

    mean_intensity = float(np.dot(table.intensity, P0.probabilities))
    mean_want = 2.0 * MAX_MODEL.kappa * t_phys * mean_intensity
    mean_dev = abs(ms.mean() - mean_want)
    mean_ok = mean_dev <= 3 * np.sqrt(theory.variance / len(ms))

    # per-trajectory Mandel Q at finalization (reduced units)
    worst_q = max(abs(rec.samples[-1].mandel_q_reduced)
                  for rec in maximum_ensemble())

    # the ensemble law is never sub-Poissonian
    rng = np.random.default_rng(77)
    fano_ok = True
    for _ in range(25):
        t = rng.uniform(1e-5, 1e-3)
        fano_ok &= photocount_distribution(
            P0, table, MAX_MODEL.kappa, t).fano >= 1.0 - 1e-9
    ok = pval > 0.01 and mean_ok and worst_q < 1e-3 and fano_ok
    report(capsys, ok, 8,
           f"photon statistics: chi2 p = {pval:.3f}, mean dev {mean_dev:.3f} "
           f"(3 sigma), final |Q| = {worst_q:.2e} < 1e-3, Fano >= 1")


def test_criterion_9_purity(capsys):
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(1000):
        L = int(rng.integers(0, 21))
        phi = rng.uniform(-np.pi, np.pi)
        rho = density_matrix(CatMixture(phi=phi, losses=L))
        worst = max(worst, abs(purity(L, phi)
                               - float(np.real(np.trace(rho @ rho)))))
    closed_ok = worst < 1e-12

    model = ProbeModel(Scenario.TRANSMISSION, kappa=1.0, u11=1.0, eta=1.0)
    grid = np.linspace(0.0, 10.0, 201)
    rows = purity_sweep((0, 1, 3, 10), grid, model)
    p_zero = rows[rows[:, 1] == 0][:, 2]
    zero_ok = np.allclose(p_zero, 1.0, atol=1e-12)
    half_ok = abs(purity(1, np.pi / 2) - 0.5) < 1e-12
    nonmono = True
    for L in (3, 10):
        vals = rows[rows[:, 1] == L][:, 2]
        d = np.diff(vals)
        nonmono &= bool((d < -1e-12).any() and (d > 1e-12).any())
    ok = closed_ok and zero_ok and half_ok and nonmono
    report(capsys, ok, 9,
           f"purity: closed form vs Tr(rho^2) dev {worst:.2e} < 1e-12, "
           f"P0 = 1, P1(pi/2) = 1/2, non-monotonic decay for L in 3,10")


def test_criterion_9_stated_guards_expected_failure(capsys):
    """Purity guards near small phi and along the splitting sweep.

    (a') For 1 <= L <= 20 and 0 < phi <= pi/(2(L+1)),
         P_L(phi) >= (1 + 4/pi^2)/2 ~ 0.7026.  Proof: with x = (L+1) phi
         <= pi/2, sin x >= 2x/pi and sin phi <= phi, so the ratio
         sin((L+1) phi) / ((L+1) sin phi) is at least 2/pi.  The bound is
         tight: at L = 20 the minimum on the range lies within 1e-3 of it.
         The stronger guard "phi < pi/(2L) => P_L > 0.8" does not hold:
         at L = 1 that range runs up to pi/2, where P_1 = (1 + cos^2 phi)/2
         falls to 1/2 (already P_1(pi/4) = 0.75).
    (b') Along the transmission sweep phi = -arctan(dz) stays inside
         (-pi/2, 0], so the L = 1 row, (1 + 1/(1 + dz^2))/2, decreases
         strictly.  For every L >= 2 the sweep crosses the zero of
         sin((L+1) phi) at |phi| = pi/(L+1) < pi/2 and the purity revives,
         so the L = 2..10 rows are non-monotonic.
    """
    bound = 0.5 * (1.0 + 4.0 / np.pi**2)
    minima = {L: min(purity(L, phi) for phi in
                     np.linspace(1e-6, np.pi / (2 * (L + 1)), 200))
              for L in range(1, 21)}
    worst_L = min(minima, key=minima.get)
    gap = minima[20] - bound
    guard_ok = minima[worst_L] >= bound and gap < 1e-3
    old_inf = min(purity(1, phi)
                  for phi in np.linspace(1e-6, np.pi / 2 * (1 - 1e-9), 200))
    counter_ok = (abs(purity(1, np.pi / 4) - 0.75) < 1e-12
                  and 0.5 <= old_inf < 0.5 + 1e-12)

    model = ProbeModel(Scenario.TRANSMISSION, kappa=1.0, u11=1.0, eta=1.0)
    dz = np.linspace(0.0, 10.0, 201)
    rows = purity_sweep(range(1, 11), dz, model)
    p1 = rows[rows[:, 1] == 1][:, 2]
    l1_ok = (np.allclose(p1, 0.5 * (1.0 + 1.0 / (1.0 + dz**2)),
                         rtol=0.0, atol=1e-12)
             and bool((np.diff(p1) < -1e-12).all()))
    nonmono = True
    for L in range(2, 11):
        d = np.diff(rows[rows[:, 1] == L][:, 2])
        nonmono &= bool((d < -1e-12).any() and (d > 1e-12).any())
    report(capsys, guard_ok and counter_ok and l1_ok and nonmono, 9,
           f"purity guards: min P_L = {minima[worst_L]:.4f} at L = {worst_L} "
           f">= (1 + 4/pi^2)/2 = {bound:.4f} for phi <= pi/(2(L+1)), "
           f"L = 20 gap {gap:.1e} < 1e-3; "
           f"old range phi < pi/2 at L = 1 reaches {old_inf:.4f}; "
           f"L = 1 sweep strictly decreasing: {l1_ok}; "
           f"L = 2..10 non-monotonic: {nonmono}")


def test_criterion_10_determinism(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "scenario = transmission\nn_atoms = 100\nn_sites = 100\n"
        "n_illuminated = 50\nkappa = 1.0\ndrive_scale = 1.0\n"
        "max_tau = 10.0\nkappa_over_u11 = 1.0\nz_p = 50\nseed = 3\n"
        "stop_fwhm = 0.0\nsample_interval_tau = 0.5\nsnapshots = 0,10\n")
    outs = [tmp_path / n for n in ("a", "b")]
    for out in outs:
        assert cli_main(["trajectory", "--config", str(cfg),
                         "--out", str(out)]) == 0
    names = ["trajectory.csv", "trajectory_outcome.json",
             "trajectory_snapshot_tau0.csv", "trajectory_snapshot_tau10.csv"]
    same = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
               for n in names)
    other = tmp_path / "c"
    assert cli_main(["trajectory", "--config", str(cfg), "--out", str(other),
                     "--seed", "99"]) == 0
    differs = ((outs[0] / "trajectory.csv").read_bytes()
               != (other / "trajectory.csv").read_bytes())
    report(capsys, same and differs, 10,
           "identical (config, seed) gives byte-identical CSV output; "
           "a different seed changes it")
