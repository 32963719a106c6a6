import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from latticemc import cli, trajectory
from latticemc.cli import (ConfigError, PRESET_NAMES, RunConfig, load_preset,
                           main, parse_config, probe_model)
from latticemc.geometry import Scenario
from latticemc.optics import amplitude_table
from latticemc.photostats import photocount_distribution
from latticemc.trajectory import run_trajectory
from reference import pooled_chisquare_p

GOOD = """
# transmission run
scenario = transmission
n_atoms = 100
n_sites = 100
n_illuminated = 50
kappa = 1.0
drive_scale = 1.0
max_tau = 10.0
kappa_over_u11 = 1.0
z_p = 50
seed = 3
stop_fwhm = 0.0
sample_interval_tau = 0.5
"""

MAXIMUM = """
scenario = maximum
n_atoms = 50
n_sites = 50
n_illuminated = 25
kappa = 1.0
drive_scale = 1.0
max_tau = 8.0
seed = 1
stop_fwhm = 0.0
sample_interval_tau = 0.5
"""


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_config_good():
    cfg = parse_config(GOOD)
    assert cfg.scenario is Scenario.TRANSMISSION
    assert cfg.n_atoms == 100
    assert cfg.z_p == 50.0
    assert cfg.seed == 3
    assert cfg.snapshots == ()


def test_parse_config_defaults():
    cfg = parse_config(MAXIMUM)
    assert cfg.stop_fwhm == 0.0
    assert cfg.loss_counts == (0, 1, 3, 10)
    assert cfg.n_traj == 1


def test_parse_config_error_cases():
    with pytest.raises(ConfigError, match="missing required"):
        parse_config("scenario = maximum")
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(GOOD + "\nbogus_key = 1\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(GOOD + "\nseed = 9\nseed = 10\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config(GOOD + "\njust a line\n")
    with pytest.raises(ConfigError, match="scenario"):
        parse_config(GOOD.replace("transmission", "sideways"))
    with pytest.raises(ConfigError, match="kappa_over_u11"):
        parse_config(GOOD.replace("kappa_over_u11 = 1.0\n", ""))
    with pytest.raises(ConfigError):
        parse_config(MAXIMUM.replace("max_tau = 8.0", "max_tau = -1"))
    with pytest.raises(ConfigError):
        parse_config(MAXIMUM.replace("scenario = maximum",
                                     "scenario = minimum"))


def test_presets_all_parse():
    for name in PRESET_NAMES:
        cfg = parse_config(load_preset(name))
        assert isinstance(cfg, RunConfig)
    with pytest.raises(ConfigError):
        load_preset("fig99")


def test_probe_model_translation():
    cfg = parse_config(GOOD)
    model = probe_model(cfg)
    assert model.u11 == pytest.approx(1.0)
    assert model.z_p == pytest.approx(50.0)
    assert abs(model.c_constant) == pytest.approx(1.0)
    model2 = probe_model(parse_config(MAXIMUM))
    assert abs(model2.c_constant) == pytest.approx(1.0)


def test_trajectory_command_outputs(tmp_path):
    cfg_path = write(tmp_path, GOOD + "snapshots = 0,0.5,10\n")
    out = tmp_path / "out"
    rc = main(["trajectory", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "trajectory_outcome.json").exists()
    for tau in ("0", "0.5", "10"):
        assert (out / f"trajectory_snapshot_tau{tau}.csv").exists()
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == ("t,tau,m,mean_z,width,cond_photons_reduced,"
                      "mandel_q_reduced")
    outcome = json.loads((out / "trajectory_outcome.json").read_text())
    assert outcome["kind"] in ("singlet", "doublet")
    snap = np.loadtxt(out / "trajectory_snapshot_tau0.csv", delimiter=",",
                      skiprows=1)
    assert snap[:, 1].sum() == pytest.approx(1.0, abs=1e-9)


def test_trajectory_deterministic_bytes(tmp_path):
    cfg_path = write(tmp_path, GOOD)
    out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
    assert main(["trajectory", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["trajectory", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    assert ((out_a / "trajectory.csv").read_bytes()
            == (out_b / "trajectory.csv").read_bytes())
    assert main(["trajectory", "--config", str(cfg_path), "--out", str(out_c),
                 "--seed", "99"]) == 0
    assert ((out_a / "trajectory.csv").read_bytes()
            != (out_c / "trajectory.csv").read_bytes())


def test_ensemble_command(tmp_path):
    cfg_path = write(tmp_path, MAXIMUM + "snapshots = 2\n")
    out = tmp_path / "out"
    rc = main(["ensemble", "--config", str(cfg_path), "--out", str(out),
               "--n-traj", "5"])
    assert rc == 0
    summary = json.loads((out / "ensemble_summary.json").read_text())
    assert summary["n_traj"] == 5
    assert sum(summary["outcomes"].values()) == 5
    lines = (out / "ensemble_outcomes.csv").read_text().splitlines()
    assert len(lines) == 6
    hist = np.loadtxt(out / "m_hist_tau2.csv", delimiter=",", skiprows=1)
    assert hist[:, 1].sum() == pytest.approx(1.0, abs=1e-9)
    assert hist[:, 2].sum() == pytest.approx(1.0, abs=1e-9)


def test_m_hist_rows_end_with_the_photocount_support(tmp_path):
    """With no sample past the support, an m_hist file has one row per point
    of the photocount law, and its empirical column is count / n."""
    cfg_path = write(tmp_path, MAXIMUM + "snapshots = 0,2,8\n")
    out = tmp_path / "out"
    n_traj = 5
    assert main(["ensemble", "--config", str(cfg_path), "--out", str(out),
                 "--n-traj", str(n_traj)]) == 0
    cfg = parse_config(MAXIMUM)
    p0, model = cli.initial_distribution(cfg), probe_model(cfg)
    records = [run_trajectory(p0, model, seed=[cfg.seed, i],
                              max_tau=cfg.max_tau, stop_fwhm=cfg.stop_fwhm,
                              sample_interval_tau=cfg.sample_interval_tau,
                              snapshot_taus=(0.0, 2.0, 8.0))
               for i in range(n_traj)]
    table = amplitude_table(model, p0.z_values)
    c2 = abs(table.c_constant) ** 2
    for tau in (0.0, 2.0, 8.0):
        law = photocount_distribution(p0, table, model.kappa,
                                      tau / (2.0 * c2 * model.kappa))
        support = len(law.n_values)
        samples = [int(r.m[r.snapshot_strides[tau]]) for r in records]
        assert max(samples) < support
        counts = np.bincount(samples, minlength=support)
        lines = (out / f"m_hist_tau{tau:g}.csv").read_text().splitlines()
        assert lines[0] == "m,empirical_probability,closed_form_probability"
        assert lines[1:] == [
            f"{m},{'%.17g' % (k / n_traj)},{'%.17g' % p}"
            for m, (k, p) in enumerate(zip(counts, law.probabilities))]


def test_m_hist_counts_every_member(tmp_path):
    """Each m_hist file histograms every member's count at its snapshot
    stride, stopped or not, so it follows the unconditional photocount law:
    fig2, fig3 and fig5 at 300 members and their own seeds, pooled chi-square
    p > 0.01 at every snapshot after the start."""
    n_traj = 300
    for preset in ("fig2", "fig3", "fig5"):
        out = tmp_path / preset
        assert main(["ensemble", "--preset", preset, "--n-traj", str(n_traj),
                     "--out", str(out)]) == 0
        cfg = parse_config(load_preset(preset))
        p0, model = cli.initial_distribution(cfg), probe_model(cfg)
        run = trajectory.run_ensemble(
            p0, model, [[cfg.seed, i] for i in range(n_traj)],
            max_tau=cfg.max_tau, stop_fwhm=cfg.stop_fwhm,
            sample_interval_tau=cfg.sample_interval_tau,
            snapshot_taus=cfg.snapshots)
        assert (run.stops < len(run.t) - 1).any()
        for tau, k in run.snapshot_strides:
            _, empirical, closed = np.loadtxt(
                out / f"m_hist_tau{tau:g}.csv", delimiter=",", skiprows=1,
                ndmin=2).T
            if tau > 0:
                assert pooled_chisquare_p(empirical * n_traj,
                                          closed * n_traj) > 0.01
            counts = np.bincount(run.m[:, k], minlength=len(empirical))
            assert empirical.tolist() == (counts / n_traj).tolist()


def config_text(config: dict) -> str:
    """A config file holding an echoed `config` dict."""
    return "".join(
        f"{key} = "
        f"{','.join(map(str, value)) if isinstance(value, list) else value}\n"
        for key, value in config.items() if value is not None)


def test_outputs_echo_the_config_that_ran(tmp_path):
    """`--seed` and `--n-traj` reach the echoed config: run from it with no
    flags, an ensemble writes the same bytes."""
    first = tmp_path / "first"
    assert main(["ensemble", "--preset", "fig2", "--n-traj", "3",
                 "--seed", "11", "--out", str(first)]) == 0
    config = json.loads((first / "ensemble_summary.json").read_text()
                        )["config"]
    assert (config["seed"], config["n_traj"]) == (11, 3)
    cfg_path = write(tmp_path, config_text(config))
    again = tmp_path / "again"
    assert main(["ensemble", "--config", str(cfg_path),
                 "--out", str(again)]) == 0
    for name in ("ensemble_outcomes.csv", "ensemble_summary.json",
                 "m_hist_tau14.6.csv"):
        assert (again / name).read_bytes() == (first / name).read_bytes()
    traj = tmp_path / "trajectory"
    assert main(["trajectory", "--preset", "fig2", "--seed", "5",
                 "--out", str(traj)]) == 0
    echoed = json.loads((traj / "trajectory_outcome.json").read_text())
    assert echoed["config"]["seed"] == 5


def test_ensemble_one_sample_per_trajectory_per_snapshot(tmp_path,
                                                         monkeypatch):
    # fig2's snapshots 0.7 and 14.6 lie 1e-16 from grid points; each counts
    # once
    seen = {}
    real = cli._m_histogram

    def spy(samples, closed):
        seen[len(seen)] = len(samples)
        return real(samples, closed)

    monkeypatch.setattr(cli, "_m_histogram", spy)
    out = tmp_path / "out"
    assert main(["ensemble", "--preset", "fig2", "--n-traj", "3",
                 "--seed", "11", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("m_hist_*")) == [
        "m_hist_tau0.7.csv", "m_hist_tau0.csv", "m_hist_tau1.1.csv",
        "m_hist_tau14.6.csv"]
    assert list(seen.values()) == [3, 3, 3, 3]


def test_ensemble_rows_equal_single_runs(tmp_path):
    """Ensemble row i is run_trajectory at seed [seed, i], to the byte."""
    out = tmp_path / "out"
    assert main(["ensemble", "--preset", "fig3", "--n-traj", "4",
                 "--seed", "17", "--out", str(out)]) == 0
    cfg = parse_config(load_preset("fig3"))
    p0 = cli.initial_distribution(cfg)
    rows = (out / "ensemble_outcomes.csv").read_text().splitlines()[1:]
    assert len(rows) == 4
    for i, row in enumerate(rows):
        rec = run_trajectory(p0, probe_model(cfg), seed=[17, i],
                             max_tau=cfg.max_tau, stop_fwhm=cfg.stop_fwhm,
                             sample_interval_tau=cfg.sample_interval_tau,
                             snapshot_taus=cfg.snapshots)
        o = rec.outcome
        assert row.split(",") == [
            str(i), o.kind, str(o.z1), "" if o.z2 is None else str(o.z2),
            str(rec.final_state.m), format(rec.final_state.tau, ".17g")]


def test_fig4_ensemble_writes_ambiguous_members_as_rows(tmp_path):
    """fig4 at the benchmark's first two seeds exits 0 with a row per member:
    a member whose single run raises is of kind `unclassifiable`, with the
    error's text, comma and all, as z1; the summary counts every kind."""
    cfg = parse_config(load_preset("fig4"))
    p0, model = cli.initial_distribution(cfg), probe_model(cfg)
    for seed in (3, 1003):
        out = tmp_path / str(seed)
        assert main(["ensemble", "--preset", "fig4", "--n-traj", "20",
                     "--seed", str(seed), "--out", str(out)]) == 0
        want = []
        for i in range(20):
            try:
                o = run_trajectory(p0, model, seed=[seed, i],
                                   max_tau=cfg.max_tau,
                                   stop_fwhm=cfg.stop_fwhm,
                                   sample_interval_tau=cfg.sample_interval_tau,
                                   snapshot_taus=cfg.snapshots).outcome
                want.append((o.kind, str(o.z1),
                             "" if o.z2 is None else str(o.z2)))
            except trajectory.ClassificationError as exc:
                want.append(("unclassifiable", str(exc), ""))
        with open(out / "ensemble_outcomes.csv", newline="") as fh:
            rows = [(r["kind"], r["z1"], r["z2"]) for r in csv.DictReader(fh)]
        assert rows == want
        kinds = [kind for kind, _, _ in want]
        assert "unclassifiable" in kinds
        summary = json.loads((out / "ensemble_summary.json").read_text())
        assert summary["outcomes"] == {
            kind: kinds.count(kind)
            for kind in ("singlet", "doublet", "unclassifiable")}
        assert len(list(out.glob("m_hist_tau*.csv"))) == len(cfg.snapshots)


def test_trajectory_aborts_on_an_ambiguous_member(tmp_path, capsys):
    """A fig4 `trajectory` run whose one member is ambiguous exits 4 with
    that member's error and writes no file."""
    cfg = parse_config(load_preset("fig4"))
    p0, model = cli.initial_distribution(cfg), probe_model(cfg)
    for seed in range(100):
        try:
            run_trajectory(p0, model, seed=[seed], max_tau=cfg.max_tau,
                           stop_fwhm=cfg.stop_fwhm,
                           sample_interval_tau=cfg.sample_interval_tau,
                           snapshot_taus=cfg.snapshots)
        except trajectory.ClassificationError as exc:
            error = exc
            break
    else:
        raise AssertionError("no fig4 member fails at seeds 0-99")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["trajectory", "--preset", "fig4", "--seed", str(seed),
                 "--out", str(out)]) == 4
    assert capsys.readouterr().err == f"classification ambiguity: {error}\n"
    assert not any(out.iterdir())


def test_ensemble_computes_no_observables(tmp_path, monkeypatch):
    """An ensemble reads only each member's counts, stop and outcome: it
    builds one posterior per member, its final state, besides those the
    stop check reads."""
    built, checked = [], []

    def posteriors(p, table, kappa, m, t):
        built.append(len(m))
        return posteriors_of(p, table, kappa, m, t)

    def stop_rows(p, *args):
        checked.append(len(p))
        return stop_rows_of(p, *args)

    posteriors_of, stop_rows_of = trajectory._posteriors, trajectory._stop_rows
    monkeypatch.setattr(trajectory, "_posteriors", posteriors)
    monkeypatch.setattr(trajectory, "_stop_rows", stop_rows)
    for preset in ("fig2", "fig3", "fig5"):
        built.clear()
        checked.clear()
        out = tmp_path / preset
        assert main(["ensemble", "--preset", preset, "--n-traj", "3",
                     "--seed", "11", "--out", str(out)]) == 0
        assert list(out.glob("m_hist_*"))
        assert 0 < sum(built) <= 3 + sum(checked)


DIGESTS = Path(__file__).parent / "data" / "output_digests.json"
DIGEST_RUNS = {
    **{f"{command} {preset}": [command, "--preset", preset, "--seed", "11",
                               *extra]
       for preset in ("fig2", "fig3", "fig4", "fig5")
       for command, extra in (("trajectory", []),
                              ("ensemble", ["--n-traj", "6"]))},
    "purity-sweep fig6": ["purity-sweep", "--preset", "fig6"],
}


def output_digests(out_root: Path) -> dict:
    """Exit code and sha256 of every file `trajectory` and `ensemble
    --n-traj 6` write on fig2-fig5 at seed 11, and `purity-sweep` on fig6."""
    digests = {}
    for name, argv in DIGEST_RUNS.items():
        out = out_root / name.replace(" ", "-")
        digests[name] = {
            "exit_code": main([*argv, "--out", str(out)]),
            "files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in sorted(out.glob("*"))}}
    return digests


def test_outputs_match_recorded_digests(tmp_path):
    """The commands' outputs keep their bytes; an intended change of the
    outputs records new digests with `PYTHONPATH=src python
    tests/test_cli.py`."""
    assert output_digests(tmp_path) == json.loads(DIGESTS.read_text())


# numpy's AVX-512 dispatch targets, and the largest relative change of a
# written float with them switched off (2.1e-14 measured on the digest
# commands' outputs)
AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
SIMD_RTOL = 1e-12


def simd_targets() -> list[str]:
    """numpy's dispatch targets that this host and setting turn on."""
    try:
        from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                                   __cpu_features__)
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import (__cpu_dispatch__,
                                                  __cpu_features__)
    return [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _output_values(path: Path):
    """A CSV file's rows of int, float and text cells, or a JSON file's
    value."""
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with open(path, newline="") as fh:
        return [[_cell(c) for c in row] for row in csv.reader(fh)]


def assert_close_values(got, want, where):
    """Equal structure, text and integers; floats within SIMD_RTOL.  A
    float column may print an integral value as an integer."""
    if isinstance(want, float) or isinstance(got, float):
        assert isinstance(got, (int, float)), where
        assert isinstance(want, (int, float)), where
        assert math.isclose(got, want, rel_tol=SIMD_RTOL, abs_tol=0.0), where
        return
    assert type(got) is type(want), where
    if isinstance(want, (list, dict)):
        assert len(got) == len(want), where
        if isinstance(want, dict):
            assert got.keys() == want.keys(), where
            got, want = got.values(), want.values()
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close_values(g, w, f"{where}[{i}]")
    else:
        assert got == want, where


@pytest.mark.skipif(not set(AVX512_TARGETS) & set(simd_targets()),
                    reason="numpy dispatches no AVX-512 kernel on this host, "
                           "so there is none to switch off")
def test_outputs_agree_without_avx512(tmp_path):
    """The digest commands, run again with numpy's AVX-512 kernels switched
    off (AVX2 at most), keep their exit codes, the ensemble outcomes and
    summary byte for byte, and every other file's rows, text and integers;
    their floats move by at most SIMD_RTOL.  Output bytes are per (package
    version, numpy version, SIMD level)."""
    native = {name: d["exit_code"]
              for name, d in output_digests(tmp_path / "native").items()}
    code = ("import json, sys; from pathlib import Path; "
            "from test_cli import output_digests; "
            "print(json.dumps({name: d['exit_code'] for name, d in "
            "output_digests(Path(sys.argv[1])).items()}))")
    tests = Path(__file__).parent
    env = {**os.environ,
           "NPY_DISABLE_CPU_FEATURES": " ".join(AVX512_TARGETS),
           "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"),
                                          str(tests)])}
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "avx2")],
                          check=True, capture_output=True, text=True, env=env)
    assert json.loads(done.stdout) == native
    for name in native:
        ours = tmp_path / "native" / name.replace(" ", "-")
        theirs = tmp_path / "avx2" / name.replace(" ", "-")
        files = sorted(p.name for p in ours.glob("*"))
        assert sorted(p.name for p in theirs.glob("*")) == files
        for f in files:
            if f in ("ensemble_outcomes.csv", "ensemble_summary.json"):
                assert (theirs / f).read_bytes() == (ours / f).read_bytes()
            else:
                assert_close_values(_output_values(theirs / f),
                                    _output_values(ours / f), f"{name}/{f}")


def _write_rows(path: Path, header: list[str], rows):
    """Reference CSV writer, one value at a time: integers in decimal,
    floats at 17 significant digits, strings as they are."""
    def text(x):
        if isinstance(x, str):
            return x
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return format(float(x), ".17g")

    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(text, row)) + "\n")


WRITER_VALUES = [0.0, -0.0, 5e-324, 1e-310, 1 / 3, 1e300, -2.5,
                 np.float64(1.7976931348623157e308), np.float64(-1e-300),
                 np.float64(123456789.123456789), 1.0, 1e16, 0.1]
# (chunk rows, rows): the hand-picked rows alone, and rows enough for the
# float kernel in every chunk
WRITER_CASES = {**{str(chunk): (chunk, 13) for chunk in [1, 3, 4, 13, 1 << 16]},
                "kernel": (1000, 5000)}


@pytest.mark.parametrize("chunk, n", WRITER_CASES.values(), ids=WRITER_CASES)
def test_column_writer_matches_row_writer(tmp_path, monkeypatch, chunk, n):
    monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", chunk)
    assert n == len(WRITER_VALUES) or chunk >= cli._KERNEL_MIN_VALUES
    ints = np.resize(np.array([0, -1, 2**62, -2**63, 2**63 - 1, 7, 10**18,
                               -5, 1, 2, 3, 4, 99], dtype=np.int64), n)
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2**64 - 1, size=n, dtype=np.uint64)
    rand = bits.view(np.float64)  # any sign and exponent
    values = list(WRITER_VALUES)
    if n == len(WRITER_VALUES):
        rand = np.where(np.isfinite(rand), rand, 0.5)
    else:  # either sign, zeros, non-finite, fixed and exponent notation
        more = 10.0 ** rng.uniform(-12, 22, n - len(values) - 6)
        more *= rng.choice([-1.0, 1.0], len(more))
        values += [*more.tolist(), 0.0, -0.0, math.nan, math.inf, -math.inf,
                   -1e-5]
        assert not np.isfinite(rand).all()
    floats = np.array(values, dtype=float)
    words = ((["singlet", "doublet", "", "52"] * 3 + ["x"]) * n)[:n]
    header = ["i", "x", "y", "kind"]
    _write_rows(tmp_path / "rows.csv", header,
                zip(ints, floats, rand, words))
    cli._write_columns(tmp_path / "cols.csv", header,
                       [ints, floats, rand, np.array(words)])
    want = (tmp_path / "rows.csv").read_bytes()
    assert (tmp_path / "cols.csv").read_bytes() == want
    assert want.count(b"\n") == n + 1
    assert b",-0," in want and b",4.9406564584124654e-324," in want
    # Python scalars in lists, as the trajectory writer passes them
    cli._write_columns(tmp_path / "lists.csv", header,
                       [[int(v) for v in ints], values, rand.tolist(), words])
    assert (tmp_path / "lists.csv").read_bytes() == want


def formatted(values: np.ndarray) -> list[bytes]:
    return [format(v, ".17g").encode() for v in values.tolist()]


def test_float_texts_match_format_on_random_bit_patterns():
    """1e6 float64 bit patterns: every sign and exponent, nan and inf."""
    rng = np.random.default_rng(2024)
    for _ in range(10):
        x = rng.integers(0, 2**64 - 1, size=100_000, dtype=np.uint64,
                         endpoint=True).view(np.float64)
        assert cli._float_texts(x) == formatted(x)


def exact_ties() -> list[float]:
    """Doubles whose 17th digit is a tie, which `%.17g` rounds half to
    even: j 2^-(q+1), j odd, times 10^q is j 5^q / 2, in the exponent
    layout where that has 17 digits (X = 16 - q, q in 21..24), and two in
    fixed notation, which round to ...6.2 and ...6.8."""
    ties = [1234567890123456.25, 1234567890123456.75]
    for q in range(21, 25):
        ties += [math.ldexp(j, -(q + 1)) for j in range(1, 1000, 2)
                 if 10**16 <= j * 5**q // 2 < 10**17]
    return ties


def near_ties() -> list[float]:
    """Doubles M 2^e in [10^(16+k), 10^(17+k)) whose 17-digit scaling
    M 2^e / 10^k lies 1/(2 5^k) from a tie, for k in 17..22: within the
    kernel's margin, and down to below its products' rounding error."""
    out = []
    for k in range(17, 23):
        f = 5**k
        for e in range(k, 140):
            inverse = pow(2 ** (e - k), -1, f)
            for r in ((f - 1) // 2, (f + 1) // 2):
                m0 = r * inverse % f
                first = m0 + (2**52 - m0 + f - 1) // f * f
                out += [float(m * 2**e) for m in range(first, 2**53, f)
                        if 10 ** (16 + k) <= m * 2**e < 10 ** (17 + k)]
    return out


def test_float_texts_match_format_on_hard_cases():
    rng = np.random.default_rng(5)
    ties, near = exact_ties(), near_ties()
    powers = np.array([float(f"1e{k}") for k in range(-330, 311)])
    short = [float(f"{m}e{k}") for m, k in zip(
        rng.integers(1, 10 ** rng.integers(1, 17, 4000)),
        rng.integers(-300, 300, 4000))]  # 1 to 16 trailing zeros
    subnormal = rng.integers(1, 2**52, 1000, dtype=np.uint64).view(np.float64)
    cases = np.concatenate([
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        [math.ldexp(1.0, k) for k in range(-1074, 1024)], short,
        ties, near, subnormal, [2.2250738585072014e-308,
        2.2250738585072009e-308, 1.7976931348623157e308, 0.0, math.nan,
        math.inf]])
    assert len(near) > 1000
    for x in (cases, -cases):
        assert cli._float_texts(x) == formatted(x)
    texts = dict(zip(ties[:2], cli._float_texts(np.array(ties))[:2]))
    assert texts == {1234567890123456.25: b"1234567890123456.2",
                     1234567890123456.75: b"1234567890123456.8"}


@pytest.mark.parametrize("shift", [-0.3, 0.3])
def test_float_texts_survive_a_wrong_exponent_seed(monkeypatch, shift):
    """`log10` only seeds the decimal exponent X: where it is one off, the
    17 digits fall outside [10^16, 10^17) and `%.17g` writes the value."""
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    x = np.random.default_rng(11).integers(
        0, 2**64 - 1, size=100_000, dtype=np.uint64).view(np.float64)
    undecided = cli._exponent_texts(x)[1]
    assert 0.1 < len(undecided) / len(x) < 0.9
    assert cli._float_texts(x) == formatted(x)


MAX_COLLAPSE = """
scenario = maximum
n_atoms = 100
n_sites = 100
n_illuminated = 50
kappa = 1.0
drive_scale = 1.0
max_tau = 30
stop_fwhm = 0
sample_interval_tau = 0.25
snapshots = 0.5,5,30
"""


def closed_form_columns(text: str) -> dict[float, np.ndarray]:
    """Per snapshot tau, the closed-form column of the m_hist file that
    `ensemble` writes for a config."""
    cfg = parse_config(text)
    p0, model = cli.initial_distribution(cfg), probe_model(cfg)
    run = trajectory.run_ensemble(
        p0, model, [[0, 0]], max_tau=cfg.max_tau, stop_fwhm=cfg.stop_fwhm,
        sample_interval_tau=cfg.sample_interval_tau,
        snapshot_taus=cfg.snapshots)
    table = amplitude_table(model, p0.z_values)
    return {tau: photocount_distribution(p0, table, model.kappa,
                                         run.t[k]).probabilities
            for tau, k in run.snapshot_strides}


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5",
                                  "max-collapse"])
def test_float_texts_match_format_on_the_closed_form_columns(name):
    text = MAX_COLLAPSE if name == "max-collapse" else load_preset(name)
    for column in closed_form_columns(text).values():
        assert cli._float_texts(column) == formatted(column)


def test_float_kernel_decides_the_max_collapse_column():
    """A kernel that left every value to `%.17g` would write the same
    bytes, only slower: at tau = 30, 217 449 values, it decides >= 99%."""
    column = closed_form_columns(MAX_COLLAPSE)[30.0]
    texts, undecided = cli._exponent_texts(column)
    assert len(column) > 200_000
    assert len(undecided) <= 0.01 * len(column)
    decided = np.delete(np.arange(len(column)), undecided)
    assert ([texts[i] for i in decided]
            == formatted(column[decided]))


def test_column_writer_empty(tmp_path):
    _write_rows(tmp_path / "rows.csv", ["a", "b"], [])
    cli._write_columns(tmp_path / "cols.csv", ["a", "b"],
                       [np.zeros(0, dtype=int), np.zeros(0)])
    assert ((tmp_path / "cols.csv").read_bytes()
            == (tmp_path / "rows.csv").read_bytes() == b"a,b\n")


def test_column_writer_rejects_unequal_lengths(tmp_path):
    # a row per cell of the shortest column would drop the others' tails
    with pytest.raises(ValueError, match=r"unequal lengths \[3, 2, 3\]"):
        cli._write_columns(tmp_path / "cols.csv", ["a", "b", "c"],
                           [np.arange(3), np.zeros(2), ["x", "y", "z"]])
    assert not (tmp_path / "cols.csv").exists()


@pytest.mark.parametrize("flag", ["", " "])
def test_blank_snapshots_flag_clears_the_config_snapshots(tmp_path, flag):
    """Any `--snapshots` value overrides the config's, a blank one too:
    fig2's four snapshots are neither written nor echoed."""
    assert main(["ensemble", "--preset", "fig2", "--n-traj", "2",
                 "--snapshots", flag, "--out", str(tmp_path)]) == 0
    assert not list(tmp_path.glob("m_hist_tau*.csv"))
    summary = json.loads((tmp_path / "ensemble_summary.json").read_text())
    assert summary["config"]["snapshots"] == []


def test_a_snapshots_list_that_starts_with_minus_takes_the_equals_form(
        tmp_path, capsys):
    """argparse reads the `-0,0.7` of `--snapshots -0,0.7` as an option and
    exits 2; `--snapshots=-0,0.7`, as the help says, runs."""
    with pytest.raises(SystemExit) as exc:
        main(["ensemble", "--preset", "fig2", "--snapshots", "-0,0.7",
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
    assert main(["ensemble", "--preset", "fig2", "--n-traj", "2",
                 "--snapshots=-0,0.7", "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.glob("m_hist_tau*.csv")) == [
        "m_hist_tau0.7.csv", "m_hist_tau0.csv"]


@pytest.mark.parametrize("command", ["ensemble", "trajectory"])
def test_a_negative_zero_snapshot_is_the_zero_snapshot(tmp_path, command):
    """`snapshots = -0,0.7` writes the file names and data bytes that
    `0,0.7` writes: no `_tau-0` file.  Only the echoed config differs."""
    outputs = []
    for snapshots in ("-0,0.7", "0,0.7"):
        text = load_preset("fig2").replace("snapshots = 0,0.7,1.1,14.6",
                                           f"snapshots = {snapshots}")
        assert f"snapshots = {snapshots}\n" in text
        out = tmp_path / snapshots
        n_traj = ["--n-traj", "5"] if command == "ensemble" else []
        assert main([command, "--config", str(write(tmp_path, text)),
                     "--out", str(out), *n_traj]) == 0
        files = {}
        for path in sorted(out.iterdir()):
            if path.suffix == ".json":
                files[path.name] = {**json.loads(path.read_text()),
                                    "config": None}
            else:
                files[path.name] = path.read_bytes()
        outputs.append(files)
    assert "tau0.csv" in "".join(outputs[1])
    assert outputs[0] == outputs[1]


def test_purity_sweep_command(tmp_path):
    out = tmp_path / "out"
    rc = main(["purity-sweep", "--preset", "fig6", "--out", str(out)])
    assert rc == 0
    rows = np.loadtxt(out / "purity_sweep.csv", delimiter=",", skiprows=1)
    cfg = parse_config(load_preset("fig6"))
    assert rows.shape == (cfg.delta_z_points * len(cfg.loss_counts), 3)
    zero_loss = rows[rows[:, 1] == 0]
    np.testing.assert_allclose(zero_loss[:, 2], 1.0, atol=1e-12)


def test_purity_sweep_requires_transmission(tmp_path):
    cfg_path = write(tmp_path, MAXIMUM)
    rc = main(["purity-sweep", "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    assert rc == 2


def test_config_error_exit_code(tmp_path):
    cfg_path = write(tmp_path, GOOD + "\nbogus = 1\n")
    rc = main(["trajectory", "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    rc = main(["trajectory", "--config", str(tmp_path / "missing.cfg"),
               "--out", str(tmp_path / "out")])
    assert rc == 2


BAD_INPUTS = {
    "interval-zero": (MAXIMUM.replace("sample_interval_tau = 0.5",
                                      "sample_interval_tau = 0"), []),
    "interval-negative": (MAXIMUM.replace("sample_interval_tau = 0.5",
                                          "sample_interval_tau = -1"), []),
    "interval-tiny": (MAXIMUM.replace("sample_interval_tau = 0.5",
                                      "sample_interval_tau = 1e-300"), []),
    "interval-past-limit": (MAXIMUM.replace(
        "sample_interval_tau = 0.5", "sample_interval_tau = %r"
        % (8.0 / (trajectory._MAX_STRIDES + 1))), []),
    "seed-negative": (MAXIMUM.replace("seed = 1", "seed = -1"), []),
    "seed-flag-negative": (MAXIMUM, ["--seed", "-1"]),
    "seed-flag-text": (MAXIMUM, ["--seed", "abc"]),
    "n-traj-flag-zero": (MAXIMUM, ["--n-traj", "0"]),
    "n-traj-flag-float": (MAXIMUM, ["--n-traj", "2.5"]),
    "snapshots-flag-text": (MAXIMUM, ["--snapshots", "abc"]),
    "snapshots-negative": (MAXIMUM + "snapshots = -1,2\n", []),
    "snapshots-flag-past-max-tau": (MAXIMUM, ["--snapshots", "5,999"]),
    "state-file-malformed": (MAXIMUM + "initial_state = file\n"
                             "initial_state_file = {tmp}/p0.txt\n", []),
    "loss-counts-negative": (MAXIMUM + "loss_counts = 0,-1\n", []),
    "delta-z-points-negative": (MAXIMUM + "delta_z_points = -5\n", []),
    "mott-not-unit-filling": (MAXIMUM.replace("n_atoms = 50", "n_atoms = 40")
                              + "initial_state = mott\n", []),
    "max-tau-inf": (MAXIMUM.replace("max_tau = 8.0", "max_tau = inf"), []),
    "kappa-inf": (GOOD.replace("kappa = 1.0", "kappa = inf"), []),
    "drive-scale-inf": (GOOD.replace("drive_scale = 1.0",
                                     "drive_scale = inf"), []),
    "z-p-nan": (GOOD.replace("z_p = 50", "z_p = nan"), []),
    "kappa-over-u11-inf": (GOOD.replace("kappa_over_u11 = 1.0",
                                        "kappa_over_u11 = inf"), []),
    "stop-fwhm-nan": (MAXIMUM.replace("stop_fwhm = 0.0", "stop_fwhm = nan"),
                      []),
    "stop-fwhm-negative": (MAXIMUM.replace("stop_fwhm = 0.0",
                                           "stop_fwhm = -1"), []),
    "delta-z-max-nan": (MAXIMUM + "delta_z_max = nan\n", []),
}


@pytest.mark.parametrize("text,flags", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_bad_input_is_a_config_error(tmp_path, capsys, text, flags):
    """Every bad config value or flag exits 2 with a one-line message."""
    (tmp_path / "p0.txt").write_text("0 0.5\n1 abc\n")
    cfg_path = write(tmp_path, text.replace("{tmp}", str(tmp_path)))
    out = tmp_path / "out"
    rc = main(["ensemble", "--config", str(cfg_path), "--out", str(out),
               *flags])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize("case", ["config-is-a-directory", "config-not-utf8",
                                  "state-file-is-a-directory"])
def test_unreadable_input_is_a_config_error(tmp_path, capsys, case):
    """A config or initial-state file that cannot be read as text exits 2
    with a one-line message, as a missing one does."""
    cfg_path = tmp_path / "run.cfg"
    if case == "config-is-a-directory":
        cfg_path = tmp_path
    elif case == "config-not-utf8":
        cfg_path.write_bytes(MAXIMUM.encode() + b"# \xff\n")
    else:
        write(tmp_path, MAXIMUM + "initial_state = file\n"
              f"initial_state_file = {tmp_path}\n")
    out = tmp_path / "out"
    rc = main(["ensemble", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


def test_a_flag_is_the_same_key_in_the_file():
    """Flag text replaces the file's value text before the one cast and
    check of every value."""
    text = MAXIMUM.replace("seed = 1\n", "")
    assert (parse_config(text, {"seed": "4", "snapshots": "1,2"})
            == parse_config(text + "seed = 4\nsnapshots = 1,2\n"))
    assert parse_config(MAXIMUM, {"seed": "4"}).seed == 4


def test_ensemble_flags_rebuild_no_initial_state(tmp_path, monkeypatch):
    """`--seed`, `--n-traj` and `--snapshots` are parsed with the config:
    p0 is built once to validate the config and once to run it."""
    builds = []
    real = cli.initial_distribution
    monkeypatch.setattr(cli, "initial_distribution",
                        lambda cfg: builds.append(cfg) or real(cfg))
    assert main(["ensemble", "--preset", "fig2", "--n-traj", "2", "--seed",
                 "4", "--snapshots", "1", "--out", str(tmp_path)]) == 0
    assert len(builds) == 2


def test_initial_state_file_roundtrip(tmp_path):
    from latticemc.geometry import LatticeSpec
    from latticemc.states import superfluid_atom_number
    dist = superfluid_atom_number(LatticeSpec(100, 100, 50))
    dist_path = tmp_path / "p0.txt"
    np.savetxt(dist_path, np.column_stack([dist.z_values,
                                           dist.probabilities]))
    text = GOOD + f"initial_state = file\ninitial_state_file = {dist_path}\n"
    cfg_path = write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["trajectory", "--config", str(cfg_path),
                 "--out", str(out)]) == 0


@pytest.mark.parametrize("command", ["oracle-check", "purity-sweep"])
def test_seed_flag_is_only_for_sampling_commands(tmp_path, command):
    """`oracle-check` and `purity-sweep` draw nothing, so `--seed` is a
    usage error there (exit 2)."""
    preset = ["--preset", "fig6"] if command == "purity-sweep" else []
    with pytest.raises(SystemExit) as exc:
        main([command, *preset, "--seed", "1", "--out", str(tmp_path)])
    assert exc.value.code == 2


MINIMUM = """
scenario = minimum
n_atoms = 100
n_sites = 100
n_illuminated = 100
kappa = 1.0
drive_scale = 1.0
max_tau = 30
seed = 5
stop_fwhm = 0.5
"""


def test_minimum_collapse_onto_dark_z_is_a_singlet_row(tmp_path):
    """A member with no count has collapsed onto the dark z = 0: its row is
    a singlet at z1 = 0, and every other row a doublet z1 = -z2 > 0."""
    out = tmp_path / "out"
    assert main(["ensemble", "--config", str(write(tmp_path, MINIMUM)),
                 "--n-traj", "40", "--out", str(out)]) == 0
    with open(out / "ensemble_outcomes.csv", newline="") as fh:
        rows = [(r["kind"], r["z1"], r["z2"], r["m"])
                for r in csv.DictReader(fh)]
    dark = [r for r in rows if r[3] == "0"]
    assert dark and all(r[:3] == ("singlet", "0", "") for r in dark)
    assert all(kind == "doublet" and int(z1) == -int(z2) > 0
               for kind, z1, z2, m in rows if m != "0")
    summary = json.loads((out / "ensemble_summary.json").read_text())
    assert summary["outcomes"]["singlet"] == len(dark)


def test_written_tau_is_a_grid_tau(tmp_path):
    """At drive_scale 0.3 on fig2 (2 kappa |C|^2 = 0.18), every tau that
    `ensemble` and `trajectory` write is a tau of the recording grid, and
    each m_hist closed-form column is `photocount_distribution` at its
    stride's time t, bit for bit."""
    text = load_preset("fig2").replace("drive_scale = 1.0", "drive_scale = 0.3")
    cfg_path, cfg, n_traj = write(tmp_path, text), parse_config(text), 50
    assert cfg.drive_scale == 0.3
    p0, model = cli.initial_distribution(cfg), probe_model(cfg)
    table = amplitude_table(model, p0.z_values)
    taus = trajectory._recording_grid(cfg.max_tau, cfg.sample_interval_tau,
                                      cfg.snapshots)[0].tolist()
    run = trajectory.run_ensemble(
        p0, model, [[cfg.seed, i] for i in range(n_traj)],
        max_tau=cfg.max_tau, stop_fwhm=cfg.stop_fwhm,
        sample_interval_tau=cfg.sample_interval_tau,
        snapshot_taus=cfg.snapshots)
    out = tmp_path / "ensemble"
    assert main(["ensemble", "--config", str(cfg_path), "--n-traj",
                 str(n_traj), "--out", str(out)]) == 0
    with open(out / "ensemble_outcomes.csv", newline="") as fh:
        written = [float(r["tau"]) for r in csv.DictReader(fh)]
    assert written == [taus[k] for k in run.stops]
    for tau, k in run.snapshot_strides:
        with open(out / f"m_hist_tau{tau:g}.csv", newline="") as fh:
            closed = [float(r["closed_form_probability"])
                      for r in csv.DictReader(fh)]
        law = photocount_distribution(p0, table, model.kappa, run.t[k])
        n = len(law.probabilities)
        assert closed[:n] == law.probabilities.tolist()
        assert not any(closed[n:])
    out = tmp_path / "trajectory"
    assert main(["trajectory", "--config", str(cfg_path), "--out",
                 str(out)]) == 0
    with open(out / "trajectory.csv", newline="") as fh:
        written = [float(r["tau"]) for r in csv.DictReader(fh)]
    assert written == taus[:len(written)]
    outcome = json.loads((out / "trajectory_outcome.json").read_text())
    assert outcome["tau"] == written[-1]


def test_oracle_check_command(tmp_path):
    out = tmp_path / "out"
    rc = main(["oracle-check", "--out", str(out)])
    assert rc == 0
    lines = (out / "oracle_check.csv").read_text().splitlines()
    assert lines[0] == "n_atoms,scenario,max_abs_deviation"
    assert all(float(line.split(",")[2]) < 1e-6 for line in lines[1:])


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        digests = output_digests(Path(tmp))
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
