"""The benchmark's workloads: generated inputs, operations and output checks.

An operation is one `latticemc ensemble` invocation or one oracle case.
Each workload is a fixed list of operations (a "pass") that the client
repeats, closed loop, until the run time is used up.  Inputs depend only on
the workload seed and the pass index; workload seed 0, pass 0 reproduces
the shipped preset seeds, and the oracle-check jump times at every pass.

The output checks hold for any exact sampler of the photocount record,
because they compare written outputs with closed forms evaluated at the
written (m, tau), never with a particular random stream.
"""

from __future__ import annotations

import csv
import json
import shutil
import time
import traceback
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from latticemc import cli, oracle, photostats, optics, trajectory

PRESETS = ("fig2", "fig3", "fig4", "fig5")
PRESET_N_TRAJ = 20
MAX_COLLAPSE_N_TRAJ = 40
MAX_COLLAPSE_CONFIG = """\
# Maximum scenario run to the horizon: about 1e5 counts per trajectory.
scenario = maximum
n_atoms = 100
n_sites = 100
n_illuminated = 50
kappa = 1.0
drive_scale = 1.0
initial_state = superfluid
seed = 0
max_tau = 30
stop_fwhm = 0
sample_interval_tau = 0.25
snapshots = 0.5,5,30
"""
# The oracle-check case set: N in {2, 3}, M = 2, K = 1, n_max = 4.
ORACLE_CASES = [(n, scenario) for n in (2, 3)
                for scenario in ("transmission", "maximum")]
ORACLE_CONFIG = """\
scenario = {scenario}
n_atoms = {n_atoms}
n_sites = 2
n_illuminated = 1
kappa = 1.0
kappa_over_u11 = 1.0
z_p = 1
drive_scale = 1e-4
max_tau = 1
"""
ORACLE_JUMPS = (16.0, 18.5)
ORACLE_T_END = 20.0
ORACLE_N_MAX = 4
ORACLE_TOL = 1e-6
# The closed-form column of an m_hist file is recomputed here; allow only
# rounding differences in how the program derives t from tau.
HIST_TOL = 1e-12


def recording_grid(max_tau: float, sample_interval_tau: float | None,
                   snapshot_taus) -> np.ndarray:
    """The tau grid `run_trajectory` records on: strides plus snapshot times."""
    interval = sample_interval_tau or max_tau / 400.0
    n_steps = max(1, int(np.ceil(max_tau / interval)))
    taus = np.unique(np.concatenate([
        np.linspace(0.0, max_tau, n_steps + 1),
        np.asarray(sorted(set(float(s) for s in snapshot_taus)))]))
    return taus[(taus >= 0) & (taus <= max_tau)]


def ensemble_seed(base: int, seed: int, pass_index: int) -> int:
    """Seed of one ensemble: the config's own seed at workload seed 0, pass 0."""
    return base + 1000 * pass_index + 1_000_000 * seed


def oracle_jumps(seed: int) -> tuple[float, float]:
    if seed == 0:
        return ORACLE_JUMPS
    rng = np.random.default_rng([seed, 0x0AC1E])
    return tuple(sorted(round(float(x), 3) for x in rng.uniform(10.0, 19.5, 2)))


@dataclass
class Outcome:
    """What one operation produced, as the checks and metrics need it."""

    exit_code: int
    trajectories: int = 0  # trajectories in written, checked outputs
    strides: int = 0  # their recording strides, up to each final tau
    grid_strides: int = 0  # their recording strides had none stopped early
    problems: list[str] = field(default_factory=list)
    output_bytes: int = 0
    result: tuple = ()  # oracle: the reduced and exact z distributions


@dataclass
class Operation:
    label: str
    run: Callable[[Path], Outcome]
    check: Callable[[Path, Outcome], None]


class Workload:
    """Generated configs (for set-up timing) and the operations of each pass."""

    def __init__(self, name: str, seed: int, work_dir: Path):
        self.name = name
        self.seed = seed
        self.configs: dict[str, str] = {}
        if name == "presets":
            for preset in PRESETS:
                self.configs[preset] = cli.load_preset(preset)
        elif name == "max-collapse":
            self.configs["max-collapse"] = MAX_COLLAPSE_CONFIG
        else:
            for n_atoms, scenario in ORACLE_CASES:
                self.configs[f"N{n_atoms}-{scenario}"] = ORACLE_CONFIG.format(
                    n_atoms=n_atoms, scenario=scenario)
        self.parsed = {label: cli.parse_config(text)
                       for label, text in self.configs.items()}
        self._fresh: dict[tuple[str, float], np.ndarray] = {}
        work_dir.mkdir(parents=True, exist_ok=True)
        self.config_paths = {}
        for label, text in self.configs.items():
            path = work_dir / f"{label}.cfg"
            path.write_text(text)
            self.config_paths[label] = path

    def operations(self, pass_index: int) -> list[Operation]:
        if self.name == "oracle":
            jumps = oracle_jumps(self.seed)
            return [self._oracle_case(label, jumps) for label in self.configs]
        n_traj = PRESET_N_TRAJ if self.name == "presets" else MAX_COLLAPSE_N_TRAJ
        return [self._ensemble(label, n_traj,
                               ensemble_seed(cfg.seed, self.seed, pass_index))
                for label, cfg in self.parsed.items()]

    def seeds(self) -> dict[str, object]:
        """Derived program inputs of pass 0, for the results file."""
        if self.name == "oracle":
            return {"jump_times": list(oracle_jumps(self.seed)),
                    "t_end": ORACLE_T_END}
        return {label: ensemble_seed(cfg.seed, self.seed, 0)
                for label, cfg in self.parsed.items()}

    # ensembles -----------------------------------------------------------

    def _ensemble(self, label: str, n_traj: int, seed: int) -> Operation:
        argv = ["ensemble", "--config", str(self.config_paths[label]),
                "--n-traj", str(n_traj), "--seed", str(seed)]

        def run(out: Path) -> Outcome:
            return Outcome(exit_code=cli.main(argv + ["--out", str(out)]))

        def check(out: Path, outcome: Outcome):
            outcome.output_bytes = sum(p.stat().st_size
                                       for p in out.glob("*") if p.is_file())
            if outcome.exit_code == 0:
                self._check_ensemble(label, n_traj, out, outcome)

        return Operation(f"{label}", run, check)

    def _model(self, label: str):
        cfg = self.parsed[label]
        p0 = cli.initial_distribution(cfg)
        model = cli.probe_model(cfg)
        table = optics.amplitude_table(model, p0.z_values)
        return cfg, p0, model, table

    def _check_ensemble(self, label: str, n_traj: int, out: Path,
                        outcome: Outcome):
        problems = outcome.problems
        summary_path = out / "ensemble_summary.json"
        outcomes_path = out / "ensemble_outcomes.csv"
        for path in (summary_path, outcomes_path):
            if not path.is_file():
                problems.append(f"missing output {path.name}")
        if problems:
            return
        with open(summary_path) as fh:
            summary = json.load(fh)
        if summary.get("n_traj") != n_traj:
            problems.append(f"summary n_traj {summary.get('n_traj')} != {n_traj}")
        with open(outcomes_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != n_traj:
            problems.append(f"{len(rows)} outcome rows, expected {n_traj}")

        cfg, p0, model, table = self._model(label)
        tau_to_t = 1.0 / (2.0 * abs(table.c_constant) ** 2 * model.kappa)
        final = []
        for row in rows:
            m, tau = int(row["m"]), float(row["tau"])
            final.append((m, tau))
            t = tau * tau_to_t
            dist = trajectory.closed_form_distribution(p0, table, model.kappa,
                                                       m, t)
            state = types.SimpleNamespace(dist=dist, m=m, t=t, tau=tau)
            try:
                o = trajectory.classify_outcome(state, model)
                got = (o.kind, str(o.z1), "" if o.z2 is None else str(o.z2))
            except trajectory.ClassificationError as exc:
                got = ("unclassifiable", str(exc), "")
            want = (row["kind"], row["z1"], row["z2"])
            if got != want:
                problems.append(f"trajectory {row['trajectory']}: written "
                                f"{want}, closed form at m={m} tau={tau} "
                                f"gives {got}")

        for tau in cfg.snapshots:
            reached = [m for m, end in final if end >= tau or np.isclose(end, tau)]
            path = out / f"m_hist_tau{tau:g}.csv"
            if not reached:
                continue
            if not path.is_file():
                problems.append(f"missing output {path.name}")
                continue
            self._check_hist(label, tau, tau_to_t, path, reached,
                             np.isclose(tau, cfg.max_tau), problems)
        if not problems:
            grid = recording_grid(cfg.max_tau, cfg.sample_interval_tau,
                                  cfg.snapshots)[1:]
            outcome.trajectories = len(rows)
            outcome.strides = sum(
                int(np.count_nonzero((grid <= end) | np.isclose(grid, end)))
                for _, end in final)
            outcome.grid_strides = len(rows) * len(grid)

    def _check_hist(self, label, tau, tau_to_t, path, reached, at_end,
                    problems):
        key = (label, tau)
        if key not in self._fresh:
            _, p0, model, table = self._model(label)
            self._fresh[key] = photostats.photocount_distribution(
                p0, table, model.kappa, tau * tau_to_t).probabilities
        fresh = self._fresh[key]
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if header != ["m", "empirical_probability", "closed_form_probability"]:
            problems.append(f"{path.name}: header {header}")
            return
        m, emp, closed = data.T
        name = path.name
        if not np.array_equal(m, np.arange(len(m))):
            problems.append(f"{name}: m column is not 0..{len(m) - 1}")
        if len(closed) < len(fresh):
            problems.append(f"{name}: {len(closed)} rows, closed-form support "
                            f"has {len(fresh)}")
            return
        dev = max(float(np.abs(closed[:len(fresh)] - fresh).max()),
                  float(np.abs(closed[len(fresh):]).max(initial=0.0)))
        if dev > HIST_TOL:
            problems.append(f"{name}: closed_form_probability deviates from "
                            f"photocount_distribution by {dev:.3g}")
        if abs(emp.sum() - 1.0) > 1e-9:
            problems.append(f"{name}: empirical column sums to {emp.sum()!r}")
        if at_end:
            # every member ends at max_tau, so its final m is the sample here
            want = np.bincount(reached, minlength=len(emp)) / len(reached)
            if len(want) != len(emp) or np.abs(want - emp).max() > 1e-12:
                problems.append(f"{name}: empirical column disagrees with the "
                                f"final m of ensemble_outcomes.csv")

    # oracle --------------------------------------------------------------

    def _oracle_case(self, label: str, jumps) -> Operation:
        cfg = self.parsed[label]

        def run(out: Path) -> Outcome:
            spec = cli.lattice_spec(cfg)
            model = cli.probe_model(cfg)
            joint = oracle.run_script(
                oracle.superfluid_joint_state(spec, n_max=ORACLE_N_MAX),
                model, spec, jumps, ORACLE_T_END)
            reduced = oracle.z_marginal(joint, cfg.scenario, spec)
            exact = trajectory.exact_distribution(
                cli.initial_distribution(cfg), model, jumps, ORACLE_T_END)
            return Outcome(exit_code=0, result=(reduced, exact))

        def check(out: Path, outcome: Outcome):
            reduced, exact = outcome.result
            with open(out / "distributions.csv", "w") as fh:
                fh.write("z,oracle,exact\n")
                for row in zip(exact.z_values, reduced.probabilities,
                               exact.probabilities):
                    fh.write(",".join(repr(float(v)) for v in row) + "\n")
            dev = float(np.abs(reduced.probabilities
                               - exact.probabilities).max())
            if not dev < ORACLE_TOL:
                outcome.problems.append(f"{label}: max |dp| = {dev:.3e} "
                                        f">= {ORACLE_TOL:g}")
            else:
                outcome.trajectories = outcome.strides = outcome.grid_strides = 1

        return Operation(f"oracle:{label}", run, check)


class Client:
    """One closed-loop client: runs operations one after another, checks
    each one's outputs before the next starts, and keeps a record of each."""

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self.records: list[dict] = []

    def execute(self, op: Operation, pass_index: int, out: Path, tracer=None):
        clear(out)
        out.mkdir(parents=True)
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            outcome = op.run(out)
        except Exception:  # an operation that crashes counts as failed
            outcome = Outcome(exit_code=-1,
                              problems=[traceback.format_exc().strip()])
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        if not outcome.problems:
            try:
                op.check(out, outcome)
            except Exception:  # a check that crashes is a failed check
                outcome.problems.append(
                    "output check raised: " + traceback.format_exc().strip())
        record = {"op": op.label, "pass": pass_index,
                  "traced": tracer is not None, "wall_s": wall,
                  "exit_code": outcome.exit_code,
                  "ok": outcome.exit_code == 0 and not outcome.problems,
                  "trajectories": outcome.trajectories,
                  "strides": outcome.strides,
                  "grid_strides": outcome.grid_strides,
                  "output_bytes": outcome.output_bytes,
                  "problems": outcome.problems}
        self.records.append(record)
        return record, outcome

    def run_passes(self, workload: Workload, seconds: float, tracer=None) -> int:
        """Repeat whole passes while the next one should end by `seconds`.

        With a tracer, each operation runs untraced and then traced on the
        same inputs; the two must give identical outputs.
        """
        start = time.perf_counter()
        passes = 0
        while True:
            for op in workload.operations(passes):
                plain_dir = self.work_dir / "plain"
                plain, _ = self.execute(op, passes, plain_dir)
                if tracer is None:
                    continue
                traced_dir = self.work_dir / "traced"
                traced, _ = self.execute(op, passes, traced_dir, tracer)
                if not (plain["exit_code"] == traced["exit_code"]
                        and same_outputs(plain_dir, traced_dir)):
                    traced["problems"].append(
                        "traced outputs differ from untraced")
                    traced["ok"] = False
            passes += 1
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / passes >= seconds:
                return passes


def same_outputs(a: Path, b: Path) -> bool:
    """True when two output directories hold the same files, byte for byte."""
    names_a = sorted(p.name for p in a.glob("*"))
    if names_a != sorted(p.name for p in b.glob("*")):
        return False
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names_a)


def clear(path: Path):
    shutil.rmtree(path, ignore_errors=True)
