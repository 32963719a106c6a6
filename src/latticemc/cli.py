"""Command-line front end.

Subcommands: trajectory, ensemble, purity-sweep, oracle-check.  Runs are
configured by flat key = value text files; presets fig2..fig6 reproduce the
parameter regimes of the reference figures.  Output is CSV/JSON data only.

Exit codes: 0 success, 2 config error, 3 numerical abort, 4 classification
ambiguity.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import photostats
from .purity import purity_sweep
from .geometry import LatticeSpec, Scenario, scenario_geometry
from .optics import ProbeModel, amplitude_table
from .oracle import compare_with_exact
from .states import (ZDistribution, load_distribution, mott_distribution,
                     superfluid_atom_number, superfluid_difference)
from .trajectory import (ClassificationError, NumericalAbort, RunRecord,
                         Sample, run_trajectories, run_trajectory)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CLASSIFY = 4

PRESET_NAMES = ("fig2", "fig3", "fig4", "fig5", "fig6")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    scenario: Scenario
    n_atoms: int
    n_sites: int
    n_illuminated: int
    kappa: float
    drive_scale: float
    max_tau: float
    kappa_over_u11: float | None = None
    z_p: float | None = None
    seed: int = 0
    initial_state: str = "superfluid"
    initial_state_file: str | None = None
    stop_fwhm: float = 0.5
    sample_interval_tau: float | None = None
    snapshots: tuple[float, ...] = ()
    n_traj: int = 1
    loss_counts: tuple[int, ...] = (0, 1, 3, 10)
    delta_z_max: float = 10.0
    delta_z_points: int = 201

    def as_dict(self) -> dict:
        d = asdict(self)
        d["scenario"] = self.scenario.value
        return d


_REQUIRED = ("scenario", "n_atoms", "n_sites", "n_illuminated", "kappa",
             "drive_scale", "max_tau")
_OPTIONAL = ("kappa_over_u11", "z_p", "seed", "initial_state",
             "initial_state_file", "stop_fwhm", "sample_interval_tau",
             "snapshots", "n_traj", "loss_counts", "delta_z_max",
             "delta_z_points")


def _parse_number_list(text: str, cast):
    text = text.strip()
    if not text:
        return ()
    return tuple(cast(part) for part in text.split(","))


def parse_config(text: str) -> RunConfig:
    """Parse a flat key = value document (strict: unknown keys rejected)."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value

    known = set(_REQUIRED) | set(_OPTIONAL)
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(unknown)}")
    missing = sorted(k for k in _REQUIRED if k not in raw)
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    try:
        scenario = Scenario(raw["scenario"].lower())
    except ValueError:
        raise ConfigError(f"scenario must be one of "
                          f"{[s.value for s in Scenario]}, got {raw['scenario']!r}")

    def get(key, cast, default=None):
        if key not in raw:
            return default
        try:
            return cast(raw[key])
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from exc

    cfg = RunConfig(
        scenario=scenario,
        n_atoms=get("n_atoms", int),
        n_sites=get("n_sites", int),
        n_illuminated=get("n_illuminated", int),
        kappa=get("kappa", float),
        drive_scale=get("drive_scale", float),
        max_tau=get("max_tau", float),
        kappa_over_u11=get("kappa_over_u11", float),
        z_p=get("z_p", float),
        seed=get("seed", int, 0),
        initial_state=get("initial_state", str, "superfluid"),
        initial_state_file=get("initial_state_file", str),
        stop_fwhm=get("stop_fwhm", float, 0.5),
        sample_interval_tau=get("sample_interval_tau", float),
        snapshots=get("snapshots", lambda s: _parse_number_list(s, float), ()),
        n_traj=get("n_traj", int, 1),
        loss_counts=get("loss_counts", lambda s: _parse_number_list(s, int),
                        (0, 1, 3, 10)),
        delta_z_max=get("delta_z_max", float, 10.0),
        delta_z_points=get("delta_z_points", int, 201),
    )
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    if cfg.scenario is Scenario.TRANSMISSION:
        missing = [k for k in ("kappa_over_u11", "z_p")
                   if getattr(cfg, k) is None]
        if missing:
            raise ConfigError("transmission scenario requires keys: "
                              + ", ".join(missing))
    for key in ("kappa", "drive_scale", "max_tau", "sample_interval_tau",
                "kappa_over_u11"):
        value = getattr(cfg, key)
        if value is not None and not value > 0:
            raise ConfigError(f"{key} must be > 0")
    for key, least in (("seed", 0), ("n_traj", 1), ("delta_z_points", 1)):
        if getattr(cfg, key) < least:
            raise ConfigError(f"{key} must be >= {least}")
    if not all(0 <= s <= cfg.max_tau for s in cfg.snapshots):
        raise ConfigError("snapshots must lie in [0, max_tau]")
    if min(cfg.loss_counts, default=0) < 0:
        raise ConfigError("loss_counts must be >= 0")
    if cfg.initial_state not in ("superfluid", "mott", "file"):
        raise ConfigError("initial_state must be superfluid, mott or file")
    if cfg.initial_state == "file" and not cfg.initial_state_file:
        raise ConfigError("initial_state = file requires initial_state_file")
    try:  # the lattice, the scenario's geometry and the initial state
        initial_distribution(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def lattice_spec(cfg: RunConfig) -> LatticeSpec:
    return LatticeSpec(cfg.n_atoms, cfg.n_sites, cfg.n_illuminated)


def probe_model(cfg: RunConfig) -> ProbeModel:
    """Translate figure-style parameters (kappa/u11 ratio, z_p, |C|) into drives."""
    if cfg.scenario is Scenario.TRANSMISSION:
        u11 = cfg.kappa / cfg.kappa_over_u11
        return ProbeModel(scenario=cfg.scenario, kappa=cfg.kappa, u11=u11,
                          eta=cfg.drive_scale * cfg.kappa,
                          delta_p=cfg.z_p * u11)
    # transverse probing with delta_p = 0: |C| = u10 a0 / kappa
    return ProbeModel(scenario=cfg.scenario, kappa=cfg.kappa,
                      u10=cfg.drive_scale * cfg.kappa, a0=1.0)


def initial_distribution(cfg: RunConfig) -> ZDistribution:
    spec = lattice_spec(cfg)
    geom = scenario_geometry(cfg.scenario, spec)
    if cfg.initial_state == "file":
        dist = load_distribution(cfg.initial_state_file)
        if tuple(dist.z_values) != tuple(geom.z_grid):
            raise ConfigError("loaded z grid does not match the scenario grid")
        return dist
    if cfg.initial_state == "mott":
        return mott_distribution(spec, cfg.scenario)
    if cfg.scenario is Scenario.MINIMUM:
        return superfluid_difference(spec)
    return superfluid_atom_number(spec)


def load_preset(name: str) -> str:
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; have {PRESET_NAMES}")
    return resources.files("latticemc.presets").joinpath(f"{name}.cfg").read_text()


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list[str], rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


_CSV_CHUNK_ROWS = 1 << 16


def _format_column(values: np.ndarray) -> list[str]:
    """The `_fmt` text of every entry of a 1-D integer or float array."""
    if np.issubdtype(values.dtype, np.integer):
        return list(map(str, values.tolist()))
    return ["%.17g" % v for v in values.astype(float, copy=False).tolist()]


def _write_columns(path: Path, header: list[str], columns):
    """Write equal-length numeric columns as CSV, a chunk of rows at a time.

    Same bytes as `_write_csv` over the rows of the columns.
    """
    columns = [np.asarray(c) for c in columns]
    n_rows = len(columns[0]) if columns else 0
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, _CSV_CHUNK_ROWS):
            stop = start + _CSV_CHUNK_ROWS
            texts = [_format_column(c[start:stop]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*texts))) + "\n")


def write_record(record: RunRecord, out_dir: Path, stem: str = "trajectory"):
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_columns(out_dir / f"{stem}.csv", list(Sample._fields),
                   list(zip(*record.samples)))
    outcome = record.outcome
    payload = {
        "kind": outcome.kind,
        "z1": outcome.z1,
        "z2": outcome.z2,
        "delta_z": outcome.delta_z,
        "delta_z_predicted": outcome.delta_z_predicted,
        "phase_phi": outcome.phase_phi,
        "phase_big_phi": outcome.phase_big_phi,
        "component_weights": list(outcome.component_weights),
        "m": record.final_state.m,
        "tau": record.final_state.tau,
        "seed": record.seed,
        "config": record.config,
    }
    with open(out_dir / f"{stem}_outcome.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for tau, dist in sorted(record.snapshots.items()):
        _write_columns(out_dir / f"{stem}_snapshot_tau{tau:g}.csv",
                       ["z", "probability"],
                       [dist.z_values, dist.probabilities])


def cmd_trajectory(cfg: RunConfig, out_dir: Path, seed: int | None = None) -> int:
    seed = cfg.seed if seed is None else seed
    record = run_trajectory(
        initial_distribution(cfg), probe_model(cfg), seed=[seed],
        max_tau=cfg.max_tau, stop_fwhm=cfg.stop_fwhm,
        sample_interval_tau=cfg.sample_interval_tau,
        snapshot_taus=cfg.snapshots, config=cfg.as_dict())
    write_record(record, out_dir)
    return EXIT_OK


def cmd_ensemble(cfg: RunConfig, out_dir: Path, n_traj: int | None = None,
                 seed: int | None = None) -> int:
    n_traj = cfg.n_traj if n_traj is None else n_traj
    seed = cfg.seed if seed is None else seed
    p0 = initial_distribution(cfg)
    model = probe_model(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    counts = {"singlet": 0, "doublet": 0}
    m_at_tau: dict[float, list[int]] = {s: [] for s in cfg.snapshots}
    records = run_trajectories(
        p0, model, ([seed, i] for i in range(n_traj)), max_tau=cfg.max_tau,
        stop_fwhm=cfg.stop_fwhm, sample_interval_tau=cfg.sample_interval_tau,
        snapshot_taus=cfg.snapshots)
    for i, record in enumerate(records):
        o = record.outcome
        counts[o.kind] += 1
        rows.append((i, o.kind, o.z1, o.z2 if o.z2 is not None else "",
                     record.final_state.m, record.final_state.tau))
        for tau, samples in m_at_tau.items():
            k = record.snapshot_strides.get(tau)
            if k is not None:
                samples.append(int(record.m[k]))

    with open(out_dir / "ensemble_summary.json", "w") as fh:
        json.dump({"n_traj": n_traj, "outcomes": counts,
                   "seed": seed, "config": cfg.as_dict()},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_csv(out_dir / "ensemble_outcomes.csv",
               ["trajectory", "kind", "z1", "z2", "m", "tau"],
               [(i, k, z1, z2, m, _fmt(tau))
                for (i, k, z1, z2, m, tau) in rows])

    table = amplitude_table(model, p0.z_values)
    c2 = abs(table.c_constant) ** 2
    for tau, samples in m_at_tau.items():
        if not samples:
            continue
        t = tau / (2.0 * c2 * model.kappa)
        closed = photostats.photocount_distribution(p0, table, model.kappa, t)
        _write_columns(out_dir / f"m_hist_tau{tau:g}.csv",
                       ["m", "empirical_probability",
                        "closed_form_probability"],
                       _m_histogram(samples, closed.probabilities))
    return EXIT_OK


def _m_histogram(samples: list[int], closed: np.ndarray):
    """Columns m, empirical and closed-form probability on a common m grid."""
    hist = np.bincount(samples, minlength=len(closed))
    n_grid = np.arange(max(len(hist), len(closed)))
    emp = np.zeros(len(n_grid))
    emp[:len(hist)] = hist / len(samples)
    theory = np.zeros(len(n_grid))
    theory[:len(closed)] = closed
    return [n_grid, emp, theory]


def cmd_purity_sweep(cfg: RunConfig, out_dir: Path) -> int:
    if cfg.scenario is not Scenario.TRANSMISSION:
        raise ConfigError("purity sweep requires the transmission scenario")
    model = probe_model(cfg)
    grid = np.linspace(0.0, cfg.delta_z_max, cfg.delta_z_points)
    rows = purity_sweep(cfg.loss_counts, grid, model)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "purity_sweep.csv", ["delta_z", "L", "purity"],
               [(dz, int(L), p) for dz, L, p in rows])
    return EXIT_OK


def cmd_oracle_check(out_dir: Path | None = None) -> int:
    """Full-Hilbert-space check of the reduced engine on tiny systems."""
    worst = 0.0
    report = []
    for n_atoms in (2, 3):
        spec = LatticeSpec(n_atoms, 2, 1)
        for scenario in (Scenario.TRANSMISSION, Scenario.MAXIMUM):
            if scenario is Scenario.TRANSMISSION:
                model = ProbeModel(scenario=scenario, kappa=1.0, u11=1.0,
                                   eta=1e-4, delta_p=1.0)
            else:
                model = ProbeModel(scenario=scenario, kappa=1.0,
                                   u10=1e-4, a0=1.0)
            got, want = compare_with_exact(spec, model, (16.0, 18.5), 20.0,
                                           n_max=4)
            dev = float(np.abs(got.probabilities - want.probabilities).max())
            worst = max(worst, dev)
            report.append((n_atoms, scenario.value, dev))
    for n_atoms, name, dev in report:
        print(f"oracle-check N={n_atoms} {name}: max |dp| = {dev:.3e}")
    passed = worst < 1e-6
    print(f"oracle-check {'PASS' if passed else 'FAIL'} "
          f"(worst deviation {worst:.3e})")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_csv(out_dir / "oracle_check.csv",
                   ["n_atoms", "scenario", "max_abs_deviation"], report)
    return EXIT_OK if passed else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticemc",
        description="Quantum-trajectory simulation of photodetection "
                    "back-action on lattice atoms in a cavity.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--config", type=Path, help="config file path")
            group.add_argument("--preset", choices=PRESET_NAMES)
        p.add_argument("--out", type=Path, default=Path("out"),
                       help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")

    p_traj = sub.add_parser("trajectory", help="run a single trajectory")
    common(p_traj)
    p_traj.add_argument("--snapshots", type=str, default=None,
                        help="comma-separated tau values for p(z) dumps")

    p_ens = sub.add_parser("ensemble", help="run many trajectories")
    common(p_ens)
    p_ens.add_argument("--n-traj", type=int, default=None)
    p_ens.add_argument("--snapshots", type=str, default=None)

    p_pur = sub.add_parser("purity-sweep", help="purity vs doublet splitting")
    common(p_pur)

    p_orc = sub.add_parser("oracle-check",
                           help="validate the engine on tiny full states")
    common(p_orc, needs_config=False)
    return parser


def _load_config(args) -> RunConfig:
    """The config with `--snapshots` applied, validated with it and with the
    `--seed` and `--n-traj` the command gets apart: outputs echo the file's
    config."""
    if args.preset:
        text = load_preset(args.preset)
    else:
        text = args.config.read_text()
    cfg = parse_config(text)
    snapshots = getattr(args, "snapshots", None)
    if snapshots:
        try:
            cfg.snapshots = _parse_number_list(snapshots, float)
        except ValueError as exc:
            raise ConfigError(f"--snapshots: {exc}") from exc
    flags = {k: v for k in ("seed", "n_traj")
             if (v := getattr(args, k, None)) is not None}
    if flags or snapshots:
        _validate(replace(cfg, **flags))
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "oracle-check":
            return cmd_oracle_check(args.out)
        cfg = _load_config(args)
        if args.command == "trajectory":
            return cmd_trajectory(cfg, args.out, args.seed)
        if args.command == "ensemble":
            return cmd_ensemble(cfg, args.out, args.n_traj, args.seed)
        if args.command == "purity-sweep":
            return cmd_purity_sweep(cfg, args.out)
        raise AssertionError(args.command)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ClassificationError as exc:
        print(f"classification ambiguity: {exc}", file=sys.stderr)
        return EXIT_CLASSIFY


if __name__ == "__main__":
    sys.exit(main())
