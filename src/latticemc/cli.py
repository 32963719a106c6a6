"""Command-line front end.

Subcommands: trajectory, ensemble, purity-sweep, oracle-check.  Runs are
configured by flat key = value text files; presets fig2..fig6 reproduce the
parameter regimes of the reference figures.  Output is CSV/JSON data only.

Exit codes: 0 success, 2 config error, 3 numerical abort, 4 classification
ambiguity (`trajectory` only: `ensemble` writes an ambiguous member as an
`unclassifiable` row).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, asdict, dataclass, fields, replace
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import photostats
from .purity import purity_sweep
from .geometry import LatticeSpec, Scenario, scenario_geometry
from .optics import ProbeModel, amplitude_table
from .oracle import compare_with_exact
from .states import (ZDistribution, load_distribution, mott_distribution,
                     superfluid_atom_number, superfluid_difference)
from .trajectory import (ClassificationError, NumericalAbort, RunRecord,
                         Sample, classify_outcome, run_ensemble,
                         run_trajectory)

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


def _parse_number_list(text: str, cast):
    return tuple(map(cast, text.split(","))) if text.strip() else ()


def _parser(hint):
    """The text-to-value cast of a `RunConfig` field with type hint `hint`."""
    if hint is Scenario:
        return lambda text: Scenario(text.lower())
    cast = (get_args(hint) or (hint,))[0]  # X of X | None, tuple[X, ...]
    if get_origin(hint) is tuple:  # comma-separated
        return lambda text: _parse_number_list(text, cast)
    return cast


_FIELDS = {f.name: (f.default is MISSING, _parser(hint))
           for f, hint in zip(fields(RunConfig),
                              get_type_hints(RunConfig).values())}


def parse_config(text: str) -> RunConfig:
    """Parse a flat key = value document (strict: unknown keys rejected).

    The keys are `RunConfig`'s fields; those without a default are required.
    """
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

    unknown = sorted(set(raw) - set(_FIELDS))
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(unknown)}")
    missing = sorted(k for k, (required, _) in _FIELDS.items()
                     if required and k not in raw)
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    values = {}
    for key, (_, cast) in _FIELDS.items():  # in field order
        if key in raw:
            try:
                values[key] = cast(raw[key])
            except ValueError as exc:
                raise ConfigError(
                    f"scenario must be one of {[s.value for s in Scenario]}, "
                    f"got {raw[key]!r}" if key == "scenario"
                    else f"key {key!r}: {exc}") from exc
    cfg = RunConfig(**values)
    _check_fields(cfg)
    try:  # the lattice, the scenario's geometry and the initial state
        initial_distribution(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _check_fields(cfg: RunConfig):
    """Reject field values out of range, one field or pair at a time."""
    if cfg.scenario is Scenario.TRANSMISSION:
        missing = [k for k in ("kappa_over_u11", "z_p")
                   if getattr(cfg, k) is None]
        if missing:
            raise ConfigError("transmission scenario requires keys: "
                              + ", ".join(missing))
    for key, (_, cast) in _FIELDS.items():
        value = getattr(cfg, key)
        if cast is float and value is not None and not np.isfinite(value):
            raise ConfigError(f"{key} must be finite")
    for key in ("kappa", "drive_scale", "max_tau", "sample_interval_tau",
                "kappa_over_u11"):
        value = getattr(cfg, key)
        if value is not None and not value > 0:
            raise ConfigError(f"{key} must be > 0")
    for key, least in (("seed", 0), ("n_traj", 1), ("delta_z_points", 1),
                       ("stop_fwhm", 0)):
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


_CSV_CHUNK_ROWS = 1 << 16


def _conversion(values: np.ndarray) -> str:
    """The `%` conversion of a column's entries: integers in decimal, floats
    at 17 significant digits (exact round trip), strings as they are."""
    if np.issubdtype(values.dtype, np.integer):
        return "%d"
    if np.issubdtype(values.dtype, np.floating):
        return "%.17g"
    return "%s"


def _write_columns(path: Path, header: list[str], columns):
    """Write equal-length integer, float or string columns as CSV, a chunk
    of rows at a time: one `%` over the chunk's row template and its cells,
    interleaved row by row."""
    columns = [np.asarray(c) for c in columns]
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns {header} have unequal lengths {lengths}")
    n_rows = lengths[0] if columns else 0
    row = ",".join(map(_conversion, columns)) + "\n"
    width = len(columns)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, _CSV_CHUNK_ROWS):
            chunk = [c[start:start + _CSV_CHUNK_ROWS].tolist()
                     for c in columns]
            cells = [None] * (len(chunk[0]) * width)
            for j, values in enumerate(chunk):
                cells[j::width] = values
            fh.write(row * len(chunk[0]) % tuple(cells))


def write_record(record: RunRecord, out_dir: Path, config: dict):
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_columns(out_dir / "trajectory.csv", list(Sample._fields),
                   list(zip(*record.samples)))
    payload = {**asdict(record.outcome), "m": record.final_state.m,
               "tau": record.final_state.tau, "seed": record.seed,
               "config": config}
    with open(out_dir / "trajectory_outcome.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for tau, dist in sorted(record.snapshots.items()):
        _write_columns(out_dir / f"trajectory_snapshot_tau{tau:g}.csv",
                       ["z", "probability"],
                       [dist.z_values, dist.probabilities])


def cmd_trajectory(cfg: RunConfig, out_dir: Path) -> int:
    record = run_trajectory(
        initial_distribution(cfg), probe_model(cfg), seed=[cfg.seed],
        max_tau=cfg.max_tau, stop_fwhm=cfg.stop_fwhm,
        sample_interval_tau=cfg.sample_interval_tau,
        snapshot_taus=cfg.snapshots)
    write_record(record, out_dir, cfg.as_dict())
    return EXIT_OK


def cmd_ensemble(cfg: RunConfig, out_dir: Path) -> int:
    n_traj, seed = cfg.n_traj, cfg.seed
    p0 = initial_distribution(cfg)
    model = probe_model(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)

    run = run_ensemble(p0, model, [[seed, i] for i in range(n_traj)],
                       max_tau=cfg.max_tau, stop_fwhm=cfg.stop_fwhm,
                       sample_interval_tau=cfg.sample_interval_tau,
                       snapshot_taus=cfg.snapshots)
    counts = dict.fromkeys(("singlet", "doublet", "unclassifiable"), 0)
    outcomes = []
    for state in run.final_states:
        try:
            o = classify_outcome(state, model)
            row = (o.kind, str(o.z1), "" if o.z2 is None else str(o.z2))
        except ClassificationError as exc:  # the reason, as one CSV cell
            row = ("unclassifiable", '"%s"' % str(exc).replace('"', '""'), "")
        counts[row[0]] += 1
        outcomes.append((*row, state.m, state.tau))

    with open(out_dir / "ensemble_summary.json", "w") as fh:
        json.dump({"n_traj": n_traj, "outcomes": counts, "seed": seed,
                   "config": cfg.as_dict()}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_columns(out_dir / "ensemble_outcomes.csv",
                   ["trajectory", "kind", "z1", "z2", "m", "tau"],
                   [np.arange(n_traj), *zip(*outcomes)])

    table = amplitude_table(model, p0.z_values)
    for tau, k in run.snapshot_strides:  # every member's count at tau
        closed = photostats.photocount_distribution(p0, table, model.kappa,
                                                    run.t[k])
        _write_columns(out_dir / f"m_hist_tau{tau:g}.csv",
                       ["m", "empirical_probability",
                        "closed_form_probability"],
                       _m_histogram(run.m[:, k], closed.probabilities))
    return EXIT_OK


def _m_histogram(samples: np.ndarray, closed: np.ndarray):
    """Columns m, empirical and closed-form probability on a common m grid.

    The empirical column takes at most len(samples) + 1 values, k / n: each
    is formatted once and its text indexed by the counts."""
    n = len(samples)
    hist = np.bincount(samples, minlength=len(closed))
    theory = np.zeros(len(hist))
    theory[:len(closed)] = closed
    empirical = np.array(["%.17g" % (k / n) for k in range(n + 1)],
                         dtype=object)[hist]
    return [np.arange(len(hist)), empirical, theory]


def cmd_purity_sweep(cfg: RunConfig, out_dir: Path) -> int:
    if cfg.scenario is not Scenario.TRANSMISSION:
        raise ConfigError("purity sweep requires the transmission scenario")
    model = probe_model(cfg)
    grid = np.linspace(0.0, cfg.delta_z_max, cfg.delta_z_points)
    dz, loss, purity = purity_sweep(cfg.loss_counts, grid, model
                                    ).reshape(-1, 3).T
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_columns(out_dir / "purity_sweep.csv", ["delta_z", "L", "purity"],
                   [dz, loss.astype(int), purity])
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
        _write_columns(out_dir / "oracle_check.csv",
                       ["n_atoms", "scenario", "max_abs_deviation"],
                       list(zip(*report)))
    return EXIT_OK if passed else EXIT_NUMERICAL


@lru_cache(maxsize=1)  # built once: it does not depend on the input
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

    p_traj = sub.add_parser("trajectory", help="run a single trajectory")
    p_ens = sub.add_parser("ensemble", help="run many trajectories")
    p_ens.add_argument("--n-traj", type=int, default=None)
    for p in (p_traj, p_ens):
        common(p)
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--snapshots", type=str, default=None,
                       help="comma-separated tau values for p(z) dumps")

    p_pur = sub.add_parser("purity-sweep", help="purity vs doublet splitting")
    common(p_pur)

    p_orc = sub.add_parser("oracle-check",
                           help="validate the engine on tiny full states")
    common(p_orc, needs_config=False)
    return parser


def _load_config(args) -> RunConfig:
    """The config with the `--seed`, `--n-traj` and `--snapshots` flags
    applied and its fields checked with them; each command echoes the config
    it ran."""
    cfg = parse_config(load_preset(args.preset) if args.preset
                       else args.config.read_text())
    flags = {k: v for k in ("seed", "n_traj")
             if (v := getattr(args, k, None)) is not None}
    if (snapshots := getattr(args, "snapshots", None)) is not None:
        try:
            flags["snapshots"] = _parse_number_list(snapshots, float)
        except ValueError as exc:
            raise ConfigError(f"--snapshots: {exc}") from exc
    cfg = replace(cfg, **flags)
    _check_fields(cfg)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "oracle-check":
            return cmd_oracle_check(args.out)
        cfg = _load_config(args)
        if args.command == "trajectory":
            return cmd_trajectory(cfg, args.out)
        if args.command == "ensemble":
            return cmd_ensemble(cfg, args.out)
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
