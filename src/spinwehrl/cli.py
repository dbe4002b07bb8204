"""Command-line front end: run, compare, sweep, validate, list-scenarios.

Configurations are JSON files with explicit keys; unknown keys are
rejected. Rates are given in units of the scenario's reference rate
(lambda for dephasing, gamma for damping), matching the dimensionless
ratios used throughout (b0/gamma, bandwidth/gamma0, T/omega, ...).

Exit codes: 0 success, 1 comparison above tolerance, 2 configuration or
I/O error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import sys
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .dynamics import DissipatorSpec, HamiltonianSpec
from .errors import ConfigError, DimensionMismatch, InvalidFrequency, NonPhysicalState, NothingToCompare, SpinWehrlError
from .phase_space import GRID_MIN, SphereGrid, make_grid
from .scenarios import (
    Model,
    PulseParams,
    compare,
    photon_pulse_model,
    rotating_field_model,
    simulate,
    spontaneous_emission_model,
    thermal_quench_model,
    write_csv,
    write_scenario_csv,
)
from .spin_ops import (
    BlochVector,
    DensityMatrix,
    SpinQuantumNumber,
    bloch_to_rho,
    gibbs_state,
)

_TIME_KEYS = {"t_max": True, "output_dt": True, "tol": False}
_GRID_KEYS = {"n_theta": True, "n_phi": True}
_OUTPUT_KEYS = {"csv": False}
_COMPARE_KEYS = {"tolerance": False}
# Scenario keys that must not be negative (rates, occupations, temperatures).
_NON_NEGATIVE = {"gamma", "lambda", "nbar", "temperature", "initial_temperature", "bath_temperature"}
# The largest two_j a config may set (2J + 1 = 1001 levels, 16 MB a dense
# state). Far above it, building the initial state fails in numpy (a
# MemoryError, or a ValueError beyond its largest array) instead of exiting
# with a config error.
TWO_J_MAX = 1000
# The most output steps a config may ask for. At TWO_J_MAX a J_z-diagonal
# trajectory holds 32 bytes per step and level, 0.64 GB at this bound; a
# run's peak RSS there grew by 117 kB a step from 1,000 to 3,000 steps, 3.6
# times the trajectory's, so about 2.5 GB at the bound. Far above it numpy
# cannot allocate the time grid (72.8 TiB for output_dt 1e-12 at t_max 10).
STEPS_MAX = 20000
# The largest n_theta and n_phi of a config's grid or --grid: the
# Gauss-Legendre rule alone takes 134 MB at 4096 nodes (its companion
# matrix), and a node array of one state as much. Far above it numpy
# cannot allocate the nodes. SphereGrid itself is unbounded.
GRID_MAX = 4096


def _bloch_angles_state(j: SpinQuantumNumber, tau: float, theta: float, phi: float) -> DensityMatrix:
    st = math.sin(theta)
    return bloch_to_rho(BlochVector(tau * st * math.cos(phi), tau * st * math.sin(phi), tau * math.cos(theta)))


def _diagonal_state(j: SpinQuantumNumber, populations: list) -> DensityMatrix:
    pops = np.asarray(populations, dtype=float)
    total = pops.sum()
    if total <= 0:
        raise ConfigError("populations must have a positive sum")
    return DensityMatrix(SpinQuantumNumber(pops.size - 1), np.diag(pops / total).astype(complex))


# Each type of a typed section: its required keys, all numbers except the
# list of populations, and the builder of its object from their values.
# Initial states are built for the config's spin j; bloch and diagonal
# states carry their own.
SECTIONS = {
    "dissipator": {
        "dephasing": (("lambda",), DissipatorSpec.dephasing),
        "amplitude_damping": (("gamma", "nbar"), DissipatorSpec.amplitude_damping),
    },
    "hamiltonian": {
        "none": ((), HamiltonianSpec.none),
        "static_jz": (("omega",), HamiltonianSpec.static_jz),
        "rotating_field": (("b0", "b1", "drive_omega"), HamiltonianSpec.rotating_field),
    },
    "initial_state": {
        "bloch": (("tau_x", "tau_y", "tau_z"), lambda j, *tau: bloch_to_rho(BlochVector(*tau))),
        "bloch_angles": (("tau", "theta", "phi"), _bloch_angles_state),
        "diagonal": (("populations",), _diagonal_state),
        "gibbs": (("temperature", "omega"), lambda j, temperature, omega: gibbs_state(j, omega, temperature)),
    },
}


def _custom_model(two_j: float, h: HamiltonianSpec, d: DissipatorSpec, rho0: DensityMatrix) -> Model:
    if rho0.j.two_j != two_j:
        raise ConfigError(f"the initial state has two_j = {rho0.j.two_j}, not the config's {two_j:g}")
    # A thermal bath's nbar is an occupation at the level splitting omega.
    if h.kind == "static_jz" and d.kind == "amplitude_damping" and h.omega <= 0:
        raise InvalidFrequency("'omega' in 'hamiltonian' must be positive: it is the level splitting of the bath")
    return Model(rho0, h, d)


# Each scenario: its description, its required keys besides "scenario" and
# "time" (numbers, or typed sections built from SECTIONS), and the builder
# of its Model from their values in that order.
SCENARIOS = {
    "spontaneous_emission": (
        "excited spin-1/2 relaxing into a thermal damping bath",
        ("omega", "gamma", "temperature"),
        spontaneous_emission_model,
    ),
    "thermal_quench": (
        "Gibbs state at T0 relaxing toward a bath at T",
        ("initial_temperature", "bath_temperature", "omega", "gamma"),
        thermal_quench_model,
    ),
    "rotating_field": (
        "driven spin-1/2 with dephasing or damping",
        ("b0", "b1", "drive_omega", "dissipator", "initial_state"),
        rotating_field_model,
    ),
    "photon_pulse": (
        "two-level atom absorbing a single-photon pulse (T = 0)",
        ("gamma0", "bandwidth", "a0"),
        lambda gamma0, bandwidth, a0: photon_pulse_model(PulseParams(gamma0, bandwidth, a0)),
    ),
    "custom": (
        "any spin J with explicit Hamiltonian/dissipator/initial state",
        ("two_j", "hamiltonian", "dissipator", "initial_state"),
        _custom_model,
    ),
}


@dataclass(frozen=True)
class RunPlan:
    """A checked config: what run, compare and sweep execute."""

    scenario: str
    model: Model
    t_max: float
    dt: float
    grid: SphereGrid
    csv: str
    tolerance: float


def _check_keys(section: dict, allowed: dict, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {where}")
    for key, required in allowed.items():
        if required and key not in section:
            raise ConfigError(f"missing required key '{key}' in {where}")


def _number(section, key, where: str, minimum: float = -math.inf) -> float:
    v = section[key]
    # abs(v) <= the largest double also refuses nan, and an integer too large for a double
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ConfigError(f"key '{key}' in {where} must be a finite number, got {v!r}")
    if key in _NON_NEGATIVE:
        minimum = max(minimum, 0.0)
    if v < minimum:
        raise ConfigError(f"key '{key}' in {where} must be >= {minimum:g}, got {v!r}")
    return float(v)


def _integer(value, what: str, minimum: int, maximum: float = math.inf) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{what} must be an integer >= {minimum}, got {value!r}")
    if value > maximum:
        raise ConfigError(f"{what} must be at most {maximum}, got {value!r}")
    return value


def _typed_section(name: str, sec: dict, j: SpinQuantumNumber):
    """The object a typed section describes, built from its row of SECTIONS."""
    types = SECTIONS[name]
    kind = sec.get("type") if isinstance(sec, dict) else None
    if not isinstance(kind, str) or kind not in types:
        raise ConfigError(f"{name} type must be one of {sorted(types)}, got {kind!r}")
    keys, build = types[kind]
    _check_keys(sec, dict.fromkeys(("type", *keys), True), f"'{name}'")
    values = []
    for key in keys:
        if key != "populations":
            values.append(_number(sec, key, f"'{name}'"))
        elif isinstance(sec[key], list) and sec[key]:
            values.append([_number(sec[key], k, "'populations'", minimum=0.0) for k in range(len(sec[key]))])
        else:
            raise ConfigError("'populations' must be a non-empty list")
    return build(j, *values) if name == "initial_state" else build(*values)


def validate_config(cfg: dict) -> RunPlan:
    """Check a config's keys and numbers and build its Model and sphere
    grid, without integrating or computing the grid's nodes. A model that
    its constructors refuse is a ConfigError; a pulse below the
    Markovianity threshold raises NonMarkovianRegime, as it would in run."""
    if not isinstance(cfg, dict):
        raise ConfigError("top-level config must be a JSON object")
    scenario = cfg.get("scenario")
    if not isinstance(scenario, str) or scenario not in SCENARIOS:
        raise ConfigError(f"'scenario' must be one of {sorted(SCENARIOS)}, got {scenario!r}")
    _, keys, build = SCENARIOS[scenario]
    allowed = dict.fromkeys(keys, True)
    allowed.update({"scenario": True, "time": True, "grid": False, "output": False, "compare": False})
    _check_keys(cfg, allowed, "config")
    time = cfg["time"]
    _check_keys(time, _TIME_KEYS, "'time'")
    t_max = _number(time, "t_max", "'time'")
    dt = _number(time, "output_dt", "'time'")
    if dt <= 0 or not math.isfinite(t_max / dt) or round(t_max / dt) < 2:
        raise ConfigError("'output_dt' must be positive and give at least two steps up to 't_max'")
    if round(t_max / dt) > STEPS_MAX:
        raise ConfigError(f"'output_dt' must give at most {STEPS_MAX} steps up to 't_max', got {t_max / dt:.6g}")
    if "tol" in time and _number(time, "tol", "'time'") <= 0:  # checked, changes no result
        raise ConfigError("'tol' in 'time' must be positive")
    size = ()
    if "grid" in cfg:
        _check_keys(cfg["grid"], _GRID_KEYS, "'grid'")
        size = tuple(_integer(cfg["grid"][key], f"key '{key}' in 'grid'", GRID_MIN, GRID_MAX) for key in _GRID_KEYS)
    output = cfg.get("output", {})
    _check_keys(output, _OUTPUT_KEYS, "'output'")
    csv = output.get("csv", f"{scenario}.csv")
    if not isinstance(csv, str) or not csv:
        raise ConfigError("'csv' in 'output' must be a file name")
    comparison = cfg.get("compare", {})
    _check_keys(comparison, _COMPARE_KEYS, "'compare'")
    tolerance = _number(comparison, "tolerance", "'compare'", minimum=0.0) if "tolerance" in comparison else 1e-5
    # only custom sets two_j; the other scenarios are spin 1/2
    two_j = _integer(cfg.get("two_j", 1), "'two_j'", 1)
    if two_j > TWO_J_MAX:
        _number(cfg, "two_j", "config")  # an integer that no double holds is refused as not finite
        raise ConfigError(f"key 'two_j' in config must be at most {TWO_J_MAX}, got {two_j!r}")
    j = SpinQuantumNumber(two_j)
    try:
        model = build(*(
            _typed_section(key, cfg[key], j) if key in SECTIONS else _number(cfg, key, "config") for key in keys
        ))
        model.h.matrix(model.rho0.j, 0.0)  # a Hamiltonian defined for another spin raises here
    except (NonPhysicalState, InvalidFrequency, DimensionMismatch) as exc:
        raise ConfigError(str(exc)) from exc
    return RunPlan(scenario, model, t_max, dt, make_grid(*size), csv, tolerance)


def _fmt(x) -> str:
    if x is None:
        return "n/a"
    return f"{x:.6g}"


def _print_summary(plan: RunPlan, result) -> None:
    w, v = result.wehrl, result.von_neumann
    print(f"scenario: {plan.scenario}  steps: {result.times.size}  t_max: {result.times[-1]:g}")
    print(f"final Pi_wehrl:  {_fmt(w.pi[-1])}    final Phi_wehrl: {_fmt(w.phi[-1])}")
    print(f"final Pi_vN:     {_fmt(v.pi[-1])}    final Phi_vN:    {_fmt(v.phi[-1])}")
    print(f"Sigma (wehrl):   {_fmt(result.sigma_wehrl)}")
    for name, value in result.agreement.items():
        print(f"agreement {name}: max rel dev {_fmt(value)}")


def compare_config(plan: RunPlan) -> int:
    """Evaluate every applicable rate method in one pass over the trajectory
    and report their pairwise maximum relative deviations against the plan's
    tolerance; returns a process exit code. Raises NothingToCompare, before
    integrating, when fewer than two methods apply."""
    agreement = compare(plan.model, plan.t_max, plan.dt, plan.grid)
    for name, value in agreement.items():
        print(f"{name}: max rel dev {value:.3e}")
    worst = float(np.max([0.0, *agreement.values()]))  # NaN if any check gave NaN
    if not worst <= plan.tolerance:
        print(f"FAIL: worst deviation {worst:.3e} exceeds tolerance {plan.tolerance:g}")
        return 1
    print(f"OK: worst deviation {worst:.3e} within tolerance {plan.tolerance:g}")
    return 0


def _set_by_path(cfg: dict, dotted: str, value: float) -> None:
    parts = dotted.split(".")
    node = cfg
    for p in parts[:-1]:
        if not isinstance(node, dict) or p not in node:
            raise ConfigError(f"unknown sweep parameter '{dotted}'")
        node = node[p]
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"unknown sweep parameter '{dotted}'")
    if not isinstance(node[leaf], (int, float)) or isinstance(node[leaf], bool):
        raise ConfigError(f"sweep parameter '{dotted}' is not a numeric scalar")
    node[leaf] = value


SWEEP_COLUMNS = [
    "value",
    "sigma_wehrl",
    "pi_wehrl_initial",
    "pi_wehrl_final",
    "phi_wehrl_final",
    "pi_vn_initial",
    "pi_vn_final",
]


def sweep_config(cfg: dict, param: str, values: list, out_path: Path, grid: SphereGrid) -> None:
    """One scenario run per value, each validated and run on grid; a
    summary-scalar row per run."""
    if not values:
        raise ConfigError("sweep needs a non-empty list of values")
    if param.split(".")[0] == "grid":
        raise ConfigError(f"sweep parameter '{param}' is a grid size: every value runs on one grid; set it with --grid")
    rows = []
    for v in values:
        trial = copy.deepcopy(cfg)
        _set_by_path(trial, param, v)
        plan = validate_config(trial)
        result = simulate(plan.model, plan.t_max, plan.dt, grid)
        w, vn = result.wehrl, result.von_neumann
        sigma = math.nan if result.sigma_wehrl is None else result.sigma_wehrl
        rows.append([v, sigma, w.pi[0], w.pi[-1], w.phi[-1], vn.pi[0], vn.pi[-1]])  # as SWEEP_COLUMNS
    write_csv(out_path, SWEEP_COLUMNS, rows)
    print(f"wrote {out_path} ({len(rows)} rows)")


def bundled_configs() -> dict:
    """Name -> path of the example configs shipped with the package."""
    base = resources.files("spinwehrl") / "configs"
    return {p.name: p for p in sorted(base.iterdir(), key=lambda p: p.name) if p.name.endswith(".json")}


def _load_config(path: str) -> dict:
    """The JSON object of a config file, unchecked."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        except RecursionError:
            raise ConfigError("config is nested too deeply") from None
        except UnicodeDecodeError:  # not UTF-8: an I/O error, though a ValueError
            raise
        except ValueError as exc:  # such as an integer literal beyond int's digit limit
            raise ConfigError(f"config cannot be read: {exc}") from exc


def _check_output(path: Path, what: str) -> None:
    """Raise the OSError of writing an output file that is a directory or lies in a missing one."""
    if path.is_dir():
        raise IsADirectoryError(f"{what} is a directory")
    if not path.parent.is_dir():
        raise FileNotFoundError(f"the directory of {what} does not exist")


def _sweep_value(text: str):
    """A --values entry: an int for a nonzero integer literal, so that two_j
    can be swept, and otherwise a float (-0 is -0.0)."""
    try:
        return int(text) or float(text)
    except ValueError:
        return float(text)


def _write_states_csv(result, path: Path) -> None:
    """Trajectory dump: t plus Re/Im of every density-matrix entry, as
    write_csv writes the dense table, from the entries on the trajectory's
    coherence orders (Trajectory.order_entries): every other entry is the
    literal 0."""
    traj = result.trajectory
    position, values = traj.order_entries()
    index = [str(a) for a in range(traj.j.dim)]  # formatted once, not once per column
    header = ["t"] + [f"{part}_rho_{a}{b}" for a in index for b in index for part in ("re", "im")]
    columns = np.concatenate(([0], (1 + 2 * position[:, None] + np.arange(2)).ravel()))
    write_csv(path, header, np.column_stack([traj.times, values.view(float)]), columns)


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first main call of a process
    and reused by every later one."""
    parser = argparse.ArgumentParser(prog="spinwehrl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config and write its CSV")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--grid", default=None, help="override grid, e.g. 96x192")
    p_run.add_argument("--states-csv", default=None, help="also dump the raw state trajectory")

    p_cmp = sub.add_parser("compare", help="cross-check every applicable rate method")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--grid", default=None)
    p_cmp.add_argument("--tol", type=float, default=None, help="comparison tolerance")

    p_sweep = sub.add_parser("sweep", help="re-run a config over a list of parameter values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True, help="dotted path, e.g. temperature or initial_state.tau")
    p_sweep.add_argument("--values", required=True, help="comma-separated numbers")
    p_sweep.add_argument("--out", default=".", help="output directory")
    p_sweep.add_argument("--grid", default=None)

    p_val = sub.add_parser("validate", help="check a config file and build its run, without integrating")
    p_val.add_argument("--config", required=True)

    sub.add_parser("list-scenarios", help="list scenario types and bundled configs")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "list-scenarios":
            for name, (desc, _, _) in SCENARIOS.items():
                print(f"{name}: {desc}")
            print("\nbundled configs:")
            for name in bundled_configs():
                print(f"  {name}")
            return 0
        cfg = _load_config(args.config)
        plan = validate_config(cfg)
        if args.command == "validate":
            print("OK")
            return 0
        if args.grid:
            try:
                a, b = (int(n) for n in args.grid.lower().split("x"))
            except ValueError:
                a = b = 0
            if not (GRID_MIN <= a <= GRID_MAX and GRID_MIN <= b <= GRID_MAX):
                raise ConfigError(
                    f"--grid must look like 96x192, with both sizes from {GRID_MIN} to {GRID_MAX}, got {args.grid!r}"
                )
            plan = replace(plan, grid=make_grid(a, b))
        if args.command == "compare" and args.tol is not None:
            if not args.tol >= 0:  # also refuses nan, which no deviation exceeds
                raise ConfigError(f"comparison tolerance must be non-negative, got {args.tol:g}")
            plan = replace(plan, tolerance=args.tol)
        if args.command == "run":
            # Output paths are checked before integrating, so that a bad one
            # loses no work.
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            csv_path = out_dir / plan.csv
            _check_output(csv_path, f"the run CSV {str(csv_path)!r}")
            if args.states_csv:
                _check_output(Path(args.states_csv), f"--states-csv {args.states_csv!r}")
                if Path(args.states_csv).resolve() == csv_path.resolve():
                    raise OSError(f"--states-csv {args.states_csv!r} names the run CSV")
            result = simulate(plan.model, plan.t_max, plan.dt, plan.grid)
            write_scenario_csv(result, csv_path)
            print(f"wrote {csv_path}")
            if args.states_csv:
                _write_states_csv(result, Path(args.states_csv))
                print(f"wrote {args.states_csv}")
            _print_summary(plan, result)
            return 0
        if args.command == "compare":
            return compare_config(plan)
        if args.command == "sweep":
            raw = [v for v in args.values.split(",") if v.strip()]
            if not raw:
                raise ConfigError("--values is empty")
            try:
                values = [_sweep_value(v) for v in raw]
            except ValueError as exc:
                raise ConfigError(f"--values must be numbers: {exc}") from exc
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            stem = Path(args.config).stem
            out_path = out_dir / f"{stem}_sweep_{args.param.replace('.', '_')}.csv"
            sweep_config(cfg, args.param, values, out_path, plan.grid)
            return 0
    except (ConfigError, NothingToCompare) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:  # a file that cannot be read or written
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except SpinWehrlError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
