"""Command-line front end: run, compare, sweep, validate, list-scenarios.

Configurations are JSON files with explicit keys; unknown keys are
rejected. Rates are given in units of the scenario's reference rate
(lambda for dephasing, gamma for damping), matching the dimensionless
ratios used throughout (b0/gamma, bandwidth/gamma0, T/omega, ...).

Exit codes: 0 success, 1 comparison above tolerance, 2 configuration
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .dynamics import DissipatorSpec, HamiltonianSpec
from .entropy_rates import applicable_rate_methods
from .errors import ConfigError, NothingToCompare, SpinWehrlError
from .phase_space import make_grid
from .scenarios import (
    Model,
    PulseParams,
    compare,
    cross_check,
    photon_pulse_model,
    rotating_field_model,
    simulate,
    spontaneous_emission_model,
    thermal_quench_model,
    write_scenario_csv,
)
from .spin_ops import (
    BlochVector,
    DensityMatrix,
    SpinQuantumNumber,
    bloch_to_rho,
    gibbs_state,
)

SCENARIOS = {
    "spontaneous_emission": "excited spin-1/2 relaxing into a thermal damping bath",
    "thermal_quench": "Gibbs state at T0 relaxing toward a bath at T",
    "rotating_field": "driven spin-1/2 with dephasing or damping",
    "photon_pulse": "two-level atom absorbing a single-photon pulse (T = 0)",
    "custom": "any spin J with explicit Hamiltonian/dissipator/initial state",
}

_TIME_KEYS = {"t_max": True, "output_dt": True, "tol": False}
_GRID_KEYS = {"n_theta": True, "n_phi": True}
_OUTPUT_KEYS = {"csv": False}
_COMPARE_KEYS = {"tolerance": False}
# Scenario keys that must not be negative (rates, occupations, temperatures).
_NON_NEGATIVE = {"gamma", "lambda", "nbar", "temperature", "initial_temperature", "bath_temperature"}

# Required keys of each scenario, besides "scenario" and "time".
_SCENARIO_KEYS = {
    "spontaneous_emission": ("omega", "gamma", "temperature"),
    "thermal_quench": ("omega", "gamma", "initial_temperature", "bath_temperature"),
    "rotating_field": ("b0", "b1", "drive_omega", "dissipator", "initial_state"),
    "photon_pulse": ("gamma0", "bandwidth", "a0"),
    "custom": ("two_j", "hamiltonian", "dissipator", "initial_state"),
}

# Sections with a "type": the keys each type requires, all numeric except
# the list of populations.
_TYPED_SECTIONS = {
    "dissipator": {"dephasing": ("lambda",), "amplitude_damping": ("gamma", "nbar")},
    "hamiltonian": {"none": (), "static_jz": ("omega",), "rotating_field": ("b0", "b1", "drive_omega")},
    "initial_state": {
        "bloch": ("tau_x", "tau_y", "tau_z"),
        "bloch_angles": ("tau", "theta", "phi"),
        "diagonal": ("populations",),
        "gibbs": ("temperature", "omega"),
    },
}


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
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigError(f"key '{key}' in {where} must be a finite number, got {v!r}")
    if key in _NON_NEGATIVE:
        minimum = max(minimum, 0.0)
    if v < minimum:
        raise ConfigError(f"key '{key}' in {where} must be >= {minimum:g}, got {v!r}")
    return float(v)


def validate_config(cfg: dict) -> dict:
    """Structural validation; returns the config untouched on success."""
    if not isinstance(cfg, dict):
        raise ConfigError("top-level config must be a JSON object")
    scenario = cfg.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"'scenario' must be one of {sorted(SCENARIOS)}, got {scenario!r}")
    allowed = dict.fromkeys(_SCENARIO_KEYS[scenario], True)
    allowed.update({"scenario": True, "time": True, "grid": False, "output": False, "compare": False})
    _check_keys(cfg, allowed, "config")
    _check_keys(cfg["time"], _TIME_KEYS, "'time'")
    t_max = _number(cfg["time"], "t_max", "'time'")
    dt = _number(cfg["time"], "output_dt", "'time'")
    if dt <= 0 or not math.isfinite(t_max / dt) or round(t_max / dt) < 2:
        raise ConfigError("'output_dt' must be positive and give at least two steps up to 't_max'")
    if "tol" in cfg["time"] and _number(cfg["time"], "tol", "'time'") <= 0:
        raise ConfigError("'tol' in 'time' must be positive")
    if "grid" in cfg:
        _check_keys(cfg["grid"], _GRID_KEYS, "'grid'")
        for key in _GRID_KEYS:
            _number(cfg["grid"], key, "'grid'", minimum=8)
    if "output" in cfg:
        _check_keys(cfg["output"], _OUTPUT_KEYS, "'output'")
        if not isinstance(cfg["output"].get("csv", ""), str):
            raise ConfigError("'csv' in 'output' must be a file name")
    if "compare" in cfg:
        _check_keys(cfg["compare"], _COMPARE_KEYS, "'compare'")
        if "tolerance" in cfg["compare"]:
            _number(cfg["compare"], "tolerance", "'compare'", minimum=0.0)
    for key in _SCENARIO_KEYS[scenario]:
        if key in _TYPED_SECTIONS:
            _validate_typed_section(key, cfg[key])
        else:
            _number(cfg, key, "config")
    if scenario == "custom":
        two_j = cfg["two_j"]
        if not isinstance(two_j, int) or two_j < 1:
            raise ConfigError(f"'two_j' must be a positive integer, got {two_j!r}")
    return cfg


def _validate_typed_section(name: str, sec: dict) -> None:
    types = _TYPED_SECTIONS[name]
    kind = sec.get("type") if isinstance(sec, dict) else None
    if kind not in types:
        raise ConfigError(f"{name} type must be one of {sorted(types)}, got {kind!r}")
    _check_keys(sec, dict.fromkeys(("type", *types[kind]), True), f"'{name}'")
    for key in types[kind]:
        if key != "populations":
            _number(sec, key, f"'{name}'")
        elif isinstance(sec[key], list) and sec[key]:
            for k in range(len(sec[key])):
                _number(sec[key], k, "'populations'", minimum=0.0)
        else:
            raise ConfigError("'populations' must be a non-empty list")


def _build_initial_state(sec: dict, j: SpinQuantumNumber) -> DensityMatrix:
    kind = sec["type"]
    if kind == "bloch":
        if j.two_j != 1:
            raise ConfigError("bloch initial states require two_j = 1")
        return bloch_to_rho(BlochVector(sec["tau_x"], sec["tau_y"], sec["tau_z"]))
    if kind == "bloch_angles":
        if j.two_j != 1:
            raise ConfigError("bloch_angles initial states require two_j = 1")
        tau, th, ph = sec["tau"], sec["theta"], sec["phi"]
        return bloch_to_rho(
            BlochVector(
                tau * math.sin(th) * math.cos(ph),
                tau * math.sin(th) * math.sin(ph),
                tau * math.cos(th),
            )
        )
    if kind == "diagonal":
        pops = np.asarray(sec["populations"], dtype=float)
        if pops.size != j.dim:
            raise ConfigError(f"expected {j.dim} populations for two_j={j.two_j}, got {pops.size}")
        total = pops.sum()
        if total <= 0:
            raise ConfigError("populations must have a positive sum")
        return DensityMatrix(j, np.diag(pops / total).astype(complex))
    if kind == "gibbs":
        return gibbs_state(j, sec["omega"], sec["temperature"])
    raise ConfigError(f"unsupported initial_state type {kind!r}")


def _build_dissipator(sec: dict) -> DissipatorSpec:
    if sec["type"] == "dephasing":
        return DissipatorSpec.dephasing(sec["lambda"])
    return DissipatorSpec.amplitude_damping(sec["gamma"], sec["nbar"])


def _build_hamiltonian(sec: dict) -> HamiltonianSpec:
    if sec["type"] == "none":
        return HamiltonianSpec.none()
    if sec["type"] == "static_jz":
        return HamiltonianSpec.static_jz(sec["omega"])
    return HamiltonianSpec.rotating_field(sec["b0"], sec["b1"], sec["drive_omega"])


def _grid_from(cfg: dict, override: str | None):
    if override:
        try:
            a, b = override.lower().split("x")
            return make_grid(int(a), int(b))
        except ValueError as exc:
            raise ConfigError(f"--grid must look like 96x192, got {override!r}") from exc
    if "grid" in cfg:
        return make_grid(int(cfg["grid"]["n_theta"]), int(cfg["grid"]["n_phi"]))
    return make_grid()


def _model_from_config(cfg: dict) -> Model:
    kind = cfg["scenario"]
    if kind == "spontaneous_emission":
        return spontaneous_emission_model(cfg["omega"], cfg["gamma"], cfg["temperature"])
    if kind == "thermal_quench":
        return thermal_quench_model(
            cfg["initial_temperature"], cfg["bath_temperature"], cfg["omega"], cfg["gamma"]
        )
    if kind == "rotating_field":
        rho0 = _build_initial_state(cfg["initial_state"], SpinQuantumNumber(1))
        return rotating_field_model(
            cfg["b0"], cfg["b1"], cfg["drive_omega"], _build_dissipator(cfg["dissipator"]), rho0,
        )
    if kind == "photon_pulse":
        params = PulseParams(gamma0=cfg["gamma0"], capital_omega=cfg["bandwidth"], a0=cfg["a0"])
        return photon_pulse_model(params)
    j = SpinQuantumNumber(int(cfg["two_j"]))
    return Model(
        _build_initial_state(cfg["initial_state"], j),
        _build_hamiltonian(cfg["hamiltonian"]),
        _build_dissipator(cfg["dissipator"]),
    )


def _scenario_args(cfg: dict, grid_override: str | None = None, tol_override: float | None = None) -> tuple:
    """(model, t_max, dt, grid, tol) of a validated config: the arguments of
    scenarios.simulate and scenarios.compare."""
    grid = _grid_from(cfg, grid_override)
    tol = float(tol_override if tol_override is not None else cfg["time"].get("tol", 1e-10))
    if not 0 < tol < math.inf:
        raise ConfigError(f"integrator tolerance must be positive and finite, got {tol:g}")
    t_max = float(cfg["time"]["t_max"])
    dt = float(cfg["time"]["output_dt"])
    return _model_from_config(cfg), t_max, dt, grid, tol


def run_config(cfg: dict, grid_override: str | None = None, tol_override: float | None = None):
    """Execute a validated config and return its ScenarioResult."""
    return simulate(*_scenario_args(cfg, grid_override, tol_override))


def _fmt(x) -> str:
    if x is None:
        return "n/a"
    return f"{x:.6g}"


def _print_summary(cfg: dict, result) -> None:
    w_final = result.wehrl[-1]
    v_final = result.von_neumann[-1]
    print(f"scenario: {cfg['scenario']}  steps: {result.times.size}  t_max: {result.times[-1]:g}")
    print(f"final Pi_wehrl:  {_fmt(w_final.pi)}    final Phi_wehrl: {_fmt(w_final.phi)}")
    print(f"final Pi_vN:     {_fmt(v_final.pi)}    final Phi_vN:    {_fmt(v_final.phi)}")
    print(f"Sigma (wehrl):   {_fmt(result.scalars.get('sigma_wehrl'))}")
    d = result.model.d
    field_free = [m for m in applicable_rate_methods(result.model.rho0.j.two_j, d) if not m.needs_field]
    for name, value in cross_check(d, result.trajectory, field_free).items():
        print(f"agreement {name}: max rel dev {_fmt(value)}")


def compare_config(cfg: dict, tolerance: float, grid_override: str | None = None) -> int:
    """Evaluate every applicable rate method in one pass over the trajectory
    and report their pairwise maximum relative deviations; returns a process
    exit code. Raises NothingToCompare, before integrating, when fewer than
    two methods apply."""
    agreement = compare(*_scenario_args(cfg, grid_override))
    for name, value in agreement.items():
        print(f"{name}: max rel dev {value:.3e}")
    worst = max(0.0, *agreement.values())
    if worst > tolerance:
        print(f"FAIL: worst deviation {worst:.3e} exceeds tolerance {tolerance:g}")
        return 1
    print(f"OK: worst deviation {worst:.3e} within tolerance {tolerance:g}")
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


def sweep_config(cfg: dict, param: str, values: list, out_path: Path,
                 grid_override: str | None = None) -> None:
    """One scenario run per value, each validated; a summary-scalar row per run."""
    if not values:
        raise ConfigError("sweep needs a non-empty list of values")
    rows = []
    for v in values:
        trial = copy.deepcopy(cfg)
        _set_by_path(trial, param, v)
        result = run_config(validate_config(trial), grid_override=grid_override)
        sigma = result.scalars.get("sigma_wehrl")
        row = [
            v,
            math.nan if sigma is None else sigma,
            result.wehrl[0].pi,
            result.wehrl[-1].pi,
            result.wehrl[-1].phi,
            result.von_neumann[0].pi,
            result.von_neumann[-1].pi,
        ]
        rows.append(",".join(f"{x:.17g}" for x in row))
    with open(out_path, "w") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {out_path} ({len(rows)} rows)")


def bundled_configs() -> dict:
    """Name -> path of the example configs shipped with the package."""
    base = resources.files("spinwehrl") / "configs"
    return {p.name: p for p in sorted(base.iterdir(), key=lambda p: p.name) if p.name.endswith(".json")}


def _load_config(path: str) -> dict:
    """Read and validate a config file."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return validate_config(cfg)


def _write_states_csv(result, path: Path) -> None:
    """Trajectory dump: t plus Re/Im of every density-matrix entry."""
    d = result.trajectory.states[0].dim
    header = ["t"]
    for a in range(d):
        for b in range(d):
            header += [f"re_rho_{a}{b}", f"im_rho_{a}{b}"]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for t, s in zip(result.times, result.trajectory.states):
            flat = s.entries.ravel()
            row = [t] + [x for z in flat for x in (z.real, z.imag)]
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="spinwehrl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config and write its CSV")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--grid", default=None, help="override grid, e.g. 96x192")
    p_run.add_argument("--tol", type=float, default=None, help="override integrator tolerance")
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

    p_val = sub.add_parser("validate", help="schema-check a config file")
    p_val.add_argument("--config", required=True)

    sub.add_parser("list-scenarios", help="list scenario types and bundled configs")

    args = parser.parse_args(argv)
    try:
        if args.command == "list-scenarios":
            for name, desc in SCENARIOS.items():
                print(f"{name}: {desc}")
            print("\nbundled configs:")
            for name in bundled_configs():
                print(f"  {name}")
            return 0
        if args.command == "validate":
            _load_config(args.config)
            print("OK")
            return 0
        if args.command == "run":
            cfg = _load_config(args.config)
            result = run_config(cfg, grid_override=args.grid, tol_override=args.tol)
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            csv_name = cfg.get("output", {}).get("csv", f"{cfg['scenario']}.csv")
            csv_path = out_dir / csv_name
            write_scenario_csv(result, csv_path)
            print(f"wrote {csv_path}")
            if args.states_csv:
                _write_states_csv(result, Path(args.states_csv))
                print(f"wrote {args.states_csv}")
            _print_summary(cfg, result)
            return 0
        if args.command == "compare":
            cfg = _load_config(args.config)
            tol = args.tol if args.tol is not None else cfg.get("compare", {}).get("tolerance", 1e-5)
            if not tol >= 0:  # also refuses nan, which no deviation exceeds
                raise ConfigError(f"comparison tolerance must be non-negative, got {tol:g}")
            return compare_config(cfg, tolerance=tol, grid_override=args.grid)
        if args.command == "sweep":
            cfg = _load_config(args.config)
            raw = [v for v in args.values.split(",") if v.strip()]
            if not raw:
                raise ConfigError("--values is empty")
            try:
                values = [float(v) for v in raw]
            except ValueError as exc:
                raise ConfigError(f"--values must be numbers: {exc}") from exc
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            stem = Path(args.config).stem
            out_path = out_dir / f"{stem}_sweep_{args.param.replace('.', '_')}.csv"
            sweep_config(cfg, args.param, values, out_path, grid_override=args.grid)
            return 0
    except (ConfigError, NothingToCompare) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SpinWehrlError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
