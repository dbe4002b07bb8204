"""The four workloads: which CLI operations one pass runs, and their inputs.

Every operation is one ``spinwehrl.cli.main`` call. A pass runs the same
operations in the same order every time, so the share of failed operations
does not depend on the seed or on how many passes a run makes.

Inputs that depend on ``--seed``:
  run_spin_j   the initial J_z populations, drawn from a flat Dirichlet
               distribution (generically far from any Gibbs state);
  sweep_short  the swept values, drawn uniformly from fixed intervals.
run_spin_half and compare_bundled run the bundled configs unchanged, so the
seed does not alter them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

BUNDLED = Path("src/spinwehrl/configs")

RUN_SPIN_HALF = [
    "spontaneous_emission",
    "thermal_quench",
    "rotating_field_damping",
    "rotating_field_dephasing",
    "photon_pulse",
]

# Every bundled config with two or more rate methods. photon_pulse and
# damping_theta_sweep are left out: compare raises NothingToCompare on them.
COMPARE_BUNDLED = [
    "spontaneous_emission",
    "thermal_quench",
    "rotating_field_damping",
    "rotating_field_dephasing",
    "damping_j2_compare",
    "dephasing_tau_sweep",
]

# compare fails on these on every run: at their pure initial states the
# quadrature of Pi converges only like O(n^-2), and on the 96x192 grid it
# misses the closed form by 1.5e-4 and 1.9e-4 against a 1e-5 tolerance.
KNOWN_QUADRATURE_FAULT = {"rotating_field_damping", "rotating_field_dephasing"}

# run_spin_j: spin sizes, and the fixed part of the generated configs. At
# gamma t_max = 2 the 2J = 40 run spends ~2 s in RK45, which is stiffness
# bound there, beside ~5 s of Husimi transform over its 101 states.
SPIN_J_TWO_J = (4, 12, 40)
SPIN_J_STEPS = 100
SPIN_J_PARAMS = {"omega": 1.0, "gamma": 1.0, "nbar": 0.5, "t_max": 2.0}

# sweep_short: (bundled config, swept parameter, interval of drawn values).
SWEEPS = [
    ("dephasing_tau_sweep", "initial_state.tau", (0.05, 0.95)),
    ("damping_theta_sweep", "initial_state.theta", (0.15, math.pi - 0.15)),
]
SWEEP_VALUES = 100

NAMES = ("run_spin_half", "run_spin_j", "compare_bundled", "sweep_short")


def _op(kind, config, argv, outputs=(), **check):
    return {
        "kind": kind,
        "label": f"{kind} {Path(config).stem}",
        "config": str(config),
        "argv": argv,
        "outputs": [str(p) for p in outputs],
        "check": check,
    }


def _spin_j_config(two_j: int, populations: np.ndarray) -> dict:
    p = SPIN_J_PARAMS
    return {
        "scenario": "custom",
        "two_j": two_j,
        "hamiltonian": {"type": "static_jz", "omega": p["omega"]},
        "dissipator": {"type": "amplitude_damping", "gamma": p["gamma"], "nbar": p["nbar"]},
        "initial_state": {"type": "diagonal", "populations": [float(x) for x in populations]},
        "time": {"t_max": p["t_max"], "output_dt": p["t_max"] / SPIN_J_STEPS, "tol": 1e-10},
        "grid": {"n_theta": 96, "n_phi": 192},
        "output": {"csv": f"spin_j_{two_j}.csv"},
    }


def build(name: str, seed: int, out: Path) -> list:
    """Operations of one pass of workload `name`; writes generated configs under out."""
    rng = np.random.default_rng(seed)
    ops = []
    if name == "run_spin_half":
        for stem in RUN_SPIN_HALF:
            cfg = BUNDLED / f"{stem}.json"
            csv = out / json.loads(cfg.read_text())["output"]["csv"]
            ops.append(_op("run", cfg, ["run", "--config", str(cfg), "--out", str(out)], [csv], csv=str(csv)))
    elif name == "run_spin_j":
        for two_j in SPIN_J_TWO_J:
            cfg_dict = _spin_j_config(two_j, rng.dirichlet(np.ones(two_j + 1)))
            cfg = out / f"spin_j_{two_j}.json"
            cfg.write_text(json.dumps(cfg_dict, indent=1))
            csv = out / cfg_dict["output"]["csv"]
            states = out / f"spin_j_{two_j}_states.csv"
            argv = ["run", "--config", str(cfg), "--out", str(out), "--states-csv", str(states)]
            ops.append(_op("run", cfg, argv, [csv, states], csv=str(csv), states=str(states)))
    elif name == "compare_bundled":
        for stem in COMPARE_BUNDLED:
            cfg = BUNDLED / f"{stem}.json"
            ops.append(_op("compare", cfg, ["compare", "--config", str(cfg)],
                           known_fault=stem in KNOWN_QUADRATURE_FAULT))
    elif name == "sweep_short":
        for stem, param, (lo, hi) in SWEEPS:
            cfg = BUNDLED / f"{stem}.json"
            values = [float(v) for v in rng.uniform(lo, hi, SWEEP_VALUES)]
            csv = out / f"{stem}_sweep_{param.replace('.', '_')}.csv"
            argv = ["sweep", "--config", str(cfg), "--param", param,
                    "--values", ",".join(map(repr, values)), "--out", str(out)]
            ops.append(_op("sweep", cfg, argv, [csv], csv=str(csv), param=param, values=values))
    else:
        raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(NAMES)}")
    return ops
