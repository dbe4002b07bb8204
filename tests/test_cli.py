import argparse
import copy
import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from spinwehrl import (
    BlochVector,
    DensityMatrix,
    DissipatorSpec,
    HamiltonianSpec,
    Model,
    bloch_to_rho,
    entropy_rates,
    make_grid,
    phase_space,
    simulate,
)
from spinwehrl import cli
from spinwehrl.cli import GRID_MAX, STEPS_MAX, TWO_J_MAX, _write_states_csv, bundled_configs, main, validate_config
from spinwehrl.errors import ConfigError
from spinwehrl.entropy_rates import BathParams
from spinwehrl.scenarios import PulseParams, pulse_effective_rates, rotating_field_steady_state
from spinwehrl.spin_ops import SpinQuantumNumber, gibbs_state
from conftest import random_density_matrix
from oracles import savetxt_csv, temperature_from_nbar


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


QUENCH_IDLE = {
    "scenario": "thermal_quench",
    "omega": 1.0,
    "gamma": 1.0,
    "initial_temperature": 1.0,
    "bath_temperature": 1.0,
    "time": {"t_max": 2.0, "output_dt": 0.1, "tol": 1e-10},
    "grid": {"n_theta": 48, "n_phi": 96},
    "output": {"csv": "quench.csv"},
}


CUSTOM_DEPHASING = {
    "scenario": "custom",
    "two_j": 1,
    "hamiltonian": {"type": "none"},
    "dissipator": {"type": "dephasing", "lambda": 1.0},
    "initial_state": {"type": "bloch", "tau_x": 0.6, "tau_y": 0.0, "tau_z": 0.2},
    "time": {"t_max": 0.5, "output_dt": 0.1},
    "grid": {"n_theta": 48, "n_phi": 96},
}

CUSTOM_DAMPING_J2 = {
    "scenario": "custom",
    "two_j": 4,
    "hamiltonian": {"type": "static_jz", "omega": 1.0},
    "dissipator": {"type": "amplitude_damping", "gamma": 1.0, "nbar": 1.0},
    "initial_state": {"type": "diagonal", "populations": [0.3, 0.25, 0.2, 0.15, 0.1]},
    "time": {"t_max": 0.5, "output_dt": 0.1},
    "grid": {"n_theta": 48, "n_phi": 96},
}

SPIN_J_DEPHASING = dict(CUSTOM_DAMPING_J2, dissipator={"type": "dephasing", "lambda": 1.0})
GIBBS_J2 = dict(CUSTOM_DAMPING_J2, initial_state={"type": "gibbs", "temperature": 2.0, "omega": 1.0})

# What compare checks on spin-1/2 damping up to EXACT_FLUX_MAX_NBAR, T = 0 included.
SPIN_HALF_DAMPING_CHECKS = [
    "phi quadrature vs exact-2F1",
    "phi quadrature vs closed-form",
    "phi exact-2F1 vs closed-form",
    "pi quadrature vs closed-form",
]

# nbar ~ 1e15, far above EXACT_FLUX_MAX_NBAR, where the exact flux would
# miss the closed form by 0.375.
HOT_EMISSION = {
    "scenario": "spontaneous_emission",
    "omega": 1.0,
    "gamma": 1e-10,
    "temperature": 1e15,
    "time": {"t_max": 2.0, "output_dt": 0.1},
    "grid": {"n_theta": 48, "n_phi": 96},
}

QUENCH_WARM = dict(QUENCH_IDLE, initial_temperature=2.0, time={"t_max": 1.0, "output_dt": 0.2})

PULSE = {
    "scenario": "photon_pulse",
    "gamma0": 1.0,
    "bandwidth": 10.0,
    "a0": 0.9,
    "time": {"t_max": 1.0, "output_dt": 0.2},
    "grid": {"n_theta": 48, "n_phi": 96},
}

ROTATING_DEPHASING = {
    "scenario": "rotating_field",
    "b0": 1.0,
    "b1": 0.5,
    "drive_omega": 1.0,
    "dissipator": {"type": "dephasing", "lambda": 1.0},
    "initial_state": {"type": "bloch", "tau_x": 0.5, "tau_y": 0.0, "tau_z": 0.5},
    "time": {"t_max": 0.5, "output_dt": 0.1},
    "grid": {"n_theta": 48, "n_phi": 96},
}


def with_value(cfg, dotted, value):
    """Deep copy of cfg with the nested key at a dotted path set to value."""
    out = copy.deepcopy(cfg)
    *parents, leaf = dotted.split(".")
    node = out
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    node[int(leaf) if isinstance(node, list) else leaf] = value
    return out


def count_calls(monkeypatch, module, name):
    """Wrap every spinwehrl alias of module.name; returns the list of calls."""
    original = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("spinwehrl") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrapper)
    return calls


def count_legendre_rules(monkeypatch):
    """Wrap numpy's Gauss-Legendre rule; returns the list of calls, each
    (n,): a sphere grid computes its nodes through it, once per n_theta
    in a process, so the rules cached so far are dropped first."""
    phase_space._legendre.cache_clear()
    original = np.polynomial.legendre.leggauss
    calls = []

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", wrapper)
    return calls


def husimi_grid_sizes(contract_calls, reduce_calls) -> set:
    """(n_theta, n_phi) of the recorded Husimi fields: n_theta of each
    husimi_contract call, whose arguments are the (2, n, d, n_theta) pair
    table and the states, with n_phi of each call of a quadrature reduction,
    whose second argument is the (2d, n_phi) harmonics of its node rows.
    A single pair means every field was on that one grid."""
    return {(c[0].shape[-1], r[1].shape[-1]) for c in contract_calls for r in reduce_calls}


def compare_check_names(out: str) -> list:
    return [line.split(": max rel dev")[0] for line in out.splitlines() if ": max rel dev" in line]


class TestValidate:
    def test_bundled_configs_pass(self, capsys):
        names = bundled_configs()
        assert len(names) >= 6
        for name, path in names.items():
            assert main(["validate", "--config", str(path)]) == 0

    def test_unknown_key_rejected(self, tmp_path):
        cfg = dict(QUENCH_IDLE)
        cfg["unexpected"] = 1.0
        path = write_config(tmp_path, cfg)
        assert main(["validate", "--config", path]) == 2

    def test_unknown_key_message_names_field(self):
        cfg = dict(QUENCH_IDLE)
        cfg["unexpected"] = 1.0
        with pytest.raises(ConfigError, match="unexpected"):
            validate_config(cfg)

    def test_missing_required_key(self, tmp_path):
        cfg = {k: v for k, v in QUENCH_IDLE.items() if k != "gamma"}
        path = write_config(tmp_path, cfg)
        assert main(["validate", "--config", path]) == 2

    def test_bad_scenario_name(self, tmp_path):
        cfg = dict(QUENCH_IDLE, scenario="unknown_thing")
        path = write_config(tmp_path, cfg)
        assert main(["validate", "--config", path]) == 2

    def test_missing_file(self):
        assert main(["validate", "--config", "/nonexistent/x.json"]) == 2

    def test_deeply_nested_config(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["validate", "run", "compare"])
    def test_integer_beyond_the_digit_limit(self, tmp_path, capsys, command):
        # json.load raises ValueError on an integer literal of more than
        # sys.get_int_max_str_digits() (4300) digits.
        path = tmp_path / "huge.json"
        text = json.dumps(CUSTOM_DEPHASING)
        path.write_text(text.replace('"lambda": 1.0', '"lambda": 1' + "0" * 5000))
        out = tmp_path / "out"
        assert main([command, "--config", str(path)] + (["--out", str(out)] if command == "run" else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("two_j", [1001, 10**6, 10**300], ids=["1001", "1e6", "1e300"])
    @pytest.mark.parametrize("command", ["validate", "run", "compare"])
    def test_two_j_above_the_limit(self, tmp_path, capsys, command, two_j):
        # At 10**6 numpy would ask for 14.6 TiB for the Gibbs state (a
        # MemoryError), at 10**300 for more than it can (a ValueError).
        path = write_config(tmp_path, dict(GIBBS_J2, two_j=two_j))
        out = tmp_path / "out"
        assert main([command, "--config", path] + (["--out", str(out)] if command == "run" else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"at most {TWO_J_MAX}" in err and "Traceback" not in err
        assert not out.exists()

    def test_two_j_at_the_limit_validates(self, tmp_path):
        assert TWO_J_MAX == 1000
        assert main(["validate", "--config", write_config(tmp_path, dict(GIBBS_J2, two_j=TWO_J_MAX))]) == 0

    def test_steps_and_grid_at_the_limits_validate(self, tmp_path):
        cfg = with_value(QUENCH_IDLE, "time", {"t_max": 2.0, "output_dt": 2.0 / STEPS_MAX})
        cfg = with_value(cfg, "grid", {"n_theta": GRID_MAX, "n_phi": GRID_MAX})
        assert main(["validate", "--config", write_config(tmp_path, cfg)]) == 0
        assert STEPS_MAX >= 800 and GRID_MAX >= 192  # every bundled config's


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main_under_memory_limit(argv, cwd):
    """main(argv) in a fresh process whose address space is capped at 3 GiB:
    an oversized run that validation let through fails to allocate there,
    instead of filling the host's memory."""
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)); "
            f"from spinwehrl.cli import main; sys.exit(main({argv!r}))")
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


class TestOversizedRuns:
    """A run whose arrays numpy cannot allocate is a config error, refused
    before any array is built: exit 2, no traceback and no file."""

    def assert_refused(self, tmp_path, argv, message):
        proc = main_under_memory_limit(argv, tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("config error:") and message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("command", ["validate", "run", "compare", "sweep"])
    def test_too_many_steps(self, tmp_path, command):
        # 1.4e13 steps up to t_max = 14: the time grid alone would take 102 TiB.
        path = write_config(tmp_path, with_value(
            json.loads(bundled_configs()["spontaneous_emission.json"].read_text()), "time.output_dt", 1e-12))
        extra = {
            "validate": [],
            "run": ["--out", str(tmp_path)],
            "compare": [],
            # The first value runs; the second is refused, and no table is written.
            "sweep": ["--param", "time.output_dt", "--values", "0.1,1e-12", "--out", str(tmp_path)],
        }[command]
        self.assert_refused(tmp_path, [command, "--config", path] + extra, f"at most {STEPS_MAX} steps")

    @pytest.mark.parametrize(
        "command, grid",
        [("compare", "8x10000000000"), ("compare", "100000x200"), ("run", "4097x8"), ("sweep", "8x4097")],
    )
    def test_grid_override_above_the_limit(self, tmp_path, command, grid):
        # 8 x 1e10 nodes: 74.5 GiB of phi nodes; 1e5 theta nodes: an 80 GB
        # Legendre companion matrix.
        path = write_config(tmp_path, json.loads(bundled_configs()["spontaneous_emission.json"].read_text()))
        extra = {
            "compare": [],
            "run": ["--out", str(tmp_path)],
            "sweep": ["--param", "temperature", "--values", "0.5", "--out", str(tmp_path)],
        }[command]
        self.assert_refused(tmp_path, [command, "--config", path, "--grid", grid] + extra, f"to {GRID_MAX}")

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("key, size", [("n_theta", 4097), ("n_phi", 10**10)])
    def test_grid_section_above_the_limit(self, tmp_path, command, key, size):
        path = write_config(tmp_path, with_value(QUENCH_IDLE, f"grid.{key}", size))
        extra = ["--out", str(tmp_path)] if command == "run" else []
        self.assert_refused(tmp_path, [command, "--config", path] + extra, f"must be at most {GRID_MAX}, got {size}")

    @pytest.mark.parametrize(
        "cfg",
        [
            pytest.param(with_value(QUENCH_IDLE, "time.output_dt", 3.0), id="output_dt>t_max"),
            pytest.param(with_value(QUENCH_IDLE, "grid.n_theta", 4), id="grid<8"),
            pytest.param(with_value(QUENCH_IDLE, "grid.n_theta", 16.9), id="grid-n_theta-not-integer"),
            pytest.param(with_value(QUENCH_IDLE, "grid.n_phi", 32.5), id="grid-n_phi-not-integer"),
            pytest.param(with_value(QUENCH_IDLE, "grid.n_theta", 16.0), id="grid-n_theta-float"),
            pytest.param(with_value(QUENCH_IDLE, "grid.n_phi", True), id="grid-n_phi-bool"),
            pytest.param(with_value(QUENCH_IDLE, "time.tol", 0.0), id="tol=0"),
            pytest.param(with_value(QUENCH_IDLE, "time.tol", -1e-10), id="tol<0"),
            pytest.param(with_value(QUENCH_IDLE, "time.t_max", math.nan), id="nan-t_max"),
            pytest.param(with_value(QUENCH_IDLE, "time.output_dt", math.nan), id="nan-output_dt"),
            pytest.param(with_value(QUENCH_IDLE, "time.output_dt", 1e-320), id="subnormal-output_dt"),
            pytest.param(with_value(QUENCH_IDLE, "grid.n_phi", "96"), id="grid-not-number"),
            pytest.param(with_value(CUSTOM_DAMPING_J2, "initial_state.populations.1", "x"), id="population-not-number"),
            pytest.param(with_value(CUSTOM_DAMPING_J2, "initial_state.populations.0", -0.1), id="population<0"),
            pytest.param(with_value(CUSTOM_DEPHASING, "dissipator.lambda", -1.0), id="lambda<0"),
            pytest.param(with_value(CUSTOM_DAMPING_J2, "dissipator.gamma", -1.0), id="gamma<0"),
            pytest.param(with_value(QUENCH_IDLE, "gamma", -1.0), id="scenario-gamma<0"),
            pytest.param(with_value(CUSTOM_DAMPING_J2, "dissipator.nbar", -0.5), id="nbar<0"),
            pytest.param(with_value(CUSTOM_DEPHASING, "dissipator", 1.0), id="section-not-object"),
            pytest.param(dict(QUENCH_IDLE, compare={"tolerance": "1e-5"}), id="tolerance-not-number"),
            pytest.param(dict(QUENCH_IDLE, output={"csv": 5}), id="csv-not-name"),
            pytest.param(dict(QUENCH_IDLE, output={"csv": ""}), id="csv-empty"),
            pytest.param(with_value(CUSTOM_DAMPING_J2, "hamiltonian.omega", 0.0), id="static_jz-omega=0-damping"),
            pytest.param(with_value(CUSTOM_DAMPING_J2, "hamiltonian.omega", -1.0), id="static_jz-omega<0-damping"),
            pytest.param(
                with_value(CUSTOM_DAMPING_J2, "hamiltonian", {"type": "rotating_field", "b0": 1.0, "b1": 0.5, "drive_omega": 1.0}),
                id="rotating_field-two_j>1",
            ),
            pytest.param(dict(QUENCH_IDLE, omega=-1.0), id="scenario-omega<0"),
            pytest.param(with_value(CUSTOM_DEPHASING, "two_j", 2), id="two_j=2-bloch"),
            pytest.param(
                with_value(with_value(CUSTOM_DAMPING_J2, "two_j", 2), "initial_state.populations", [0.6, 0.4]),
                id="two_j=2-two-populations",
            ),
            pytest.param(with_value(CUSTOM_DAMPING_J2, "initial_state.populations", [0.0] * 5), id="populations-all-zero"),
            pytest.param(dict(PULSE, bandwidth=0.5), id="bandwidth<=gamma0"),
            pytest.param(dict(PULSE, a0=1.5), id="a0>1"),
            pytest.param(dict(QUENCH_IDLE, scenario=[]), id="scenario-unhashable"),
            pytest.param(with_value(CUSTOM_DEPHASING, "dissipator.type", ["dephasing"]), id="type-unhashable"),
            pytest.param(
                with_value(ROTATING_DEPHASING, "initial_state", {"type": "bloch", "tau_x": 0, "tau_y": 0, "tau_z": 1e300}),
                id="bloch-component-overflows",
            ),
            pytest.param(dict(QUENCH_IDLE, omega=1e-73, bath_temperature=1e300), id="occupation-overflows"),
            pytest.param(
                with_value(ROTATING_DEPHASING, "initial_state", {"type": "bloch", "tau_x": 1.0, "tau_y": 1.0, "tau_z": 1.0}),
                id="bloch-tau>1",
            ),
        ],
    )
    def test_malformed_config_is_a_config_error(self, tmp_path, cfg):
        with pytest.raises(ConfigError):
            validate_config(cfg)
        path = write_config(tmp_path, cfg)
        assert main(["validate", "--config", path]) == 2
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("dotted", ["two_j", "dissipator.gamma"])
    @pytest.mark.parametrize("command", ["validate", "run", "compare"])
    def test_an_integer_too_large_for_a_double_is_a_config_error(self, tmp_path, capsys, dotted, command):
        # A JSON integer of 401 digits loads as a Python int that no double holds.
        path = write_config(tmp_path, with_value(CUSTOM_DAMPING_J2, dotted, 10**400))
        argv = [command, "--config", path] + (["--out", str(tmp_path)] if command == "run" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: key '{dotted.split('.')[-1]}'") and "must be a finite number" in err
        assert "Traceback" not in err

    def test_non_markovian_pulse_exit_code(self, tmp_path):
        # a0 below the Markovianity threshold 0.8 is a numerical failure in
        # validate as in run
        path = write_config(tmp_path, dict(PULSE, bandwidth=4.0, a0=0.7071067811865476))
        assert main(["validate", "--config", path]) == 3
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 3

    def test_validation_builds_no_grid(self, monkeypatch):
        calls = count_legendre_rules(monkeypatch)
        for path in bundled_configs().values():
            validate_config(json.loads(path.read_text()))
        assert calls == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("two_j", [1, 4])
    def test_gibbs_state_below_the_smallest_temperature_is_the_ground_state(self, tmp_path, two_j):
        # -omega m / T overflows at T = 5e-324: the weights above the ground
        # energy underflow to 0.
        cfg = with_value(CUSTOM_DAMPING_J2, "initial_state", {"type": "gibbs", "temperature": 5e-324, "omega": 1.0})
        cfg = with_value(cfg, "two_j", two_j)
        path = write_config(tmp_path, cfg)
        assert main(["validate", "--config", path]) == 0
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 0
        ground = gibbs_state(SpinQuantumNumber(two_j), 1, 0.0)
        assert np.array_equal(validate_config(cfg).model.rho0.entries, ground.entries)

    def test_run_has_no_tolerance_flag(self, tmp_path, monkeypatch):
        # time.tol is still read and checked from the config, but run takes no --tol.
        calls = count_calls(monkeypatch, sys.modules["spinwehrl.dynamics"], "evolve")
        path = write_config(tmp_path, QUENCH_IDLE)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", path, "--out", str(tmp_path), "--tol", "1e-9"])
        assert exc.value.code == 2
        assert calls == []


class TestRun:
    def test_idle_quench_summary_and_csv(self, tmp_path, capsys):
        path = write_config(tmp_path, QUENCH_IDLE)
        code = main(["run", "--config", path, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        sigma_line = next(line for line in out.splitlines() if line.startswith("Sigma"))
        assert abs(float(sigma_line.split()[-1])) < 1e-12
        csv_path = tmp_path / "quench.csv"
        header = csv_path.read_text().splitlines()[0].split(",")
        assert header == [
            "t", "tau_x", "tau_y", "tau_z", "S_wehrl", "Pi_wehrl",
            "Phi_wehrl", "Pi_vN", "Phi_vN", "Phi_E",
        ]
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
        assert np.max(np.abs(data[:, 5])) < 1e-12  # Pi == 0 at equilibrium

    def test_determinism(self, tmp_path):
        path = write_config(tmp_path, QUENCH_IDLE)
        main(["run", "--config", path, "--out", str(tmp_path / "a")])
        main(["run", "--config", path, "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "quench.csv").read_bytes()
        b = (tmp_path / "b" / "quench.csv").read_bytes()
        assert a == b

    def test_grid_override_and_states_dump(self, tmp_path):
        path = write_config(tmp_path, QUENCH_IDLE)
        dump = tmp_path / "states.csv"
        code = main([
            "run", "--config", path, "--out", str(tmp_path),
            "--grid", "4x4", "--states-csv", str(dump),
        ])
        assert code == 2  # grid below the minimum size is a config error
        code = main([
            "run", "--config", path, "--out", str(tmp_path),
            "--grid", "48x96", "--states-csv", str(dump),
        ])
        assert code == 0
        lines = dump.read_text().splitlines()
        assert lines[0].split(",")[:3] == ["t", "re_rho_00", "im_rho_00"]
        assert len(lines) == 22  # header + 21 output steps

    def test_spin_half_run_builds_no_grid(self, tmp_path, monkeypatch):
        calls = count_legendre_rules(monkeypatch)
        argv = ["run", "--config", write_config(tmp_path, QUENCH_IDLE), "--out", str(tmp_path)]
        assert main(argv) == 0
        assert main(argv + ["--grid", "48x96"]) == 0
        assert calls == []
        path = write_config(tmp_path, CUSTOM_DAMPING_J2)
        assert main(["run", "--config", path, "--out", str(tmp_path), "--grid", "24x48"]) == 0
        assert calls == [(24,)]

    @pytest.mark.parametrize(
        "cfg, grid",
        [
            (QUENCH_IDLE, "4x4"),
            (QUENCH_IDLE, "abc"),
            (QUENCH_IDLE, "96x192x2"),
            (with_value(QUENCH_IDLE, "grid.n_phi", 4), None),
            (with_value(CUSTOM_DAMPING_J2, "grid.n_theta", 4), None),
            (CUSTOM_DAMPING_J2, "8x4"),
        ],
        ids=[
            "spin-half-4x4", "spin-half-abc", "spin-half-three-sizes", "spin-half-section", "spin-j-section",
            "spin-j-8x4",
        ],
    )
    def test_bad_grid_exits_2_before_integrating(self, tmp_path, monkeypatch, cfg, grid):
        calls = count_calls(monkeypatch, sys.modules["spinwehrl.dynamics"], "evolve")
        argv = ["run", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]
        assert main(argv + (["--grid", grid] if grid else [])) == 2
        assert calls == []

    @pytest.mark.parametrize("command", ["run", "compare", "sweep"])
    def test_bad_grid_section_exits_2_with_a_grid_override(self, tmp_path, monkeypatch, command):
        calls = count_calls(monkeypatch, sys.modules["spinwehrl.dynamics"], "evolve")
        path = write_config(tmp_path, with_value(CUSTOM_DAMPING_J2, "grid.n_theta", 4))
        extra = {
            "run": ["--out", str(tmp_path)],
            "compare": [],
            "sweep": ["--param", "dissipator.nbar", "--values", "1.0", "--out", str(tmp_path)],
        }[command]
        assert main([command, "--config", path, "--grid", "24x48"] + extra) == 2
        assert calls == []

    def test_pulse_run_has_gamma_column(self, tmp_path):
        cfg = {
            "scenario": "photon_pulse",
            "gamma0": 1.0,
            "bandwidth": 10.0,
            "a0": 0.7071067811865476,
            "time": {"t_max": 3.0, "output_dt": 0.1},
            "grid": {"n_theta": 48, "n_phi": 96},
            "output": {"csv": "pulse.csv"},
        }
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 0
        header = (tmp_path / "pulse.csv").read_text().splitlines()[0]
        assert header.endswith("gamma_t")
        # %.17g round-trips, so the column is the pulse's own Gamma_t bit for bit
        table = np.loadtxt(tmp_path / "pulse.csv", delimiter=",", skiprows=1)
        params = PulseParams(gamma0=1.0, capital_omega=10.0, a0=0.7071067811865476)
        assert np.array_equal(table[:, -1], pulse_effective_rates(params, table[:, 0]))

    def test_numerical_failure_exit_code(self, tmp_path):
        cfg = {
            "scenario": "photon_pulse",
            "gamma0": 1.0,
            "bandwidth": 4.0,
            "a0": 0.7071067811865476,  # below the Markovianity threshold 0.8
            "time": {"t_max": 3.0, "output_dt": 0.1},
            "grid": {"n_theta": 48, "n_phi": 96},
        }
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 3

    @pytest.mark.filterwarnings("error")
    def test_hot_bath_run(self, tmp_path):
        # T/omega = 1e8: gamma dt (2 nbar + 1) = 2e7 per output step
        cfg = {
            "scenario": "spontaneous_emission",
            "omega": 1.0,
            "gamma": 1.0,
            "temperature": 1e8,
            "time": {"t_max": 2.0, "output_dt": 0.1},
        }
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 0

    def test_dephasing_tau_one_emits_inf_token(self, tmp_path):
        cfg = {
            "scenario": "custom",
            "two_j": 1,
            "hamiltonian": {"type": "none"},
            "dissipator": {"type": "dephasing", "lambda": 1.0},
            "initial_state": {"type": "bloch_angles", "tau": 1.0, "theta": math.pi / 2, "phi": 0.0},
            "time": {"t_max": 0.2, "output_dt": 0.1},
            "grid": {"n_theta": 48, "n_phi": 96},
            "output": {"csv": "tau1.csv"},
        }
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "tau1.csv").read_text().splitlines()
        first = lines[1].split(",")
        header = lines[0].split(",")
        assert first[header.index("Pi_vN")] == "inf"
        pi_w = float(first[header.index("Pi_wehrl")])
        assert abs(pi_w - 0.25) < 1e-9  # lambda/4 for the pure equator state

    @pytest.mark.parametrize(
        "dissipator",
        [{"type": "dephasing", "lambda": 1.0}, {"type": "amplitude_damping", "gamma": 1.0, "nbar": 0.5}],
        ids=["dephasing", "damping"],
    )
    def test_pure_state_with_bloch_length_above_one_runs(self, tmp_path, capsys, dissipator):
        # This pure state's Bloch vector has length 1 + 2.2e-16 in floating point.
        cfg = json.loads(bundled_configs()["rotating_field_dephasing.json"].read_text())
        cfg["initial_state"] = {"type": "bloch_angles", "tau": 1.0, "theta": 2.5795714303404877, "phi": 6.16900929244083}
        cfg["dissipator"] = dissipator
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        assert main(["compare", "--config", path]) == 0


class TestCompare:
    def test_spin_half_damping_triangle(self, tmp_path, capsys):
        cfg = {
            "scenario": "thermal_quench",
            "omega": 1.0,
            "gamma": 1.0,
            "initial_temperature": 2.0,
            "bath_temperature": 1.0,
            "time": {"t_max": 2.0, "output_dt": 0.2, "tol": 1e-10},
            "grid": {"n_theta": 96, "n_phi": 192},
        }
        path = write_config(tmp_path, cfg)
        assert main(["compare", "--config", path, "--tol", "1e-5"]) == 0
        out = capsys.readouterr().out
        assert "exact-2F1" in out and "closed-form" in out

    def test_spin_two_damping_quadrature_vs_exact(self, tmp_path):
        cfg = {
            "scenario": "custom",
            "two_j": 4,
            "hamiltonian": {"type": "static_jz", "omega": 1.0},
            "dissipator": {"type": "amplitude_damping", "gamma": 1.0, "nbar": 1.0},
            "initial_state": {"type": "diagonal", "populations": [0.3, 0.25, 0.2, 0.15, 0.1]},
            "time": {"t_max": 0.5, "output_dt": 0.1},
            "grid": {"n_theta": 96, "n_phi": 192},
        }
        path = write_config(tmp_path, cfg)
        assert main(["compare", "--config", path, "--tol", "1e-6"]) == 0

    def test_dephasing_quadrature_vs_closed(self, tmp_path):
        cfg = {
            "scenario": "custom",
            "two_j": 1,
            "hamiltonian": {"type": "none"},
            "dissipator": {"type": "dephasing", "lambda": 1.0},
            "initial_state": {"type": "bloch", "tau_x": 0.6, "tau_y": 0.0, "tau_z": 0.2},
            "time": {"t_max": 0.5, "output_dt": 0.1},
            "grid": {"n_theta": 96, "n_phi": 192},
        }
        path = write_config(tmp_path, cfg)
        assert main(["compare", "--config", path, "--tol", "1e-5"]) == 0

    @pytest.mark.parametrize("name", ["rotating_field_damping.json", "rotating_field_dephasing.json"])
    def test_rotating_field_quadrature_passes(self, capsys, name):
        # Coherent spin-1/2 states, pure at t = 0, reduced in their own
        # frames on the config's own 96 x 192 grid.
        assert main(["compare", "--config", str(bundled_configs()[name])]) == 0
        out = capsys.readouterr().out
        deviations = [float(line.split()[-1]) for line in out.splitlines() if ": max rel dev" in line]
        assert deviations and max(deviations) <= 1e-9

    def test_impossible_tolerance_fails(self, tmp_path):
        cfg = {
            "scenario": "thermal_quench",
            "omega": 1.0,
            "gamma": 1.0,
            "initial_temperature": 2.0,
            "bath_temperature": 1.0,
            "time": {"t_max": 1.0, "output_dt": 0.2},
            "grid": {"n_theta": 48, "n_phi": 96},
        }
        path = write_config(tmp_path, cfg)
        assert main(["compare", "--config", path, "--tol", "1e-18"]) == 1

    def test_single_method_scenario_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, SPIN_J_DEPHASING)
        assert main(["compare", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: fewer than two rate methods apply")
        assert err.rstrip().endswith("2J = 4, dephasing, nbar = 0: quadrature")

    @pytest.mark.parametrize(
        "cfg, names",
        [
            pytest.param(CUSTOM_DEPHASING, ["pi quadrature vs closed-form"], id="spin-1/2-dephasing"),
            pytest.param(QUENCH_WARM, SPIN_HALF_DAMPING_CHECKS, id="spin-1/2-damping"),
            pytest.param(CUSTOM_DAMPING_J2, ["phi quadrature vs exact-2F1"], id="2J=4-damping"),
            pytest.param(
                HOT_EMISSION,
                ["phi quadrature vs closed-form", "pi quadrature vs closed-form"],
                id="spin-1/2-damping-above-exact-flux-bound",
            ),
        ],
    )
    def test_check_names_and_order(self, tmp_path, capsys, cfg, names):
        path = write_config(tmp_path, cfg)
        assert main(["compare", "--config", path, "--tol", "1.0"]) == 0
        assert compare_check_names(capsys.readouterr().out) == names

    @pytest.mark.parametrize(
        "name, names",
        [
            ("photon_pulse.json", SPIN_HALF_DAMPING_CHECKS),
            ("damping_theta_sweep.json", SPIN_HALF_DAMPING_CHECKS),
            ("spin-j", ["phi quadrature vs exact-2F1"]),
        ],
    )
    def test_zero_temperature_baths_are_cross_checked(self, tmp_path, capsys, name, names):
        # Every method applies at nbar = 0; each config passes at its own
        # tolerance (1e-5 where it sets none).
        if name == "spin-j":
            path = write_config(tmp_path, with_value(CUSTOM_DAMPING_J2, "dissipator.nbar", 0.0))
        else:
            path = str(bundled_configs()[name])
        assert main(["compare", "--config", path]) == 0
        out = capsys.readouterr().out
        assert compare_check_names(out) == names
        assert out.splitlines()[-1].endswith("within tolerance 1e-05")

    def test_hot_spin_j_bath_has_nothing_to_compare(self, tmp_path):
        cfg = copy.deepcopy(CUSTOM_DAMPING_J2)
        cfg["dissipator"]["nbar"] = 1e7  # above EXACT_FLUX_MAX_NBAR: the quadrature alone applies
        path = write_config(tmp_path, cfg)
        assert main(["compare", "--config", path]) == 2

    @pytest.mark.parametrize(
        "cfg",
        [SPIN_J_DEPHASING, with_value(CUSTOM_DAMPING_J2, "dissipator.nbar", 2e6)],
        ids=["spin-j-dephasing", "spin-j-damping-above-exact-flux-bound"],
    )
    def test_single_method_rejected_before_integrating(self, tmp_path, monkeypatch, cfg):
        calls = count_calls(monkeypatch, sys.modules["spinwehrl.dynamics"], "evolve")
        assert main(["compare", "--config", write_config(tmp_path, cfg)]) == 2
        assert calls == []

    @pytest.mark.parametrize("tol", ["nan", "-1e-5"])
    def test_bad_comparison_tolerance_is_a_config_error(self, tmp_path, tol):
        path = write_config(tmp_path, CUSTOM_DEPHASING)
        assert main(["compare", "--config", path, f"--tol={tol}"]) == 2

    def test_grid_override_builds_the_fields_on_it(self, tmp_path, monkeypatch, capsys):
        calls = count_calls(monkeypatch, sys.modules["spinwehrl._kernels"], "husimi_contract")
        reduces = count_calls(monkeypatch, sys.modules["spinwehrl._kernels"], "damping_reduce")
        path = write_config(tmp_path, CUSTOM_DAMPING_J2)  # 48x96 in the file
        assert main(["compare", "--config", path, "--grid", "24x48", "--tol", "1.0"]) == 0
        assert husimi_grid_sizes(calls, reduces) == {(24, 48)}
        assert sum(len(args[-1]) for args in calls) == 6
        out = capsys.readouterr().out
        small = write_config(tmp_path, with_value(CUSTOM_DAMPING_J2, "grid", {"n_theta": 24, "n_phi": 48}), "small.json")
        assert main(["compare", "--config", small, "--tol", "1.0"]) == 0
        assert capsys.readouterr().out == out

    def test_infinite_tolerance_accepts_any_deviation(self, tmp_path, capsys):
        path = write_config(tmp_path, CUSTOM_DEPHASING)
        assert main(["compare", "--config", path, "--tol=inf"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith("within tolerance inf")

    def test_a_nan_deviation_fails(self, tmp_path, capsys, monkeypatch):
        # A NaN in one series (the closed form's Pi at one time) makes its
        # deviation NaN: a check passes only at a deviation at most the
        # tolerance. (A rate large enough to overflow is refused before
        # integrating; see test_overflowing_rate_is_a_numerical_failure_without_warnings.)
        original = entropy_rates.spin_half_damping_rates

        def with_a_nan(b, bath):
            rates = original(b, bath)
            pi = rates.pi.copy()
            pi[3] = math.nan
            return dataclasses.replace(rates, pi=pi)

        monkeypatch.setattr(entropy_rates, "spin_half_damping_rates", with_a_nan)
        cfg = dict(HOT_EMISSION, temperature=1.0, time={"t_max": 1.0, "output_dt": 0.1},
                   grid={"n_theta": 16, "n_phi": 32})
        assert main(["compare", "--config", write_config(tmp_path, cfg)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "pi quadrature vs closed-form: max rel dev nan" in out
        assert out[-1] == "FAIL: worst deviation nan exceeds tolerance 1e-05"

    def test_one_husimi_field_per_state(self, tmp_path, monkeypatch):
        # The states of the fields husimi_chunks yields: the transform also
        # runs on the own-frame populations of this coherent spin-1/2 run.
        states = []
        original = phase_space.husimi_chunks

        def counted(*args):
            for field in original(*args):
                states.append(field.coef.shape[2])
                yield field

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("spinwehrl") and getattr(mod, "husimi_chunks", None) is original:
                monkeypatch.setattr(mod, "husimi_chunks", counted)
        path = write_config(tmp_path, CUSTOM_DEPHASING)
        assert main(["compare", "--config", path]) == 0
        assert sum(states) == 6  # states at t = 0, 0.1, ..., 0.5


class TestIOErrors:
    """Files that cannot be read or written exit 2 with a message."""

    def run_io(self, capsys, argv):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("I/O error:") and "Traceback" not in err

    def test_out_is_a_file(self, tmp_path, monkeypatch, capsys):
        calls = count_calls(monkeypatch, sys.modules["spinwehrl.dynamics"], "evolve")
        path = write_config(tmp_path, CUSTOM_DEPHASING)
        self.run_io(capsys, ["run", "--config", path, "--out", path])
        assert calls == []  # checked before integrating

    def test_states_csv_in_missing_directory(self, tmp_path, monkeypatch, capsys):
        calls = count_calls(monkeypatch, sys.modules["spinwehrl.dynamics"], "evolve")
        path = write_config(tmp_path, CUSTOM_DEPHASING)
        dump = str(tmp_path / "missing" / "x.csv")
        self.run_io(capsys, ["run", "--config", path, "--out", str(tmp_path), "--states-csv", dump])
        assert calls == []  # checked before integrating, and before writing the run CSV
        assert not (tmp_path / "custom.csv").exists()

    def test_states_csv_is_a_directory(self, tmp_path, monkeypatch, capsys):
        calls = count_calls(monkeypatch, sys.modules["spinwehrl.dynamics"], "evolve")
        path = write_config(tmp_path, CUSTOM_DEPHASING)
        dump = tmp_path / "dump"
        dump.mkdir()
        self.run_io(capsys, ["run", "--config", path, "--out", str(tmp_path), "--states-csv", str(dump)])
        assert calls == []  # checked before integrating, and before writing the run CSV
        assert not (tmp_path / "custom.csv").exists() and not any(dump.iterdir())

    def test_run_csv_is_a_directory(self, tmp_path, monkeypatch, capsys):
        calls = count_calls(monkeypatch, sys.modules["spinwehrl.dynamics"], "evolve")
        path = write_config(tmp_path, dict(CUSTOM_DEPHASING, output={"csv": "taken"}))
        (tmp_path / "taken").mkdir()
        self.run_io(capsys, ["run", "--config", path, "--out", str(tmp_path)])
        assert calls == []  # checked before integrating
        assert not any((tmp_path / "taken").iterdir())

    def test_run_csv_in_missing_directory(self, tmp_path, monkeypatch, capsys):
        calls = count_calls(monkeypatch, sys.modules["spinwehrl.dynamics"], "evolve")
        path = write_config(tmp_path, dict(CUSTOM_DEPHASING, output={"csv": "missing/run.csv"}))
        dump = tmp_path / "states.csv"
        self.run_io(capsys, ["run", "--config", path, "--out", str(tmp_path), "--states-csv", str(dump)])
        assert calls == []  # checked before integrating, and before writing the dump
        assert not (tmp_path / "missing").exists() and not dump.exists()

    def test_states_csv_names_the_run_csv(self, tmp_path, monkeypatch, capsys):
        # By another spelling of the same path: refused before integrating,
        # where the dump would silently replace the run CSV.
        calls = count_calls(monkeypatch, sys.modules["spinwehrl.dynamics"], "evolve")
        path = write_config(tmp_path, CUSTOM_DEPHASING)
        out = tmp_path / "out"
        dump = str(out / ".." / "out" / "custom.csv")
        code = main(["run", "--config", path, "--out", str(out), "--states-csv", dump])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"I/O error: --states-csv {dump!r} names the run CSV\n"
        assert calls == [] and not any(out.iterdir())

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_empty_run_csv_name(self, tmp_path, monkeypatch, capsys, command):
        calls = count_calls(monkeypatch, sys.modules["spinwehrl.dynamics"], "evolve")
        path = write_config(tmp_path, dict(CUSTOM_DEPHASING, output={"csv": ""}))
        out = tmp_path / "out"
        assert main([command, "--config", path] + (["--out", str(out)] if command == "run" else [])) == 2
        assert capsys.readouterr().err == "config error: 'csv' in 'output' must be a file name\n"
        assert calls == [] and not out.exists()

    def test_config_is_a_directory(self, tmp_path, capsys):
        self.run_io(capsys, ["validate", "--config", str(tmp_path)])

    def test_config_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        cfg = dict(CUSTOM_DEPHASING, output={"csv": "\xe9.csv"})
        path.write_bytes(json.dumps(cfg, ensure_ascii=False).encode("latin-1"))
        self.run_io(capsys, ["validate", "--config", str(path)])


class TestOneValidationPerCommand:
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_validate_called_once(self, tmp_path, monkeypatch, command):
        calls = count_calls(monkeypatch, sys.modules["spinwehrl.cli"], "validate_config")
        path = write_config(tmp_path, QUENCH_WARM)
        argv = [command, "--config", path] + (["--out", str(tmp_path)] if command == "run" else [])
        assert main(argv) == 0
        assert len(calls) == 1


def run_final_state(tmp_path, capsys, cfg) -> np.ndarray:
    """The last state of a run of cfg, read back from its --states-csv dump,
    after checking that the run exits 0 and writes nothing to stderr."""
    path = write_config(tmp_path, cfg)
    states = tmp_path / "states.csv"
    assert main(["run", "--config", path, "--out", str(tmp_path), "--states-csv", str(states)]) == 0
    assert capsys.readouterr().err == ""
    final = np.loadtxt(states, delimiter=",", skiprows=1)[-1, 1:]
    d = math.isqrt(final.size // 2)
    return (final[0::2] + 1j * final[1::2]).reshape(d, d)



def read_states_csv(path):
    """Times and (n, d, d) entries of a --states-csv dump."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    d = math.isqrt((data.shape[1] - 1) // 2)
    return data[:, 0], np.ascontiguousarray(data[:, 1:]).view(complex).reshape(-1, d, d)


def _even_orders_state() -> DensityMatrix:
    j = SpinQuantumNumber(4)
    i, k = np.indices((j.dim, j.dim))
    rho = random_density_matrix(j, np.random.default_rng(31)).entries
    return DensityMatrix(j, rho * (np.abs(i - k) % 2 == 0))


# Trajectories of each layout the dump writes: J_z-diagonal with populations
# that stay +0.0 (no damping), spin-1/2 coherences under both propagators,
# and spin-J coherences on every order or on the even ones.
DUMP_MODELS = {
    "pole_undamped": lambda: Model(DensityMatrix(SpinQuantumNumber(4), np.diag([1.0, 0, 0, 0, 0]).astype(complex)),
                                   HamiltonianSpec.static_jz(1.0), DissipatorSpec.dephasing(1.0)),
    "spin_half_covariant": lambda: Model(bloch_to_rho(BlochVector(0.3, -0.4, 0.5)), HamiltonianSpec.static_jz(1.0),
                                         DissipatorSpec.amplitude_damping(1.0, 0.5)),
    "spin_half_rotating": lambda: Model(bloch_to_rho(BlochVector(0.0, 0.0, 0.7)),
                                        HamiltonianSpec.rotating_field(1.0, 0.7, 1.3), DissipatorSpec.dephasing(1.0)),
    "spin_j_coherent": lambda: Model(random_density_matrix(SpinQuantumNumber(4), np.random.default_rng(24)),
                                     HamiltonianSpec.static_jz(1.0), DissipatorSpec.amplitude_damping(1.0, 0.5)),
    "spin_j_even_orders": lambda: Model(_even_orders_state(), HamiltonianSpec.static_jz(1.0),
                                        DissipatorSpec.amplitude_damping(1.0, 0.5)),
}


class TestStatesDump:
    """A --states-csv dump reads back to the trajectory bit for bit."""

    def assert_reads_back(self, path, result):
        times, entries = read_states_csv(path)
        assert times.tobytes() == result.times.tobytes()
        assert entries.tobytes() == np.ascontiguousarray(result.trajectory.entries).tobytes()

    def run_dump(self, tmp_path, monkeypatch, cfg):
        calls = count_calls(monkeypatch, sys.modules["spinwehrl.cli"], "_write_states_csv")
        dump = tmp_path / "states.csv"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path),
                     "--states-csv", str(dump)]) == 0
        ((result, _),) = calls
        return dump, result

    def test_diagonal_spin_j_dump(self, tmp_path, monkeypatch):
        populations = [1.0 + k % 5 for k in range(13)]
        cfg = with_value(with_value(CUSTOM_DAMPING_J2, "two_j", 12), "initial_state.populations", populations)
        dump, result = self.run_dump(tmp_path, monkeypatch, cfg)
        assert result.trajectory.orders == (0,)
        self.assert_reads_back(dump, result)

    def test_coherent_spin_half_dump(self, tmp_path, monkeypatch):
        cfg = with_value(CUSTOM_DAMPING_J2, "two_j", 1)
        cfg = with_value(cfg, "initial_state", {"type": "bloch_angles", "tau": 0.9, "theta": 1.1, "phi": 0.4})
        dump, result = self.run_dump(tmp_path, monkeypatch, cfg)
        assert np.all(result.trajectory.entries[:, 0, 1] != 0)
        self.assert_reads_back(dump, result)

    @pytest.mark.parametrize("case", list(DUMP_MODELS))
    def test_dump_is_the_dense_table(self, tmp_path, case):
        # The dump, written from the order diagonals, is byte for byte the
        # dense table of every entry at %.17g (numpy's savetxt).
        result = simulate(DUMP_MODELS[case](), t_max=0.5, dt=0.1, grid=make_grid(8, 16))
        entries = np.ascontiguousarray(result.trajectory.entries)
        n, d, _ = entries.shape
        header = ["t"] + [f"{part}_rho_{a}{b}" for a in range(d) for b in range(d) for part in ("re", "im")]
        savetxt_csv(tmp_path / "dense.csv", header, np.column_stack([result.times, entries.reshape(n, -1).view(float)]))
        _write_states_csv(result, tmp_path / "states.csv")
        assert (tmp_path / "states.csv").read_bytes() == (tmp_path / "dense.csv").read_bytes()

    def test_coherent_spin_j_result(self, tmp_path):
        # the CLI starts spin J > 1/2 from J_z-diagonal states only
        j = SpinQuantumNumber(4)
        rho0 = random_density_matrix(j, np.random.default_rng(24))
        model = Model(rho0, HamiltonianSpec.static_jz(1.0), DissipatorSpec.amplitude_damping(1.0, 0.5))
        result = simulate(model, t_max=0.5, dt=0.1, grid=make_grid(8, 16))
        assert np.all(result.trajectory.entries != 0)
        _write_states_csv(result, tmp_path / "states.csv")
        self.assert_reads_back(tmp_path / "states.csv", result)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("omega", [1e-20, 1e-300])
def test_huge_nbar_bath_relaxes_without_warnings(tmp_path, capsys, omega):
    # nbar ~ 1/omega, up to 1e300: each step's damping exponent is capped
    # where the step has relaxed, so the propagator stays in range.
    rho = run_final_state(tmp_path, capsys, dict(QUENCH_IDLE, omega=omega))
    thermal = gibbs_state(SpinQuantumNumber(1), omega, 1.0).populations()
    assert np.max(np.abs(rho.diagonal().real - thermal)) <= 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("nbar", [1e20, 1e30, 1e100, 1e300])
@pytest.mark.parametrize("two_j", [1, 4, 40])
def test_huge_nbar_custom_run_reaches_the_thermal_state(tmp_path, capsys, two_j, nbar):
    cfg = with_value(CUSTOM_DAMPING_J2, "two_j", two_j)
    cfg = with_value(cfg, "dissipator.nbar", nbar)
    cfg = with_value(cfg, "initial_state.populations", [1.0] + [0.0] * two_j)
    cfg = with_value(cfg, "grid", {"n_theta": 8, "n_phi": 16})
    rho = run_final_state(tmp_path, capsys, cfg)
    j = SpinQuantumNumber(two_j)
    thermal = gibbs_state(j, 1.0, temperature_from_nbar(1.0, nbar)).populations()
    assert np.max(np.abs(rho - np.diag(thermal))) <= 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("two_j", [1, 4])
def test_undamped_huge_nbar_custom_run_keeps_its_state(tmp_path, capsys, two_j):
    # gamma = 0: no damping block is built, so none overflows at nbar = 8e307
    populations = [0.3, 0.25, 0.2, 0.15, 0.1][: two_j + 1]
    cfg = with_value(CUSTOM_DAMPING_J2, "two_j", two_j)
    cfg = with_value(cfg, "initial_state.populations", populations)
    cfg = with_value(cfg, "dissipator", {"type": "amplitude_damping", "gamma": 0.0, "nbar": 8e307})
    cfg = with_value(cfg, "grid", {"n_theta": 8, "n_phi": 16})
    path, states = write_config(tmp_path, cfg), tmp_path / "states.csv"
    assert main(["run", "--config", path, "--out", str(tmp_path), "--states-csv", str(states)]) == 0
    assert capsys.readouterr().err == ""
    rho0 = np.diag(np.asarray(populations) / sum(populations)).astype(complex)
    for row in np.loadtxt(states, delimiter=",", skiprows=1)[:, 1:]:
        assert np.array_equal(row, rho0.reshape(-1).view(float))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("nbar", [1e8, 1e30])
def test_huge_nbar_rotating_field_reaches_its_steady_state(tmp_path, capsys, nbar):
    cfg = json.loads(bundled_configs()["rotating_field_damping.json"].read_text())
    cfg = with_value(cfg, "dissipator.nbar", nbar)
    cfg = with_value(cfg, "time", {"t_max": 1.0, "output_dt": 0.1})
    rho = run_final_state(tmp_path, capsys, cfg)
    bath = BathParams(gamma=cfg["dissipator"]["gamma"], nbar=nbar)
    steady = rotating_field_steady_state(cfg["b0"], cfg["b1"], cfg["drive_omega"], bath)
    assert (rho[0, 0] - rho[1, 1]).real == pytest.approx(steady["tau_z"], abs=1e-12)
    assert abs(rho[0, 1]) <= 1e-12



@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["spin_half", "spin_two", "undamped_rotating_field"])
def test_overflowing_nbar_is_a_numerical_failure_without_warnings(tmp_path, capsys, case):
    # At nbar = 1e308, 2 nbar + 1 overflows: a damped generator has inf
    # entries, and without damping tau_bar_z = -1/(2 nbar + 1) would be -0.
    if case == "undamped_rotating_field":
        cfg = json.loads(bundled_configs()["rotating_field_damping.json"].read_text())
        cfg = with_value(cfg, "dissipator.gamma", 0.0)
    else:
        two_j = 1 if case == "spin_half" else 4
        cfg = with_value(CUSTOM_DAMPING_J2, "two_j", two_j)
        cfg = with_value(cfg, "initial_state.populations", [1.0] + [0.0] * two_j)
        cfg = with_value(cfg, "dissipator.gamma", 2.0)
    cfg = with_value(cfg, "dissipator.nbar", 1e308)
    cfg = with_value(cfg, "time", {"t_max": 1.0, "output_dt": 0.1})
    cfg = with_value(cfg, "grid", {"n_theta": 9, "n_phi": 16})
    path = write_config(tmp_path, cfg)
    commands = [["run", "--config", path, "--out", str(tmp_path)]]
    if case != "spin_two":  # spin-J damping above nbar = 1e6 has nothing to compare
        commands.append(["compare", "--config", path])
    for argv in commands:
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["spontaneous_emission", "zero_temperature", "spin_two_damping", "spin_two_dephasing"])
def test_overflowing_rate_is_a_numerical_failure_without_warnings(tmp_path, capsys, case):
    # At gamma = 1e308 every rate overflows: run and compare refuse the
    # config before integrating, as the README documents, and print no
    # RuntimeWarning. At 1e300 the rates fit, and the runs go through.
    if case in ("spontaneous_emission", "zero_temperature"):
        cfg = dict(HOT_EMISSION, temperature=1.0 if case == "spontaneous_emission" else 0.0,
                   time={"t_max": 1.0, "output_dt": 0.1}, grid={"n_theta": 16, "n_phi": 32})
        key = "gamma"
    else:
        cfg = with_value(CUSTOM_DAMPING_J2, "grid", {"n_theta": 16, "n_phi": 32})
        if case == "spin_two_dephasing":
            cfg = with_value(cfg, "dissipator", {"type": "dephasing", "lambda": 1.0})
        key = "dissipator.lambda" if case == "spin_two_dephasing" else "dissipator.gamma"
    commands = lambda path: [["run", "--config", path, "--out", str(tmp_path)]] + (
        [] if case == "spin_two_dephasing" else [["compare", "--config", path]])  # spin-J dephasing: exit 2
    path = write_config(tmp_path, with_value(cfg, key, 1e308))
    for argv in commands(path):
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("numerical failure: UnsupportedParameters: rate ")
    path = write_config(tmp_path, with_value(cfg, key, 1e300), "fits.json")
    for argv in commands(path):
        assert main(argv) == 0
        assert capsys.readouterr().err == ""


class TestRunAgreement:
    def test_spin_half_damping_cross_checks_field_free_methods(self, tmp_path, capsys):
        path = write_config(tmp_path, QUENCH_WARM)
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("agreement")]
        assert len(lines) == 1 and lines[0].startswith("agreement phi exact-2F1 vs closed-form:")
        assert float(lines[0].split()[-1]) < 1e-12

    def test_spin_half_damping_run_evaluates_the_closed_form_once(self, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, sys.modules["spinwehrl.entropy_rates"], "spin_half_damping_rates")
        path = write_config(tmp_path, QUENCH_WARM)
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_spin_j_run_adds_no_exact_flux_work(self, tmp_path, monkeypatch, capsys):
        calls = count_calls(monkeypatch, sys.modules["spinwehrl.hypergeom"], "gauss_2f1")
        path = write_config(tmp_path, CUSTOM_DAMPING_J2)
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 0
        assert "agreement" not in capsys.readouterr().out
        assert calls == []

    def test_spin_half_damping_run_evaluates_the_2f1_weights_once(self, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, sys.modules["spinwehrl.hypergeom"], "gauss_2f1")
        path = write_config(tmp_path, QUENCH_WARM)  # 6 states
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 0
        assert len(calls) == 4  # 2(2J+1), not that many per state

    def test_compare_evaluates_the_2f1_weights_once(self, monkeypatch):
        calls = count_calls(monkeypatch, sys.modules["spinwehrl.hypergeom"], "gauss_2f1")
        path = bundled_configs()["damping_j2_compare.json"]  # 2J = 4, 11 states
        assert main(["compare", "--config", str(path)]) == 0
        assert len(calls) == 2 * (4 + 1)


class TestSweep:
    def test_temperature_sweep_sigma_table(self, tmp_path):
        cfg = {
            "scenario": "spontaneous_emission",
            "omega": 1.0,
            "gamma": 1.0,
            "temperature": 1.0,
            "time": {"t_max": 16.0, "output_dt": 0.01},
            "grid": {"n_theta": 48, "n_phi": 96},
        }
        path = write_config(tmp_path, cfg, "se.json")
        code = main([
            "sweep", "--config", path, "--param", "temperature",
            "--values", "0.2,0.5,1.0", "--out", str(tmp_path),
        ])
        assert code == 0
        data = np.loadtxt(tmp_path / "se_sweep_temperature.csv", delimiter=",", skiprows=1)
        assert data.shape[0] == 3
        sigmas = data[:, 1]
        assert sigmas[0] > sigmas[1] > sigmas[2]  # Sigma decreases with T

    def test_dephasing_tau_sweep_contrasts_methods(self, tmp_path):
        src = bundled_configs()["dephasing_tau_sweep.json"]
        cfg = json.loads(src.read_text())
        cfg["grid"] = {"n_theta": 48, "n_phi": 96}
        path = write_config(tmp_path, cfg, "taus.json")
        code = main([
            "sweep", "--config", path, "--param", "initial_state.tau",
            "--values", "0.25,0.5,0.75,1.0", "--out", str(tmp_path),
        ])
        assert code == 0
        text = (tmp_path / "taus_sweep_initial_state_tau.csv").read_text().splitlines()
        header = text[0].split(",")
        rows = [line.split(",") for line in text[1:]]
        pi_w = [float(r[header.index("pi_wehrl_initial")]) for r in rows]
        pi_v = [r[header.index("pi_vn_initial")] for r in rows]
        assert all(np.isfinite(pi_w)) and max(pi_w) <= 0.25 + 1e-9
        assert pi_v[-1] == "inf"  # pure state flags the von Neumann column

    def test_theta_sweep_at_zero_temperature(self, tmp_path):
        src = bundled_configs()["damping_theta_sweep.json"]
        cfg = json.loads(src.read_text())
        cfg["grid"] = {"n_theta": 48, "n_phi": 96}
        path = write_config(tmp_path, cfg, "th.json")
        thetas = [0.5, 1.0, 1.5, 2.0]
        code = main([
            "sweep", "--config", path, "--param", "initial_state.theta",
            "--values", ",".join(str(t) for t in thetas), "--out", str(tmp_path),
        ])
        assert code == 0
        data = np.loadtxt(tmp_path / "th_sweep_initial_state_theta.csv", delimiter=",", skiprows=1)
        # oracle: T -> 0 closed form with tau = (tau sin(th), 0, tau cos(th))
        tau = cfg["initial_state"]["tau"]
        for row, th in zip(data, thetas):
            tz = tau * math.cos(th)
            phi = 0.5 * (1 + tz)
            bracket = tau + (tau**2 - 1) * math.atanh(tau)
            pi = phi + (tau**2 + tz * (2 + tz)) / (4 * tau**3) * bracket
            assert row[2] == pytest.approx(pi, rel=1e-10)

    def test_temperature_sweep_near_zero_temperature(self, tmp_path):
        # At T = 0.02 nbar ~ 2e-22, where the exact 2F1 flux is its T -> 0
        # limit; run and sweep report the closed form.
        cfg = dict(QUENCH_IDLE, scenario="spontaneous_emission", temperature=1.0)
        del cfg["initial_temperature"], cfg["bath_temperature"]
        path = write_config(tmp_path, cfg, "se.json")
        code = main([
            "sweep", "--config", path, "--param", "temperature",
            "--values", "0.02,0.5", "--out", str(tmp_path),
        ])
        assert code == 0
        data = np.loadtxt(tmp_path / "se_sweep_temperature.csv", delimiter=",", skiprows=1)
        assert np.all(np.isfinite(data[:, 2:5]))
        cold = write_config(tmp_path, dict(cfg, temperature=0.02), "cold.json")
        assert main(["run", "--config", cold, "--out", str(tmp_path)]) == 0

    def test_grid_override_reaches_every_value(self, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, sys.modules["spinwehrl._kernels"], "husimi_contract")
        reduces = count_calls(monkeypatch, sys.modules["spinwehrl._kernels"], "damping_reduce")
        argv = ["sweep", "--param", "dissipator.nbar", "--values", "0.5,1.0,2.0"]
        path = write_config(tmp_path, CUSTOM_DAMPING_J2, "j2.json")  # 48x96 in the file
        assert main(argv + ["--config", path, "--out", str(tmp_path / "a"), "--grid", "24x48"]) == 0
        assert husimi_grid_sizes(calls, reduces) == {(24, 48)}
        assert sum(len(args[-1]) for args in calls) == 3 * 6
        small = with_value(CUSTOM_DAMPING_J2, "grid", {"n_theta": 24, "n_phi": 48})
        path = write_config(tmp_path, small, "j2.json")
        assert main(argv + ["--config", path, "--out", str(tmp_path / "b")]) == 0
        name = "j2_sweep_dissipator_nbar.csv"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_integer_key_sweep(self, tmp_path):
        cfg = with_value(CUSTOM_DAMPING_J2, "initial_state", {"type": "gibbs", "temperature": 2.0, "omega": 1.0})
        path = write_config(tmp_path, cfg, "gibbs.json")
        argv = ["sweep", "--config", path, "--param", "two_j", "--values", "2,4", "--out", str(tmp_path)]
        assert main(argv) == 0
        data = np.loadtxt(tmp_path / "gibbs_sweep_two_j.csv", delimiter=",", skiprows=1)
        assert data[:, 0].tolist() == [2.0, 4.0]
        result = simulate(validate_config(cfg).model, 0.5, 0.1, make_grid(48, 96))
        assert data[1, 5] == result.von_neumann.pi[0]  # pi_vn_initial of the 2J = 4 run

    @pytest.mark.parametrize("param, ints, floats", [
        ("temperature", "1,2", "1.0,2.0"),
        ("initial_state.theta", "-0,1", "-0.0,1.0"),  # -0 stays -0.0
    ])
    def test_integer_literals_sweep_as_their_floats(self, tmp_path, param, ints, floats):
        cfg = dict(QUENCH_IDLE, scenario="spontaneous_emission", temperature=1.0)
        del cfg["initial_temperature"], cfg["bath_temperature"]
        if param != "temperature":
            state = {"type": "bloch_angles", "tau": 0.8, "theta": 1.0, "phi": 0.5}
            cfg = with_value(ROTATING_DEPHASING, "initial_state", state)
        path = write_config(tmp_path, cfg)
        csvs = []
        for values in (ints, floats):
            out = tmp_path / values
            assert main(["sweep", "--config", path, "--param", param, f"--values={values}", "--out", str(out)]) == 0
            csvs.append((out / f"cfg_sweep_{param.replace('.', '_')}.csv").read_bytes())
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize("param", ["grid.n_theta", "grid.n_phi"])
    def test_grid_key_is_refused(self, tmp_path, monkeypatch, capsys, param):
        calls = count_calls(monkeypatch, sys.modules["spinwehrl.dynamics"], "evolve")
        path = write_config(tmp_path, QUENCH_IDLE)
        assert main(["sweep", "--config", path, "--param", param, "--values", "16,24", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "--grid" in err
        assert calls == []

    def test_empty_values_exit_code(self, tmp_path):
        path = write_config(tmp_path, QUENCH_IDLE)
        assert main(["sweep", "--config", path, "--param", "omega", "--values", "", "--out", str(tmp_path)]) == 2

    def test_unknown_param_exit_code(self, tmp_path):
        path = write_config(tmp_path, QUENCH_IDLE)
        assert main(["sweep", "--config", path, "--param", "does.not.exist", "--values", "1,2", "--out", str(tmp_path)]) == 2


class TestListScenarios:
    def test_lists_names_and_configs(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("spontaneous_emission", "thermal_quench", "rotating_field", "photon_pulse", "custom"):
            assert name in out
        assert "photon_pulse.json" in out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(bundled_configs()))
def test_bundled_run_emits_no_warning(tmp_path, name):
    assert main(["run", "--config", str(bundled_configs()[name]), "--out", str(tmp_path)]) == 0


class TestBundledConfigRuntimes:
    def test_every_bundled_config_runs_quickly(self, tmp_path):
        import time

        for name, src in bundled_configs().items():
            start = time.perf_counter()
            assert main(["run", "--config", str(src), "--out", str(tmp_path / name)]) == 0
            assert time.perf_counter() - start < 60.0, name


class TestParser:
    """The parser is built on the first main call of a process, not at
    import, and serves every later call alike."""

    def test_built_once(self, monkeypatch, capsys):
        main(["list-scenarios"])
        built = []
        original = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert main(["list-scenarios"]) == 0 and main(["list-scenarios"]) == 0
        assert built == []

    def test_not_built_at_import(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = "import spinwehrl.cli as c; print(c._parser.cache_info().currsize)"
        out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True).stdout
        assert out == "0\n"

    def test_help_and_usage_errors_repeat(self, capsys):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["run", "--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
            with pytest.raises(SystemExit) as exc:
                main(["run", "--tol", "1"])
            assert exc.value.code == 2
            texts.append(capsys.readouterr().err)
        assert texts[:2] == texts[2:] and texts[0].startswith("usage: spinwehrl run")
        assert cli._parser() is cli._parser()
