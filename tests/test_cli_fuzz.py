"""Contract fuzz of the command line: whatever the config and arguments,
main returns an exit code from the documented set and never lets an
exception or warning escape.

Configs are drawn valid for their scenario, then often broken: a key
dropped, an unknown key added, or a value replaced by junk or by an extreme
number. Runs stay small: at most ten output steps and grids of at most
8 x 16. The number of examples comes from the hypothesis profile (see
conftest.py): 50 by default, 3,000 with --hypothesis-profile=fuzz.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from spinwehrl.cli import main


def unit(lo=0.0, hi=1.0):
    return st.floats(min_value=lo, max_value=hi)


DEPHASING = st.fixed_dictionaries({"type": st.just("dephasing"), "lambda": unit(0.0, 2.0)})
# nbar up to 1e308, where each step's damping exponent is capped and, at
# the largest, the generator overflows; at 8e307 the unit-rate damping
# blocks overflow, which an undamped run must not build.
NBAR = st.one_of(unit(0.0, 2.0), st.sampled_from([1e20, 1e300, 8e307, 1e308]))
# gamma up to 1e308, where the rates overflow and run and compare refuse the
# config before integrating; at 1e300 they fit.
GAMMA = st.one_of(unit(0.0, 2.0), st.sampled_from([1e300, 1e308]))
DAMPING = st.fixed_dictionaries({"type": st.just("amplitude_damping"), "gamma": GAMMA, "nbar": NBAR})
DISSIPATOR = st.one_of(DEPHASING, DAMPING)
BLOCH_ANGLES = st.fixed_dictionaries(
    {"type": st.just("bloch_angles"), "tau": unit(), "theta": unit(0.0, math.pi), "phi": unit(0.0, 2 * math.pi)}
)
SPIN_HALF = {
    "spontaneous_emission": {"omega": unit(0.1, 5.0), "gamma": GAMMA, "temperature": unit(0.0, 5.0)},
    "thermal_quench": {"initial_temperature": unit(0.0, 5.0), "bath_temperature": unit(0.0, 5.0),
                       "omega": unit(0.1, 5.0), "gamma": GAMMA},
    "rotating_field": {"b0": unit(-3.0, 3.0), "b1": unit(-3.0, 3.0), "drive_omega": unit(-3.0, 3.0),
                       "dissipator": DISSIPATOR, "initial_state": BLOCH_ANGLES},
    # a0 below the Markovianity threshold (about 0.57 at bandwidth 10) exits 3.
    "photon_pulse": {"gamma0": st.just(1.0), "bandwidth": unit(1.5, 20.0), "a0": unit(0.5, 1.0)},
}
# 10**400, written as a JSON integer, loads as an int too large for a double.
JUNK = st.sampled_from([None, "x", [], {}, True, math.nan, -1.0, 0.0, 1e-300, 1e300, 10**400, [1.0, 2.0]])


@st.composite
def custom_config(draw):
    two_j = draw(st.sampled_from([1, 2, 4]))
    hamiltonians = [{"type": "none"}, {"type": "static_jz", "omega": draw(unit(0.1, 3.0))}]
    states = [
        {"type": "diagonal", "populations": draw(st.lists(unit(), min_size=two_j + 1, max_size=two_j + 1))},
        {"type": "gibbs", "temperature": draw(unit(0.0, 5.0)), "omega": draw(unit(0.1, 3.0))},
    ]
    if two_j == 1:
        hamiltonians.append({"type": "rotating_field", "b0": 1.0, "b1": draw(unit()), "drive_omega": 1.0})
        states.append(draw(BLOCH_ANGLES))
    return {"two_j": two_j, "hamiltonian": draw(st.sampled_from(hamiltonians)),
            "dissipator": draw(DISSIPATOR), "initial_state": draw(st.sampled_from(states))}


@st.composite
def configs(draw):
    scenario = draw(st.sampled_from(sorted(SPIN_HALF) + ["custom"]))
    body = draw(custom_config() if scenario == "custom" else st.fixed_dictionaries(SPIN_HALF[scenario]))
    dt = draw(unit(1e-3, 2.0))
    cfg = {
        "scenario": scenario,
        **body,
        "time": {"t_max": dt * draw(st.integers(min_value=2, max_value=10)), "output_dt": dt},
        "grid": {"n_theta": 8, "n_phi": draw(st.sampled_from([8, 12, 16]))},
        "compare": {"tolerance": draw(st.sampled_from([1e-5, 1.0]))},
    }
    broken = draw(st.sampled_from(["none", "none", "drop", "extra", "junk", "junk"]))
    section = draw(st.sampled_from(sorted(cfg)))
    node = cfg[section] if isinstance(cfg[section], dict) and draw(st.booleans()) else cfg
    key = draw(st.sampled_from(sorted(node)))
    if broken == "drop" and node is not cfg["grid"]:  # a dropped grid would mean the 96 x 192 default
        del node[key]
    elif broken == "extra":
        node["unexpected"] = 1.0
    elif broken == "junk" and not (key in ("t_max", "output_dt") and section == "time"):  # steps stay few
        node[key] = draw(JUNK)
    return cfg


ARGV = st.one_of(
    st.just(("validate", [])),
    st.tuples(st.just("run"), st.sampled_from([[], ["--grid", "8x16"], ["--grid", "4x4"], ["--grid", "bad"],
                                               ["--states-csv", "s.csv"], ["--states-csv", "missing/s.csv"]])),
    st.tuples(st.just("compare"), st.sampled_from([[], ["--tol", "1"], ["--tol", "-1"], ["--tol", "0"],
                                                   ["--tol", "nan"], ["--grid", "8x8"]])),
    st.tuples(st.just("sweep"), st.sampled_from(["gamma", "omega", "two_j", "a0", "initial_state.tau", "grid.n_phi",
                                                 "nope"]),
              st.lists(st.sampled_from(["0.1", "0.5", "2", "-1", "0", "x", "1" + "0" * 400]), min_size=1, max_size=3)),
)


def as_argv(spec, config: str, out: str) -> list:
    command, *rest = spec
    argv = [command, "--config", config]
    if command == "sweep":
        param, values = rest
        return argv + ["--param", param, "--values", ",".join(values), "--out", out]
    extra = [str(Path(out) / a) if a.endswith("s.csv") else a for a in rest[0]]
    return argv + extra + (["--out", out] if command == "run" else [])


@given(cfg=configs(), spec=ARGV)
def test_main_keeps_its_exit_code_contract(cfg, spec):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "cfg.json"
        config.write_text(json.dumps(cfg))
        argv = as_argv(spec, str(config), tmp)
        err = io.StringIO()
        # A warning escaping main is a failure too. The filter covers main
        # alone, not hypothesis's own reporting of a failing example.
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refusing the arguments, with its usage line
                code = exc.code
    assert "Traceback" not in err.getvalue()
    assert code in (0, 1, 2, 3), (argv, cfg)
    assert code != 1 or argv[0] == "compare", (argv, cfg)
