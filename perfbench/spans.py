"""Per-layer spans timed from outside the program.

A Tracer replaces the public functions of each spinwehrl module with thin
wrappers at runtime, for the traced passes only, and puts the originals back
afterwards. Nothing under src/ is edited. Every alias of a wrapped function
is replaced (``from .phase_space import husimi`` copies the name into
``scenarios`` and ``cli``), so the wrapper sees every call wherever it comes
from.

A timed layer adds its inclusive time once per outermost call: a call of a
layer that is already open (``spin_half_dephasing_rates`` calling
``dephasing_pi_spin_half``) is counted but not timed again. Spans opened
while no other span is open are the top-level spans; the part of an
operation they do not cover is ``scenarios.self_s``. Counted functions
(``lindblad_rhs`` runs ~9,200 times per rotating-field run) are only
counted, which keeps the wrappers cheap where calls are many.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from functools import partial

# Layer name -> the functions whose calls it times ("module:name" or
# "module:Class.method"). The names are the metric names without "_s".
TIMED_LAYERS = {
    "cli.validate": ["spinwehrl.cli:validate_config"],
    "phase_space.make_grid": ["spinwehrl.phase_space:make_grid"],
    "phase_space.amplitude_table": ["spinwehrl.phase_space:SphereGrid.amplitude_table"],
    "dynamics.evolve": ["spinwehrl.dynamics:evolve"],
    "phase_space.husimi": ["spinwehrl.phase_space:husimi"],
    "kernels.husimi_contract": ["spinwehrl._kernels:husimi_contract"],
    "phase_space.wehrl_entropy": ["spinwehrl.phase_space:wehrl_entropy"],
    "entropy_rates.closed_form": [
        "spinwehrl.entropy_rates:spin_half_damping_rates",
        "spinwehrl.entropy_rates:spin_half_dephasing_rates",
        "spinwehrl.entropy_rates:dephasing_pi_spin_half",
    ],
    "entropy_rates.quadrature": [
        "spinwehrl.entropy_rates:dephasing_pi_quadrature",
        "spinwehrl.entropy_rates:damping_phi_quadrature",
        "spinwehrl.entropy_rates:damping_pi_quadrature",
    ],
    "kernels.reduce": [
        "spinwehrl._kernels:damping_reduce",
        "spinwehrl._kernels:dephasing_reduce",
    ],
    "entropy_rates.exact_2f1": ["spinwehrl.entropy_rates:damping_phi_exact"],
    "entropy_rates.von_neumann": [
        "spinwehrl.entropy_rates:spin_half_damping_von_neumann",
        "spinwehrl.entropy_rates:spin_half_dephasing_von_neumann",
        "spinwehrl.entropy_rates:dephasing_pi_von_neumann",
        "spinwehrl.entropy_rates:von_neumann_rates",
        "spinwehrl.entropy_rates:von_neumann_entropy",
    ],
    # The run CSV and the --states-csv dump; the sweep summary is written
    # inline by cli.sweep_config and so falls into scenarios.self_s.
    "scenarios.csv_write": [
        "spinwehrl.scenarios:write_scenario_csv",
        "spinwehrl.cli:_write_states_csv",
    ],
}

# Counter name -> functions whose calls are counted but not timed.
COUNTED = {
    "dynamics.rhs": ["spinwehrl.dynamics:lindblad_rhs"],
    "hypergeom.gauss_2f1": ["spinwehrl.hypergeom:gauss_2f1"],
    # SphereGrid.amplitude_table builds a table on a cache miss only.
    "phase_space.amplitude_table_build": ["spinwehrl.phase_space:_amplitude_table"],
}

# Count metric -> the counter it reads.
COUNT_METRICS = {
    "cli.validate_calls": "cli.validate",
    "phase_space.make_grid_calls": "phase_space.make_grid",
    "phase_space.amplitude_table_builds": "phase_space.amplitude_table_build",
    "dynamics.rhs_calls": "dynamics.rhs",
    "phase_space.husimi_calls": "phase_space.husimi",
    "hypergeom.gauss_2f1_calls": "hypergeom.gauss_2f1",
}


def _resolve(target: str):
    module_name, _, attr = target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, method = attr.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    name = method or attr
    return owner, name, getattr(owner, name)


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.seconds = Counter()
        self.calls = Counter()
        self.covered_s = 0.0
        self.spans = []  # (span id, parent span id or None, layer, op index, start, end)
        self.op = -1
        self._open = set()
        self._stack = []
        self._next_id = 0
        self._patches = []

    def _timed(self, layer, fn):
        def wrapper(*args, **kwargs):
            self.calls[layer] += 1
            if layer in self._open:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._open.add(layer)
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._open.discard(layer)
                self.seconds[layer] += end - start
                if parent is None:
                    self.covered_s += end - start
                self.spans.append((span_id, parent, layer, self.op, start, end))

        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, target, make_wrapper):
        owner, name, original = _resolve(target)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._patches.append((owner, name, original))
            setattr(owner, name, wrapper)
            return
        for module_name, module in list(sys.modules.items()):
            if module_name != "spinwehrl" and not module_name.startswith("spinwehrl."):
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, alias, original))
                    setattr(module, alias, wrapper)

    def install(self):
        for layer, targets in TIMED_LAYERS.items():
            for target in targets:
                self._patch(target, partial(self._timed, layer))
        for name, targets in COUNTED.items():
            for target in targets:
                self._patch(target, partial(self._counted, name))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def layer_metrics(self, op_seconds: float) -> dict:
        """Per-layer metrics of the pass whose operations took op_seconds."""
        out = {f"{layer}_s": self.seconds[layer] for layer in TIMED_LAYERS}
        out.update({metric: self.calls[name] for metric, name in COUNT_METRICS.items()})
        out["scenarios.self_s"] = op_seconds - self.covered_s
        return out
