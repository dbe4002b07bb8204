import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from spinwehrl import DensityMatrix, SpinQuantumNumber, BlochVector, make_grid

# Hypothesis profiles: "tier1", loaded here, draws 50 examples; "fuzz"
# draws 3,000 for the CLI fuzz (test_cli_fuzz.py) and "csv" 20,000 for the
# CSV formatter's property tests (test_scenarios.py::TestWriteCsv), chosen
# with pytest --hypothesis-profile=NAME. All draw the same examples on
# every run.
for _name, _examples in (("tier1", 50), ("fuzz", 3000), ("csv", 20000)):
    settings.register_profile(_name, max_examples=_examples, deadline=None, derandomize=True, database=None,
                              suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("tier1")


def random_density_matrix(j: SpinQuantumNumber, rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random state: G G^dagger normalized to unit trace."""
    d = j.dim
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return DensityMatrix(j, rho)


def random_diagonal_state(j: SpinQuantumNumber, rng: np.random.Generator) -> DensityMatrix:
    pops = rng.uniform(0.05, 1.0, size=j.dim)
    pops /= pops.sum()
    return DensityMatrix(j, np.diag(pops).astype(complex))


def random_bloch(rng: np.random.Generator, tau_max: float = 1.0) -> BlochVector:
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    v *= rng.uniform(0.0, tau_max)
    return BlochVector(*v)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def default_grid():
    return make_grid(96, 192)


@pytest.fixture(scope="session")
def small_grid():
    return make_grid(48, 96)
