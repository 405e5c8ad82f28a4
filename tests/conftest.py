import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from routes import run_cli
from szego_rg.spectral import (
    Domain,
    FrequencyGrid,
    SpectralField,
    energy,
    mass,
    momentum,
    random_field,
)

# Floor used in relative-drift denominators so identically-zero invariants
# do not divide by zero.
DRIFT_FLOOR = 1e-30


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def torus8():
    return FrequencyGrid(8, Domain.TORUS)


@pytest.fixture
def box8():
    return FrequencyGrid(8, Domain.BIGBOX, 16.0 * np.pi)


@pytest.fixture
def rand_torus8(torus8, rng):
    return random_field(torus8, rng, decay=1.0)


def replan(plan, **fields):
    """dataclasses.replace(plan, **fields), where the keys n_max, domain and
    length fill the fields of plan.grid, as the [grid] keys do."""
    grid = {k: fields.pop(k) for k in ("n_max", "domain", "length") if k in fields}
    return replace(plan, grid=replace(plan.grid, **grid), **fields)


def max_coeff_diff(a, b):
    """Largest coefficient difference of two fields or coefficient arrays."""
    return float(np.max(np.abs(getattr(a, "coeff", a) - getattr(b, "coeff", b))))


def conserved_series(states: Sequence[SpectralField]) -> tuple[np.ndarray, ...]:
    """The invariants E, Q and M along a trajectory, one array each."""
    e = np.array([energy(f) for f in states])
    q = np.array([mass(f) for f in states])
    m = np.array([momentum(f) for f in states])
    return e, q, m


def max_rel_drift(series: np.ndarray) -> float:
    """max_t |q(t) - q(0)| / max(|q(0)|, DRIFT_FLOOR) of one invariant's series."""
    q0 = series[0]
    return float(np.max(np.abs(series - q0)) / max(abs(q0), DRIFT_FLOOR))


@pytest.fixture
def coeff_diff():
    return max_coeff_diff


@pytest.fixture(scope="session")
def cli_run(tmp_path_factory):
    """Run routes.run_cli once per distinct command and configuration text in
    a session; returns (exit code, run directory).  Tests only read the run."""
    runs = {}

    def run(command, text):
        if (command, text) not in runs:
            runs[command, text] = run_cli(command, text, tmp_path_factory.mktemp(command))
        return runs[command, text]

    return run
