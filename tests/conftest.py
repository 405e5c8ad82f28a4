import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from szego_rg.cli import main
from szego_rg.spectral import Domain, FrequencyGrid, random_field


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


@pytest.fixture
def coeff_diff():
    return max_coeff_diff


@pytest.fixture(scope="session")
def cli_run(tmp_path_factory):
    """Run cli.main once per distinct command and configuration text in a
    session; returns (exit code, run directory).  Tests only read the run."""
    runs = {}

    def run(command, text):
        if (command, text) not in runs:
            base = tmp_path_factory.mktemp(command)
            config = base / "run.cfg"
            config.write_text(text)
            out = base / "out"
            runs[command, text] = main([command, "--config", str(config), "--out", str(out)]), out
        return runs[command, text]

    return run
