import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from szego_rg.cli import main
from szego_rg.spectral import Domain, make_grid, random_field


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def torus8():
    return make_grid(8, Domain.TORUS)


@pytest.fixture
def box8():
    return make_grid(8, Domain.BIGBOX, 16.0 * np.pi)


@pytest.fixture
def rand_torus8(torus8, rng):
    return random_field(torus8, rng, decay=1.0)


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
