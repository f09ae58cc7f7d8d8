from __future__ import annotations

import numpy as np
import pytest

from tlab.lyapunov import _tau2_image
from tlab.model import Coupling, Damping, SystemConfig, Tau
from tlab.suite import standard_suite

TAU3_CELLS = sorted(n for n in standard_suite() if n.startswith("tau3"))

# a stable tau3 zero-order type-III config whose spectral abscissa near
# xi = 98.9 is about -1.8e-12, close to eigensolver roundoff
SCAN_ROUNDOFF = """\
k1 = 0.760879
k2 = 1.517054
k3 = 0.728807
k4 = 0.973145
k5 = 1.790744
gamma = 1.253842
tau = 3
damping = type3
coupling = zero
"""


def random_config(rng: np.random.Generator, tau: Tau | None = None,
                  damping: Damping | None = None,
                  coupling: Coupling | None = None) -> SystemConfig:
    ks = rng.uniform(0.3, 3.0, size=5)
    gamma = float(rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0]))
    return SystemConfig(
        k1=float(ks[0]), k2=float(ks[1]), k3=float(ks[2]),
        k4=float(ks[3]), k5=float(ks[4]), gamma=gamma,
        tau=tau or rng.choice(list(Tau)),
        damping=damping or rng.choice(list(Damping)),
        coupling=coupling or rng.choice(list(Coupling)),
    )


def recipe_cells() -> dict[str, SystemConfig]:
    """Every configuration with a functional recipe of its own: the tau1 and
    tau2 suite cells, and under each tau3 cell's name its tau2 image."""
    return {n: _tau2_image(cfg) if n in TAU3_CELLS else cfg
            for n, cfg in standard_suite().items()}


def random_state(rng: np.random.Generator) -> np.ndarray:
    s = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    return s / np.linalg.norm(s)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
