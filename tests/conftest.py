from __future__ import annotations

import itertools
from dataclasses import replace

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

# stable tau2/tau3 type-III zero-order configs of the perfbench certify-sweep
# (named by seed and pass) whose abscissa on the default scan grid lies
# between -6e-13 and -6e-14, below the roundoff of eig's real parts:
# (k1, k2, k3, k4, k5, gamma, tau)
SCAN_ROUNDOFF_SWEEP = {
    "seed9-p5": (1.177027, 0.563965, 1.644154, 0.830925, 1.788773, -0.88747, 3),
    "seed10-p15": (0.595492, 1.089013, 1.97934, 0.532361, 1.762978, -0.525079, 2),
    "seed20-p18": (0.556778, 0.767213, 1.774692, 1.408193, 1.459786, 0.68113, 2),
    "seed21-p9": (1.562988, 0.515162, 1.474826, 1.219841, 1.751373, 1.139321, 3),
    "seed34-p16": (0.635765, 0.852028, 1.611353, 1.422267, 1.662811, -0.981984, 2),
    "seed811-p3": (0.522141, 0.911464, 1.981351, 0.99383, 1.183996, 1.11658, 2),
    "seed904-p3": (0.921933, 0.559088, 1.962456, 0.584027, 1.442407, 0.760199, 2),
    "seed9308-p11": (0.715408, 1.951334, 0.535867, 0.731203, 1.693325, -0.584166, 3),
}


def scan_roundoff_config(name: str) -> SystemConfig:
    k1, k2, k3, k4, k5, gamma, tau = SCAN_ROUNDOFF_SWEEP[name]
    return SystemConfig(k1=k1, k2=k2, k3=k3, k4=k4, k5=k5, gamma=gamma, tau=Tau(tau),
                        damping=Damping.TYPE_III, coupling=Coupling.ZERO_ORDER)


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


def covering_configs(rng: np.random.Generator, per_kind: int) -> list[SystemConfig]:
    """`per_kind` stable random configs for every tau, damping, coupling and
    sign of gamma."""
    configs = []
    for tau, damping, coupling, sign in itertools.product(Tau, Damping, Coupling, (1.0, -1.0)):
        kind = []
        while len(kind) < per_kind:
            cfg = random_config(rng, tau, damping, coupling)
            cfg = replace(cfg, gamma=sign * abs(cfg.gamma))
            if cfg.stable:
                kind.append(cfg)
        configs += kind
    return configs


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
