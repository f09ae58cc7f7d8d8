"""Catalog of the differential identities behind the Lyapunov construction.

Every entry states that along the mode flow

    d/dt (s* W s) = s* R s

for a pair of Hermitian forms (W, R) depending on the parameters and on xi.
W is always a single sesquilinear monomial Re(c * s_a * conj(s_b)); R is the
sum of a few such monomials.  Each entry is tagged with the coupling order
and (where relevant) the tau case it belongs to, and the drift can be
checked numerically: Herm(A* W + W A) must equal R.  Terms take xi as an
array, so W and R come as stacks over a whole frequency grid.

Naming: entries eq31..eq312 are the coupling-independent building blocks of
the first-order model (plus eq31p for the heat pair); equ*/equp* entries are
the closers of the tau1 and tau2 first-order functionals; the 4-prefixed
entries are the zero-order coupling analogues.  There are no tau3 closers:
both tau3 functionals are the tau2 ones of the k2 <-> k3 swapped system (see
lyapunov._tau2_image).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from tlab.forms import (
    ETA, PHI, SIGMA, THETA, Term, U, V, Y, Z, hermitian_from_terms, hermitian_part,
)
from tlab.model import CaseMismatchError, Coupling, SystemConfig, Tau, generator_batch

TermFn = Callable[[SystemConfig, np.ndarray], Sequence[Term]]


@dataclass(frozen=True)
class IdentityEntry:
    name: str
    coupling: Coupling | None  # None = either coupling order
    tau: Tau | None            # None = any tau placement
    w_terms: TermFn
    r_terms: TermFn

    def applies_to(self, cfg: SystemConfig) -> bool:
        if self.coupling is not None and cfg.coupling is not self.coupling:
            return False
        if self.tau is not None and cfg.tau is not self.tau:
            return False
        return True

    def require(self, cfg: SystemConfig) -> None:
        if not self.applies_to(cfg):
            raise CaseMismatchError(
                f"identity {self.name} does not apply to "
                f"tau={cfg.tau.value}/coupling={cfg.coupling.value}"
            )

    def w_matrix(self, cfg: SystemConfig, xi: float | np.ndarray) -> np.ndarray:
        self.require(cfg)
        x = np.asarray(xi, dtype=float)
        return hermitian_from_terms(self.w_terms(cfg, x), x.shape)

    def r_matrix(self, cfg: SystemConfig, xi: float | np.ndarray) -> np.ndarray:
        self.require(cfg)
        x = np.asarray(xi, dtype=float)
        return hermitian_from_terms(self.r_terms(cfg, x), x.shape)


def identity_residual(entry: IdentityEntry, cfg: SystemConfig,
                      xi: float | np.ndarray) -> float | np.ndarray:
    """Frobenius residual of Herm(A*W + WA) = R, relative to 1 + |R|_F, at
    every xi (a scalar for scalar xi, else an array of shape(xi))."""
    x = np.ravel(xi)
    a = generator_batch(cfg, x)
    w = entry.w_matrix(cfg, x)
    r = entry.r_matrix(cfg, x)
    drift = hermitian_part(a.conj().swapaxes(-1, -2) @ w + w @ a)
    resid = (np.linalg.norm(drift - r, axis=(-2, -1))
             / (1.0 + np.linalg.norm(r, axis=(-2, -1))))
    return resid.reshape(np.shape(xi))[()]


_CATALOG: dict[str, IdentityEntry] = {}


def _entry(name: str, coupling: Coupling | None, tau: Tau | None,
           w: TermFn, r: TermFn) -> None:
    if name in _CATALOG:
        raise ValueError(f"duplicate identity name {name}")
    _CATALOG[name] = IdentityEntry(name=name, coupling=coupling, tau=tau,
                                   w_terms=w, r_terms=r)


def catalog() -> dict[str, IdentityEntry]:
    return dict(_CATALOG)


def entries_for(cfg: SystemConfig) -> list[IdentityEntry]:
    return [e for e in _CATALOG.values() if e.applies_to(cfg)]


def get(name: str) -> IdentityEntry:
    return _CATALOG[name]


# ---------------------------------------------------------------------------
# coupling-independent blocks, first-order coupling
# ---------------------------------------------------------------------------

FIRST = Coupling.FIRST_ORDER
ZERO = Coupling.ZERO_ORDER


def _ind(cfg: SystemConfig) -> tuple[int, int, int]:
    return cfg.tau.indicators


_entry(
    "eq31", FIRST, None,
    lambda cfg, xi: [(1j * xi, Y, Z)],
    lambda cfg, xi: [
        (xi ** 2, Y, Y),
        (-cfg.k2 * xi ** 2, Z, Z),
        (-cfg.k1 * 1j * xi, V, Z),
        (_ind(cfg)[1] * cfg.gamma * xi ** 2, ETA, Z),
    ],
)

_entry(
    "eq32", FIRST, None,
    lambda cfg, xi: [(1j * xi, U, V)],
    lambda cfg, xi: [
        (xi ** 2, U, U),
        (-cfg.k1 * xi ** 2, V, V),
        (-1j * xi, Y, U),
        (-1j * xi, THETA, U),
        (_ind(cfg)[0] * cfg.gamma * xi ** 2, ETA, V),
    ],
)

_entry(
    "eq33", FIRST, None,
    lambda cfg, xi: [(1j * xi, THETA, PHI)],
    lambda cfg, xi: [
        (xi ** 2, THETA, THETA),
        (-cfg.k3 * xi ** 2, PHI, PHI),
        (-cfg.k1 * 1j * xi, V, PHI),
        (_ind(cfg)[2] * cfg.gamma * xi ** 2, ETA, PHI),
    ],
)

_entry(
    "eq34", FIRST, None,
    lambda cfg, xi: [(-(xi ** 2), THETA, V)],
    lambda cfg, xi: [
        (cfg.k1 * xi ** 2, V, V),
        (-(xi ** 2), THETA, THETA),
        (-1j * xi ** 3, U, THETA),
        (-cfg.k3 * 1j * xi ** 3, PHI, V),
        (-(xi ** 2), Y, THETA),
        (_ind(cfg)[2] * cfg.gamma * 1j * xi ** 3, ETA, V),
    ],
)

_entry(
    "eq35", FIRST, None,
    lambda cfg, xi: [(-(xi ** 2), Y, V)],
    lambda cfg, xi: [
        (cfg.k1 * xi ** 2, V, V),
        (-(xi ** 2), Y, Y),
        (-1j * xi ** 3, U, Y),
        (-cfg.k2 * 1j * xi ** 3, Z, V),
        (-(xi ** 2), THETA, Y),
        (_ind(cfg)[1] * cfg.gamma * 1j * xi ** 3, ETA, V),
    ],
)

_entry(
    "eq31p", FIRST, None,
    lambda cfg, xi: [(1j * xi, ETA, SIGMA)],
    lambda cfg, xi: [
        (xi ** 2, ETA, ETA),
        (-cfg.k4 * xi ** 2, SIGMA, SIGMA),
        (-cfg.k5 * xi ** (2 * cfg.epsilon0) * 1j * xi, ETA, SIGMA),
        (_ind(cfg)[0] * cfg.gamma * xi ** 2, U, SIGMA),
        (_ind(cfg)[1] * cfg.gamma * xi ** 2, Y, SIGMA),
        (_ind(cfg)[2] * cfg.gamma * xi ** 2, THETA, SIGMA),
    ],
)

_entry(
    "eq36", FIRST, None,
    lambda cfg, xi: [(1j * xi, Z, THETA)],
    lambda cfg, xi: [
        (-(xi ** 2), Y, THETA),
        (cfg.k3 * xi ** 2, PHI, Z),
        (cfg.k1 * 1j * xi, V, Z),
        (-_ind(cfg)[2] * cfg.gamma * xi ** 2, ETA, Z),
    ],
)

_entry(
    "eq37", FIRST, None,
    lambda cfg, xi: [(1j * xi, PHI, Y)],
    lambda cfg, xi: [
        (-(xi ** 2), THETA, Y),
        (cfg.k2 * xi ** 2, Z, PHI),
        (cfg.k1 * 1j * xi, V, PHI),
        (-_ind(cfg)[1] * cfg.gamma * xi ** 2, ETA, PHI),
    ],
)

_entry(
    "eq310", FIRST, None,
    lambda cfg, xi: [(-1.0, U, Z)],
    lambda cfg, xi: [
        (-cfg.k1 * 1j * xi, V, Z),
        (-1j * xi, Y, U),
        (_ind(cfg)[0] * cfg.gamma * 1j * xi, ETA, Z),
    ],
)

_entry(
    "eq312", FIRST, None,
    lambda cfg, xi: [(-1.0, U, PHI)],
    lambda cfg, xi: [
        (-cfg.k1 * 1j * xi, V, PHI),
        (-1j * xi, THETA, U),
        (_ind(cfg)[0] * cfg.gamma * 1j * xi, ETA, PHI),
    ],
)

# ---------------------------------------------------------------------------
# the same blocks under zero-order coupling (tau terms change shape)
# ---------------------------------------------------------------------------

_entry(
    "4eq31", ZERO, None,
    lambda cfg, xi: [(1j * xi, Y, Z)],
    lambda cfg, xi: [
        (xi ** 2, Y, Y),
        (-cfg.k2 * xi ** 2, Z, Z),
        (-cfg.k1 * 1j * xi, V, Z),
        (-_ind(cfg)[1] * cfg.gamma * 1j * xi, ETA, Z),
    ],
)

_entry(
    "4eq32", ZERO, None,
    lambda cfg, xi: [(1j * xi, U, V)],
    lambda cfg, xi: [
        (xi ** 2, U, U),
        (-cfg.k1 * xi ** 2, V, V),
        (-1j * xi, Y, U),
        (-1j * xi, THETA, U),
        (-_ind(cfg)[0] * cfg.gamma * 1j * xi, ETA, V),
    ],
)

_entry(
    "4eq33", ZERO, None,
    lambda cfg, xi: [(1j * xi, THETA, PHI)],
    lambda cfg, xi: [
        (xi ** 2, THETA, THETA),
        (-cfg.k3 * xi ** 2, PHI, PHI),
        (-cfg.k1 * 1j * xi, V, PHI),
        (-_ind(cfg)[2] * cfg.gamma * 1j * xi, ETA, PHI),
    ],
)

_entry(
    "4eq34", ZERO, None,
    lambda cfg, xi: [(-(xi ** 2), THETA, V)],
    lambda cfg, xi: [
        (cfg.k1 * xi ** 2, V, V),
        (-(xi ** 2), THETA, THETA),
        (-1j * xi ** 3, U, THETA),
        (-cfg.k3 * 1j * xi ** 3, PHI, V),
        (-(xi ** 2), Y, THETA),
        (_ind(cfg)[2] * cfg.gamma * xi ** 2, ETA, V),
    ],
)

_entry(
    "4eq35", ZERO, None,
    lambda cfg, xi: [(-(xi ** 2), Y, V)],
    lambda cfg, xi: [
        (cfg.k1 * xi ** 2, V, V),
        (-(xi ** 2), Y, Y),
        (-1j * xi ** 3, U, Y),
        (-cfg.k2 * 1j * xi ** 3, Z, V),
        (-(xi ** 2), THETA, Y),
        (_ind(cfg)[1] * cfg.gamma * xi ** 2, ETA, V),
    ],
)

_entry(
    "4eq31p", ZERO, None,
    lambda cfg, xi: [(1j * xi, ETA, SIGMA)],
    lambda cfg, xi: [
        (xi ** 2, ETA, ETA),
        (-cfg.k4 * xi ** 2, SIGMA, SIGMA),
        (-cfg.k5 * xi ** (2 * cfg.epsilon0) * 1j * xi, ETA, SIGMA),
        (_ind(cfg)[0] * cfg.gamma * 1j * xi, U, SIGMA),
        (_ind(cfg)[1] * cfg.gamma * 1j * xi, Y, SIGMA),
        (_ind(cfg)[2] * cfg.gamma * 1j * xi, THETA, SIGMA),
    ],
)

_entry(
    "4eq36", ZERO, None,
    lambda cfg, xi: [(1j * xi, Z, THETA)],
    lambda cfg, xi: [
        (-(xi ** 2), Y, THETA),
        (cfg.k3 * xi ** 2, PHI, Z),
        (cfg.k1 * 1j * xi, V, Z),
        (_ind(cfg)[2] * cfg.gamma * 1j * xi, ETA, Z),
    ],
)

_entry(
    "4eq37", ZERO, None,
    lambda cfg, xi: [(1j * xi, PHI, Y)],
    lambda cfg, xi: [
        (-(xi ** 2), THETA, Y),
        (cfg.k2 * xi ** 2, Z, PHI),
        (cfg.k1 * 1j * xi, V, PHI),
        (_ind(cfg)[1] * cfg.gamma * 1j * xi, ETA, PHI),
    ],
)

_entry(
    "4eq310", ZERO, None,
    lambda cfg, xi: [(-1.0, U, Z)],
    lambda cfg, xi: [
        (-cfg.k1 * 1j * xi, V, Z),
        (-1j * xi, Y, U),
        (_ind(cfg)[0] * cfg.gamma, ETA, Z),
    ],
)

_entry(
    "4eq312", ZERO, None,
    lambda cfg, xi: [(-1.0, U, PHI)],
    lambda cfg, xi: [
        (-cfg.k1 * 1j * xi, V, PHI),
        (-1j * xi, THETA, U),
        (_ind(cfg)[0] * cfg.gamma, ETA, PHI),
    ],
)

# ---------------------------------------------------------------------------
# tau = (1,0,0), first-order coupling
# ---------------------------------------------------------------------------


def _s(cfg: SystemConfig) -> float:
    return cfg.sign_gamma


def _ag(cfg: SystemConfig) -> float:
    return abs(cfg.gamma)


def _damp(cfg: SystemConfig, xi: np.ndarray) -> np.ndarray:
    return cfg.k5 * xi ** (2 * cfg.epsilon0)


_entry(
    "equ1", FIRST, Tau.TAU1,
    lambda cfg, xi: [(1j * _s(cfg) * xi, U, ETA)],
    lambda cfg, xi: [
        (_ag(cfg) * xi ** 2, ETA, ETA),
        (-_ag(cfg) * xi ** 2, U, U),
        (_s(cfg) * cfg.k4 * xi ** 2, SIGMA, U),
        (-_s(cfg) * cfg.k1 * xi ** 2, V, ETA),
        (_s(cfg) * _damp(cfg, xi) * 1j * xi, ETA, U),
    ],
)

_entry(
    "equ2", FIRST, Tau.TAU1,
    lambda cfg, xi: [(1.0, ETA, THETA)],
    lambda cfg, xi: [
        (cfg.gamma * 1j * xi, THETA, U),
        (cfg.k4 * 1j * xi, SIGMA, THETA),
        (-_damp(cfg, xi), ETA, THETA),
        (cfg.k3 * 1j * xi, PHI, ETA),
        (-cfg.k1, V, ETA),
    ],
)

_entry(
    "equ3", FIRST, Tau.TAU1,
    lambda cfg, xi: [(1.0, ETA, Y)],
    lambda cfg, xi: [
        (-cfg.gamma * 1j * xi, U, Y),
        (cfg.k4 * 1j * xi, SIGMA, Y),
        (-_damp(cfg, xi), ETA, Y),
        (cfg.k2 * 1j * xi, Z, ETA),
        (-cfg.k1, V, ETA),
    ],
)

_entry(
    "equ1p", FIRST, None,
    lambda cfg, xi: [(1j * xi, V, SIGMA)],
    lambda cfg, xi: [
        (-(xi ** 2), SIGMA, U),
        (xi ** 2, V, ETA),
        (1j * xi, Y, SIGMA),
        (1j * xi, THETA, SIGMA),
    ],
)

_entry(
    "equ2p", FIRST, None,
    lambda cfg, xi: [(-1.0, SIGMA, Z)],
    lambda cfg, xi: [
        (1j * xi, SIGMA, Y),
        (1j * xi, Z, ETA),
    ],
)

_entry(
    "equ3p", FIRST, None,
    lambda cfg, xi: [(-1.0, SIGMA, PHI)],
    lambda cfg, xi: [
        (1j * xi, SIGMA, THETA),
        (1j * xi, PHI, ETA),
    ],
)

# ---------------------------------------------------------------------------
# tau = (0,1,0), first-order coupling
# ---------------------------------------------------------------------------

_entry(
    "equp12", FIRST, Tau.TAU2,
    lambda cfg, xi: [(1j * _s(cfg) * xi, Y, ETA)],
    lambda cfg, xi: [
        (_ag(cfg) * xi ** 2, ETA, ETA),
        (-_ag(cfg) * xi ** 2, Y, Y),
        (_s(cfg) * cfg.k4 * xi ** 2, SIGMA, Y),
        (-_s(cfg) * cfg.k1 * 1j * xi, V, ETA),
        (-_s(cfg) * cfg.k2 * xi ** 2, ETA, Z),
        (_s(cfg) * _damp(cfg, xi) * 1j * xi, ETA, Y),
    ],
)

_entry(
    "equp22", FIRST, None,
    lambda cfg, xi: [(xi ** 2, V, SIGMA)],
    lambda cfg, xi: [
        (xi ** 2, SIGMA, Y),
        (xi ** 2, SIGMA, THETA),
        (1j * xi ** 3, U, SIGMA),
        (1j * xi ** 3, ETA, V),
    ],
)

_entry(
    "equp32", FIRST, None,
    lambda cfg, xi: [(1j * xi, Z, SIGMA)],
    lambda cfg, xi: [
        (-(xi ** 2), SIGMA, Y),
        (xi ** 2, ETA, Z),
    ],
)

_entry(
    "equp42", FIRST, Tau.TAU2,
    lambda cfg, xi: [(1.0, U, ETA)],
    lambda cfg, xi: [
        (-cfg.gamma * 1j * xi, Y, U),
        (cfg.k1 * 1j * xi, V, ETA),
        (cfg.k4 * 1j * xi, SIGMA, U),
        (-_damp(cfg, xi), ETA, U),
    ],
)

_entry(
    "equp52", FIRST, None,
    lambda cfg, xi: [(1j * xi, PHI, SIGMA)],
    lambda cfg, xi: [
        (-(xi ** 2), SIGMA, THETA),
        (xi ** 2, ETA, PHI),
    ],
)

_entry(
    "equp62", FIRST, Tau.TAU2,
    lambda cfg, xi: [(1j * xi, ETA, THETA)],
    lambda cfg, xi: [
        (cfg.gamma * xi ** 2, Y, THETA),
        (-cfg.k4 * xi ** 2, SIGMA, THETA),
        (cfg.k3 * xi ** 2, ETA, PHI),
        (-_damp(cfg, xi) * 1j * xi, ETA, THETA),
        (cfg.k1 * 1j * xi, V, ETA),
    ],
)

# ---------------------------------------------------------------------------
# tau = (1,0,0), zero-order coupling
# ---------------------------------------------------------------------------

_entry(
    "4equ1", ZERO, Tau.TAU1,
    lambda cfg, xi: [(-_s(cfg) * xi ** 2, U, ETA)],
    lambda cfg, xi: [
        (_ag(cfg) * xi ** 2, ETA, ETA),
        (-_ag(cfg) * xi ** 2, U, U),
        (-_s(cfg) * cfg.k4 * 1j * xi ** 3, SIGMA, U),
        (-_s(cfg) * cfg.k1 * 1j * xi ** 3, V, ETA),
        (_s(cfg) * cfg.k5 * xi ** (2 * cfg.epsilon0 + 2), ETA, U),
    ],
)

_entry(
    "4equ2", ZERO, Tau.TAU1,
    lambda cfg, xi: [(1j * xi, ETA, THETA)],
    lambda cfg, xi: [
        (cfg.gamma * 1j * xi, U, THETA),
        (-cfg.k4 * xi ** 2, SIGMA, THETA),
        (-_damp(cfg, xi) * 1j * xi, ETA, THETA),
        (cfg.k3 * xi ** 2, PHI, ETA),
        (cfg.k1 * 1j * xi, V, ETA),
    ],
)

_entry(
    "4equ3", ZERO, Tau.TAU1,
    lambda cfg, xi: [(1j * xi, ETA, Y)],
    lambda cfg, xi: [
        (cfg.gamma * 1j * xi, U, Y),
        (-cfg.k4 * xi ** 2, SIGMA, Y),
        (-_damp(cfg, xi) * 1j * xi, ETA, Y),
        (cfg.k2 * xi ** 2, Z, ETA),
        (cfg.k1 * 1j * xi, V, ETA),
    ],
)

_entry(
    "4equ1p", ZERO, None,
    lambda cfg, xi: [(1.0, V, SIGMA)],
    lambda cfg, xi: [
        (-1j * xi, SIGMA, U),
        (-1j * xi, V, ETA),
        (1.0, Y, SIGMA),
        (1.0, THETA, SIGMA),
    ],
)

_entry(
    "4equ2p", ZERO, None,
    lambda cfg, xi: [(1j * xi, Z, SIGMA)],
    lambda cfg, xi: [
        (-(xi ** 2), SIGMA, Y),
        (xi ** 2, Z, ETA),
    ],
)

_entry(
    "4equ3p", ZERO, None,
    lambda cfg, xi: [(1j * xi, PHI, SIGMA)],
    lambda cfg, xi: [
        (-(xi ** 2), SIGMA, THETA),
        (xi ** 2, PHI, ETA),
    ],
)

# ---------------------------------------------------------------------------
# tau = (0,1,0), zero-order coupling
# ---------------------------------------------------------------------------

_entry(
    "4equp12", ZERO, Tau.TAU2,
    lambda cfg, xi: [(-_s(cfg) * xi ** 2, Y, ETA)],
    lambda cfg, xi: [
        (_ag(cfg) * xi ** 2, ETA, ETA),
        (-_ag(cfg) * xi ** 2, Y, Y),
        (-_s(cfg) * cfg.k4 * 1j * xi ** 3, SIGMA, Y),
        (_s(cfg) * cfg.k1 * xi ** 2, ETA, V),
        (-_s(cfg) * cfg.k2 * 1j * xi ** 3, Z, ETA),
        (_s(cfg) * cfg.k5 * xi ** (2 * cfg.epsilon0 + 2), ETA, Y),
    ],
)

_entry(
    "4equp22", ZERO, None,
    lambda cfg, xi: [(1j * xi, V, SIGMA)],
    lambda cfg, xi: [
        (-1j * xi, SIGMA, Y),
        (-1j * xi, SIGMA, THETA),
        (-(xi ** 2), U, SIGMA),
        (xi ** 2, ETA, V),
    ],
)

_entry(
    "4equp32", ZERO, None,
    lambda cfg, xi: [(1.0, Z, SIGMA)],
    lambda cfg, xi: [
        (-1j * xi, SIGMA, Y),
        (1j * xi, ETA, Z),
    ],
)

_entry(
    "4equp42", ZERO, Tau.TAU2,
    lambda cfg, xi: [(-1j * xi, U, ETA)],
    lambda cfg, xi: [
        (cfg.gamma * 1j * xi, Y, U),
        (cfg.k1 * xi ** 2, V, ETA),
        (-cfg.k4 * xi ** 2, SIGMA, U),
        (-_damp(cfg, xi) * 1j * xi, ETA, U),
    ],
)

_entry(
    "4equp52", ZERO, None,
    lambda cfg, xi: [(1.0, PHI, SIGMA)],
    lambda cfg, xi: [
        (-1j * xi, SIGMA, THETA),
        (1j * xi, ETA, PHI),
    ],
)

_entry(
    "4equp62", ZERO, Tau.TAU2,
    lambda cfg, xi: [(1.0, ETA, THETA)],
    lambda cfg, xi: [
        (cfg.gamma, Y, THETA),
        (cfg.k4 * 1j * xi, SIGMA, THETA),
        (-cfg.k3 * 1j * xi, ETA, PHI),
        (-_damp(cfg, xi), ETA, THETA),
        (-cfg.k1, V, ETA),
    ],
)
