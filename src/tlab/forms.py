"""Hermitian quadratic forms on the 8-dimensional mode space.

All energies and Lyapunov functionals used here are real quadratic
observables of the complex state, i.e. maps s -> s* M s with M Hermitian.
They are assembled from sesquilinear monomials Re(c * s_a * conj(s_b)),
each of which contributes a Hermitian rank <= 2 block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

DIM = 8

# canonical component order of the state vector
V, U, Z, Y, PHI, THETA, SIGMA, ETA = range(DIM)
COMPONENT_NAMES = ("v", "u", "z", "y", "phi", "theta", "sigma", "eta")

# a monomial Re(coeff * s[a] * conj(s[b])); coeff may be an array over xi
Term = Tuple[complex | np.ndarray, int, int]


def hermitian_from_terms(terms: Iterable[Term], shape: tuple[int, ...] = ()) -> np.ndarray:
    """Hermitian M with s* M s = sum of Re(c * s_a * conj(s_b)), a stack of shape
    `shape + (8, 8)` when the coefficients are arrays broadcasting to `shape`."""
    m = np.zeros(shape + (DIM, DIM), dtype=complex)
    for coeff, a, b in terms:
        # Re(c s_a conj(s_b)) = s* (E_{ba} c/2 + E_{ab} conj(c)/2) s
        m[..., b, a] += 0.5 * coeff
        m[..., a, b] += 0.5 * np.conj(coeff)
    return m


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M*)/2, for one matrix or a stack of them."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def hermiticity_defect(m: np.ndarray) -> float:
    return float(np.linalg.norm(m - m.conj().T))


@dataclass(frozen=True)
class HermitianForm:
    """A real quadratic observable s -> Re(s* M s), M Hermitian."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (DIM, DIM):
            raise ValueError(f"expected {DIM}x{DIM} matrix, got {m.shape}")
        if hermiticity_defect(m) > 1e-14 * max(1.0, float(np.linalg.norm(m))):
            raise ValueError("matrix is not Hermitian")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __call__(self, s: Sequence[complex] | np.ndarray) -> float:
        vec = np.asarray(s, dtype=complex).reshape(DIM)
        return float(np.real(vec.conj() @ self.matrix @ vec))
