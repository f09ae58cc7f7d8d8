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

# a monomial Re(coeff * s[a] * conj(s[b])); coeff may be an array over xi
Term = Tuple[complex | np.ndarray, int, int]


def _slot_sums(terms: Iterable[Term]) -> dict[tuple[int, int], complex | np.ndarray]:
    """Per slot (i, j), the sum in term order of the halves the terms put there."""
    slots: dict[tuple[int, int], complex | np.ndarray] = {}
    for coeff, a, b in terms:
        # Re(c s_a conj(s_b)) = s* (E_{ba} c/2 + E_{ab} conj(c)/2) s
        for slot, half in (((b, a), 0.5 * coeff), ((a, b), 0.5 * np.conj(coeff))):
            slots[slot] = slots[slot] + half if slot in slots else half
    return slots


def hermitian_from_terms(terms: Iterable[Term], shape: tuple[int, ...] = ()) -> np.ndarray:
    """Hermitian M with s* M s = sum of Re(c * s_a * conj(s_b)), a stack of shape
    `shape + (8, 8)` when the coefficients are arrays broadcasting to `shape`."""
    m = np.zeros(shape + (DIM, DIM), dtype=complex)
    for (i, j), value in _slot_sums(terms).items():
        m[..., i, j] += value
    return m


def add_weighted_terms(m: np.ndarray, terms: Iterable[Term],
                       weight: float | np.ndarray) -> None:
    """m += weight * hermitian_from_terms(terms), in place, touching only the
    slots the terms reach: each slot's sum, then the weight."""
    weight = np.asarray(weight)
    for (i, j), value in _slot_sums(terms).items():
        m[..., i, j] += weight * value


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M*)/2, for one matrix or a stack of them."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


@dataclass(frozen=True)
class HermitianForm:
    """A real quadratic observable s -> Re(s* M s), M Hermitian."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (DIM, DIM):
            raise ValueError(f"expected {DIM}x{DIM} matrix, got {m.shape}")
        if np.linalg.norm(m - m.conj().T) > 1e-14 * max(1.0, float(np.linalg.norm(m))):
            raise ValueError("matrix is not Hermitian")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __call__(self, s: Sequence[complex] | np.ndarray) -> float:
        vec = np.asarray(s, dtype=complex).reshape(DIM)
        return float(np.real(vec.conj() @ self.matrix @ vec))
