"""Exact mode propagation, spectra, and the instability dichotomy.

Each frequency evolves by the matrix exponential of the 8x8 generator, so
propagation is exact up to the expm algorithm (scaling and squaring with a
Pade core).  The stability question at a fixed xi reduces to the spectrum
of A(xi): a purely imaginary eigenvalue produces a non-decaying mode, which
happens exactly in the tau = (1,0,0) case with k2 = k3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from tlab.model import (
    CaseMismatchError, Coupling, ModeState, SystemConfig, Tau, assemble_generator,
    real_generator_batch,
)

IMAG_EIG_TOL = 1e-8  # |Re(lam)| <= tol*(1+|lam|) counts as purely imaginary


class EigensolverError(RuntimeError):
    """Dense eigensolver failed or produced a large backward error."""


class NoImaginaryEigenvalueError(RuntimeError):
    """No eigenvalue close enough to the imaginary axis was found."""


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray  # 8 complex numbers, sorted by (Re, Im)
    abscissa: float          # max Re(lambda)
    nearest_imaginary_gap: float  # min |Re(lambda)|


def propagate(cfg: SystemConfig, xi: float, s0: ModeState, t: float) -> ModeState:
    """e^{A(xi) t} s0 via scaling-and-squaring matrix exponential."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be a finite nonnegative real, got {t!r}")
    if not math.isfinite(xi):
        raise ValueError(f"xi must be finite, got {xi!r}")
    a = assemble_generator(cfg, xi).a
    out = scipy.linalg.expm(a * t) @ s0.values
    return ModeState(values=out, xi=xi)


def spectra(cfg: SystemConfig, xi_grid: Sequence[float]) -> np.ndarray:
    """Eigenvalues of A(xi) at every grid frequency, shape (n, 8).

    One stacked real eigendecomposition of B(xi) = S^-1 A(xi) S, which has
    the spectrum of A.  Each row is sorted by (Re, Im); conjugate pairs of a
    real matrix have equal real parts, so the negative imaginary part comes
    first.  Every pair must pass the backward-error check
    |B v - lam v| / |v| <= 1e-10 max(|B|_2, 1), else EigensolverError names
    the frequency.
    """
    grid = np.asarray(xi_grid, dtype=float).reshape(-1)
    if grid.size == 0:
        raise ValueError("xi grid is empty")
    if not np.all(np.isfinite(grid)):
        raise ValueError("xi grid has non-finite entries")
    b = real_generator_batch(cfg, grid)
    try:
        eigvals, eigvecs = np.linalg.eig(b)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails at n=8
        raise EigensolverError(f"eigensolver failed on the xi grid: {exc}") from exc
    eigvals = eigvals.astype(complex)
    resid = (np.linalg.norm(b @ eigvecs - eigvecs * eigvals[:, None, :], axis=1)
             / np.maximum(np.linalg.norm(eigvecs, axis=1), 1e-300))
    limit = 1e-10 * np.maximum(np.linalg.norm(b, 2, axis=(1, 2)), 1.0)
    bad = ~(resid <= limit[:, None])
    if bad.any():
        i, k = np.argwhere(bad)[0]
        raise EigensolverError(
            f"backward error {resid[i, k]:.3e} too large for eigenvalue "
            f"{eigvals[i, k]} at xi={grid[i]}"
        )
    order = np.lexsort((eigvals.imag, eigvals.real), axis=-1)
    return np.take_along_axis(eigvals, order, axis=-1)


def spectrum(cfg: SystemConfig, xi: float) -> SpectrumResult:
    """Eigenvalues of A(xi) at one frequency; see spectra."""
    eigvals = spectra(cfg, [xi])[0]
    return SpectrumResult(
        eigenvalues=eigvals,
        abscissa=float(np.max(eigvals.real)),
        nearest_imaginary_gap=float(np.min(np.abs(eigvals.real))),
    )


def default_xi_grid(
    xi_min: float = 1e-2,
    xi_max: float = 1e2,
    per_decade: int = 200,
    include_zero: bool = True,
) -> np.ndarray:
    """Log-spaced grid, `per_decade` points per decade of [xi_min, xi_max]."""
    if not (0 < xi_min < xi_max):
        raise ValueError("need 0 < xi_min < xi_max")
    decades = math.log10(xi_max) - math.log10(xi_min)
    n = max(2, int(round(per_decade * decades)) + 1)
    grid = np.logspace(math.log10(xi_min), math.log10(xi_max), n)
    if include_zero:
        grid = np.concatenate(([0.0], grid))
    return grid


def spectral_abscissa_scan(
    cfg: SystemConfig, xi_grid: Sequence[float]
) -> list[tuple[float, float]]:
    """(xi, max Re(lambda)) over the grid, in grid order."""
    grid = np.asarray(xi_grid, dtype=float).reshape(-1)
    return list(zip(grid.tolist(), spectra(cfg, grid).real.max(axis=1).tolist()))


def _require_chi0_tau1(cfg: SystemConfig) -> None:
    if cfg.tau is not Tau.TAU1:
        raise CaseMismatchError("closed-form determinant requires tau = (1,0,0)")
    if abs(cfg.chi) > 1e-12 * max(cfg.k2, cfg.k3):
        raise CaseMismatchError("closed-form determinant requires k2 = k3 (chi = 0)")


def characteristic_det_chi0(cfg: SystemConfig, xi: float, lam: complex) -> complex:
    """Closed-form det(lambda I - A) in the tau = (1,0,0), k2 = k3 case.

    The polynomial factors through (lambda^2 + k2 xi^2), which carries the
    purely imaginary eigenvalues lambda = +- i sqrt(k2) xi responsible for
    non-decay; at xi = 0 the root lambda = i sqrt(2 k1) plays the same role.
    """
    _require_chi0_tau1(cfg)
    k1, k2, k4, k5 = cfg.k1, cfg.k2, cfg.k4, cfg.k5
    g2 = cfg.gamma ** 2
    eps0 = cfg.epsilon0
    damp = k5 * float(xi) ** (2 * eps0)
    if cfg.coupling is Coupling.FIRST_ORDER:
        q = (k4 + g2) * xi ** 2
        p = xi ** 2
    else:
        q = k4 * xi ** 2 + g2
        p = 1.0
    w2 = lam ** 2 + k2 * xi ** 2
    det = (
        2 * k1 * lam ** 2 * w2 * (lam * (lam + damp) + q)
        + k4 * xi ** 2 * (lam ** 2 + k1 * xi ** 2) * w2 ** 2
        + lam * w2 ** 2 * (lam ** 2 * (lam + damp) + g2 * lam * p + k1 * xi ** 2 * (lam + damp))
    )
    return complex(det)


def nondecay_witness(cfg: SystemConfig, xi: float, t_final: float) -> dict:
    """Propagate the unit eigenvector of a purely imaginary eigenvalue.

    Returns {initial_norm, final_norm, ratio, eigenvalue}.  Fails with an
    informative error when every eigenvalue has a real-part gap, i.e. when
    the configuration is not actually in the non-decaying case.
    """
    a = assemble_generator(cfg, xi).a
    eigvals, eigvecs = scipy.linalg.eig(a)
    idx = int(np.argmin(np.abs(eigvals.real)))
    lam = eigvals[idx]
    if abs(lam.real) > IMAG_EIG_TOL * (1.0 + abs(lam)):
        raise NoImaginaryEigenvalueError(
            f"no purely imaginary eigenvalue at xi={xi}: "
            f"smallest |Re| is {abs(lam.real):.3e} (eigenvalue {lam})"
        )
    vec = eigvecs[:, idx]
    vec = vec / np.linalg.norm(vec)
    s0 = ModeState(values=vec, xi=xi)
    s1 = propagate(cfg, xi, s0, t_final)
    initial = math.sqrt(s0.norm_sq)
    final = math.sqrt(s1.norm_sq)
    return {
        "initial_norm": initial,
        "final_norm": final,
        "ratio": final / initial,
        "eigenvalue": complex(lam),
    }
