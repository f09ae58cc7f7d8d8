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

from tlab.forms import DIM, ETA
from tlab.model import (
    CaseMismatchError, Coupling, ModeState, SystemConfig, Tau, generator_batch,
    hermitian_energy, real_generator_batch,
)

IMAG_EIG_TOL = 1e-8  # |Re(lam)| <= tol*(1+|lam|) counts as purely imaginary


class EigensolverError(RuntimeError):
    """Dense eigensolver failed or produced a large backward error."""


class NoImaginaryEigenvalueError(RuntimeError):
    """No eigenvalue close enough to the imaginary axis was found."""


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray  # 8 complex numbers, sorted as spectra sorts them
    abscissa: float          # max Re(lambda)
    nearest_imaginary_gap: float  # min |Re(lambda)|


def propagate(cfg: SystemConfig, xi: float, s0: ModeState, t: float) -> ModeState:
    """e^{A(xi) t} s0 via scaling-and-squaring matrix exponential."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be a finite nonnegative real, got {t!r}")
    if not math.isfinite(xi):
        raise ValueError(f"xi must be finite, got {xi!r}")
    a = generator_batch(cfg, xi)[0]
    out = scipy.linalg.expm(a * t) @ s0.values
    return ModeState(values=out, xi=xi)


def spectra(cfg: SystemConfig, xi_grid: Sequence[float]) -> np.ndarray:
    """Eigenvalues of A(xi) at every grid frequency, shape (n, 8).

    One stacked real eigendecomposition of the energy-scaled real generator
    Bt(xi) = H^1/2 S^-1 A(xi) S H^-1/2, which has the spectrum of A.  Since
    Bt + Bt^T = -2 d E_eta with d = k5 xi^(2 eps0), each eigenpair (lam, v)
    satisfies Re lam = -d |v_eta|^2 / |v|^2 exactly; the real parts are taken
    from this identity, which is never positive and keeps its relative
    accuracy where eig's real part does not.  A mode whose |v_eta| / |v| lies
    within the first-order eigenvector error 8 eps |Bt|_F / gap (gap: the
    distance to the nearest other eigenvalue) is neutral, Re lam = 0; so is
    every mode where d = 0.  Each row is sorted by (Re, |Im|, Im): conjugate
    pairs have conjugate eigenvectors and so equal real parts, they stay
    adjacent where several neutral modes share Re = 0, and the negative
    imaginary part comes first.  Every pair must pass the backward-error
    check |Bt v - lam v| / |v| <= 1e-10 max(|Bt|_2, 1), else EigensolverError
    names the frequency.  Since |Bt|_F / sqrt(8) <= |Bt|_2, a row whose
    residuals all pass against 1e-10 max(|Bt|_F / sqrt(8), 1) passes the
    check; only the other rows pay for the singular values that give |Bt|_2.
    """
    grid = np.asarray(xi_grid, dtype=float).reshape(-1)
    if grid.size == 0:
        raise ValueError("xi grid is empty")
    if not np.all(np.isfinite(grid)):
        raise ValueError("xi grid has non-finite entries")
    h_sqrt = np.sqrt(np.real(np.diag(hermitian_energy(cfg).matrix)))
    b = real_generator_batch(cfg, grid) * (h_sqrt[:, None] / h_sqrt)
    try:
        eigvals, eigvecs = np.linalg.eig(b)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails at n=8
        raise EigensolverError(f"eigensolver failed on the xi grid: {exc}") from exc
    eigvals = eigvals.astype(complex)
    vec_norm = np.maximum(np.linalg.norm(eigvecs, axis=1), 1e-300)
    resid = np.linalg.norm(b @ eigvecs - eigvecs * eigvals[:, None, :], axis=1) / vec_norm
    b_frob = np.linalg.norm(b, axis=(1, 2))
    cheap = 1e-10 * np.maximum(b_frob / math.sqrt(DIM), 1.0)
    rows = np.flatnonzero(~np.all(resid <= cheap[:, None], axis=1))
    if rows.size:
        limit = 1e-10 * np.maximum(np.linalg.svd(b[rows], compute_uv=False)[:, 0], 1.0)
        bad = ~(resid[rows] <= limit[:, None])
        if bad.any():
            k, j = np.argwhere(bad)[0]
            i = rows[k]
            raise EigensolverError(
                f"backward error {resid[i, j]:.3e} too large for eigenvalue "
                f"{eigvals[i, j]} at xi={grid[i]}"
            )
    eta_share = np.abs(eigvecs[:, ETA, :]) / vec_norm
    dist = np.abs(eigvals[:, :, None] - eigvals[:, None, :])
    dist[:, range(DIM), range(DIM)] = np.inf
    damping = cfg.k5 * grid[:, None] ** (2 * cfg.epsilon0)
    neutral = ((eta_share * dist.min(axis=2) <= DIM * np.finfo(float).eps * b_frob[:, None])
               | (damping == 0.0))
    eigvals = np.where(neutral, 0.0, -damping * eta_share ** 2) + 1j * eigvals.imag
    order = np.lexsort((eigvals.imag, np.abs(eigvals.imag), eigvals.real), axis=-1)
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
    a = generator_batch(cfg, xi)[0]
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
