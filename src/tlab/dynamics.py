"""Exact mode propagation, spectra, and the instability dichotomy.

Each frequency evolves by the matrix exponential of the 8x8 generator, so
propagation is exact up to the exponential's roundoff: model.expm on the
real form B = S^-1 A S (scaling and squaring on a Taylor polynomial).  The
stability question at a fixed xi reduces to the spectrum of A(xi): a purely
imaginary eigenvalue produces a non-decaying mode, which happens exactly in
the tau = (1,0,0) case with k2 = k3.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import math
import os
import threading
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from tlab.forms import DIM, ETA
from tlab.model import (
    CaseMismatchError, Coupling, SystemConfig, Tau, energy_generator_batch, energy_sqrt, expm,
    real_generator_batch, real_similarity,
)


class EigensolverError(RuntimeError):
    """Dense eigensolver failed or produced a large backward error."""


class NoImaginaryEigenvalueError(RuntimeError):
    """No neutral eigenvalue with positive imaginary part was found."""


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray  # 8 complex numbers, sorted as spectra sorts them
    abscissa: float          # max Re(lambda)
    nearest_imaginary_gap: float  # min |Re(lambda)|


def propagate(cfg: SystemConfig, xi: float, u0: np.ndarray,
              times: Sequence[float]) -> np.ndarray:
    """e^{A(xi) t} u0 at every time t, shape (T, 8), by one stacked model.expm
    on the real form: e^{At} u0 = S e^{Bt} S^-1 u0, B = real_generator_batch.

    e^{Bt} is real, so it acts on the real and imaginary parts of S^-1 u0
    apart.
    """
    t = np.asarray(times, dtype=float).reshape(-1)
    bad = t[~(np.isfinite(t) & (t >= 0))]
    if bad.size:
        raise ValueError(f"t must be a finite nonnegative real, got {float(bad[0])!r}")
    if not math.isfinite(xi):
        raise ValueError(f"xi must be finite, got {xi!r}")
    s = real_similarity(cfg)
    y0 = np.asarray(u0, dtype=complex) / s
    y = expm(real_generator_batch(cfg, xi), t)[:, 0] @ np.stack((y0.real, y0.imag), axis=-1)
    return s * (y[..., 0] + 1j * y[..., 1])


# eigen_batch splits a stack into one contiguous chunk per usable CPU when
# every chunk gets at least EIG_CHUNK_MIN matrices.  One 8x8 eig takes about
# 12 us and handing a chunk to the pool and back about 70 us (2-core host, one
# BLAS thread): 16-matrix chunks already cut the stack's wall time by a quarter.
EIG_CHUNK_MIN = 16
# spectra_chunks streams a stack in up to SCAN_CHUNKS chunks, so its caller
# checks, sorts and writes one chunk while the pool solves the next; only the
# first chunk, which the caller solves itself, overlaps nothing.
SCAN_CHUNKS = 8
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_POOL: concurrent.futures.ThreadPoolExecutor | None = None   # built on first split
_POOL_LOCK = threading.Lock()


def _eig(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eig(b)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver failed on the xi grid: {exc}") from exc


def _pool() -> concurrent.futures.ThreadPoolExecutor:
    """The module's one pool, _CPUS - 1 threads; the caller's thread takes a chunk too."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = concurrent.futures.ThreadPoolExecutor(max_workers=_CPUS - 1,
                                                          thread_name_prefix="tlab-eig")
        return _POOL


def _chunk_count(n: int, most: int) -> int:
    """Chunks for a stack of n matrices: at most `most`, each of at least
    EIG_CHUNK_MIN matrices, and one where there is no second usable CPU."""
    return max(1, min(most, n // EIG_CHUNK_MIN)) if _CPUS > 1 else 1


def _eig_chunks(b: np.ndarray, chunks: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """np.linalg.eig of each of `chunks` contiguous pieces of the stack b
    (np.array_split), yielded in order.

    The caller's thread solves the first piece and the pool the others
    (eig releases the GIL), so the caller can work on one piece while the
    pool solves the next.  An error in any piece, or closing the generator
    early, cancels the pieces not yet started and waits for the running
    ones: no pool work outlives the generator.
    """
    first, *rest = np.array_split(b, chunks)
    futures = [_pool().submit(_eig, c) for c in rest]
    try:
        yield _eig(first)
        for f in futures:
            yield f.result()
    finally:
        for f in futures:
            f.cancel()
        concurrent.futures.wait(futures)


def eigen_batch(cfg: SystemConfig,
                xi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A stacked np.linalg.eig of the energy-scaled generator Bt of
    model.energy_generator_batch, which has the spectrum of A.  Returns Bt
    (n, 8, 8), the complex eigenvalues (n, 8) and the eigenvectors as
    columns (n, 8, 8), unsorted.

    The join of _eig_chunks: a stack of at least EIG_CHUNK_MIN matrices per
    usable CPU is solved in one contiguous chunk per CPU.  Each matrix is its
    own LAPACK call either way, so the results do not depend on the number
    of CPUs.
    """
    b = energy_generator_batch(cfg, xi)
    parts = list(_eig_chunks(b, _chunk_count(b.shape[0], _CPUS)))
    eigvals, eigvecs = parts[0] if len(parts) == 1 else (np.concatenate(x) for x in zip(*parts))
    return b, eigvals.astype(complex), eigvecs


def backward_ok(b: np.ndarray, eigvals: np.ndarray,
                eigvecs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per pair, whether |b v - lam v| / |v| <= 1e-10 max(|b|_2, 1), shape (n, 8),
    with the norms it takes: |v| per eigenvector (n, 8), floored at 1e-300,
    and |b|_F per matrix (n,).

    Since |b|_F / sqrt(8) <= |b|_2, a row whose residuals all pass against
    1e-10 max(|b|_F / sqrt(8), 1) passes; only the other rows pay for the
    singular values that give |b|_2.
    """
    vec_norm = np.maximum(np.linalg.norm(eigvecs, axis=1), 1e-300)
    b_frob = np.linalg.norm(b, axis=(1, 2))
    resid = np.linalg.norm(b @ eigvecs - eigvecs * eigvals[:, None, :], axis=1) / vec_norm
    ok = resid <= 1e-10 * np.maximum(b_frob / math.sqrt(DIM), 1.0)[:, None]
    rows = np.flatnonzero(~ok.all(axis=1))
    if rows.size:
        limit = 1e-10 * np.maximum(np.linalg.svd(b[rows], compute_uv=False)[:, 0], 1.0)
        ok[rows] = resid[rows] <= limit[:, None]
    return ok, vec_norm, b_frob


def _eigenpairs(cfg: SystemConfig, grid: np.ndarray, b: np.ndarray, eigvals: np.ndarray,
                eigvecs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, eigenvectors and neutral-mode mask at the frequencies
    `grid` of one chunk, from the pairs (eigvals, eigvecs) of its Bt stack b.

    Each pair must pass backward_ok, else EigensolverError names the first
    failing frequency.  Since Bt + Bt^T = -2 d E_eta, each eigenpair
    (lam, v) satisfies Re lam = -d |v_eta|^2 / |v|^2 exactly; the real parts
    are taken from this identity, which is never positive and keeps its
    relative accuracy where eig's real part does not.  A mode whose
    |v_eta| / |v| lies within the first-order eigenvector error
    8 eps |Bt|_F / gap (gap: the distance to the nearest other eigenvalue) is
    neutral, Re lam = 0; so is every mode where d = 0.  Returns the
    eigenvalues (n, 8), the eigenvectors v of Bt as columns (n, 8, 8) and the
    neutral mask (n, 8), unsorted.
    """
    ok, vec_norm, b_frob = backward_ok(b, eigvals, eigvecs)
    if not ok.all():
        i, j = np.argwhere(~ok)[0]
        resid = np.linalg.norm(b[i] @ eigvecs[i, :, j] - eigvals[i, j] * eigvecs[i, :, j])
        raise EigensolverError(
            f"backward error {resid / vec_norm[i, j]:.3e} too large for eigenvalue "
            f"{eigvals[i, j]} at xi={grid[i]}"
        )
    eta_share = np.abs(eigvecs[:, ETA, :]) / vec_norm
    dist = np.abs(eigvals[:, :, None] - eigvals[:, None, :])
    dist[:, range(DIM), range(DIM)] = np.inf
    damping = cfg.k5 * grid[:, None] ** (2 * cfg.epsilon0)
    neutral = ((eta_share * dist.min(axis=2) <= DIM * np.finfo(float).eps * b_frob[:, None])
               | (damping == 0.0))
    eigvals = np.where(neutral, 0.0, -damping * eta_share ** 2) + 1j * eigvals.imag
    return eigvals, eigvecs, neutral


def _eigenpair_chunks(cfg: SystemConfig, xi_grid: Sequence[float],
                      most: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """_eigenpairs of each chunk of the grid in turn, as _eig_chunks solves
    it (at most `most` chunks, see _chunk_count), on the caller's thread.
    Chunks run in grid order, so a failure names the frequency an unchunked
    check would name.
    """
    grid = np.asarray(xi_grid, dtype=float).reshape(-1)
    if grid.size == 0:
        raise ValueError("xi grid is empty")
    if not np.all(np.isfinite(grid)):
        raise ValueError("xi grid has non-finite entries")
    b = energy_generator_batch(cfg, grid)
    chunks = _chunk_count(grid.size, most)
    with contextlib.closing(_eig_chunks(b, chunks)) as solved:
        for g, bc, (w, v) in zip(np.array_split(grid, chunks), np.array_split(b, chunks), solved):
            yield _eigenpairs(cfg, g, bc, w.astype(complex), v)


def _spectra_chunks(cfg: SystemConfig, xi_grid: Sequence[float],
                    most: int) -> Iterator[np.ndarray]:
    with contextlib.closing(_eigenpair_chunks(cfg, xi_grid, most)) as chunks:
        for eigvals, _, _ in chunks:
            order = np.lexsort((eigvals.imag, np.abs(eigvals.imag), eigvals.real), axis=-1)
            yield np.take_along_axis(eigvals, order, axis=-1)


def spectra(cfg: SystemConfig, xi_grid: Sequence[float]) -> np.ndarray:
    """Eigenvalues of A(xi) at every grid frequency, shape (n, 8), from
    _eigenpairs, in eigen_batch's chunks.

    Each row is sorted by (Re, |Im|, Im): conjugate pairs have conjugate
    eigenvectors and so equal real parts, they stay adjacent where several
    neutral modes share Re = 0, and the negative imaginary part comes first.
    """
    return np.concatenate(list(_spectra_chunks(cfg, xi_grid, _CPUS)))


def spectra_chunks(cfg: SystemConfig, xi_grid: Sequence[float]) -> Iterator[np.ndarray]:
    """The rows of spectra, streamed in up to SCAN_CHUNKS contiguous blocks
    in grid order: each block is checked and sorted as its chunk lands,
    while the pool solves the next.  The blocks join to spectra's bytes.
    """
    return _spectra_chunks(cfg, xi_grid, SCAN_CHUNKS)


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
    """Log-spaced grid, `per_decade` points per decade of [xi_min, xi_max].

    ValueError unless both bounds are finite and 0 < xi_min < xi_max.
    """
    for name, bound in (("xi_min", xi_min), ("xi_max", xi_max)):
        if not math.isfinite(bound):
            raise ValueError(f"{name} must be finite, got {bound!r}")
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
    if cfg.stable:
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
    """Propagate the eigenvector of a neutral eigenvalue.

    The mode is the neutral mode of _eigenpairs with the smallest positive
    imaginary part, the test spectra applies; its eigenvector v of Bt maps
    back to u = S H^-1/2 v.  Returns {initial_norm, final_norm, ratio,
    eigenvalue}.  Fails with NoImaginaryEigenvalueError when no mode with
    Im > 0 is neutral, i.e. when the configuration is not actually in the
    non-decaying case.
    """
    (pairs,) = _eigenpair_chunks(cfg, [xi], 1)
    eigvals, eigvecs, neutral = (x[0] for x in pairs)
    up = np.flatnonzero(neutral & (eigvals.imag > 0))
    if not up.size:
        raise NoImaginaryEigenvalueError(
            f"no neutral eigenvalue with Im > 0 at xi={xi}: "
            f"the largest real part is {eigvals.real.max():.3e}"
        )
    idx = up[np.argmin(eigvals.imag[up])]
    vec = real_similarity(cfg) * eigvecs[:, idx] / energy_sqrt(cfg)
    initial = float(np.linalg.norm(vec))
    final = float(np.linalg.norm(propagate(cfg, xi, vec, [t_final])[0]))
    return {
        "initial_norm": initial,
        "final_norm": final,
        "ratio": final / initial,
        "eigenvalue": complex(eigvals[idx]),
    }
