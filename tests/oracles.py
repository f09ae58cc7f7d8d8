"""Independent reference implementations used to cross-check the package.

Everything here is written directly from the transformed first-order mode
system, component by component, without going through the matrix assembly
in tlab.model; agreement between the two is the point of the tests.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import scipy.integrate
import scipy.linalg

from tlab import envelope
from tlab import identities as ids
from tlab.dynamics import default_xi_grid
from tlab.forms import DIM, hermitian_from_terms, hermitian_part
from tlab.lyapunov import (
    _SWAP, LAMBDA_CAP, NEG_TOL_FACTOR, CertificateSearchError, DecayCertificate, LyapunovParams,
    _f_part_matrix, _tau2_image, case_name, functional_recipe, select_lambdas,
)
from tlab.model import Coupling, Damping, SystemConfig, Tau, generator_batch, hermitian_energy


def mode_rhs(cfg: SystemConfig, xi: float, s: np.ndarray) -> np.ndarray:
    """d/dt of (v,u,z,y,phi,theta,sigma,eta), written out longhand."""
    v, u, z, y, phi, theta, sigma, eta = s
    t1, t2, t3 = cfg.tau.indicators
    g = cfg.gamma
    if cfg.coupling is Coupling.FIRST_ORDER:
        couple = 1j * xi * eta
        back = lambda w: 1j * xi * g * w  # noqa: E731
    else:
        couple = eta
        back = lambda w: -g * w  # noqa: E731
    if cfg.damping is Damping.TYPE_III:
        damp = cfg.k5 * xi ** 2 * eta
    else:
        damp = cfg.k5 * eta
    return np.array([
        1j * xi * u + y + theta,
        1j * xi * cfg.k1 * v - t1 * g * couple,
        1j * xi * y,
        1j * xi * cfg.k2 * z - cfg.k1 * v - t2 * g * couple,
        1j * xi * theta,
        1j * xi * cfg.k3 * phi - cfg.k1 * v - t3 * g * couple,
        1j * xi * eta,
        1j * xi * cfg.k4 * sigma - damp - back(t1 * u + t2 * y + t3 * theta),
    ])


def integrate_mode(cfg: SystemConfig, xi: float, s0: np.ndarray,
                   t: float) -> np.ndarray:
    """Runge-Kutta integration of the componentwise right-hand side."""
    sol = scipy.integrate.solve_ivp(
        lambda _, s: mode_rhs(cfg, xi, s), (0.0, t), s0.astype(complex),
        method="DOP853", rtol=1e-11, atol=1e-13,
    )
    if not sol.success:
        raise RuntimeError(f"reference integrator failed: {sol.message}")
    return sol.y[:, -1]


def energy(cfg: SystemConfig, s: np.ndarray) -> float:
    v, u, z, y, phi, theta, sigma, eta = s
    return 0.5 * (cfg.k1 * abs(v) ** 2 + abs(u) ** 2 + cfg.k2 * abs(z) ** 2
                  + abs(y) ** 2 + cfg.k3 * abs(phi) ** 2 + abs(theta) ** 2
                  + cfg.k4 * abs(sigma) ** 2 + abs(eta) ** 2)


def char_poly_det(a: np.ndarray, lam: complex) -> complex:
    """det(lam I - A) via LU factorization, independent of any closed form."""
    m = lam * np.eye(a.shape[0], dtype=complex) - a
    sign, logdet = np.linalg.slogdet(m)
    if sign == 0:
        return 0.0 + 0.0j
    return sign * np.exp(logdet)


def quadratic_form(mat: np.ndarray, s: np.ndarray) -> float:
    return float(np.real(s.conj() @ mat @ s))


def generator_longhand(cfg: SystemConfig, xi: float) -> np.ndarray:
    """A(xi) column by column from the componentwise right-hand side."""
    return np.column_stack([mode_rhs(cfg, xi, e) for e in np.eye(8, dtype=complex)])


def plancherel_norms_sq(cfg: SystemConfig, fourier, cutoff: float,
                        times: list[float], j: int, panels: int) -> list[float]:
    """(1/pi) int_0^cutoff xi^{2j} |e^{A(xi) t} Uhat0(xi)|^2 dxi at each time.

    Composite 20-point Gauss-Legendre on equal panels, one scipy.linalg.expm
    per node and time; `fourier` maps a float xi to Uhat0(xi) in C^8.
    """
    x, w = np.polynomial.legendre.leggauss(20)
    edges = np.linspace(0.0, cutoff, panels + 1)
    totals = [0.0] * len(times)
    for lo, hi in zip(edges, edges[1:]):
        half = 0.5 * (hi - lo)
        for xk, wk in zip(lo + half * (x + 1.0), half * w):
            a = generator_longhand(cfg, float(xk))
            u0 = np.asarray(fourier(float(xk)), dtype=complex)
            for i, t in enumerate(times):
                vec = scipy.linalg.expm(a * t) @ u0
                totals[i] += wk * xk ** (2 * j) * float(np.real(vec.conj() @ vec))
    return [v / np.pi for v in totals]


def f_part_dense(cfg: SystemConfig, params: LyapunovParams, xi) -> np.ndarray:
    """lyapunov._f_part_matrix as a sum of dense stacks: every identity's W is
    built in full by hermitian_from_terms, scaled by its weight and added."""
    if cfg.tau is Tau.TAU3:
        image = _tau2_image(cfg)
        return _SWAP @ f_part_dense(image, replace(params, case=case_name(image)), xi) @ _SWAP
    x = np.asarray(xi, dtype=float)
    recipe, q = functional_recipe(cfg, params, x)
    f = np.zeros(x.shape + (DIM, DIM), dtype=complex)
    for weight, name in recipe:
        w = hermitian_from_terms(ids.get(name).w_terms(cfg, x), x.shape)
        f += np.asarray(weight)[..., None, None] * w
    return (x ** q)[..., None, None] * f


def certify_by_bisection(cfg: SystemConfig) -> DecayCertificate:
    """lyapunov.certify as it was before the closed-form rate threshold.

    Built from the package's functional and generator (it checks the search,
    not the assembly): every doubling of lambda and every bisection step
    decides c by one stacked eigvalsh of Herm(A*M + MA) + c f H.
    """
    grid = np.asarray(default_xi_grid(), dtype=float)
    grid = grid[grid != 0.0]
    params = select_lambdas(cfg)
    h = hermitian_energy(cfg).matrix
    tol = NEG_TOL_FACTOR * float(np.linalg.norm(h, 2))
    hinv_sqrt = np.diag(1.0 / np.sqrt(np.real(np.diag(h))))
    g_mat = hermitian_part(_f_part_matrix(cfg, params, grid)
                           / envelope.f_tilde(cfg, grid)[:, None, None])
    fh = envelope.f_of_xi(cfg, grid)[:, None, None] * h[None, :, :]
    a = generator_batch(cfg, grid)
    a_adj = a.conj().swapaxes(-1, -2)
    drift_f = hermitian_part(a_adj @ g_mat + g_mat @ a)
    dissip = hermitian_part(a_adj @ h + h @ a)
    gen_eigs = np.linalg.eigvalsh(hinv_sqrt @ g_mat @ hinv_sqrt)[:, [0, -1]]

    def max_margin(lam: float, c: float) -> tuple[float, float]:
        eigs = np.linalg.eigvalsh(lam * dissip + drift_f + c * fh)[:, -1]
        i = int(np.argmax(eigs))
        return float(eigs[i]), float(grid[i])

    lam, c_floor = 1.0, 1e-9
    while not (max_margin(lam, c_floor)[0] <= tol and lam + float(np.min(gen_eigs[:, 0])) > 0):
        lam *= 2.0
        if lam > LAMBDA_CAP:
            raise CertificateSearchError("multiplier cap reached")
    lo, hi = c_floor, 1.0
    if max_margin(lam, hi)[0] <= tol:
        c = hi
    else:
        while (hi - lo) > 1e-3 * lo:
            mid = 0.5 * (lo + hi)
            if max_margin(lam, mid)[0] <= tol:
                lo = mid
            else:
                hi = mid
        c = lo
    margin, worst_xi = max_margin(lam, c)
    c3 = lam + float(np.min(gen_eigs[:, 0]))
    c4 = lam + float(np.max(gen_eigs[:, 1]))
    return DecayCertificate(
        big_lambda=lam, c=c / c4, c_tilde=c4 * cfg.alpha2 / (c3 * cfg.alpha1), c3=c3, c4=c4,
        c1=c, worst_xi=worst_xi, max_eig_margin=margin, params=params, case=params.case,
    )
