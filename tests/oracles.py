"""Independent reference implementations used to cross-check the package.

Everything here is written directly from the transformed first-order mode
system, component by component, without going through the matrix assembly
in tlab.model; agreement between the two is the point of the tests.
"""

from __future__ import annotations

from dataclasses import replace
from decimal import ROUND_FLOOR, Decimal

import numpy as np
import scipy.integrate
import scipy.linalg

from tlab import envelope
from tlab import identities as ids
from tlab.dynamics import default_xi_grid
from tlab.forms import DIM, hermitian_from_terms, hermitian_part
from tlab.lyapunov import (
    _SWAP, LAMBDA_CAP, CertificateSearchError, DecayCertificate, LyapunovParams, _f_part_matrix,
    _tau2_image, case_name, functional_form, functional_recipe, select_lambdas,
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


def _cholesky_ok(m: np.ndarray) -> bool:
    """Whether the Hermitian m, equilibrated to a unit diagonal, has a Cholesky factor."""
    d = np.real(np.diag(m))
    if not np.all(d > 0):
        return False
    d = 1.0 / np.sqrt(d)
    try:
        np.linalg.cholesky(d[:, None] * m * d)
    except np.linalg.LinAlgError:
        return False
    return True


def certificate_problems(cfg: SystemConfig, cert: DecayCertificate) -> list[str]:
    """Slack-free check of a certificate on the default grid, one xi at a time.

    Q = Herm(A*M + MA) is built at each xi from the componentwise generator
    and lyapunov.functional_form.  The drift inequality Q + c1 f H <= 0 holds
    at xi when -(Q + c1 f H) has a Cholesky factor.  At worst_xi, the next
    rate above c1 in 3 significant digits must not hold, unless c1 is capped
    at 1.  Returns one line per violation.
    """
    grid = np.asarray(default_xi_grid(), dtype=float)[1:]
    h = hermitian_energy(cfg).matrix
    f = envelope.f_of_xi(cfg, grid)
    problems = []
    for xi, f_xi in zip(grid, f):
        a = generator_longhand(cfg, float(xi))
        m = functional_form(cfg, cert.params, float(xi), cert.big_lambda).matrix
        q = hermitian_part(a.conj().T @ m + m @ a)
        if not _cholesky_ok(-(q + cert.c1 * f_xi * h)):
            problems.append(f"drift inequality fails at xi = {xi} with c1 = {cert.c1}")
        if xi == cert.worst_xi and cert.c1 < 1.0:
            c1 = Decimal(cert.c1)
            step = Decimal(1).scaleb(c1.adjusted() - 2)
            c_next = float(c1.quantize(step) + step)
            if _cholesky_ok(-(q + c_next * f_xi * h)):
                problems.append(f"rate {c_next} also holds at worst_xi = {xi}")
    if cert.worst_xi not in grid:
        problems.append(f"worst_xi = {cert.worst_xi} is not a grid point")
    return problems


def certify_complex(cfg: SystemConfig, xi_grid=None) -> DecayCertificate:
    """lyapunov.certify on the complex matrices, with a full-grid pass for
    every lambda with c3 > 0: Q = lambda Herm(A*H + HA) + Herm(A*G + GA)
    from generator_batch and the Hermitian part of F/ftilde."""
    grid = np.asarray(default_xi_grid() if xi_grid is None else xi_grid, dtype=float)
    grid = grid[grid != 0.0]
    params = select_lambdas(cfg)
    h = hermitian_energy(cfg).matrix
    hinv_sqrt = 1.0 / np.sqrt(np.real(np.diag(h)))
    g_mat = hermitian_part(_f_part_matrix(cfg, params, grid)
                           / envelope.f_tilde(cfg, grid)[:, None, None])
    f_vals = envelope.f_of_xi(cfg, grid)
    a = generator_batch(cfg, grid)
    a_adj = a.conj().swapaxes(-1, -2)
    drift_f = hermitian_part(a_adj @ g_mat + g_mat @ a)
    dissip = hermitian_part(a_adj @ h + h @ a)
    gen_eigs = np.linalg.eigvalsh(hinv_sqrt[:, None] * g_mat * hinv_sqrt,
                                  UPLO="U")[:, [0, -1]]
    gen_min = float(np.min(gen_eigs[:, 0]))
    lam = 1.0
    while True:
        if lam + gen_min > 0:
            q = hinv_sqrt[:, None] * (lam * dissip + drift_f) * hinv_sqrt
            top = np.linalg.eigvalsh(q, UPLO="U")[:, -1]
            c_star = -top / f_vals
            worst = int(np.argmin(c_star))
            if c_star[worst] > 0:
                break
        if lam >= LAMBDA_CAP:
            raise CertificateSearchError("multiplier cap reached")
        lam *= 2.0
    c_min = Decimal(float(c_star[worst]))
    c1 = min(1.0, float(c_min.quantize(Decimal(1).scaleb(c_min.adjusted() - 2),
                                       rounding=ROUND_FLOOR)))
    c3 = lam + gen_min
    c4 = lam + float(np.max(gen_eigs[:, 1]))
    return DecayCertificate(
        big_lambda=lam, c=c1 / c4, c_tilde=c4 * cfg.alpha2 / (c3 * cfg.alpha1), c3=c3,
        c4=c4, c1=c1, worst_xi=float(grid[worst]),
        worst_on_edge=worst in (0, grid.size - 1),
        max_eig_margin=float(np.max(top + c1 * f_vals)), params=params, case=params.case,
    )
