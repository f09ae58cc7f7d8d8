"""Lyapunov functionals and pointwise decay certificates.

For each stable case the construction is the same: a functional

    L(xi) = lambda * Ehat + xi^q * F1(xi) / ftilde(xi)

is assembled as a weighted sum of catalog identities (see identities.py),
with case-specific multipliers built from six free parameters lambda0..5
chosen by a deterministic midpoint rule.  The tau3 cases have no recipe of
their own: swapping the (z, y) and (phi, theta) pairs and trading k2 for k3
turns a tau3 generator into a tau2 generator under either coupling order and
leaves the energy unchanged, so the tau3 parameters and functional are those
of this tau2 image (`_tau2_image`), conjugated back by the swap.

A certificate (lambda, c1) then consists of a multiplier lambda and a rate
c1 in (0, 1] such that at every grid frequency, with no slack,

    Herm(A* M + M A) + c1 f(xi) H  <=  0,

with M the matrix of L and H the energy.  Together with the equivalence
constants c3 H <= M <= c4 H this yields the pointwise bound

    |Uhat(t)|^2 <= c_tilde e^{-c f(xi) t} |Uhat(0)|^2,
    c = c1 / c4,  c_tilde = c4 alpha2 / (c3 alpha1).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from decimal import ROUND_FLOOR, Decimal
from typing import Sequence

import numpy as np

from tlab import envelope as _envelope
from tlab import identities as _ids
from tlab.dynamics import default_xi_grid
from tlab.envelope import UnstableCaseError
from tlab.forms import DIM, ETA, HermitianForm, add_weighted_terms, hermitian_part
from tlab.model import (
    CaseMismatchError, Coupling, SystemConfig, Tau, energy_sqrt, hermitian_energy,
    real_generator_batch, real_similarity,
)

LAMBDA_CAP = 2.0 ** 40


class CertificateSearchError(RuntimeError):
    """Certificate search exhausted the multiplier cap."""


# permutation swapping the (z, y) and (phi, theta) pairs; conjugating the
# tau3 generator by it and swapping k2 <-> k3 yields the tau2 generator
_SWAP = np.eye(DIM)[[0, 1, 4, 5, 2, 3, 6, 7]]


def _tau2_image(cfg: SystemConfig) -> SystemConfig:
    """The tau2 system conjugate to the tau3 system `cfg` under _SWAP:
    A_tau3(xi) = _SWAP A_image(xi) _SWAP, with the same energy H."""
    return replace(cfg, k2=cfg.k3, k3=cfg.k2, tau=Tau.TAU2)


def _mid(a: float, b: float) -> float:
    return 0.5 * (a + b)


@dataclass(frozen=True)
class LyapunovParams:
    lambda0: float
    lambda1: float
    lambda2: float
    lambda3: float
    lambda4: float
    lambda5: float
    epsilon: float
    # "case1" | "case2" | "case3" | "case1z" | "case2z" | "case3z"; case3 and
    # case3z carry the case2/case2z parameters of the tau2 image
    case: str

    def as_dict(self) -> dict:
        return asdict(self)

    def derived_lambdas(self, cfg: SystemConfig, xi: float | np.ndarray) -> dict:
        """The multipliers lambda6..lambda9 of the active case, elementwise in xi."""
        l1, l2, l3, l4, l5 = (self.lambda1, self.lambda2, self.lambda3,
                              self.lambda4, self.lambda5)
        k1, k2, k3 = cfg.k1, cfg.k2, cfg.k3
        if self.case in ("case1", "case1z"):
            chi = cfg.chi
            l6 = (k2 / chi) * (l4 + l5)
            l7 = -(k3 / chi) * (l4 + l5)
            l8 = (k2 / k1) * l5 * xi ** 2 - l1 + (k2 / chi) * (l4 + l5)
            l9 = (k3 / k1) * l4 * xi ** 2 - l3 - (k3 / chi) * (l4 + l5)
        else:  # case2, case2z
            l6 = (k2 / k3) * ((k3 / k1 - 1.0) * l4 * xi ** 2 - l2 - l3)
            l7 = -(k3 / k2) * l6
            l8 = -(k2 / k1) * l5 * xi ** 2 + l6 - l1
            l9 = l4 * xi ** 2 + l2
        return {"lambda6": l6, "lambda7": l7, "lambda8": l8, "lambda9": l9}

    def derived_i(self, cfg: SystemConfig, xi: float | np.ndarray) -> dict:
        """The closing multipliers I1.. of the active case, elementwise in xi."""
        dl = self.derived_lambdas(cfg, xi)
        l8, l9 = dl["lambda8"], dl["lambda9"]
        l0, l2, l4, l5 = self.lambda0, self.lambda2, self.lambda4, self.lambda5
        g = cfg.gamma
        s = cfg.sign_gamma
        ag = abs(g)
        k4 = cfg.k4
        if self.case == "case1":
            i1 = l4 * xi ** 2 - l2 - l9
            i2 = l5 * xi ** 2 - l2 - l8
            i3 = g + s * k4 * l0 + (k4 / g) * i1
            i4 = g + s * k4 * l0 + (k4 / g) * i2
            i5 = g + s * k4 * l0
            return {"I1": i1, "I2": i2, "I3": i3, "I4": i4, "I5": i5}
        if self.case == "case1z":
            i1 = l4 * xi ** 2 - l2 - l9
            i2 = l5 * xi ** 2 - l2 - l8
            i3 = -(k4 / g) * (i1 + ag * l0) * xi ** 2 - g
            i4 = -(k4 / g) * (i2 + ag * l0) * xi ** 2 - g
            i5 = -g - s * k4 * l0 * xi ** 2
            return {"I1": i1, "I2": i2, "I3": i3, "I4": i4, "I5": i5}
        if self.case == "case2":
            i1 = -l5 * xi ** 2 + l2 - l8
            i2 = l5 - l4 - dl["lambda6"] - dl["lambda7"]
            i3 = (s * k4 * l0 + g) * xi ** 2 + (k4 / g) * i1
            i4 = (k4 / g) * (i2 * xi ** 2 + i1)
            return {"I1": i1, "I2": i2, "I3": i3, "I4": i4}
        # case2z
        i1 = -l5 * xi ** 2 + l2 - l8
        i2 = l5 - l4 - dl["lambda6"] - dl["lambda7"]
        i3 = -s * k4 * l0 * xi ** 2 - (k4 / g) * i1 - g
        i4 = -(k4 / g) * (i2 * xi ** 2 + i1)
        return {"I1": i1, "I2": i2, "I3": i3, "I4": i4}


@dataclass(frozen=True)
class DecayCertificate:
    big_lambda: float
    c: float           # pointwise exponential rate, c1/c4
    c_tilde: float
    c3: float
    c4: float
    c1: float          # drift-domination constant, min c* rounded down
    worst_xi: float    # the binding frequency, argmin of c*
    worst_on_edge: bool  # worst_xi is the first or last grid point
    max_eig_margin: float  # max over xi of lambda_max(H^-1/2 (Q + c1 f H) H^-1/2)
    params: LyapunovParams
    case: str

    def as_dict(self) -> dict:
        return {
            "case": self.case,
            "lambda_params": self.params.as_dict(),
            "big_lambda": self.big_lambda,
            "c": self.c,
            "c_tilde": self.c_tilde,
            "c3": self.c3,
            "c4": self.c4,
            "worst_xi": self.worst_xi,
            "worst_on_edge": self.worst_on_edge,
            "max_eig_margin": self.max_eig_margin,
        }


def case_name(cfg: SystemConfig) -> str:
    suffix = "" if cfg.coupling is Coupling.FIRST_ORDER else "z"
    return f"case{cfg.tau.value}{suffix}"


def select_lambdas(cfg: SystemConfig) -> LyapunovParams:
    """Deterministic midpoint walk along the case's inequality chain."""
    if not cfg.stable:
        raise UnstableCaseError("unstable case has no certificate (tau1 with chi = 0)")
    if cfg.tau is Tau.TAU3:
        return replace(select_lambdas(_tau2_image(cfg)), case=case_name(cfg))
    ag = abs(cfg.gamma)
    k1, k2, k3, k4 = cfg.k1, cfg.k2, cfg.k3, cfg.k4
    case = case_name(cfg)

    if case in ("case1", "case1z"):
        l1 = l3 = 1.0
        l0 = 2.0 * (l1 + l3) / ag
        l4 = _mid(l3, ag * l0 - l1)
        l2 = _mid(l1 + l4, ag * l0)
        l5 = _mid(l1, l2 - l4)
        eps = 0.5 * min(
            l5 - l1, k1 * (l2 - l4 - l5), l4 - l3, ag * l0 - l2,
            k2 * l1, k3 * l3, k4,
        )
        chain_ok = (
            l3 < l4 < ag * l0 - l1 and l1 + l4 < l2 < ag * l0
            and l1 < l5 < l2 - l4 and l0 > (l1 + l3) / ag
        )
    else:  # case2, case2z
        # chain: 0 < lambda1; 0 < lambda3 < lambda4 < lambda5;
        # 0 < lambda2 < lambda5 - lambda4; lambda0 > (lambda1+lambda5)/|gamma|
        l1 = l3 = 1.0
        l4 = l3 + 1.0
        l5 = l4 + 2.0
        l2 = _mid(0.0, l5 - l4)
        l0 = 2.0 * (l1 + l5) / ag
        eps = 0.5 * min(
            k2 * l1, k3 * l3, l2, l4 - l3,
            k1 * (l5 - l4 - l2), ag * l0 - l1 - l5, k4,
        )
        chain_ok = (
            0 < l3 < l4 < l5 and 0 < l2 < l5 - l4 and l0 > (l1 + l5) / ag
        )

    params = LyapunovParams(lambda0=l0, lambda1=l1, lambda2=l2, lambda3=l3,
                            lambda4=l4, lambda5=l5, epsilon=eps, case=case)
    if not (chain_ok and eps > 0):
        raise RuntimeError(f"midpoint rule produced an infeasible chain: {params}")
    return params


def _check_case(cfg: SystemConfig, params: LyapunovParams) -> None:
    if params.case != case_name(cfg):
        raise CaseMismatchError(
            f"params for {params.case} applied to {case_name(cfg)} config"
        )


Recipe = list[tuple[float | np.ndarray, str]]


def functional_recipe(
    cfg: SystemConfig, params: LyapunovParams, xi: float | np.ndarray
) -> tuple[Recipe, int]:
    """Weighted identity combination (weight, entry name; weights elementwise
    in xi) and the prefactor exponent q with F(xi) = xi^q * sum_i w_i W_i."""
    _check_case(cfg, params)
    if cfg.tau is Tau.TAU3:
        raise CaseMismatchError("tau3 functionals are built from their tau2 image")
    xi = np.asarray(xi, dtype=float)
    l0, l1, l2, l3, l4, l5 = (params.lambda0, params.lambda1, params.lambda2,
                              params.lambda3, params.lambda4, params.lambda5)
    dl = params.derived_lambdas(cfg, xi)
    di = params.derived_i(cfg, xi)
    l6, l7, l8, l9 = dl["lambda6"], dl["lambda7"], dl["lambda8"], dl["lambda9"]
    g = cfg.gamma
    k4 = cfg.k4
    eps0 = cfg.epsilon0
    x2 = xi ** 2

    if params.case == "case1":
        f0 = [(l1, "eq31"), (l2, "eq32"), (l3, "eq33"), (l4, "eq34"), (l5, "eq35"),
              (1.0, "eq31p"), (l6, "eq36"), (l7, "eq37"), (l8, "eq310"), (l9, "eq312")]
        closers = [
            (l0, "equ1"),
            (-di["I1"] / g, "equ2"),
            (-di["I2"] / g, "equ3"),
            (di["I5"], "equ1p"),
            (di["I4"], "equ2p"),
            (di["I3"], "equ3p"),
        ]
        return f0 + closers, 2 + 2 * eps0

    if params.case == "case2":
        f0 = [(x2 * l1, "eq31"), (-x2 * l2, "eq32"), (x2 * l3, "eq33"),
              (x2 * l4, "eq34"), (-x2 * l5, "eq35"), (x2, "eq31p"),
              (x2 * l6, "eq36"), (x2 * l7, "eq37"), (x2 * l8, "eq310"),
              (x2 * l9, "eq312")]
        closers = [
            (l0 * x2, "equp12"),
            ((k4 / g) * di["I1"], "equp22"),
            (di["I3"], "equp32"),
            ((1.0 / g) * di["I1"] * x2, "equp42"),
            (di["I4"], "equp52"),
            (-(1.0 / g) * di["I2"] * x2, "equp62"),
        ]
        return f0 + closers, 2 * eps0

    if params.case == "case1z":
        f0 = [(x2 * l1, "4eq31"), (x2 * l2, "4eq32"), (x2 * l3, "4eq33"),
              (x2 * l4, "4eq34"), (x2 * l5, "4eq35"), (x2, "4eq31p"),
              (x2 * l6, "4eq36"), (x2 * l7, "4eq37"), (x2 * l8, "4eq310"),
              (x2 * l9, "4eq312")]
        closers = [
            (l0 * x2, "4equ1"),
            ((1.0 / g) * di["I1"] * x2, "4equ2"),
            ((1.0 / g) * di["I2"] * x2, "4equ3"),
            (di["I5"] * x2, "4equ1p"),
            (di["I4"], "4equ2p"),
            (di["I3"], "4equ3p"),
        ]
        return f0 + closers, 2 * eps0

    # case2z
    f0 = [(l1, "4eq31"), (-l2, "4eq32"), (l3, "4eq33"),
          (l4, "4eq34"), (-l5, "4eq35"), (1.0, "4eq31p"),
          (l6, "4eq36"), (l7, "4eq37"), (l8, "4eq310"), (l9, "4eq312")]
    closers = [
        (l0, "4equp12"),
        ((k4 / g) * di["I1"], "4equp22"),
        (di["I3"], "4equp32"),
        (-(1.0 / g) * di["I1"], "4equp42"),
        (di["I4"], "4equp52"),
        (-(1.0 / g) * di["I2"] * x2, "4equp62"),
    ]
    return f0 + closers, 2 * eps0


def _f_part_matrix(cfg: SystemConfig, params: LyapunovParams,
                   xi: float | np.ndarray) -> np.ndarray:
    """Matrix of F(xi) = xi^q F1(xi) (not yet divided by ftilde), shape(xi) + (8, 8)."""
    if cfg.tau is Tau.TAU3:
        image = _tau2_image(cfg)
        return _SWAP @ _f_part_matrix(image, replace(params, case=case_name(image)), xi) @ _SWAP
    x = np.asarray(xi, dtype=float)
    recipe, q = functional_recipe(cfg, params, x)
    # sum_i w_i W_i(xi), accumulated in one running stack of shape(xi) + (8, 8);
    # each W_i is one monomial, so it adds into its two slots directly
    f = np.zeros(x.shape + (DIM, DIM), dtype=complex)
    for weight, name in recipe:
        entry = _ids.get(name)
        entry.require(cfg)
        add_weighted_terms(f, entry.w_terms(cfg, x), weight)
    return (x ** q)[..., None, None] * f


def functional_form(
    cfg: SystemConfig, params: LyapunovParams, xi: float, big_lambda: float
) -> HermitianForm:
    """Matrix of L = big_lambda * Ehat + F(xi)/ftilde(xi)."""
    _check_case(cfg, params)
    h = hermitian_energy(cfg).matrix
    ft = _envelope.f_tilde(cfg, xi)
    m = big_lambda * h + _f_part_matrix(cfg, params, xi) / ft
    return HermitianForm(hermitian_part(m))


def certify(
    cfg: SystemConfig,
    xi_grid: Sequence[float] | None = None,
) -> DecayCertificate:
    """Search (lambda, c1) realizing the pointwise exponential bound.

    lambda doubles from 1 until L is equivalent to the energy (c3 > 0) and
    its drift is dominated by -c1 f(xi) Ehat at every grid xi for some
    c1 > 0.  H is diagonal and positive, so with Q = Herm(A*M + MA) the
    largest such rate at xi is the closed form

        c*(xi) = -lambda_max(H^-1/2 Q H^-1/2) / f(xi).

    Every matrix is taken on the real form of dynamics.spectra: under the
    unitary similarity S of real_similarity, B = S^-1 A S and
    G_r = S^-1 G S (G = F/ftilde) are real, so S^-1 Q S = lambda (B^T H + HB)
    + B^T G_r + G_r B is real symmetric with the eigenvalues of Q.  The
    energy identity makes H^-1/2 (B^T H + HB) H^-1/2 = 2 B_eta,eta E_eta,eta,
    so lambda moves only the eta diagonal entry of the scaled drift.

    A lambda with c3 <= 0 is doubled without an eigvalsh.  Otherwise the
    rows of a probe are solved first: the 8 grid points with the smallest
    c* at the last rejected lambda (before any full pass, every 16th grid
    point and both ends).  Each row is the very matrix a full pass solves,
    so a probed c* <= 0 rejects lambda exactly, and lambda is doubled.  A
    lambda is accepted only by a full-grid pass with min c* > 0, and at
    LAMBDA_CAP the full pass always runs.  c1 is that minimum rounded down
    to 3 significant digits, capped at 1.  One more stacked eigvalsh gives
    the equivalence bounds.
    """
    if xi_grid is None:
        xi_grid = default_xi_grid()
    grid = np.asarray(xi_grid, dtype=float)
    grid = grid[grid != 0.0]  # at xi = 0 both drift and f vanish identically
    if grid.size == 0:
        raise ValueError("xi grid has no nonzero entries")

    params = select_lambdas(cfg)
    hinv_sqrt = 1.0 / energy_sqrt(cfg)
    s = real_similarity(cfg)

    # G = F/ftilde from the identity catalog and f from the envelope, each
    # evaluated over the whole grid in one pass, then carried to the real form
    g_mat = _f_part_matrix(cfg, params, grid) / _envelope.f_tilde(cfg, grid)[:, None, None]
    g_real = (g_mat * (s[None, :] / s[:, None])).real
    f_vals = _envelope.f_of_xi(cfg, grid)
    b = real_generator_batch(cfg, grid)
    bt_g = b.swapaxes(-1, -2) @ g_real
    drift = hinv_sqrt[:, None] * (bt_g + bt_g.swapaxes(-1, -2)) * hinv_sqrt
    dissip = 2.0 * b[:, ETA, ETA]
    # at large xi and lambda these stacks are graded: the eta entry (last)
    # dwarfs the rest, and only the reduction that starts from the last
    # column keeps the small eigenvalues accurate
    gen_eigs = np.linalg.eigvalsh(hinv_sqrt[:, None] * g_real * hinv_sqrt,
                                  UPLO="U")[:, [0, -1]]
    gen_min = float(np.min(gen_eigs[:, 0]))

    def top_eig(lam: float, rows: np.ndarray) -> np.ndarray:
        """lambda_max of the scaled drift at lambda on the given grid rows."""
        q = drift[rows]  # a copy
        q[:, ETA, ETA] += lam * dissip[rows]
        return np.linalg.eigvalsh(q, UPLO="U")[:, -1]

    everywhere = np.arange(grid.size)
    probe = np.unique(np.r_[everywhere[::16], grid.size - 1])
    lam = 1.0
    c_star = None
    while True:
        # no lambda with c3 <= 0 is accepted, so its threshold is not needed
        if lam + gen_min > 0 and (
                lam >= LAMBDA_CAP or np.min(-top_eig(lam, probe) / f_vals[probe]) > 0):
            top = top_eig(lam, everywhere)
            c_star = -top / f_vals
            worst = int(np.argmin(c_star))
            if c_star[worst] > 0:
                break
            probe = np.argsort(c_star, kind="stable")[:8]
        if lam >= LAMBDA_CAP:
            detail = ("c3 stayed <= 0" if c_star is None else
                      f"at lambda = {lam:.6g} the rate threshold c* = "
                      f"{c_star[worst]:.3e} binds at xi = {grid[worst]}")
            raise CertificateSearchError(f"multiplier cap reached; {detail}")
        lam *= 2.0

    c_min = Decimal(float(c_star[worst]))
    # rounded down exactly, so c1 <= c* at every grid xi
    c1 = min(1.0, float(c_min.quantize(Decimal(1).scaleb(c_min.adjusted() - 2),
                                       rounding=ROUND_FLOOR)))
    c3 = lam + gen_min
    c4 = lam + float(np.max(gen_eigs[:, 1]))
    c_tilde = c4 * cfg.alpha2 / (c3 * cfg.alpha1)
    # drift bound dL/dt <= -c1 f Ehat with c3 E <= L <= c4 E gives the
    # pointwise rate c = c1/c4 in |Uhat(t)|^2 <= c_tilde e^{-c f t} |Uhat0|^2
    return DecayCertificate(
        big_lambda=lam, c=c1 / c4, c_tilde=c_tilde, c3=c3, c4=c4, c1=c1,
        worst_xi=float(grid[worst]), worst_on_edge=worst in (0, grid.size - 1),
        max_eig_margin=float(np.max(top + c1 * f_vals)), params=params,
        case=params.case,
    )
