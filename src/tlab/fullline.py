"""Whole-line solution norms via Plancherel quadrature.

With the convention ghat(xi) = int g(x) e^{-i xi x} dx, Plancherel gives

    |d^j U(t)|_{L2}^2 = (1/2pi) int xi^{2j} |Uhat(xi, t)|^2 dxi,

and each mode propagates exactly by the matrix exponential, so Sobolev
norms of the whole-line solution reduce to a one-dimensional quadrature
over frequency, done for all requested times at once.  Initial data are
per-component Gaussians (and their derivatives), which have closed-form
transforms and L1 norms and make the truncation error controllable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.integrate
import scipy.linalg

from tlab import envelope as _envelope
from tlab import lyapunov as _lyapunov
from tlab.forms import DIM
from tlab.model import SystemConfig, real_generator_batch, real_similarity

TAIL_BUDGET = 1e-16


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class Zero:
    def fourier(self, xi: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(xi, dtype=float), dtype=complex)

    def l1_norm(self) -> float:
        return 0.0

    def tail_cutoff(self, weight_power: int) -> float:
        return 0.0


@dataclass(frozen=True)
class Gaussian:
    """g(x) = amplitude * exp(-x^2 / width^2)."""

    amplitude: float
    width: float

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("width must be positive")

    def fourier(self, xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        return (self.amplitude * self.width * math.sqrt(math.pi)
                * np.exp(-(self.width ** 2) * xi ** 2 / 4.0)).astype(complex)

    def l1_norm(self) -> float:
        return abs(self.amplitude) * self.width * math.sqrt(math.pi)

    def tail_cutoff(self, weight_power: int) -> float:
        """xi beyond which xi^(2w) |ghat|^2 stays under the tail budget."""
        peak = abs(self.amplitude) * self.width * math.sqrt(math.pi)
        if peak == 0.0:
            return 0.0
        xi = max(1.0, 8.0 / self.width)
        while xi ** (2 * weight_power) * float(np.abs(self.fourier(xi))) ** 2 > TAIL_BUDGET:
            xi *= 2.0
        return xi


@dataclass(frozen=True)
class GaussianDerivative:
    """order-th derivative of a Gaussian; transform (i xi)^order * Gaussian."""

    order: int
    amplitude: float
    width: float

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("order must be >= 1 (use Gaussian for order 0)")
        if self.width <= 0:
            raise ValueError("width must be positive")

    def _base(self) -> Gaussian:
        return Gaussian(self.amplitude, self.width)

    def fourier(self, xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        return (1j * xi) ** self.order * self._base().fourier(xi)

    def l1_norm(self) -> float:
        """Total variation of the previous derivative, read off at its extrema.

        g^(k)(x) = a (-1/w)^k H_k(x/w) e^{-x^2/w^2}, so the extrema of
        g^(n-1) sit at the roots of H_n, and g^(n-1) vanishes at both ends.
        """
        n = self.order
        roots = np.polynomial.hermite.hermroots([0] * n + [1])
        prev = np.polynomial.hermite.hermval(roots, [0] * (n - 1) + [1]) * np.exp(-roots ** 2)
        variation = np.sum(np.abs(np.diff(np.concatenate(([0.0], prev, [0.0])))))
        return float(abs(self.amplitude) * self.width ** (1 - n) * variation)

    def tail_cutoff(self, weight_power: int) -> float:
        return self._base().tail_cutoff(weight_power + self.order)


Profile = Zero | Gaussian | GaussianDerivative


@dataclass(frozen=True)
class InitialDatum:
    """Per-component initial profiles of the 8-vector state.

    Extension point: `custom_fourier`, when set, overrides the profile
    transforms with an arbitrary map xi -> C^8 (used e.g. for eigenmode
    band data); norms are then computed by quadrature against it.
    """

    profiles: tuple[Profile, ...] = tuple(Zero() for _ in range(DIM))
    custom_fourier: Callable[[float], np.ndarray] | None = None
    custom_cutoff: float = 50.0

    def __post_init__(self) -> None:
        if len(self.profiles) != DIM:
            raise ValueError(f"expected {DIM} profiles")

    @classmethod
    def component(cls, index: int, profile: Profile) -> "InitialDatum":
        profiles = [Zero()] * DIM
        profiles[index] = profile
        return cls(profiles=tuple(profiles))

    def fourier(self, xi: float | np.ndarray) -> np.ndarray:
        """Uhat0(xi): shape (8,) for a scalar xi, (8, n) for n frequencies."""
        if self.custom_fourier is not None:
            if np.ndim(xi) == 0:
                return np.asarray(self.custom_fourier(float(xi)), dtype=complex)
            # the callback takes one frequency at a time
            return np.array([self.custom_fourier(float(x)) for x in xi], dtype=complex).T
        return np.array([p.fourier(xi) for p in self.profiles], dtype=complex)

    def l1_norm(self) -> float:
        if self.custom_fourier is not None:
            raise ValueError("L1 norm undefined for custom Fourier data")
        return float(sum(p.l1_norm() for p in self.profiles))

    def tail_cutoff(self, weight_power: int) -> float:
        if self.custom_fourier is not None:
            return self.custom_cutoff
        return max((p.tail_cutoff(weight_power) for p in self.profiles), default=0.0)

    def sobolev_norm_sq(self, m: int) -> float:
        """|d^m (datum)|_{L2}^2 by Plancherel quadrature."""
        cutoff = self.tail_cutoff(m)
        if cutoff == 0.0:
            return 0.0

        def integrand(xi: float) -> float:
            vec = self.fourier(xi)
            return xi ** (2 * m) * float(np.real(vec.conj() @ vec))

        val, err = scipy.integrate.quad(integrand, 0.0, cutoff, epsrel=1e-9, limit=400)
        if val != 0.0 and err > 1e-6 * abs(val):
            raise QuadratureError(f"norm quadrature error {err} vs value {val}")
        return val / math.pi  # (1/2pi) * 2 (conjugate symmetry)


# Whole-line quadrature: adaptive bisection of panels, each integrated by the
# 129-point Clenshaw-Curtis rule with its embedded 65-point rule as the error
# estimate, for all requested times at once.
EPSREL = 1e-9
EPSABS = 1e-13
ACCEPT_REL = 1e-5          # final error estimate above this share of the value fails
NODE_BUDGET = 1_000_000    # frequency nodes per call; refinement stops here
EIG_COND_MAX = 1e5         # above this 1-norm cond(V), a node is propagated by expm


def _clenshaw_curtis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes cos(k pi/n), k = 0..n, and weights of the (n+1)-point rule on [-1, 1]."""
    theta = np.pi * np.arange(n + 1) / n
    k = np.arange(1, n // 2 + 1)
    b = np.where(k == n // 2, 1.0, 2.0)
    c = np.full(n + 1, 2.0)
    c[[0, n]] = 1.0
    weights = c / n * (1.0 - (b / (4.0 * k ** 2 - 1.0)) @ np.cos(2.0 * np.outer(k, theta)))
    return np.cos(theta), weights


_CC_X, _CC_W = _clenshaw_curtis(128)
_CC_W_EMBEDDED = _clenshaw_curtis(64)[1]   # on the even-indexed nodes _CC_X[::2]


@dataclass(frozen=True)
class NormQuadrature:
    """|d^j U(t)|_{L2}^2 at each requested time, with the quadrature's own record."""

    values: np.ndarray   # per time
    errors: np.ndarray   # error estimate per time, same scale as values
    nodes: int           # frequency nodes evaluated, over all refinement rounds


def _breakpoints(cutoff: float, times: np.ndarray) -> np.ndarray:
    # at large t the mass concentrates near xi = 0; breaks at (1+t)^(-e) for
    # every time let the panels resolve each scale separately
    pts = {0.0, cutoff} | ({1.0} if cutoff > 1.0 else set())
    pts |= {min(cutoff * 0.5, (1.0 + t) ** (-e)) for t in times for e in (0.5, 1 / 4, 1 / 6)}
    return np.array(sorted(pts))


def _mode_norms_sq(cfg: SystemConfig, xi: np.ndarray, uhat0: np.ndarray,
                   times: np.ndarray) -> np.ndarray:
    """|e^{A(xi) t} uhat0|^2 for every node (rows) and time (columns).

    With the real similarity S, |e^{At} u| = |e^{Bt} S^-1 u| for the real
    B = S^-1 A S.  One eigendecomposition B = V diag(w) V^-1 per node serves
    every time; nodes whose eigenvector matrix is ill-conditioned (or
    singular) are propagated by the matrix exponential instead.
    """
    b = real_generator_batch(cfg, xi)
    y0 = uhat0 / real_similarity(cfg)
    w, v = np.linalg.eig(b)
    try:
        vinv = np.linalg.inv(v)
    except np.linalg.LinAlgError:  # some node's V is exactly singular
        vinv = np.full(v.shape, np.nan, dtype=complex)
        for i, vi in enumerate(v):
            try:
                vinv[i] = np.linalg.inv(vi)
            except np.linalg.LinAlgError:
                pass
    cond = np.abs(v).sum(axis=1).max(axis=1) * np.abs(vinv).sum(axis=1).max(axis=1)
    bad = np.flatnonzero(~(cond <= EIG_COND_MAX))   # NaN fails the guard too
    vinv[bad] = 0.0   # overwritten below; keeps inf and NaN out of the batch
    c = np.einsum("nij,nj->ni", vinv, y0)
    y = (np.exp(w[:, None, :] * times[None, :, None]) * c[:, None, :]) @ v.transpose(0, 2, 1)
    out = np.sum(y.real ** 2 + y.imag ** 2, axis=2)
    if bad.size:
        prop = scipy.linalg.expm(b[bad][:, None] * times[None, :, None, None])
        y = np.einsum("ntij,nj->nti", prop, y0[bad])
        out[bad] = np.sum(y.real ** 2 + y.imag ** 2, axis=2)
    return out


def _panels(cfg: SystemConfig, datum: InitialDatum, times: np.ndarray, j: int,
            lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-panel integral and error estimate, shape (panels, times).

    One panel (129 nodes) at a time, which bounds the working memory.
    """
    vals = np.empty((lo.size, times.size))
    errs = np.empty((lo.size, times.size))
    for k, (a, b) in enumerate(zip(lo, hi)):
        half = 0.5 * (b - a)
        xi = a + half * (1.0 + _CC_X)
        f = _mode_norms_sq(cfg, xi, datum.fourier(xi).T, times) * (xi ** (2 * j))[:, None]
        vals[k] = half * (_CC_W @ f)
        errs[k] = np.abs(vals[k] - half * (_CC_W_EMBEDDED @ f[::2]))
    return vals, errs


def solution_norms_sq(cfg: SystemConfig, datum: InitialDatum, times: Sequence[float],
                      j: int) -> NormQuadrature:
    """|d^j U(t)|_{L2}^2 = (1/pi) int_0^cutoff xi^{2j} |e^{A(xi)t} Uhat0|^2 dxi, all t at once.

    Panels start at the breakpoints of every time and are bisected until the
    summed error estimate of each time is within max(EPSABS, EPSREL |value|),
    or the node budget is spent.  Raises QuadratureError when an estimate
    then still exceeds ACCEPT_REL |value|.
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    ts = np.asarray(times, dtype=float).reshape(-1)
    cutoff = datum.tail_cutoff(j)
    if cutoff == 0.0:
        return NormQuadrature(np.zeros(ts.size), np.zeros(ts.size), 0)

    edges = _breakpoints(cutoff, ts)
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _panels(cfg, datum, ts, j, lo, hi)
    nodes = lo.size * _CC_X.size
    while True:
        tol = np.maximum(EPSABS, EPSREL * np.abs(vals.sum(axis=0)))
        open_t = errs.sum(axis=0) > tol
        if not open_t.any():
            break
        # per open time, the largest-error panels whose removal would bring
        # the remaining estimate under half its tolerance
        order = np.argsort(-errs[:, open_t], axis=0, kind="stable")
        rest = np.take_along_axis(errs[:, open_t], order, axis=0)[::-1].cumsum(axis=0)[::-1]
        split = np.zeros(lo.size, dtype=bool)
        split[order[rest > 0.5 * tol[open_t]]] = True
        if nodes + 2 * split.sum() * _CC_X.size > NODE_BUDGET:
            break
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_vals, new_errs = _panels(cfg, datum, ts, j, new_lo, new_hi)
        nodes += new_lo.size * _CC_X.size
        keep = ~split
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        vals, errs = np.concatenate([vals[keep], new_vals]), np.concatenate([errs[keep], new_errs])

    total, err = vals.sum(axis=0), errs.sum(axis=0)
    failed = ((total != 0.0) & (err > ACCEPT_REL * np.abs(total))) | ~np.isfinite(total + err)
    if failed.any():
        i = int(np.argmax(failed))
        raise QuadratureError(
            f"solution-norm quadrature achieved error {err[i]} vs value {total[i]} "
            f"at t={ts[i]} after {nodes} nodes"
        )
    return NormQuadrature(total / math.pi, err / math.pi, nodes)


def sobolev_norm_sq(cfg: SystemConfig, datum: InitialDatum, t: float, j: int) -> float:
    """|d^j U(t)|_{L2}^2 at one time; see solution_norms_sq."""
    return float(solution_norms_sq(cfg, datum, [t], j).values[0])


def decay_series(
    cfg: SystemConfig, datum: InitialDatum, times: Sequence[float], j: int
) -> list[tuple[float, float]]:
    """(t, |d^j U(t)|_{L2}) at each requested time, in order."""
    ts = [float(t) for t in times]
    if any(t < 0 for t in ts) or ts != sorted(ts):
        raise ValueError("times must be sorted and nonnegative")
    values = solution_norms_sq(cfg, datum, ts, j).values
    return [(t, math.sqrt(v)) for t, v in zip(ts, values)]


def default_times(n: int = 31, t_max: float = 1e4) -> list[float]:
    return [0.0] + list(np.logspace(0.0, math.log10(t_max), n))


def fit_tail_exponent(series: Sequence[tuple[float, float]], window: float = 0.5) -> dict:
    """Least-squares slope of log(norm) against log(1+t) on the tail window."""
    if not (0 < window <= 1):
        raise ValueError("window must lie in (0, 1]")
    pts = [(t, v) for t, v in series]
    if len(pts) < 8:
        raise ValueError("need at least 8 points for a tail fit")
    n_win = max(int(math.ceil(window * len(pts))), 8)
    tail = pts[len(pts) - n_win:]
    if any(v <= 0 for _, v in tail):
        raise ValueError("norms must be positive for a log-log fit")
    x = np.log1p([t for t, _ in tail])
    y = np.log([v for _, v in tail])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = len(tail) - 2
    s2 = float(resid @ resid) / dof if dof > 0 else 0.0
    sxx = float(np.sum((x - x.mean()) ** 2))
    stderr = math.sqrt(s2 / sxx) if sxx > 0 else float("inf")
    return {"exponent": float(slope), "stderr": stderr}


def verify_theorem_bound(
    cfg: SystemConfig,
    datum: InitialDatum,
    j: int,
    ell: int,
    times: Sequence[float] | None = None,
    certificate: "_lyapunov.DecayCertificate | None" = None,
) -> dict:
    """Check norm(t) <= c0 * envelope(t) along the time grid.

    envelope(t) = (1+t)^{-low} |U0|_L1 + branch(t) |d^{j+ell} U0|_L2 with the
    exponents from the rate table; the exponential branch rate is
    c/(2(m+1)) from the certificate.  Passes iff c0 = max ratio is finite
    and the log-ratio has no upward tail trend (slope <= 0.05).
    """
    if times is None:
        times = default_times()
    pred = _envelope.predict_rates(cfg, j, ell)
    if not pred.stable:
        raise _envelope.UnstableCaseError("no theorem bound in the unstable case")
    l1 = datum.l1_norm()
    high_norm = math.sqrt(datum.sobolev_norm_sq(j + ell))
    low = float(pred.low_exponent)

    if pred.high_branch is _envelope.HighBranch.EXPONENTIAL:
        if certificate is None:
            certificate = _lyapunov.certify(cfg)
        _, m = _envelope.envelope_cell(cfg)
        rate = certificate.c / (2.0 * (m + 1))

        def branch(t: float) -> float:
            return math.exp(-rate * t)
    else:
        high = float(pred.high_exponent)

        def branch(t: float) -> float:
            return (1.0 + t) ** (-high)

    series = decay_series(cfg, datum, times, j)
    rows = []
    for t, norm in series:
        env = (1.0 + t) ** (-low) * l1 + branch(t) * high_norm
        rows.append((t, norm, env, norm / env))

    ratios = [(t, r) for t, _, _, r in rows if r > 0]
    c0 = max(r for _, r in ratios)
    # the last quarter of the grid: early times may straddle the crossover
    # between the two envelope terms, where the ratio is not yet settled
    tail = fit_tail_exponent(ratios, window=0.25)
    norm_tail = fit_tail_exponent([(t, n) for t, n, _, _ in rows if n > 0],
                                  window=0.5)
    bounded_only = (j == 0 and ell == 0 and pred.regularity_loss)
    # the ratio may still be approaching its asymptote from below, so a small
    # positive tail slope is tolerated; an unbounded ratio grows like a power
    ok = math.isfinite(c0) and tail["exponent"] <= 0.05
    report = {
        "c0": c0,
        "max_ratio": c0,
        "ratio_tail_slope": tail["exponent"],
        "norm_tail_slope": norm_tail["exponent"],
        "pass": bool(ok),
        "rows": rows,
        "predicted_low": low,
    }
    if bounded_only:
        report["note"] = "boundedness check only (j = ell = 0 in a regularity-loss cell)"
    return report
