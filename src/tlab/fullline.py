"""Whole-line solution norms via Plancherel quadrature.

With the convention ghat(xi) = int g(x) e^{-i xi x} dx, Plancherel gives

    |d^j U(t)|_{L2}^2 = (1/2pi) int xi^{2j} |Uhat(xi, t)|^2 dxi,

and each mode propagates exactly by the matrix exponential, so Sobolev
norms of the whole-line solution reduce to a one-dimensional quadrature
over frequency, done for all requested times at once.  Initial data are
per-component Gaussians (and their derivatives), which have closed-form
transforms, L1 and Sobolev norms and make the truncation error controllable.

The integrand splits into modal terms.  With B = V diag(w) V^-1 the real
form of the generator and c = V^-1 y0,

    |e^{Bt} y0|^2 = sum_kl a_kl(xi) e^{t s_kl(xi)},   a_kl = conj(c_k v_k).(c_l v_l),
                                                    s_kl = conj(w_k) + w_l,

and a_kl does not depend on how the eigenvectors are scaled.  At large t a
term with Im s_kl != 0 turns through thousands of radians where the data
still carry mass, which a polynomial rule must resolve oscillation by
oscillation.  Levin collocation integrates such a term at a cost that does
not grow with t: on a panel's Chebyshev nodes it solves
(D + t diag(D s)) p = half a for the non-oscillating p with
(p e^{ts})' = a e^{ts}, and the integral is p e^{ts} at hi minus at lo
(Levin, J. Comput. Appl. Math. 1996; Olver, IMA J. Numer. Anal. 2006).
Branches are labelled by sorting on Im w.  A term goes to Levin on a panel
only where its phase turns by more than LEVIN_TURN and its guards hold: no
stationary point of the phase, no branch nearly colliding with another
(gap against rate of change, LEVIN_GAP), conjugate pairs that stay pairs
across the panel, and every node of the panel on the eigen path (the
guards of _eigen and the backward check of dynamics.backward_ok; other
nodes go through expm).  Everything else, the integrand minus the
Levin terms at the nodes, stays on the Clenshaw-Curtis ladder.  A Levin
term's error estimate is the difference between Levin on the panel's 33
nodes and on its nested 17 nodes; it is added to the ladder's estimate, so
NormQuadrature.errors keeps its meaning.  A panel solves each Levin system
once: its results are held with its nodes while it climbs the ladder, whose
rungs all share the 33 Levin nodes.  Terms too light to matter are not sent
to Levin at all: at each time, the lightest ones whose summed mass (twice
their L1 mass, what aliasing could hide) stays within LEVIN_NEGLIGIBLE of
the tolerance stay on the ladder, with that mass added to its estimate.

On short horizons none of that machinery pays.  The integrand is smooth and
even in xi, so by Poisson summation the trapezoid rule of spacing h on the
whole line is exact up to the autocorrelation of U(., t) at the lags
2 pi m / h, m != 0, which vanishes while the solution fits in an interval
shorter than 2 pi / h (Trefethen and Weideman, SIAM Review 56, 2014).  The
datum sits within a few widths of 0 and no group velocity exceeds
c = |C1|_2, C = C0 + xi C1 the block of the energy-scaled generator that
couples its two halves (Weyl's inequality), so the solution stays within
c t + R.  A grid of at most EXPM_MAX_TIMES positive times whose count times
c t_max stays within EQUISPACED_MAX_REACH takes that rule on [0, cutoff],
halving h on nested nodes until two rules agree, its nodes propagated by
model.expm, the package's batched real exponential (a Taylor polynomial
with scaling and squaring, no linear solve).  Longer grids take the ladder
with Levin, every node on the eigen path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
import scipy.special

from tlab import dynamics as _dynamics
from tlab import envelope as _envelope
from tlab import lyapunov as _lyapunov
from tlab.forms import DIM, SIGMA, THETA, U, Y
from tlab.model import (
    CONFIG_CACHE_SIZE, SystemConfig, energy_generator_batch, energy_sqrt, expm,
    real_generator_batch, real_similarity,
)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class Zero:
    def fourier(self, xi: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(xi, dtype=float), dtype=complex)

    def l1_norm(self) -> float:
        return 0.0

    def l2_norm_sq(self, m: int) -> float:
        return 0.0

    def tail_sq(self, m: int, cutoff: float) -> float:
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

    def l2_norm_sq(self, m: int) -> float:
        """|d^m g|_{L2}^2 = (1/pi) int_0^inf xi^{2m} a^2 w^2 pi e^{-w^2 xi^2/2} dxi
        = a^2 w^2 Gamma(m + 1/2) (2/w^2)^(m + 1/2) / 2."""
        return (self.amplitude ** 2 * self.width ** 2 * 0.5 * math.gamma(m + 0.5)
                * (2.0 / self.width ** 2) ** (m + 0.5))

    def tail_sq(self, m: int, cutoff: float) -> float:
        """(1/pi) int_cutoff^inf xi^{2m} |ghat|^2 dxi: l2_norm_sq(m) with Gamma(m + 1/2)
        replaced by the upper incomplete Gamma(m + 1/2, w^2 cutoff^2 / 2)."""
        return self.l2_norm_sq(m) * float(
            scipy.special.gammaincc(m + 0.5, 0.5 * (self.width * cutoff) ** 2))

    def tail_cutoff(self, m: int, budget: float) -> float:
        """The smallest cutoff whose tail_sq(m, cutoff) is at most budget."""
        whole = self.l2_norm_sq(m)
        if whole <= budget:
            return 0.0
        return math.sqrt(2.0 * float(scipy.special.gammainccinv(m + 0.5, budget / whole))
                         ) / self.width


@functools.cache
def _hermite_variation(n: int) -> float:
    """Total variation of H_{n-1}(x) e^{-x^2}, the (n-1)-th derivative of a unit
    Gaussian up to sign, read off at its extrema.

    g^(k)(x) = a (-1/w)^k H_k(x/w) e^{-x^2/w^2}, so the extrema of g^(n-1)
    sit at the roots of H_n, and g^(n-1) vanishes at both ends.
    """
    roots = np.polynomial.hermite.hermroots([0] * n + [1])
    prev = np.polynomial.hermite.hermval(roots, [0] * (n - 1) + [1]) * np.exp(-roots ** 2)
    return float(np.sum(np.abs(np.diff(np.concatenate(([0.0], prev, [0.0]))))))


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
        """|a| w^(1-n) times the order's _hermite_variation."""
        n = self.order
        return float(abs(self.amplitude) * self.width ** (1 - n) * _hermite_variation(n))

    def l2_norm_sq(self, m: int) -> float:
        return self._base().l2_norm_sq(m + self.order)

    def tail_sq(self, m: int, cutoff: float) -> float:
        return self._base().tail_sq(m + self.order, cutoff)

    def tail_cutoff(self, m: int, budget: float) -> float:
        return self._base().tail_cutoff(m + self.order, budget)


Profile = Zero | Gaussian | GaussianDerivative


@dataclass(frozen=True)
class InitialDatum:
    """Per-component initial profiles of the 8-vector state."""

    profiles: tuple[Profile, ...] = tuple(Zero() for _ in range(DIM))

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
        xi = np.asarray(xi, dtype=float)
        out = np.zeros((DIM,) + xi.shape, dtype=complex)
        for i, p in enumerate(self.profiles):
            if not isinstance(p, Zero):
                out[i] = p.fourier(xi)
        return out

    def l1_norm(self) -> float:
        return float(sum(p.l1_norm() for p in self.profiles))

    def tail_sq(self, m: int, cutoff: float) -> float:
        """(1/pi) int_cutoff^inf xi^{2m} |Uhat0|^2 dxi, summed over the profiles."""
        return float(sum(p.tail_sq(m, cutoff) for p in self.profiles))

    def tail_cutoff(self, m: int, budget: float) -> float:
        """A cutoff whose tail_sq(m, cutoff) is at most budget: the largest of
        the profiles' cutoffs, each for an equal share of the budget among the
        profiles with mass (0.0 when none has any)."""
        live = [p for p in self.profiles if p.l2_norm_sq(m) > 0.0]
        return max((p.tail_cutoff(m, budget / len(live)) for p in live), default=0.0)

    def sobolev_norm_sq(self, m: int) -> float:
        """|d^m (datum)|_{L2}^2.

        Profiles sit on distinct components, which are orthogonal, so the
        norm is the sum of each profile's closed form.
        """
        return float(sum(p.l2_norm_sq(m) for p in self.profiles))


# Whole-line quadrature: adaptive panels on the nested Clenshaw-Curtis rules of
# 33, 65 and 129 points, for all requested times at once.  A panel climbs to the
# next rule on the nodes it already has; a panel at 129 points is bisected.
# Modal terms whose phase turns fast on a panel are integrated by Levin
# collocation on the panel's own 33-point nodes instead (see _panel_integral).
EPSREL = 1e-9
EPSABS = 1e-13             # times |d^j U0|_{L2}^2, so rescaled data refine alike
ACCEPT_REL = 1e-5          # final error estimate above this share of the value fails
NODE_BUDGET = 1_000_000    # frequency nodes per call; refinement stops here
EIG_COND_MAX = 1e5         # above this 1-norm cond(Vt), a node is propagated by expm
EIG_RESID_MAX = 1e-10      # ... and above this 1-norm residual |W Vt - I| per cond(Vt)
# A node costs one eigendecomposition and its guards (about 20 us) on the eigen
# path, or about 2 us per positive time through expm.  On 60 seeded short-time
# norms (best of 5, measured when expm replaced the eigen path panel by panel)
# expm took 0.54-0.77 of the eigen path's time at 3-6 positive times and
# 0.90-0.91 at 7-8, a gain this host's noise does not resolve; with more
# positive times than this, every norm takes the ladder
EXPM_MAX_TIMES = 6
# On such a grid the equispaced rule (_equispaced, its nodes through expm)
# replaces the ladder while c t_max times the number n of positive times
# stays within this, c = _speed(cfg): the rule's nodes grow like c t_max and
# each costs an exponential per positive time, while the ladder's cost barely
# grows with t.  On the 14 cells, CLI datum, j = 0, times [0, T] at n = 1 and
# [0] + geomspace(1, T, n) otherwise (summed best of 3, one BLAS thread, two
# to three runs each) the two took equal time near c t_max = 1,100-1,300 at
# n = 1, 600-1,300 at n = 2 (the runs disagree), 300-400 at n = 3 and
# 150-180 at n = 6.  At n = 3, T = 10 took 0.058 s (2,622 nodes) against the
# ladder's 0.197 s (4,372 nodes), T = 100 0.27-0.39 s against 0.54-0.65 s,
# and T = 300 (c t_max 424-554) 0.81-0.85 s against 0.66-0.70 s
EQUISPACED_MAX_REACH = 1000.0
# nodes per expm batch of the equispaced rule: beyond 256 its 8x8 stacks fall
# out of cache.  At 2 positive times a node-time cost 1.7-1.9 us in batches of
# 64-256 nodes and 2.3-3.5 us at 512-2,048 (best of 15, one Xeon core,
# OpenBLAS, numpy 2.4).  On norms-short pass 0 of seeds 1, 7 and 913 (CPU
# time, best of 5, two runs) batches of 64-256 took the same time to within
# noise (0.38-0.45 s), and over 20 passes of perfbench's norms-short ops 128
# kept the peak resident set 0.9-1.3 MB below 256
EXPM_BATCH_NODES = 128
LEVIN_TURN = 32.0 * np.pi  # a term whose phase turns more than this on a panel goes to Levin
LEVIN_GAP = 0.5            # a branch nearer another than this many (slope x half-width) collides
LEVIN_NEGLIGIBLE = 1e-3    # share of the tolerance the lightest Levin terms may leave on the rule


def _clenshaw_curtis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes cos(k pi/n), k = 0..n, and weights of the (n+1)-point rule on [-1, 1]."""
    theta = np.pi * np.arange(n + 1) / n
    k = np.arange(1, n // 2 + 1)
    b = np.where(k == n // 2, 1.0, 2.0)
    c = np.full(n + 1, 2.0)
    c[[0, n]] = 1.0
    weights = c / n * (1.0 - (b / (4.0 * k ** 2 - 1.0)) @ np.cos(2.0 * np.outer(k, theta)))
    return np.cos(theta), weights


def _chebyshev_diff(n: int) -> np.ndarray:
    """Differentiation matrix on the nodes cos(k pi/n), k = 0..n (Trefethen, cheb)."""
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.where((np.arange(n + 1) == 0) | (np.arange(n + 1) == n), 2.0, 1.0)
    c *= (-1.0) ** np.arange(n + 1)
    dx = x[:, None] - x[None, :] + np.eye(n + 1)
    d = np.outer(c, 1.0 / c) / dx
    return d - np.diag(d.sum(axis=1))


_CC_X = _clenshaw_curtis(128)[0]
# weights of the 17-, 33-, 65- and 129-point rules, keyed by stride: the
# (128/s + 1)-point rule sits on the nodes _CC_X[::s]
_CC_W = {s: _clenshaw_curtis(128 // s)[1] for s in (8, 4, 2, 1)}
_START_STRIDE = 4          # a new panel starts on the 33-point rule
# Levin collocates on every panel's 33 nodes _CC_X[::4], checked on its 17 nodes
_CC_D = {s: _chebyshev_diff(128 // s) for s in (8, 4)}

# The modal terms of |e^{Bt} y0|^2 = sum_kl conj(u_k).u_l e^{t (conj(w_k) + w_l)}
# with k < l; the terms with k > l are their conjugates.
_PAIR_K, _PAIR_L = np.triu_indices(DIM, 1)


# The parity P, -1 on (u, y, theta, sigma) and +1 on (v, z, phi, eta): the energy-scaled
# generator's skew part only couples opposite parities, so P Bt is symmetric (see _eigen)
_PARITY = np.where(np.isin(np.arange(DIM), [U, Y, THETA, SIGMA]), -1.0, 1.0)
_EVEN, _ODD = np.flatnonzero(_PARITY > 0), np.flatnonzero(_PARITY < 0)


def _term_classes(n_real: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each branch's conjugate, and one pair per class of terms with equal exponents.

    Sorted by (Im w, Re w), a spectrum closed under conjugation with n_real
    real eigenvalues has them in the middle, and the conjugate of branch k
    is branch 7 - k, or k itself when real.  The terms (k, l), (l, k),
    (l', k') and (k', l') then share the exponent s_kl = conj(w_k) + w_l or
    its conjugate, so 2 Re((a_kl + a_l'k') e^{t s_kl}) carries the class
    (2 Re(a_kl e^{t s_kl}) when (l', k') = (k, l)).  Returns the conjugate
    map, the representative pair indices and each one's dual pair index (-1
    when the class has no second pair).  Pairs of two real branches have a
    real exponent and are left out.
    """
    idx = np.arange(DIM)
    real = np.abs(idx - (DIM - 1) / 2) < n_real / 2
    partner = np.where(real, idx, DIM - 1 - idx)
    index = {(k, l): p for p, (k, l) in enumerate(zip(_PAIR_K, _PAIR_L))}
    reps, duals = [], []
    for p, (k, l) in enumerate(zip(_PAIR_K, _PAIR_L)):
        dual = (partner[l], partner[k])
        if not (real[k] and real[l]) and (k, l) <= dual:
            reps.append(p)
            duals.append(-1 if dual == (k, l) else index[dual])
    return partner, np.array(reps), np.array(duals)


_TERM_CLASSES = {n: _term_classes(n) for n in range(0, DIM + 1, 2)}


@dataclass(frozen=True)
class NormQuadrature:
    """|d^j U(t)|_{L2}^2 at each requested time, with the quadrature's own record."""

    values: np.ndarray   # per time
    errors: np.ndarray   # error estimate per time, same scale as values, tail_bound included
    nodes: int           # frequency nodes evaluated, over all refinement rounds
    eig: int             # of those, the nodes np.linalg.eig ran on: every node of the ladder,
                         # none of the equispaced rule
    levin: int           # Levin systems solved, on 33 and on 17 nodes alike
    cutoff: float        # the frequencies integrated are [0, cutoff]
    tail_bound: float    # bound on the norm's part beyond the cutoff, same scale as values


@dataclass(frozen=True)
class _Nodes:
    """The integrand at a panel's nodes, with its modal split while the panel keeps one."""

    f: np.ndarray                   # (n, times) xi^{2j} |e^{Bt} y0|^2
    w: np.ndarray | None = None     # (n, 8) eigenvalues of B, sorted by (Im, Re)
    amp: np.ndarray | None = None   # (n, 28) xi^{2j} conj(u_k).u_l for the pairs _PAIR_K, _PAIR_L
    # (2, 28, times) Levin integrals on the 33 and 17 nodes per (pair, time), NaN until solved
    levin: np.ndarray | None = None

    def interleave(self, odd: "_Nodes") -> "_Nodes":
        """These nodes at the even places, `odd` at the odd places."""
        def merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            out = np.empty((a.shape[0] + b.shape[0],) + a.shape[1:], dtype=a.dtype)
            out[::2], out[1::2] = a, b
            return out
        if self.w is None or odd.w is None:
            return _Nodes(merge(self.f, odd.f))
        return _Nodes(merge(self.f, odd.f), merge(self.w, odd.w), merge(self.amp, odd.amp),
                      self.levin)


@dataclass(frozen=True)
class _Eigen:
    """B(xi) = V diag(w) V^-1 at a batch of nodes xi of cfg, with y0 = S^-1 uhat0 and
    c = V^-1 y0."""

    cfg: SystemConfig
    xi: np.ndarray
    y0: np.ndarray
    w: np.ndarray
    v: np.ndarray
    c: np.ndarray
    ok: np.ndarray   # passed the guards; the other nodes are propagated by expm

    def b(self, rows: np.ndarray) -> np.ndarray:
        """The real B at the given nodes.  Only the guard-failing nodes (expm)
        and the split ones (dynamics.backward_ok) read it, so it is built
        there alone; each row depends on its own xi only."""
        return real_generator_batch(self.cfg, self.xi[rows])


def _breakpoints(cutoff: float, times: np.ndarray) -> np.ndarray:
    """The first round's panel edges: 0, every dyadic point 2^k with
    (1+t_max)^(-1/2) <= 2^k < cutoff, on both sides of 1, and the cutoff.

    At time t the mass concentrates on xi ~ t^(-1/p), p = 2, 4 or 6; the
    grading by 2 toward 0 meets each of those scales within a factor of 2
    for every time up to t_max, so the layout depends on the times only
    through t_max.  Above 1 the integrand falls off with the datum's
    Gaussian factor, and a Clenshaw-Curtis rule converges at a rate set by
    the integrand's analyticity relative to the panel width: a single panel
    [1, cutoff] of some 20 Gaussian widths would climb the whole ladder and
    still be bisected, so the grading by 2 goes on up to the cutoff.  The
    ladder and Levin refine from there.
    """
    low = -int(0.5 * math.log2(1.0 + times.max()))
    dyadic = 2.0 ** np.arange(low, math.ceil(math.log2(cutoff)))   # every 2^k < cutoff
    return np.concatenate(([0.0], dyadic, [cutoff]))


def _eigen(cfg: SystemConfig, xi: np.ndarray, uhat0: np.ndarray) -> _Eigen:
    """The real B = S^-1 A S per node, through the kernel dynamics.eigen_batch.

    With the real similarity S, |e^{At} u| = |e^{Bt} y0| for y0 = S^-1 u.
    The kernel gives Bt = H^1/2 B H^-1/2 = Vt diag(w) Vt^-1, and P Bt is
    symmetric, so the rows of Vt^-1 are W_i = (P v_i)^T / (v_i^T P v_i)
    wherever the eigenvalues are distinct; c = W H^1/2 y0 and V = H^-1/2 Vt.
    A node fails the guard and gets c = 0 when W is not Vt's inverse,
    |W Vt - I|_1 > EIG_RESID_MAX cond(Vt) (a repeated eigenvalue, or
    v_i^T P v_i = 0), or 1-norm cond(Vt) = |Vt|_1 |W|_1 > EIG_COND_MAX.
    """
    _, w, v = _dynamics.eigen_batch(cfg, xi)
    y0 = uhat0 / real_similarity(cfg)
    pv = _PARITY[:, None] * v
    with np.errstate(divide="ignore", invalid="ignore"):   # v_i^T P v_i = 0 fails below
        vinv = pv.transpose(0, 2, 1) / np.sum(v * pv, axis=1)[:, :, None]
        cond = np.abs(v).sum(axis=1).max(axis=1) * np.abs(vinv).sum(axis=1).max(axis=1)
        resid = np.abs(vinv @ v - np.eye(DIM)).sum(axis=1).max(axis=1)
    ok = (cond <= EIG_COND_MAX) & (resid <= EIG_RESID_MAX * cond)   # NaN fails too
    vinv[~ok] = 0.0   # keeps inf and NaN out of the batch
    # where eigenvalues cluster, W is Vt^-1 only up to E = W Vt - I; one step
    # of refinement, c + W (yt - Vt c), leaves an error of order E^2
    yt = energy_sqrt(cfg) * y0
    c = np.einsum("nij,nj->ni", vinv, yt)
    c += np.einsum("nij,nj->ni", vinv, yt - np.einsum("nij,nj->ni", v, c))
    return _Eigen(cfg, xi, y0, w, v / energy_sqrt(cfg)[:, None], c, ok)


def _propagated_norms_sq(b: np.ndarray, y0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """|e^{Bt} y0|^2 for every node (rows) and time (columns) by expm, and
    |y0|^2 directly at t = 0."""
    out = np.empty((b.shape[0], times.size))
    out[:, times == 0.0] = np.sum(y0.real ** 2 + y0.imag ** 2, axis=1)[:, None]
    live = np.flatnonzero(times)
    if live.size:
        parts = np.stack((y0.real, y0.imag), axis=-1)   # e^{Bt} is real: (n, 8, 2)
        out[:, live] = np.sum((expm(b, times[live]) @ parts) ** 2, axis=(2, 3)).T
    return out


def _mode_norms_sq(e: _Eigen, times: np.ndarray) -> np.ndarray:
    """|e^{Bt} y0|^2 for every node (rows) and time (columns).

    V (e^{wt} c) at the nodes that passed the guards serves every time; the
    others are propagated by expm.
    """
    y = (np.exp(e.w[:, None, :] * times[None, :, None]) * e.c[:, None, :]) @ e.v.transpose(0, 2, 1)
    out = np.sum(y.real ** 2 + y.imag ** 2, axis=2)
    bad = np.flatnonzero(~e.ok)
    if bad.size:
        out[bad] = _propagated_norms_sq(e.b(bad), e.y0[bad], times)
    return out


def _amplitudes(e: _Eigen, rows: np.ndarray, order: np.ndarray) -> np.ndarray:
    """conj(u_k).u_l for k < l at the given nodes, u_k = c_k v_k, branches in `order`.

    |e^{Bt} y0|^2 = sum_kl conj(u_k).u_l e^{t (conj(w_k) + w_l)}; the
    amplitudes do not depend on how the eigenvectors are scaled.
    """
    u = e.v[rows] * e.c[rows][:, None, :]
    gram = u.conj().transpose(0, 2, 1) @ u
    n = np.arange(rows.size)[:, None]
    return gram[n, order[:, _PAIR_K], order[:, _PAIR_L]]


def _levin(s: np.ndarray, ds: np.ndarray, a: np.ndarray, t: np.ndarray, stride: int,
           half: float | np.ndarray) -> np.ndarray:
    """int_lo^hi a(x) e^{t s(x)} dx for each column, by Levin collocation.

    s, its derivative ds = d/dX s in the panel coordinate X in [-1, 1], and
    a hold each column's exponent and amplitude on the panel nodes
    _CC_X[::stride] (hi first; stride 4 or 8); t holds each column's time
    and half its panel's half-width (one for all columns, or one each).
    The non-oscillating p with (p e^{ts})' = a e^{ts} solves
    (D + t diag(ds)) p = half a at the nodes, D the Chebyshev
    differentiation matrix; the integral is then p e^{ts} at hi minus at lo.
    It is exact when a is a polynomial of degree below the node count and s
    is linear in X.  Every column is its own system in one stacked solve.
    """
    d = _CC_D[stride]
    mat = np.repeat(d[None].astype(complex), t.size, axis=0)
    diag = np.arange(d.shape[0])
    mat[:, diag, diag] += (t * ds).T
    p = np.linalg.solve(mat, (half * a).T[..., None])[..., 0]
    return p[:, 0] * np.exp(t * s[0]) - p[:, -1] * np.exp(t * s[-1])


_NO_TERMS = tuple(np.zeros(0, dtype=int) for _ in range(6))


def _levin_terms(w: Sequence[np.ndarray], stride: np.ndarray,
                 times: np.ndarray) -> tuple[np.ndarray, ...]:
    """The terms that Levin integrates on a list of panels, one per (panel,
    term class, time).

    w[i] holds the branches at panel i's nodes, sorted by (Im, Re), on the
    rule of stride[i].  A class qualifies at a time when its phase t Im s
    turns by more than LEVIN_TURN across the panel and Im s' keeps one sign
    on the Levin nodes (no stationary point), while both its branches stay
    clear of every other branch (the gap, over its rate of change across
    the panel, is at least LEVIN_GAP half-widths) and keep, over the whole
    panel, the conjugate _term_classes gives them at its first node (a pair
    of real eigenvalues may turn complex inside a panel).  The panels are
    screened together, stacked by their node count and their count of real
    eigenvalues at the first node, which fix the term classes.  Returns, per
    term, its panel, its branches k, l (exponent conj(w_k) + w_l), its pair
    index and its dual pair index into _PAIR_K, _PAIR_L (-1 for none), and
    its time index, ordered by panel and within a panel by class and time.
    """
    if not len(w):
        return _NO_TERMS
    n_real = np.count_nonzero(np.array([x[0] for x in w]).imag == 0.0, axis=1)
    found = []
    for s, n in sorted(set(zip(stride.tolist(), n_real.tolist()))):
        at = np.flatnonzero((stride == s) & (n_real == n))
        ws = np.array([w[i] for i in at])
        partner, reps, duals = _TERM_CLASSES[n]
        k, l = _PAIR_K[reps], _PAIR_L[reps]
        dw = _CC_D[4] @ ws[:, ::4 // s]                   # d/dX on the Levin nodes
        # per pair of branches, both orders alike
        gap = np.abs(ws[:, :, _PAIR_K] - ws[:, :, _PAIR_L]).min(axis=1)
        slope = np.abs(dw[:, :, _PAIR_K] - dw[:, :, _PAIR_L]).max(axis=1)
        near = np.zeros((at.size, DIM, DIM), dtype=bool)
        near[:, _PAIR_K, _PAIR_L] = ~(gap >= LEVIN_GAP * slope)
        clear = (~(near.any(axis=1) | near.any(axis=2))
                 & np.all(ws[:, :, partner] == ws.conj(), axis=1))
        clear &= clear[:, partner]
        ds = dw.imag[:, :, l] - dw.imag[:, :, k]
        ok = clear[:, k] & clear[:, l] & (np.all(ds > 0.0, axis=1) | np.all(ds < 0.0, axis=1))
        turn = np.ptp(ws.imag[:, :, l] - ws.imag[:, :, k], axis=1)
        panel, term, ti = np.nonzero(ok[:, :, None] & (turn[:, :, None] * times > LEVIN_TURN))
        found.append((at[panel], k[term], l[term], reps[term], duals[term], ti))
    found = [np.concatenate(x) for x in zip(*found)]
    order = np.argsort(found[0], kind="stable")
    return tuple(x[order] for x in found)


def _split_terms(nodes: list[_Nodes], stride: np.ndarray, times: np.ndarray,
                 terms: tuple[np.ndarray, ...] | None) -> tuple[np.ndarray, ...]:
    """The Levin terms of a batch's panels that hold a modal split, ordered by
    panel: those `terms` holds for them (found by _eigen_nodes on new
    panels), and _levin_terms of the others (refined panels, whose terms
    are screened again on their new nodes)."""
    split = [part.w is not None for part in nodes]
    if not any(split):
        return _NO_TERMS
    split = np.array(split)
    terms = _NO_TERMS if terms is None else terms
    searched = np.zeros(split.size, dtype=bool)
    searched[terms[0]] = True
    missing = np.flatnonzero(split & ~searched)
    if missing.size:
        found = _levin_terms([nodes[i].w for i in missing], stride[missing], times)
        terms = [np.concatenate(x) for x in zip(terms, (missing[found[0]],) + found[1:])]
    order = np.argsort(terms[0], kind="stable")
    order = order[split[terms[0][order]]]
    return tuple(x[order] for x in terms)


def _abs_rule(cand: np.ndarray, row: np.ndarray, stride: int) -> np.ndarray:
    """The rule of the given stride over the nodes of |cand|, one sum per row:
    cand holds the terms of several panels on their nodes, one term per
    row, ordered by panel (row gives the panel's place).

    BLAS sums a column of a matrix-vector product differently by its place
    among the columns, so each panel's terms, transposed, go to a product of
    the shape and layout they have alone: panels with as many terms share
    one stacked product, and the sums are bitwise those of panels taken one
    at a time."""
    size = np.bincount(row)
    first = np.cumsum(size) - size
    out = np.empty(row.size)
    for m in np.unique(size):
        of = (first[size == m][:, None] + np.arange(m)).ravel()
        block = np.abs(cand[of]).reshape(-1, m, cand.shape[1]).transpose(0, 2, 1)
        out[of] = (_CC_W[stride] @ block).ravel()
    return out


def _panel_integral(nodes: list[_Nodes], stride: np.ndarray, half: np.ndarray,
                    times: np.ndarray, tol: np.ndarray,
                    terms: tuple[np.ndarray, ...] | None = None
                    ) -> tuple[np.ndarray, np.ndarray, list[_Nodes], int]:
    """The integrals and error estimates of a batch of panels, shape (panels, times).

    Panel i has the nodes nodes[i] on the rule of stride[i] and the
    half-width half[i].  On a panel with a modal split, the Levin terms
    (those `terms` holds for it, as _levin_terms returns them by panel
    index, else _levin_terms of its branches) are integrated on its 33
    nodes, with Levin on its 17 nodes as their error estimate; the rest,
    the integrand minus those terms at the nodes, goes to the panel's
    Clenshaw-Curtis rule, checked against the rule of twice its stride.  A
    term's mass is twice its L1 mass on the panel (what aliasing could
    hide).  At each time the lightest terms whose summed mass stays within
    LEVIN_NEGLIGIBLE of the tolerance tol stay on the rule, and their mass
    is added to its estimate.  The nodes' held Levin results are reused and
    only the missing ones solved.

    The panels go through one stacked pass per node count: their rule sums,
    their candidate terms and masses, their light terms per (panel, time)
    and the lookup of their held results.  The new Levin systems of every
    node count then go to one stacked solve per Levin rule.  Each panel
    keeps its own rule sums (_abs_rule for the masses) and each system its
    own LAPACK call, so the grouping does not change the results.  Returns
    the integrals, the estimates, the nodes with every Levin result they now
    hold, and the number of Levin systems solved.
    """
    count, nodes = len(nodes), list(nodes)
    terms = _split_terms(nodes, stride, times, terms)
    if terms[0].size:
        held = np.full((count, 2, _PAIR_K.size, times.size), np.nan, dtype=complex)
        for i in np.unique(terms[0]):
            if nodes[i].levin is not None:
                held[i] = nodes[i].levin
    used = []                   # (panel, pair, time index) of the terms on Levin
    fresh = []                  # the same for the terms not solved yet, with their time
    inputs = {4: [], 8: []}     # ... and their (s, ds, a) on the 33 and on the 17 Levin nodes
    sums = []                   # per node count: its panels, integrals and estimates
    strides = sorted(set(stride.tolist()))
    for s in strides:
        # most batches hold one node count, which a slice selects
        members = range(count) if len(strides) == 1 else np.flatnonzero(stride == s)
        group = slice(None) if len(strides) == 1 else members
        f = np.array([nodes[i].f for i in members])
        hidden = None
        mine = np.flatnonzero(stride[terms[0]] == s) if terms[0].size else []
        if len(mine):
            panel, k, l, pair, dual, ti = (x[mine] for x in terms)
            owners = np.unique(panel)
            row = np.searchsorted(owners, panel)
            w = np.array([nodes[i].w for i in owners])
            amp = np.array([nodes[i].amp for i in owners])
            t = times[ti]
            # one row per term, ordered by panel, as _abs_rule takes them
            a = amp[row, :, pair] + np.where((dual >= 0)[:, None], amp[row, :, dual], 0.0)
            cand = 2.0 * a * np.exp(t[:, None] * (w[row, :, k].conj() + w[row, :, l]))
            masses = np.zeros((owners.size, _PAIR_K.size, times.size))
            masses[row, pair, ti] = (2.0 * half[panel]) * _abs_rule(cand, row, s)
            # per (panel, time), the lightest terms whose summed mass stays within
            # LEVIN_NEGLIGIBLE tol
            by_mass = np.argsort(masses, axis=1, kind="stable")
            light = np.empty(masses.shape, dtype=bool)
            np.put_along_axis(light, by_mass, np.take_along_axis(masses, by_mass, axis=1)
                              .cumsum(axis=1) <= LEVIN_NEGLIGIBLE * tol, axis=1)
            hidden = np.zeros((len(members), times.size))
            hidden[np.searchsorted(members, owners)] = np.where(light, masses, 0.0).sum(axis=1)
            use = ~light[row, pair, ti]
            np.subtract.at(f.transpose(0, 2, 1), (np.searchsorted(members, panel[use]), ti[use]),
                           cand[use].real)
            used.append((panel[use], pair[use], ti[use]))
            new = use & np.isnan(held[panel, 0, pair, ti])
            fresh.append((panel[new], pair[new], ti[new], t[new]))
            if new.any():
                row, k, l, a = row[new], k[new], l[new], a[new]
                for r, rule in inputs.items():
                    ws = w[:, ::r // s]
                    dw = _CC_D[r] @ ws
                    rule.append((ws[row, :, k].conj() + ws[row, :, l],
                                 dw[row, :, k].conj() + dw[row, :, l], a[:, ::r // s]))
        h = half[group, None]
        val = h * (_CC_W[s] @ f)
        err = np.abs(val - h * (_CC_W[2 * s] @ f[:, ::2]))
        if hidden is not None:
            err += hidden
        sums.append((group, val, err))
    if len(sums) == 1:
        vals, errs = sums[0][1:]
    else:
        vals, errs = np.empty((count, times.size)), np.empty((count, times.size))
        for group, val, err in sums:
            vals[group], errs[group] = val, err
    if not used:
        return vals, errs, nodes, 0
    panel, pair, ti, t = (np.concatenate(x) for x in zip(*fresh))
    if ti.size:
        # every rung reads the same 33 Levin nodes, so a held result is
        # bitwise what solving again would give
        held.transpose(1, 0, 2, 3)[:, panel, pair, ti] = [
            _levin(*(np.concatenate(x).T for x in zip(*rule)), t, r, half[panel])
            for r, rule in inputs.items()]
        for i in np.unique(panel):
            nodes[i] = replace(nodes[i], levin=held[i])
    panel, pair, ti = (np.concatenate(x) for x in zip(*used))
    fine, coarse = held.transpose(1, 0, 2, 3)[:, panel, pair, ti]
    levin = np.zeros((count, times.size))
    levin_err = np.zeros((count, times.size))
    np.add.at(levin, (panel, ti), 2.0 * fine.real)
    np.add.at(levin_err, (panel, ti), 2.0 * np.abs(fine - coarse))
    panel = np.unique(panel)
    vals[panel] += levin[panel]
    errs[panel] += levin_err[panel]
    return vals, errs, nodes, 2 * t.size


def _batches(fresh: list[np.ndarray], n_times: int):
    """Panels in order whose new nodes times n_times stay within 129 x 32
    (129 nodes at 32 times); a batch always takes at least one panel."""
    limit = 32 * _CC_X.size // n_times
    first = 0
    while first < len(fresh):
        last, count = first, 0
        while last < len(fresh) and (last == first or count + fresh[last].size <= limit):
            count += fresh[last].size
            last += 1
        yield np.arange(first, last)
        first = last


def _eigen_nodes(cfg: SystemConfig, xi: np.ndarray, uhat0: np.ndarray, weight: np.ndarray,
                 spans: list[slice], held: list[_Nodes | None], stride: np.ndarray,
                 times: np.ndarray) -> tuple[list[_Nodes], tuple[np.ndarray, ...]]:
    """The integrand at a batch of panels' new nodes (spans) by _eigen.

    A new panel takes the modal split when _levin_terms finds a term for it;
    a refined panel keeps the split it had.  Either way the split needs
    every node of the panel on the eigen path, and its nodes then pass
    dynamics.backward_ok too, on the pairs of B.  The new panels' Levin
    terms are found in one _levin_terms call.  Returns each panel's nodes,
    with the split where it has one, and the Levin terms found, by panel
    index into spans.
    """
    e = _eigen(cfg, xi, uhat0)
    order = np.lexsort((e.w.real, e.w.imag))
    w = np.take_along_axis(e.w, order, axis=1)
    # twice the widest swing of one branch's Im bounds every term's turn
    starts = [rows.start for rows in spans]
    swing = (np.maximum.reduceat(w.imag, starts) - np.minimum.reduceat(w.imag, starts)).max(axis=1)
    on_path = np.logical_and.reduceat(e.ok, starts)
    split = on_path & np.array([h is not None and h.w is not None for h in held], dtype=bool)
    search = np.flatnonzero(on_path & np.array([h is None for h in held], dtype=bool)
                            & (2.0 * swing * times.max() > LEVIN_TURN))
    terms = _levin_terms([w[spans[i]] for i in search], stride[search], times)
    terms = (search[terms[0]],) + terms[1:]
    split[terms[0]] = True
    split = np.repeat(split, [rows.stop - rows.start for rows in spans])
    rows = np.flatnonzero(split)
    amp = np.zeros((xi.size, _PAIR_K.size), dtype=complex)
    if rows.size:
        ok = e.ok.copy()
        ok[rows] &= _dynamics.backward_ok(e.b(rows), e.w[rows], e.v[rows])[0].all(axis=1)
        e = replace(e, ok=ok)
        amp[rows] = _amplitudes(e, rows, order[rows]) * weight[rows]
    f = _mode_norms_sq(e, times) * weight
    return [_Nodes(f[rows], w[rows], amp[rows]) if split[rows.start] and e.ok[rows].all()
            else _Nodes(f[rows]) for rows in spans], terms


def _panels(cfg: SystemConfig, datum: InitialDatum, times: np.ndarray, j: int,
            lo: np.ndarray, hi: np.ndarray, stride: np.ndarray, held: list[_Nodes | None],
            tol: np.ndarray) -> tuple[np.ndarray, np.ndarray, list, int, int]:
    """Per-panel integral and error estimate, shape (panels, times).

    Panel k is integrated by _panel_integral on the rule of stride[k],
    against the current tolerance tol per time (the floor EPSABS |d^j U0|^2
    in the first round).  held[k], when set, holds the panel's nodes of
    twice that stride, with their Levin results, so only the missing nodes
    are evaluated and only the missing Levin systems solved.  The new nodes
    go through _eigen_nodes.  Panels are evaluated together while their new
    nodes times the number of times stay within 129 x 32, which bounds the
    working memory, and the panels of a batch are then integrated together
    by one _panel_integral call.  Each node's eigendecomposition
    (dynamics.eigen_batch) is its own LAPACK call, each panel's rule sum its
    own product and each Levin system its own solve, so the batching does
    not change the results.  Also returns each panel's nodes while it is
    below 129 points (None otherwise), the number of nodes evaluated, all
    of them eigendecomposed, and the number of Levin systems solved.
    """
    half = 0.5 * (hi - lo)
    fresh = [_CC_X[::s] if h is None else _CC_X[s::2 * s] for s, h in zip(stride, held)]
    vals = np.empty((lo.size, times.size))
    errs = np.empty((lo.size, times.size))
    kept: list[_Nodes | None] = [None] * lo.size
    levin = 0
    for batch in _batches(fresh, times.size):
        xi = np.concatenate([lo[k] + half[k] * (1.0 + fresh[k]) for k in batch])
        bounds = np.cumsum([0] + [fresh[k].size for k in batch])
        spans = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        parts, terms = _eigen_nodes(cfg, xi, datum.fourier(xi).T, (xi ** (2 * j))[:, None],
                                    spans, [held[k] for k in batch], stride[batch], times)
        parts = [part if held[k] is None else held[k].interleave(part)
                 for k, part in zip(batch, parts)]
        vals[batch], errs[batch], parts, solved = _panel_integral(parts, stride[batch],
                                                                  half[batch], times, tol, terms)
        levin += solved
        for k, nodes in zip(batch, parts):
            kept[k] = nodes if stride[k] > 1 else None
    return vals, errs, kept, sum(x.size for x in fresh), levin


def _ladder(cfg: SystemConfig, datum: InitialDatum, ts: np.ndarray, j: int, floor: float,
            cutoff: float, tail: float) -> tuple[np.ndarray, np.ndarray, int, int, int]:
    """The integral over [0, cutoff] on adaptive panels, with its error
    estimate (tail not included), the nodes, the eigendecomposed nodes and
    the Levin systems solved; see solution_norms_sq."""
    edges = _breakpoints(cutoff, ts)
    lo, hi = edges[:-1], edges[1:]
    stride = np.full(lo.size, _START_STRIDE)
    vals, errs, held, nodes, levin = _panels(cfg, datum, ts, j, lo, hi, stride,
                                             [None] * lo.size, np.full(ts.size, floor))
    while True:
        tol = np.maximum(floor, EPSREL * np.abs(vals.sum(axis=0)))
        open_t = errs.sum(axis=0) + tail > tol
        if not open_t.any():
            break
        # per open time, the largest-error panels whose removal would bring
        # the remaining estimate under half its tolerance
        order = np.argsort(-errs[:, open_t], axis=0, kind="stable")
        rest = np.take_along_axis(errs[:, open_t], order, axis=0)[::-1].cumsum(axis=0)[::-1]
        pick = np.zeros(lo.size, dtype=bool)
        pick[order[rest > 0.5 * tol[open_t]]] = True
        up = np.flatnonzero(pick & (stride > 1))
        cut = np.flatnonzero(pick & (stride == 1))
        if nodes + int(np.sum(128 // stride[up])) + 2 * cut.size * _CC_X.size > NODE_BUDGET:
            break
        mid = 0.5 * (lo[cut] + hi[cut])
        new_lo = np.concatenate([lo[up], lo[cut], mid])
        new_hi = np.concatenate([hi[up], mid, hi[cut]])
        new_stride = np.concatenate([stride[up] // 2, np.ones(2 * cut.size, dtype=int)])
        new_vals, new_errs, new_held, n, solved = _panels(
            cfg, datum, ts, j, new_lo, new_hi, new_stride,
            [held[i] for i in up] + [None] * (2 * cut.size), tol)
        nodes += n
        levin += solved
        keep = np.flatnonzero(~pick)
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        stride = np.concatenate([stride[keep], new_stride])
        vals, errs = np.concatenate([vals[keep], new_vals]), np.concatenate([errs[keep], new_errs])
        held = [held[i] for i in keep] + new_held
    return vals.sum(axis=0), errs.sum(axis=0), nodes, nodes, levin


@functools.lru_cache(maxsize=CONFIG_CACHE_SIZE)
def _speed(cfg: SystemConfig) -> float:
    """|C1|_2, with C(xi) = C0 + xi C1 the block (O, E) of the energy-scaled
    generator, K = [[0, -C^T], [C, 0]] in the order E = (v, z, phi, eta),
    O = (u, y, theta, sigma).  The undamped frequencies are the singular
    values of C(xi), and by Weyl's inequality each moves by at most
    |C1|_2 |dxi|, so |C1|_2 bounds every group velocity.  Cached per
    config."""
    c = energy_generator_batch(cfg, np.array([0.0, 1.0]))[:, _ODD[:, None], _EVEN]
    return float(np.linalg.norm(c[1] - c[0], 2))


def _equispaced(cfg: SystemConfig, datum: InitialDatum, ts: np.ndarray, j: int, floor: float,
                cutoff: float, tail: float) -> tuple[np.ndarray, np.ndarray, int, int, int]:
    """The integral over [0, cutoff] by the trapezoid rule on the nodes k h,
    k = 0..n, n h the first node at or past the cutoff, with its error
    estimate (tail not included), the nodes, and no eigendecomposed node or
    Levin system.

    The integrand is even in xi, so the rule with weight h/2 at 0 is the
    whole-line trapezoid rule, whose error by Poisson summation is the
    autocorrelation of U(., t) at the lags 2 pi m / h, m != 0: none while
    the solution fits in an interval shorter than 2 pi / h (Trefethen and
    Weideman, SIAM Review 56, 2014).  The data sit within a few widths of 0
    and no group velocity exceeds c = _speed(cfg), so the first spacing is
    h = pi / L with L = c t_max + 7 (widest profile width).  Correctness
    rests on the halving, not on L: h is halved on nested nodes, only the
    new odd nodes evaluated, until at every time the change of the rule
    plus the tail bound is within max(floor, EPSREL |value|), or until the
    next halving would spend more than NODE_BUDGET nodes; the change is the
    error estimate (infinite before the first halving).  Past its peak the
    datum's weighted transform falls, so the nodes beyond n h carry less
    than the tail bound.  Nodes go through model.expm in chunks of
    EXPM_BATCH_NODES.
    """
    width = max(p.width for p in datum.profiles if not isinstance(p, Zero))
    h = math.pi / (_speed(cfg) * ts.max() + 7.0 * width)
    n = math.ceil(cutoff / h)

    def weighted_sum(xi: np.ndarray, weight: np.ndarray) -> np.ndarray:
        out = np.zeros(ts.size)
        for at in range(0, xi.size, EXPM_BATCH_NODES):
            x = xi[at:at + EXPM_BATCH_NODES]
            f = _propagated_norms_sq(real_generator_batch(cfg, x),
                                     datum.fourier(x).T / real_similarity(cfg), ts)
            out += weight[at:at + EXPM_BATCH_NODES] @ f
        return out

    xi = h * np.arange(n + 1)
    weight = xi ** (2 * j)
    weight[0] *= 0.5
    total, err, nodes = h * weighted_sum(xi, weight), np.full(ts.size, np.inf), n + 1
    while np.any(err + tail > np.maximum(floor, EPSREL * np.abs(total))):
        if nodes + n > NODE_BUDGET:
            break
        h, n = 0.5 * h, 2 * n
        xi = h * np.arange(1, n, 2)
        halved = 0.5 * total + h * weighted_sum(xi, xi ** (2 * j))
        err, total, nodes = np.abs(halved - total), halved, nodes + xi.size
    return total, err, nodes, 0, 0


def _time_grid(times: Sequence[float]) -> np.ndarray:
    """The requested times as a flat float array; ValueError unless it is a
    nonempty list of finite, nonnegative times."""
    ts = np.asarray(times, dtype=float).reshape(-1)
    if ts.size == 0:
        raise ValueError("times must not be empty")
    if not np.all(np.isfinite(ts)):
        raise ValueError(f"times must be finite, got {float(ts[~np.isfinite(ts)][0])}")
    if np.any(ts < 0.0):
        raise ValueError(f"times must be nonnegative, got {float(ts[ts < 0.0][0])}")
    return ts


def _norms_sq(rule, cfg: SystemConfig, datum: InitialDatum, ts: np.ndarray,
              j: int) -> NormQuadrature:
    """solution_norms_sq on the validated time grid ts by the given rule,
    _ladder or _equispaced."""
    floor = EPSABS * datum.sobolev_norm_sq(j)
    # |e^{At} u|^2 <= (alpha2/alpha1) |u|^2 bounds the tail beyond the cutoff by
    # the datum's own tail; the cutoff keeps that bound (times pi, on the scale
    # of the integral) within LEVIN_NEGLIGIBLE of the floor
    growth = cfg.alpha2 / cfg.alpha1
    cutoff = datum.tail_cutoff(j, LEVIN_NEGLIGIBLE * floor / (math.pi * growth))
    if cutoff == 0.0:
        return NormQuadrature(np.zeros(ts.size), np.zeros(ts.size), nodes=0, eig=0, levin=0,
                              cutoff=0.0, tail_bound=0.0)
    tail = math.pi * growth * datum.tail_sq(j, cutoff)
    total, err, nodes, eig, levin = rule(cfg, datum, ts, j, floor, cutoff, tail)
    err = err + tail
    failed = ((total != 0.0) & (err > ACCEPT_REL * np.abs(total))) | ~np.isfinite(total + err)
    if failed.any():
        i = int(np.argmax(failed))
        raise QuadratureError(
            f"solution-norm quadrature achieved error {err[i]} vs value {total[i]} "
            f"at t={ts[i]} after {nodes} nodes"
        )
    return NormQuadrature(total / math.pi, err / math.pi, nodes=nodes, eig=eig, levin=levin,
                          cutoff=cutoff, tail_bound=tail / math.pi)


def solution_norms_sq(cfg: SystemConfig, datum: InitialDatum, times: Sequence[float],
                      j: int) -> NormQuadrature:
    """|d^j U(t)|_{L2}^2 = (1/pi) int_0^cutoff xi^{2j} |e^{A(xi)t} Uhat0|^2 dxi, all t at once.

    The times must be a nonempty list of finite, nonnegative numbers
    (ValueError otherwise, before any node is evaluated).  The cutoff keeps
    the datum's tail, times the growth bound alpha2/alpha1, within
    LEVIN_NEGLIGIBLE of the floor EPSABS |d^j U0|^2; that tail bound is part
    of every error estimate, and every tolerance is max(EPSABS |d^j U0|^2,
    EPSREL |value|).

    Short horizons take the equispaced trapezoid rule (_equispaced): a grid
    of n <= EXPM_MAX_TIMES positive times with n c t_max at most
    EQUISPACED_MAX_REACH, c = _speed(cfg) the bound on every group
    velocity.  Its nodes go through model.expm, and h is halved on nested
    nodes until two rules agree; no node is eigendecomposed and no Levin
    system solved.

    Every other grid takes the adaptive ladder (_ladder).  Panels start on
    the 33-point Clenshaw-Curtis rule at the layout of _breakpoints, graded
    by 2 from the slowest decay scale (1+t_max)^(-1/2) up to the cutoff, so
    it depends on the times only through the largest.  At every node the
    integrand splits into modal terms a_kl(xi) e^{t s_kl(xi)}, s_kl =
    conj(w_k) + w_l over the eigenvalues w of the mode generator.  On a
    panel where a term's phase t Im s_kl turns by more than LEVIN_TURN, that
    term is integrated by Levin collocation on the panel's 33 nodes, unless
    a guard sends it back: a stationary point of its phase, a branch that
    nearly collides with another, a conjugate pair that does not stay one,
    or a node off the eigen path.  Everything else, the integrand minus the
    Levin terms, stays on the Clenshaw-Curtis rule.  A panel's error
    estimate is the rule against the nested rule of half its points, plus
    each Levin integral against Levin on the nested 17 nodes.  At each
    time, the lightest Levin terms of a panel whose summed mass (twice
    their L1 mass, what aliasing could hide) stays within LEVIN_NEGLIGIBLE
    of the tolerance stay on the rule, with that mass added to its
    estimate; the first round judges against the floor, below which no
    later tolerance falls.  A panel holds its Levin results while it climbs
    the ladder (the rungs share the 33 Levin nodes), so no system is solved
    twice.  The panels of a batch (_panels) are integrated together, in
    stacked passes per node count and one stacked solve per Levin rule,
    with the results of panels taken one at a time, bit for bit.  While
    some time's summed error estimate exceeds the tolerance, the panels
    with the largest estimates are refined: a panel below 129 points moves
    to the next nested rule (65, then 129 points), evaluating only the
    nodes it lacks; a 129-point panel is bisected, both halves at 129
    points.

    Either rule stops refining when the node budget is spent.  Raises
    QuadratureError when an estimate then still exceeds ACCEPT_REL |value|.
    The result counts the nodes evaluated, those of them that were
    eigendecomposed and the Levin systems solved.
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    ts = _time_grid(times)
    positive = np.count_nonzero(ts)
    short = (positive <= EXPM_MAX_TIMES
             and positive * _speed(cfg) * ts.max() <= EQUISPACED_MAX_REACH)
    return _norms_sq(_equispaced if short else _ladder, cfg, datum, ts, j)


def sobolev_norm_sq(cfg: SystemConfig, datum: InitialDatum, t: float, j: int) -> float:
    """|d^j U(t)|_{L2}^2 at one time; see solution_norms_sq."""
    return float(solution_norms_sq(cfg, datum, [t], j).values[0])


def decay_series(
    cfg: SystemConfig, datum: InitialDatum, times: Sequence[float], j: int
) -> list[tuple[float, float]]:
    """(t, |d^j U(t)|_{L2}) at each requested time, in order."""
    ts = _sorted_times(times)
    values = solution_norms_sq(cfg, datum, ts, j).values
    return [(t, math.sqrt(v)) for t, v in zip(ts, values)]


def _sorted_times(times: Sequence[float]) -> list[float]:
    ts = _time_grid(times).tolist()
    if ts != sorted(ts):
        raise ValueError("times must be sorted")
    return ts


def default_times(n: int = 31, t_max: float = 1e4) -> list[float]:
    return [0.0] + list(np.logspace(0.0, math.log10(t_max), n))


MIN_FIT_POINTS = 8   # fewest points a tail fit takes


def fit_tail_exponent(series: Sequence[tuple[float, float]], window: float = 0.5) -> dict:
    """Least-squares slope of log(norm) against log(1+t) on the tail window."""
    if not (0 < window <= 1):
        raise ValueError("window must lie in (0, 1]")
    pts = [(t, v) for t, v in series]
    if len(pts) < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} points for a tail fit")
    n_win = max(int(math.ceil(window * len(pts))), MIN_FIT_POINTS)
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
    and the log-ratio has no upward tail trend (slope <= 0.05).  A grid of
    fewer than MIN_FIT_POINTS times raises ValueError before any norm is
    computed.  The report keeps the NormQuadrature of the norms under
    "quadrature".
    """
    if times is None:
        times = default_times()
    pred = _envelope.predict_rates(cfg, j, ell)
    if not pred.stable:
        raise _envelope.UnstableCaseError("no theorem bound in the unstable case")
    if len(times) < MIN_FIT_POINTS:  # the tail fits below would reject the grid
        raise ValueError(f"need at least {MIN_FIT_POINTS} points for a tail fit")
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

    ts = _sorted_times(times)
    quad = solution_norms_sq(cfg, datum, ts, j)
    rows = []
    for t, norm_sq in zip(ts, quad.values):
        norm = math.sqrt(norm_sq)
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
        "ratio_tail_slope": tail["exponent"],
        "norm_tail_slope": norm_tail["exponent"],
        "pass": bool(ok),
        "rows": rows,
        "predicted_low": low,
        "quadrature": quad,
    }
    if bounded_only:
        report["note"] = "boundedness check only (j = ell = 0 in a regularity-loss cell)"
    return report
