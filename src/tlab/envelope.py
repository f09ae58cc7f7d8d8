"""Decay envelopes f(xi), auxiliary integral/sup bounds, and the rate table.

Every stable case admits a pointwise bound |Uhat(t)|^2 <= c~ e^{-c f(xi) t}
|Uhat(0)|^2 with an envelope of the fixed shape

    f(xi) = xi^p / (1 + xi^2 + ... + xi^{2m}),

where the pair (p, m) depends on the thermal placement tau, the coupling
order, the damping order eps0, and whether the three wave speeds coincide
(k1 = k2 = k3).  Low frequencies give f ~ xi^p, hence polynomial-in-time
decay of rate (1+2j)/(2p) for the j-th derivative; high frequencies give
f ~ xi^{p-2m}, and when p < 2m the bound degenerates as |xi| -> infinity,
which is the regularity-loss mechanism: ell extra derivatives of the data
buy a factor (1+t)^{-ell/(2m-p)}.  The two cells with p = 2m keep a
constant high-frequency floor and decay exponentially in the ell-term.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.special

from tlab.model import Coupling, SystemConfig, Tau


class UnstableCaseError(ValueError):
    """The unstable case (tau1 with chi = 0) has no envelope, certificate or decay bound."""


class HighBranch(enum.Enum):
    EXPONENTIAL = "exponential"
    POLYNOMIAL = "polynomial"


def envelope_cell(cfg: SystemConfig) -> tuple[int, int]:
    """(p, m) of the envelope f = xi^p / sum_{i<=m} xi^{2i} for cfg's case."""
    if not cfg.stable:
        raise UnstableCaseError("tau1 with chi = 0 has no decay envelope")
    eps0 = cfg.epsilon0
    first = cfg.coupling is Coupling.FIRST_ORDER
    eq = cfg.equal_speeds
    if cfg.tau is Tau.TAU1:
        if first:
            return (4 + 2 * eps0, 4 if eps0 == 1 else 3)
        return (4 + 2 * eps0, 5 if eps0 == 1 else 4)
    # tau2 / tau3
    if first:
        p = 4 + 2 * eps0
        if eq:
            m = 3
        else:
            m = 5 if eps0 == 1 else 4
        return (p, m)
    p = 2 + 2 * eps0
    if eq:
        m = 3 if eps0 == 1 else 2
    else:
        m = 5 if eps0 == 1 else 4
    return (p, m)


def f_tilde(cfg: SystemConfig, xi: float | np.ndarray) -> float | np.ndarray:
    """1 + xi^2 + ... + xi^{2m}, elementwise over an array of xi."""
    _, m = envelope_cell(cfg)
    x2 = np.square(np.asarray(xi, dtype=float))
    # np.power, not **: a numpy scalar's ** rounds unlike the array loop
    return sum(np.power(x2, i) for i in range(m + 1))


def f_of_xi(cfg: SystemConfig, xi: float | np.ndarray) -> float | np.ndarray:
    """The envelope f = xi^p / f_tilde, elementwise over an array of xi."""
    p, _ = envelope_cell(cfg)
    return np.asarray(xi, dtype=float) ** p / f_tilde(cfg, xi)


def piecewise_lower_bound(cfg: SystemConfig, xi: float) -> float:
    """f >= xi^p/(m+1) for |xi| <= 1 and xi^{p-2m}/(m+1) for |xi| > 1."""
    p, m = envelope_cell(cfg)
    ax = abs(float(xi))
    if ax <= 1.0:
        return ax ** p / (m + 1)
    return ax ** (p - 2 * m) / (m + 1)


def regularity_loss(cfg: SystemConfig) -> bool:
    p, m = envelope_cell(cfg)
    return p < 2 * m


@dataclass(frozen=True)
class RatePrediction:
    stable: bool
    low_exponent: Fraction | None
    high_branch: HighBranch | None
    high_exponent: Fraction | None  # None for the exponential branch
    regularity_loss: bool
    j: int
    ell: int

    def as_dict(self) -> dict:
        return {
            "stable": self.stable,
            "low_exponent": str(self.low_exponent) if self.low_exponent is not None else None,
            "high_branch": self.high_branch.value if self.high_branch else None,
            "high_exponent": str(self.high_exponent) if self.high_exponent is not None else None,
            "regularity_loss": self.regularity_loss,
            "j": self.j,
            "ell": self.ell,
        }


def predict_rates(cfg: SystemConfig, j: int, ell: int) -> RatePrediction:
    """Theorem rate pair for the j-th derivative with ell extra derivatives.

    The norm bound is (1+t)^{-low} |U0|_L1 plus either e^{-c~0 t} or
    (1+t)^{-high} applied to |d^{j+ell} U0|_L2.
    """
    if j < 0 or ell < 0:
        raise ValueError("j and ell must be nonnegative")
    if not cfg.stable:
        return RatePrediction(stable=False, low_exponent=None, high_branch=None,
                              high_exponent=None, regularity_loss=False, j=j, ell=ell)
    p, m = envelope_cell(cfg)
    low = Fraction(1 + 2 * j, 2 * p)
    if regularity_loss(cfg):
        return RatePrediction(
            stable=True, low_exponent=low, high_branch=HighBranch.POLYNOMIAL,
            high_exponent=Fraction(ell, 2 * m - p), regularity_loss=True,
            j=j, ell=ell,
        )
    return RatePrediction(
        stable=True, low_exponent=low, high_branch=HighBranch.EXPONENTIAL,
        high_exponent=None, regularity_loss=False, j=j, ell=ell,
    )


def low_freq_integral_bound(r1: float, r2: float, r3: float, t: float) -> dict:
    """Bound int_0^1 xi^{r1} e^{-r3 t xi^{r2}} dxi <= C (1+t)^{-(r1+1)/r2}.

    With a = (r1+1)/r2 and u = r3 t xi^{r2} the integral is the lower
    incomplete gamma function, Gamma(a) P(a, r3 t) / (r2 (r3 t)^a), and
    1/(r1+1) at t = 0.  The constant is C = max{2^a/(r1+1), (2^a/(r2 r3^a)) C12}
    with C12 = Gamma(a).  Returns {integral, bound, constant}.
    """
    if not (r1 > -1 and r2 > 0 and r3 > 0 and t >= 0):
        raise ValueError("need r1 > -1, r2 > 0, r3 > 0, t >= 0")
    a = (r1 + 1.0) / r2
    z = r3 * t
    c12 = scipy.special.gamma(a)
    if z == 0.0:
        integral = 1.0 / (r1 + 1.0)
    else:
        integral = c12 * scipy.special.gammainc(a, z) / (r2 * z ** a)
    constant = max(2.0 ** a / (r1 + 1.0), (2.0 ** a / (r2 * r3 ** a)) * c12)
    bound = constant * (1.0 + t) ** (-a)
    return {"integral": float(integral), "bound": float(bound),
            "constant": float(constant)}


def high_freq_sup_bound(s1: float, s2: float, s3: float, t: float) -> dict:
    """Bound sup_{|xi|>=1} |xi|^{-s1} e^{-s2 t |xi|^{-s3}}.

    h(x) = x^{-s1} e^{-s2 t x^{-s3}} increases up to x* = ((s2 s3 t)/s1)^{1/s3}
    and decreases after, so the sup is h(max(1, x*)).  The bound is
    (1 + s1/(s2 s3))^{s1/s3} (1+t)^{-s1/s3}.  Returns {sup, bound}.
    """
    if not (s1 > 0 and s2 > 0 and s3 > 0 and t >= 0):
        raise ValueError("need s1, s2, s3 > 0 and t >= 0")

    def h(x: float) -> float:
        return x ** (-s1) * math.exp(-s2 * t * x ** (-s3))

    x_star = ((s2 * s3 * t) / s1) ** (1.0 / s3) if t > 0 else 1.0
    sup = h(max(1.0, x_star))
    bound = (1.0 + s1 / (s2 * s3)) ** (s1 / s3) * (1.0 + t) ** (-s1 / s3)
    return {"sup": float(sup), "bound": float(bound)}
