"""System parameters, mode generator, and energy for the laminated beam models.

The state of one Fourier mode is the complex 8-vector

    Uhat = (vhat, uhat, zhat, yhat, phihat, thetahat, sigmahat, etahat)

collecting the first-order variables of the beam (v = phi_x + psi + w,
u = phi_t, z = psi_x, y = psi_t, phi = w_x, theta = w_t) and of the heat
flux (sigma = q_x, eta = q_t).  It evolves by Uhat_t = A(xi) Uhat with

    A(xi) = -(-xi^2 A2 + i xi A1 + A0),

where A0, A1, A2 are real 8x8 matrices determined by the elastic constants
k1..k5, the thermal coupling constant gamma, the placement tau of the heat
coupling (on the u, y, or theta equation), the damping order eps0 (type III
heat conduction eps0 = 1, frictional eps0 = 0), and the coupling order
(first-order: terms i tau_j gamma xi etahat; zero-order: terms
tau_j gamma etahat with the reversed sign in the etahat equation).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tlab.forms import DIM, ETA, HermitianForm, PHI, SIGMA, THETA, U, V, Y, Z

SPEED_REL_TOL = 1e-12


class ConfigError(ValueError):
    """Invalid configuration value or config file."""


class CaseMismatchError(ValueError):
    """Operation applied to a configuration outside its validity case."""


class Tau(enum.Enum):
    """Which equation carries the thermal coupling term."""

    TAU1 = 1
    TAU2 = 2
    TAU3 = 3

    @property
    def indicators(self) -> tuple[int, int, int]:
        t = [0, 0, 0]
        t[self.value - 1] = 1
        return tuple(t)


class Damping(enum.Enum):
    TYPE_III = "type3"      # dissipation -k5 q_xxt, eps0 = 1
    FRICTIONAL = "frictional"  # dissipation +k5 q_t, eps0 = 0

    @property
    def epsilon0(self) -> int:
        return 1 if self is Damping.TYPE_III else 0


class Coupling(enum.Enum):
    FIRST_ORDER = "first"
    ZERO_ORDER = "zero"


@dataclass(frozen=True)
class SystemConfig:
    k1: float
    k2: float
    k3: float
    k4: float
    k5: float
    gamma: float
    tau: Tau
    damping: Damping
    coupling: Coupling

    def __post_init__(self) -> None:
        for name in ("k1", "k2", "k3", "k4", "k5"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0):
                raise ConfigError(f"{name} must be a positive real, got {val!r}")
        if not (math.isfinite(self.gamma) and self.gamma != 0):
            raise ConfigError(f"gamma must be a nonzero real, got {self.gamma!r}")

    @property
    def chi(self) -> float:
        return self.k3 - self.k2

    @property
    def epsilon0(self) -> int:
        return self.damping.epsilon0

    @property
    def sign_gamma(self) -> float:
        return 1.0 if self.gamma > 0 else -1.0

    @property
    def equal_speeds(self) -> bool:
        tol = SPEED_REL_TOL * max(self.k1, self.k2, self.k3)
        return abs(self.k1 - self.k2) <= tol and abs(self.k1 - self.k3) <= tol

    @property
    def stable(self) -> bool:
        """Tau1 systems are stable iff chi = k3 - k2 does not vanish."""
        if self.tau is not Tau.TAU1:
            return True
        tol = SPEED_REL_TOL * max(self.k2, self.k3)
        return abs(self.chi) > tol

    @property
    def alpha1(self) -> float:
        return 0.5 * min(self.k1, self.k2, self.k3, self.k4, 1.0)

    @property
    def alpha2(self) -> float:
        return 0.5 * max(self.k1, self.k2, self.k3, self.k4, 1.0)

    def describe(self) -> dict:
        return {
            "tau": self.tau.value,
            "damping": self.damping.value,
            "coupling": self.coupling.value,
            "chi": self.chi,
            "equal_speeds": self.equal_speeds,
            "stable": self.stable,
        }


@dataclass(frozen=True)
class ModeState:
    """State of a single Fourier mode at frequency xi."""

    values: np.ndarray
    xi: float

    def __post_init__(self) -> None:
        vec = np.asarray(self.values, dtype=complex).reshape(DIM).copy()
        if not np.all(np.isfinite(vec.view(float))):
            raise ValueError("mode state has non-finite entries")
        vec.setflags(write=False)
        object.__setattr__(self, "values", vec)

    @property
    def norm_sq(self) -> float:
        return float(np.real(self.values.conj() @ self.values))


@dataclass(frozen=True)
class GeneratorMatrices:
    a0: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    xi: float
    a: np.ndarray  # A(xi) = -(-xi^2 A2 + i xi A1 + A0)


def _generator_coefficients(cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The real matrices A0, A1, A2 of A(xi) = xi^2 A2 - i xi A1 - A0."""
    t1, t2, t3 = cfg.tau.indicators
    g = cfg.gamma
    eps0 = cfg.epsilon0

    a1 = np.zeros((DIM, DIM))
    a1[V, U] = -1.0
    a1[U, V] = -cfg.k1
    a1[Z, Y] = -1.0
    a1[Y, Z] = -cfg.k2
    a1[PHI, THETA] = -1.0
    a1[THETA, PHI] = -cfg.k3
    a1[SIGMA, ETA] = -1.0
    a1[ETA, SIGMA] = -cfg.k4

    a0 = np.zeros((DIM, DIM))
    a0[V, Y] = -1.0
    a0[V, THETA] = -1.0
    a0[Y, V] = cfg.k1
    a0[THETA, V] = cfg.k1
    a0[ETA, ETA] = (1 - eps0) * cfg.k5

    if cfg.coupling is Coupling.FIRST_ORDER:
        a1[U, ETA] = t1 * g
        a1[Y, ETA] = t2 * g
        a1[THETA, ETA] = t3 * g
        a1[ETA, U] = t1 * g
        a1[ETA, Y] = t2 * g
        a1[ETA, THETA] = t3 * g
    else:
        a0[U, ETA] = t1 * g
        a0[Y, ETA] = t2 * g
        a0[THETA, ETA] = t3 * g
        a0[ETA, U] = -t1 * g
        a0[ETA, Y] = -t2 * g
        a0[ETA, THETA] = -t3 * g

    a2 = np.zeros((DIM, DIM))
    a2[ETA, ETA] = -eps0 * cfg.k5
    return a0, a1, a2


def assemble_generator(cfg: SystemConfig, xi: float) -> GeneratorMatrices:
    """A0, A1, A2 and A(xi), the one-frequency case of generator_batch."""
    a0, a1, a2 = _generator_coefficients(cfg)
    return GeneratorMatrices(a0=a0, a1=a1, a2=a2, xi=float(xi),
                             a=generator_batch(cfg, xi)[0])


def generator_batch(cfg: SystemConfig, xi: np.ndarray) -> np.ndarray:
    """A(xi) = xi^2 A2 - i xi A1 - A0 at every frequency, shape (n, 8, 8)."""
    a0, a1, a2 = _generator_coefficients(cfg)
    x = np.asarray(xi, dtype=float).reshape(-1, 1, 1)
    return x ** 2 * a2 - 1j * x * a1 - a0


def real_similarity(cfg: SystemConfig) -> np.ndarray:
    """Diagonal s of a unitary S, entries in {1, i}, with S^-1 A(xi) S real for all xi.

    (S^-1 A S)_kl = A_kl s_l / s_k, so the entries of A0 and A2 need s_l = s_k
    and those of -i A1 need s_l / s_k = +-i.  The wave pairs and the
    lamination terms fix the parities of v..theta; the coupled row (u, y or
    theta) fixes eta, through A1 for first-order coupling and A0 for
    zero-order coupling, and sigma pairs with eta.
    """
    odd = np.zeros(DIM, dtype=int)
    odd[[U, Z, PHI]] = 1
    coupled = (U, Y, THETA)[cfg.tau.value - 1]
    odd[ETA] = odd[coupled] ^ (cfg.coupling is Coupling.FIRST_ORDER)
    odd[SIGMA] = 1 - odd[ETA]
    return np.where(odd == 1, 1j, 1.0 + 0j)


def real_generator_batch(cfg: SystemConfig, xi: np.ndarray) -> np.ndarray:
    """The real matrices B(xi) = S^-1 A(xi) S of real_similarity, shape (n, 8, 8).

    S is unitary, so B has the spectrum and the 2-norm of A, and
    |e^{At} u| = |e^{Bt} S^-1 u|.
    """
    s = real_similarity(cfg)
    return (generator_batch(cfg, xi) * (s[None, :] / s[:, None])).real


def hermitian_energy(cfg: SystemConfig) -> HermitianForm:
    """Mode energy Ehat = (1/2)(k1|v|^2+|u|^2+k2|z|^2+|y|^2+k3|phi|^2+|theta|^2+k4|sigma|^2+|eta|^2)."""
    diag = 0.5 * np.array(
        [cfg.k1, 1.0, cfg.k2, 1.0, cfg.k3, 1.0, cfg.k4, 1.0], dtype=complex
    )
    return HermitianForm(np.diag(diag))


def dissipation_rate(cfg: SystemConfig, xi: float, s: ModeState | np.ndarray) -> float:
    """dEhat/dt along the mode flow: -k5 xi^(2 eps0) |etahat|^2."""
    vec = s.values if isinstance(s, ModeState) else np.asarray(s, dtype=complex)
    return float(-cfg.k5 * float(xi) ** (2 * cfg.epsilon0) * abs(vec[ETA]) ** 2)


_TAU_KEYS = {"1": Tau.TAU1, "2": Tau.TAU2, "3": Tau.TAU3}
_DAMPING_KEYS = {"type3": Damping.TYPE_III, "frictional": Damping.FRICTIONAL}
_COUPLING_KEYS = {"first": Coupling.FIRST_ORDER, "zero": Coupling.ZERO_ORDER}


def parse_config_text(text: str) -> SystemConfig:
    """Parse the line-oriented `key = value` config format.

    Keys: k1..k5, gamma, tau in {1,2,3}, damping in {type3, frictional},
    coupling in {first, zero}.  Blank lines and '#' comments are skipped;
    unknown keys and malformed lines raise ConfigError with the line number.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in ("k1", "k2", "k3", "k4", "k5", "gamma", "tau", "damping", "coupling"):
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = val

    missing = [k for k in ("k1", "k2", "k3", "k4", "k5", "gamma", "tau", "damping", "coupling")
               if k not in values]
    if missing:
        raise ConfigError(f"missing keys: {', '.join(missing)}")

    def _num(key: str) -> float:
        try:
            return float(values[key])
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: not a number: {values[key]!r}") from exc

    tau = _TAU_KEYS.get(values["tau"])
    if tau is None:
        raise ConfigError(f"key 'tau': expected one of 1, 2, 3, got {values['tau']!r}")
    damping = _DAMPING_KEYS.get(values["damping"])
    if damping is None:
        raise ConfigError(
            f"key 'damping': expected 'type3' or 'frictional', got {values['damping']!r}"
        )
    coupling = _COUPLING_KEYS.get(values["coupling"])
    if coupling is None:
        raise ConfigError(
            f"key 'coupling': expected 'first' or 'zero', got {values['coupling']!r}"
        )

    return SystemConfig(
        k1=_num("k1"), k2=_num("k2"), k3=_num("k3"), k4=_num("k4"), k5=_num("k5"),
        gamma=_num("gamma"), tau=tau, damping=damping, coupling=coupling,
    )


def load_config(path: str | Path) -> SystemConfig:
    return parse_config_text(Path(path).read_text())


def config_text(cfg: SystemConfig) -> str:
    """Render a config back to the text format (round-trips through parse)."""
    return "\n".join(
        [
            f"k1 = {cfg.k1!r}",
            f"k2 = {cfg.k2!r}",
            f"k3 = {cfg.k3!r}",
            f"k4 = {cfg.k4!r}",
            f"k5 = {cfg.k5!r}",
            f"gamma = {cfg.gamma!r}",
            f"tau = {cfg.tau.value}",
            f"damping = {cfg.damping.value}",
            f"coupling = {cfg.coupling.value}",
        ]
    ) + "\n"
