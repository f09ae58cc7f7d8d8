"""Acceptance gate: the eight verification criteria for the laboratory.

Each test prints a single PASS/FAIL line for its criterion and enforces the
stated tolerance and runtime budget.  The criteria:

1. identity catalog residuals and mutation sensitivity
2. exact energy dissipation identity on random samples
3. decay certificates for the standard suite, pointwise-sound on samples
4. non-decay in the degenerate case, restored decay off it
5. regularity-loss dichotomy at high frequency
6. the fourteen-cell rate table and its consistency invariant
7. auxiliary integral/sup lemma sweeps and theorem instantiations
8. whole-line Sobolev decay at the predicted rates
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

import oracles
from tlab import identities as ids
from tlab.dynamics import nondecay_witness, spectrum
from tlab.envelope import (
    HighBranch, envelope_cell, f_of_xi, high_freq_sup_bound,
    low_freq_integral_bound, piecewise_lower_bound, predict_rates,
    regularity_loss,
)
from tlab.forms import DIM, V, hermitian_from_terms
from tlab.fullline import (
    Gaussian, InitialDatum, decay_series, default_times, fit_tail_exponent,
    verify_theorem_bound,
)
from tlab.lyapunov import certify
from tlab.model import (
    Coupling, Damping, SystemConfig, Tau, assemble_generator,
    dissipation_rate, hermitian_energy,
)
from tlab.dynamics import characteristic_det_chi0, propagate
from tlab.suite import standard_suite, unstable_reference

from conftest import random_config, random_state


def _verdict(num: int, label: str, ok: bool) -> None:
    print(f"\nACCEPTANCE CRITERION {num} ({label}): {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def certificates():
    return {name: certify(cfg) for name, cfg in standard_suite().items()}


def test_criterion_1_identity_catalog():
    """Every catalog identity holds to 1e-12 over 100 random draws, and a
    sign mutation of its largest term is detected above 1e-3.  Budget 30 s."""
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    weakest_mutation = math.inf
    for entry in ids.catalog().values():
        for _ in range(100):
            cfg = random_config(rng, tau=entry.tau, coupling=entry.coupling)
            xi = float(rng.uniform(0.1, 3.0))
            worst = max(worst, ids.identity_residual(entry, cfg, xi))
        cfg = random_config(rng, tau=entry.tau, coupling=entry.coupling)
        xi = float(rng.uniform(0.5, 2.0))
        terms = list(entry.r_terms(cfg, xi))
        k = int(np.argmax([abs(c) for c, _, _ in terms]))
        mutated = [(-c, a, b) if i == k else (c, a, b)
                   for i, (c, a, b) in enumerate(terms)]
        a_mat = assemble_generator(cfg, xi).a
        w = entry.w_matrix(cfg, xi)
        drift = a_mat.conj().T @ w + w @ a_mat
        drift = 0.5 * (drift + drift.conj().T)
        r_bad = hermitian_from_terms(mutated)
        resid = float(np.linalg.norm(drift - r_bad) / (1.0 + np.linalg.norm(r_bad)))
        weakest_mutation = min(weakest_mutation, resid)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and weakest_mutation > 1e-3 and elapsed < 30.0
    _verdict(1, "identity catalog", ok)
    assert worst <= 1e-12, f"max residual {worst}"
    assert weakest_mutation > 1e-3, f"weakest mutation residual {weakest_mutation}"
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.1f}s"


def test_criterion_2_energy_dissipation():
    """dE/dt equals -k5 xi^(2 eps0) |eta|^2 to 1e-12 relative on 1000 samples."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        cfg = random_config(rng)
        xi = float(rng.uniform(-5.0, 5.0))
        s = random_state(rng)
        a = assemble_generator(cfg, xi).a
        h = hermitian_energy(cfg).matrix
        lie = oracles.quadratic_form(a.conj().T @ h + h @ a, s)
        expected = dissipation_rate(cfg, xi, s)
        scale = max(abs(expected), 1.0)
        worst = max(worst, abs(lie - expected) / scale)
    ok = worst <= 1e-12
    _verdict(2, "energy dissipation identity", ok)
    assert ok, f"worst relative defect {worst}"


def test_criterion_3_certificates_sound(certificates):
    """All fourteen standard configurations certify, and the pointwise
    exponential bound holds on 200 random samples per configuration with
    zero violations.  Budget 5 min."""
    start = time.monotonic()
    violations = 0
    rng = np.random.default_rng(303)
    for name, cfg in standard_suite().items():
        cert = certificates[name]
        assert 0 < cert.c <= 1.0 and cert.c3 > 0
        for _ in range(200):
            xi = float(10.0 ** rng.uniform(-2.0, 2.0))
            t = float(rng.uniform(0.0, 30.0))
            s0 = random_state(rng)
            s1 = propagate(cfg, xi, s0, [t])[0]
            bound = cert.c_tilde * math.exp(-cert.c * f_of_xi(cfg, xi) * t)
            if np.real(s1.conj() @ s1) > bound * (1.0 + 1e-9):
                violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 300.0
    _verdict(3, "certificate soundness", ok)
    assert violations == 0, f"{violations} pointwise bound violations"
    assert elapsed < 300.0, f"budget exceeded: {elapsed:.1f}s"


def test_criterion_4_instability_dichotomy():
    """With the thermal coupling on the first equation and k2 = k3 the
    characteristic polynomial has purely imaginary roots at lam = i sqrt(k2) xi
    (and i sqrt(2 k1) at xi = 0), the corresponding eigenmode keeps its norm
    to 1e-6 at T = 100, and perturbing k3 restores a spectral gap."""
    cfg = unstable_reference()
    rng = np.random.default_rng(404)
    ok = True
    scale_ref = lambda xi: max(1.0, abs(characteristic_det_chi0(cfg, xi, 1.0 + 1.0j)))  # noqa: E731
    for xi in rng.uniform(0.05, 5.0, size=50):
        lam = 1j * math.sqrt(cfg.k2) * float(xi)
        det = characteristic_det_chi0(cfg, float(xi), lam)
        if abs(det) > 1e-9 * scale_ref(float(xi)):
            ok = False
    det0 = characteristic_det_chi0(cfg, 0.0, 1j * math.sqrt(2.0 * cfg.k1))
    if abs(det0) > 1e-9 * scale_ref(0.0):
        ok = False

    witness = nondecay_witness(cfg, xi=1.0, t_final=100.0)
    mode_ok = abs(witness["ratio"] - 1.0) <= 1e-6
    ok = ok and mode_ok

    perturbed = SystemConfig(k1=cfg.k1, k2=cfg.k2, k3=cfg.k2 + 0.1, k4=cfg.k4,
                             k5=cfg.k5, gamma=cfg.gamma, tau=cfg.tau,
                             damping=cfg.damping, coupling=cfg.coupling)
    gap_ok = all(spectrum(perturbed, xi).abscissa < 0.0
                 for xi in (0.1, 0.5, 1.0, 2.0, 10.0))
    ok = ok and gap_ok
    _verdict(4, "instability dichotomy", ok)
    assert mode_ok, f"eigenmode norm ratio {witness['ratio']}"
    assert gap_ok, "perturbed configuration did not regain a spectral gap"
    assert ok


def test_criterion_5_regularity_loss_dichotomy(certificates):
    """Equal wave speeds with first-order coupling keep a uniform spectral
    gap at high frequency; unequal speeds lose it like xi^-4, matching the
    envelope's piecewise lower bound."""
    suite = standard_suite()
    eq_cfg = suite["tau2-type3-first-eq"]
    xi_hi = np.logspace(0.0, 2.0, 40)
    gaps = np.array([-spectrum(eq_cfg, float(x)).abscissa for x in xi_hi])
    uniform_ok = bool(gaps.min() >= 1e-3)

    loss_cfg = suite["tau2-type3-first"]  # k3 = 2: p - 2m = -4
    gaps_l = np.array([-spectrum(loss_cfg, float(x)).abscissa for x in xi_hi])
    slope = np.polyfit(np.log(xi_hi[-20:]), np.log(gaps_l[-20:]), 1)[0]
    slope_ok = abs(slope - (-4.0)) <= 0.3

    cert = certificates["tau2-type3-first"]
    piecewise_ok = True
    for x, gap in zip(xi_hi, gaps_l):
        floor = 0.5 * cert.c * piecewise_lower_bound(loss_cfg, float(x))
        if gap < floor * (1.0 - 1e-9):
            piecewise_ok = False
    ok = uniform_ok and slope_ok and piecewise_ok
    _verdict(5, "regularity-loss dichotomy", ok)
    assert uniform_ok, f"equal-speed gap floor {gaps.min()}"
    assert slope_ok, f"high-frequency gap slope {slope}, expected ~ -4"
    assert piecewise_ok, "spectral gap fell below the certified envelope floor"


def test_criterion_6_rate_table():
    """All fourteen cells reproduce the expected (p, m) pair, and the cells
    satisfy the consistency invariant p <= 2m with equality exactly in the
    exponential (equal-speed, first-order, full-order damping) cells."""
    expected = {
        "tau1-type3-first": (6, 4),
        "tau1-frictional-first": (4, 3),
        "tau1-type3-zero": (6, 5),
        "tau1-frictional-zero": (4, 4),
        "tau2-type3-first": (6, 5),
        "tau2-frictional-first": (4, 4),
        "tau2-type3-zero": (4, 5),
        "tau2-frictional-zero": (2, 4),
        "tau3-type3-first": (6, 5),
        "tau3-frictional-first": (4, 4),
        "tau3-type3-zero": (4, 5),
        "tau3-frictional-zero": (2, 4),
        "tau2-type3-first-eq": (6, 3),
        "tau3-type3-first-eq": (6, 3),
    }
    suite = standard_suite()
    ok = set(suite) == set(expected)
    for name, cfg in suite.items():
        p, m = envelope_cell(cfg)
        if (p, m) != expected[name]:
            ok = False
        if p > 2 * m:
            ok = False
        if (p == 2 * m) != (not regularity_loss(cfg)):
            ok = False
        pred = predict_rates(cfg, 0, 1)
        if pred.low_exponent != pytest.approx(1.0 / (2 * p)):
            ok = False
        expo = pred.high_branch is HighBranch.EXPONENTIAL
        if expo != (p == 2 * m):
            ok = False
    _verdict(6, "rate table", ok)
    for name, cfg in suite.items():
        assert envelope_cell(cfg) == expected[name], name
    assert ok


def test_criterion_7_lemma_sweeps():
    """Integral and sup bounds hold on a 50 x 30 random parameter sweep and
    at the exponent triples used by the decay theorem."""
    rng = np.random.default_rng(707)
    ok = True
    for _ in range(50):
        r1 = float(rng.uniform(0.0, 6.0))
        r2 = float(rng.uniform(0.5, 8.0))
        r3 = float(rng.uniform(0.05, 3.0))
        s1 = float(rng.uniform(0.2, 6.0))
        s2 = float(rng.uniform(0.05, 3.0))
        s3 = float(rng.uniform(0.5, 8.0))
        for t in np.logspace(-2, 5, 30):
            low = low_freq_integral_bound(r1, r2, r3, float(t))
            if low["integral"] > low["bound"] * (1.0 + 1e-8):
                ok = False
            high = high_freq_sup_bound(s1, s2, s3, float(t))
            if high["sup"] > high["bound"] * (1.0 + 1e-10):
                ok = False

    c = 0.4
    for t in (0.0, 1.0, 100.0, 1e4):
        for j in range(4):
            low = low_freq_integral_bound(2 * j, 6.0, c / 5.0, float(t))
            if low["integral"] > low["bound"] * (1.0 + 1e-8):
                ok = False
        for ell in range(1, 4):
            high = high_freq_sup_bound(2 * ell, c / 5.0, 2.0, float(t))
            if high["sup"] > high["bound"] * (1.0 + 1e-10):
                ok = False
    _verdict(7, "auxiliary lemma sweeps", ok)
    assert ok


def test_criterion_8_whole_line_decay(certificates):
    """Whole-line Sobolev norms decay at the predicted rates:
    (a) thermal coupling on the first equation, j = 0, ell = 1: bounded
        envelope ratio (c0 <= 10) and tail slope <= -1/12 + 0.02;
    (b) equal-speed first-order type III on the second equation: the
        exponential high-frequency branch passes;
    (c) zero-order frictional equal-speed on the second equation, j = 0:
        tail slope <= -1/4 + 0.02.  Budget 10 min."""
    start = time.monotonic()
    suite = standard_suite()
    datum = InitialDatum.component(V, Gaussian(amplitude=1.0, width=1.0))

    rep_a = verify_theorem_bound(suite["tau1-type3-first"], datum, 0, 1,
                                 times=default_times(31, 1e4),
                                 certificate=certificates["tau1-type3-first"])
    a_ok = rep_a["pass"] and rep_a["c0"] <= 10.0 \
        and rep_a["norm_tail_slope"] <= -1.0 / 12.0 + 0.02

    rep_b = verify_theorem_bound(suite["tau2-type3-first-eq"], datum, 0, 1,
                                 times=default_times(31, 1e4),
                                 certificate=certificates["tau2-type3-first-eq"])
    b_ok = rep_b["pass"]

    zero_eq = SystemConfig(k1=1.0, k2=1.0, k3=1.0, k4=1.0, k5=1.0, gamma=1.0,
                           tau=Tau.TAU2, damping=Damping.FRICTIONAL,
                           coupling=Coupling.ZERO_ORDER)
    series_c = decay_series(zero_eq, datum, default_times(25, 1e4), 0)
    slope_c = fit_tail_exponent(series_c, window=0.5)["exponent"]
    c_ok = slope_c <= -0.25 + 0.02

    elapsed = time.monotonic() - start
    ok = a_ok and b_ok and c_ok and elapsed < 600.0
    _verdict(8, "whole-line decay rates", ok)
    assert a_ok, (rep_a["c0"], rep_a["norm_tail_slope"])
    assert b_ok, (rep_b["c0"], rep_b["ratio_tail_slope"])
    assert c_ok, f"zero-order equal-speed slope {slope_c}"
    assert elapsed < 600.0, f"budget exceeded: {elapsed:.1f}s"
