import math
import re

import numpy as np
import pytest

from tlab import identities as _ids
from tlab.dynamics import default_xi_grid, propagate
from tlab.envelope import f_of_xi, f_tilde
from tlab.forms import DIM, ETA, U, V, hermitian_part
from tlab.identities import IdentityEntry
from tlab.lyapunov import (
    CertificateSearchError, DecayCertificate, UnstableCaseError, case_name, certify,
    functional_form, functional_recipe, select_lambdas,
)
from tlab.model import (
    Coupling, Damping, ModeState, SystemConfig, Tau, assemble_generator,
    hermitian_energy,
)
from tlab.suite import standard_suite, unstable_reference

from conftest import random_state

CERT_GRID = None  # default grid inside certify()


@pytest.fixture(scope="module")
def suite_certificates():
    return {name: certify(cfg) for name, cfg in standard_suite().items()}


class TestParameterSelection:
    def test_all_cases_feasible(self):
        for cfg in standard_suite().values():
            params = select_lambdas(cfg)
            assert params.epsilon > 0
            assert params.case == case_name(cfg)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableCaseError):
            select_lambdas(unstable_reference())

    def test_case_names(self):
        suite = standard_suite()
        assert case_name(suite["tau1-type3-first"]) == "case1"
        assert case_name(suite["tau2-type3-zero"]) == "case2z"
        assert case_name(suite["tau3-frictional-first"]) == "case3"
        assert case_name(suite["tau3-type3-zero"]) == "case3z"


class TestRecipeDrift:
    """The weighted identity combination must reproduce the functional drift:
    Herm(A* F + F A) = xi^q * sum_i w_i R_i, entry by entry."""

    @pytest.mark.parametrize("name", sorted(n for n in standard_suite()
                                            if "tau3" not in n or "zero" not in n))
    def test_drift_equals_weighted_rhs(self, name):
        cfg = standard_suite()[name]
        params = select_lambdas(cfg)
        for xi in (0.3, 1.0, 2.7):
            recipe, q = functional_recipe(cfg, params, xi)
            a = assemble_generator(cfg, xi).a
            f = np.zeros((DIM, DIM), dtype=complex)
            r = np.zeros((DIM, DIM), dtype=complex)
            for w, entry_name in recipe:
                entry = _ids.get(entry_name)
                f += w * entry.w_matrix(cfg, xi)
                r += w * entry.r_matrix(cfg, xi)
            drift = hermitian_part(a.conj().T @ f + f @ a)
            scale = 1.0 + np.linalg.norm(r)
            assert np.linalg.norm(drift - r) <= 1e-10 * scale
            assert q == (2 + 2 * cfg.epsilon0 if params.case == "case1"
                         else 2 * cfg.epsilon0)

    @pytest.mark.parametrize("name", sorted(n for n in standard_suite()
                                            if "tau3" not in n or "zero" not in n))
    def test_drift_confined_to_damped_row(self, name):
        """Off the eta row/column the combined drift must be diagonal and
        negative semi-definite for small xi (the cancellation property)."""
        cfg = standard_suite()[name]
        params = select_lambdas(cfg)
        for xi in (0.5, 1.5):
            recipe, _ = functional_recipe(cfg, params, xi)
            r = np.zeros((DIM, DIM), dtype=complex)
            for w, entry_name in recipe:
                r += w * _ids.get(entry_name).r_matrix(cfg, xi)
            off = r.copy()
            off[ETA, :] = 0.0
            off[:, ETA] = 0.0
            np.fill_diagonal(off, 0.0)
            assert np.linalg.norm(off) <= 1e-9 * (1.0 + np.linalg.norm(r))
            diag = np.real(np.diag(r))
            assert all(diag[i] < 0 for i in range(DIM) if i != ETA)


class TestEnergyEquivalence:
    def test_functional_between_c3_and_c4(self, suite_certificates, rng):
        for name, cfg in standard_suite().items():
            cert = suite_certificates[name]
            h = hermitian_energy(cfg)
            for xi in (0.05, 0.7, 3.0, 40.0):
                form = functional_form(cfg, cert.params, xi, cert.big_lambda)
                for _ in range(10):
                    s = random_state(rng)
                    e = h(s)
                    val = form(s)
                    assert cert.c3 * e <= val + 1e-9 * e
                    assert val <= cert.c4 * e + 1e-9 * e


class TestCertificates:
    def test_all_fourteen_certify(self, suite_certificates):
        assert len(suite_certificates) == 14
        for name, cert in suite_certificates.items():
            assert 0 < cert.c <= 1.0
            assert cert.c3 > 0
            assert cert.c4 >= cert.c3
            assert cert.c_tilde >= 1.0
            assert cert.max_eig_margin <= 1e-6

    def test_unstable_rejected(self):
        with pytest.raises(UnstableCaseError):
            certify(unstable_reference())

    def test_pointwise_bound_sound(self, suite_certificates, rng):
        """|Uhat(t)|^2 <= c_tilde e^{-c f(xi) t} |Uhat(0)|^2 on random samples."""
        violations = 0
        for name, cfg in standard_suite().items():
            cert = suite_certificates[name]
            for _ in range(20):
                xi = float(10.0 ** rng.uniform(-1.5, 1.5))
                t = float(rng.uniform(0.0, 20.0))
                s0 = random_state(rng)
                s1 = propagate(cfg, xi, ModeState(values=s0, xi=xi), t)
                bound = cert.c_tilde * math.exp(-cert.c * f_of_xi(cfg, xi) * t)
                if s1.norm_sq > bound * (1.0 + 1e-9):
                    violations += 1
        assert violations == 0

    def test_matches_per_xi_assembly(self, suite_certificates):
        """The stacked drift and equivalence bounds agree with assembling
        A(xi) and the functional's matrix one frequency at a time."""
        grid = default_xi_grid()[1:]
        for name, cfg in standard_suite().items():
            cert = suite_certificates[name]
            h = hermitian_energy(cfg).matrix
            hinv_sqrt = np.diag(1.0 / np.sqrt(np.real(np.diag(h))))
            margins, gen = [], []
            for xi in grid:
                a = assemble_generator(cfg, xi).a
                m = functional_form(cfg, cert.params, xi, cert.big_lambda).matrix
                drift = hermitian_part(a.conj().T @ m + m @ a) + cert.c1 * f_of_xi(cfg, xi) * h
                margins.append(np.linalg.eigvalsh(drift)[-1])
                gen.append(np.linalg.eigvalsh(hinv_sqrt @ m @ hinv_sqrt)[[0, -1]])
            gen = np.array(gen)
            scale = np.linalg.norm(h, 2)
            assert max(margins) == pytest.approx(cert.max_eig_margin, abs=1e-10 * scale), name
            assert gen[:, 0].min() == pytest.approx(cert.c3, rel=1e-12), name
            assert gen[:, 1].max() == pytest.approx(cert.c4, rel=1e-12), name

    def test_closer_failure_names_xi(self, monkeypatch):
        """A cross term no closer can cancel, at one grid frequency, stops the
        stacked closer solve with an error naming that frequency."""
        cfg = standard_suite()["tau3-type3-first"]
        grid = default_xi_grid(include_zero=False)
        bad_xi = grid[300]
        r_matrix = IdentityEntry.r_matrix

        def broken(entry, cfg, xi):
            r = r_matrix(entry, cfg, xi)
            if entry.name == "equp123":
                r[..., V, U] += np.where(np.asarray(xi) == bad_xi, 1.0, 0.0)
            return r

        monkeypatch.setattr(IdentityEntry, "r_matrix", broken)
        with pytest.raises(CertificateSearchError, match=re.escape(f"at xi={bad_xi}")):
            certify(cfg, grid)

    def test_as_dict_fields(self, suite_certificates):
        d = suite_certificates["tau1-type3-first"].as_dict()
        assert set(d) == {"case", "lambda_params", "big_lambda", "c", "c_tilde",
                          "c3", "c4", "worst_xi", "max_eig_margin"}


class TestSwapSymmetry:
    def test_case3z_matches_swapped_case2z(self):
        """The tau3 zero-order functional is the tau2 zero-order functional
        of the k2 <-> k3 swapped system, conjugated by the component swap."""
        cfg3 = SystemConfig(k1=1.0, k2=1.3, k3=0.8, k4=1.1, k5=0.9, gamma=1.2,
                            tau=Tau.TAU3, damping=Damping.TYPE_III,
                            coupling=Coupling.ZERO_ORDER)
        cfg2 = SystemConfig(k1=1.0, k2=0.8, k3=1.3, k4=1.1, k5=0.9, gamma=1.2,
                            tau=Tau.TAU2, damping=Damping.TYPE_III,
                            coupling=Coupling.ZERO_ORDER)
        swap = np.eye(DIM)[[0, 1, 4, 5, 2, 3, 6, 7]]
        a3 = assemble_generator(cfg3, 1.7).a
        a2 = assemble_generator(cfg2, 1.7).a
        assert np.allclose(swap @ a2 @ swap, a3)
        p3 = select_lambdas(cfg3)
        lam = 4.0
        m3 = functional_form(cfg3, p3, 1.7, lam).matrix
        # the functional itself must have the same drift-negativity property
        drift = hermitian_part(a3.conj().T @ m3 + m3 @ a3)
        h = hermitian_energy(cfg3).matrix
        c = 1e-3 * f_of_xi(cfg3, 1.7)
        assert np.linalg.eigvalsh(drift + c * h).max() <= 1e-6

    def test_case3z_certifies(self):
        cfg = standard_suite()["tau3-type3-zero"]
        cert = certify(cfg)
        assert cert.case == "case3z"
        assert cert.c > 0


class TestEnvelopeDivision:
    def test_functional_uses_f_tilde(self):
        cfg = standard_suite()["tau2-type3-first"]
        params = select_lambdas(cfg)
        xi = 2.0
        lam = 3.0
        h = hermitian_energy(cfg).matrix
        m = functional_form(cfg, params, xi, lam).matrix
        recipe, q = functional_recipe(cfg, params, xi)
        f = np.zeros((DIM, DIM), dtype=complex)
        for w, name in recipe:
            f += w * _ids.get(name).w_matrix(cfg, xi)
        expected = lam * h + hermitian_part(xi ** q * f) / f_tilde(cfg, xi)
        assert np.allclose(m, expected)
