import numpy as np
import pytest

from tlab.forms import hermitian_from_terms
from tlab.identities import (
    CaseMismatchError, catalog, entries_for, get, identity_residual,
)
from tlab.model import Coupling, Tau
from tlab.suite import standard_suite

from conftest import random_config

RESIDUAL_TOL = 1e-12
DRAWS_PER_ENTRY = 100


def _configs_for(entry, rng):
    """Random configurations in the entry's validity case."""
    return random_config(rng, tau=entry.tau, coupling=entry.coupling)


class TestCatalog:
    def test_catalog_size(self):
        assert len(catalog()) == 47

    def test_every_entry_clean_over_random_draws(self, rng):
        for entry in catalog().values():
            worst = 0.0
            for _ in range(DRAWS_PER_ENTRY):
                cfg = _configs_for(entry, rng)
                xi = float(rng.uniform(0.1, 3.0))
                worst = max(worst, identity_residual(entry, cfg, xi))
            assert worst <= RESIDUAL_TOL, f"{entry.name}: residual {worst}"

    def test_entries_for_partitions_by_case(self, rng):
        for cfg in standard_suite().values():
            entries = entries_for(cfg)
            assert entries, "every case must have applicable identities"
            for e in entries:
                assert e.applies_to(cfg)

    def test_case_guard(self, rng):
        first_only = [e for e in catalog().values()
                      if e.coupling is Coupling.FIRST_ORDER]
        cfg = random_config(rng, coupling=Coupling.ZERO_ORDER)
        with pytest.raises(CaseMismatchError):
            first_only[0].w_matrix(cfg, 1.0)

    def test_matrices_stack_over_xi(self, rng):
        """On an array of xi, W and R are the stack of the scalar calls, bit for bit."""
        xis = rng.uniform(0.1, 3.0, size=5)
        for entry in catalog().values():
            cfg = _configs_for(entry, rng)
            for matrix in (entry.w_matrix, entry.r_matrix):
                stacked = matrix(cfg, xis)
                assert stacked.shape == (5, 8, 8)
                assert np.array_equal(stacked, [matrix(cfg, float(x)) for x in xis]), \
                    entry.name

    def test_w_is_single_monomial(self, rng):
        for entry in catalog().values():
            cfg = _configs_for(entry, rng)
            terms = entry.w_terms(cfg, 1.3)
            assert len(list(terms)) == 1


class TestMutationSensitivity:
    def test_flipped_sign_is_detected(self, rng):
        """Flipping the sign of the largest right-hand-side term of any
        entry must push the residual far above the passing tolerance."""
        for entry in catalog().values():
            cfg = _configs_for(entry, rng)
            xi = float(rng.uniform(0.5, 2.0))
            terms = list(entry.r_terms(cfg, xi))
            mags = [abs(c) for c, _, _ in terms]
            k = int(np.argmax(mags))
            mutated = [(-c, a, b) if i == k else (c, a, b)
                       for i, (c, a, b) in enumerate(terms)]
            from tlab.model import assemble_generator
            a_mat = assemble_generator(cfg, xi).a
            w = entry.w_matrix(cfg, xi)
            r_bad = hermitian_from_terms(mutated)
            drift = a_mat.conj().T @ w + w @ a_mat
            drift = 0.5 * (drift + drift.conj().T)
            resid = float(np.linalg.norm(drift - r_bad)
                          / (1.0 + np.linalg.norm(r_bad)))
            assert resid > 1e-3, f"{entry.name}: mutation not detected ({resid})"

    def test_perturbed_coefficient_is_detected(self, rng):
        entry = get("eq31")
        cfg = random_config(rng, coupling=Coupling.FIRST_ORDER)
        xi = 1.2
        terms = list(entry.r_terms(cfg, xi))
        mutated = [(c * 1.01, a, b) for c, a, b in terms]
        from tlab.model import assemble_generator
        a_mat = assemble_generator(cfg, xi).a
        w = entry.w_matrix(cfg, xi)
        drift = a_mat.conj().T @ w + w @ a_mat
        drift = 0.5 * (drift + drift.conj().T)
        resid = float(np.linalg.norm(drift - hermitian_from_terms(mutated)))
        assert resid > 1e-4


class TestSuiteResiduals:
    def test_standard_suite_all_entries(self, rng):
        xis = np.array([0.1, 1.0, 3.0, 10.0])
        for cfg in standard_suite().values():
            for entry in entries_for(cfg):
                residuals = identity_residual(entry, cfg, xis)
                assert residuals.shape == xis.shape
                assert np.all(residuals <= RESIDUAL_TOL)
                per_xi = [identity_residual(entry, cfg, float(xi)) for xi in xis]
                assert np.array_equal(residuals, per_xi), entry.name
