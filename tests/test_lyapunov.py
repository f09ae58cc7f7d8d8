import math

import numpy as np
import pytest

from tlab import identities as _ids
from tlab.dynamics import default_xi_grid, propagate
from tlab.envelope import f_of_xi, f_tilde
from tlab.forms import DIM, ETA, add_weighted_terms, hermitian_from_terms, hermitian_part
from tlab.lyapunov import (
    _SWAP, UnstableCaseError, _f_part_matrix,
    _tau2_image, case_name, certify, functional_form, functional_recipe, select_lambdas,
)
from tlab.model import (
    Coupling, Damping, SystemConfig, Tau, assemble_generator,
    generator_batch, hermitian_energy, parse_config_text, real_similarity,
)
from tlab.suite import standard_suite, unstable_reference

import oracles
from conftest import (
    SCAN_ROUNDOFF, TAU3_CELLS, covering_configs, random_config, random_state, recipe_cells,
)

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

    @pytest.mark.parametrize("name", sorted(recipe_cells()))
    def test_drift_equals_weighted_rhs(self, name):
        cfg = recipe_cells()[name]
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

    @pytest.mark.parametrize("name", sorted(recipe_cells()))
    def test_drift_confined_to_damped_row(self, name):
        """Off the eta row/column the combined drift must be diagonal and
        negative semi-definite for small xi (the cancellation property)."""
        cfg = recipe_cells()[name]
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
                s1 = propagate(cfg, xi, s0, [t])[0]
                bound = cert.c_tilde * math.exp(-cert.c * f_of_xi(cfg, xi) * t)
                if np.real(s1.conj() @ s1) > bound * (1.0 + 1e-9):
                    violations += 1
        assert violations == 0

    def test_matches_per_xi_assembly(self, suite_certificates):
        """The stacked drift and equivalence bounds agree with assembling
        A(xi) and the functional's matrix one frequency at a time; the
        margin is that of the H-scaled drift H^-1/2 (Q + c1 f H) H^-1/2."""
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
                margins.append(np.linalg.eigvalsh(hinv_sqrt @ drift @ hinv_sqrt, UPLO="U")[-1])
                gen.append(np.linalg.eigvalsh(hinv_sqrt @ m @ hinv_sqrt)[[0, -1]])
            gen = np.array(gen)
            assert cert.max_eig_margin <= 0.0, name
            assert max(margins) == pytest.approx(cert.max_eig_margin, abs=1e-10), name
            assert gen[:, 0].min() == pytest.approx(cert.c3, rel=1e-12), name
            assert gen[:, 1].max() == pytest.approx(cert.c4, rel=1e-12), name

    def test_as_dict_fields(self, suite_certificates):
        d = suite_certificates["tau1-type3-first"].as_dict()
        assert set(d) == {"case", "lambda_params", "big_lambda", "c", "c_tilde",
                          "c3", "c4", "worst_xi", "worst_on_edge", "max_eig_margin"}


def _search_cells() -> dict[str, SystemConfig]:
    """The suite cells, scan-roundoff, a graded config and seeded random configs.

    On the graded config the drift at xi ~ 93 is ~2e8 in the eta entry and
    ~1e-12 elsewhere; a lower-triangle eigvalsh of the scaled drift there is
    off by ~5e-8.
    """
    cells = dict(standard_suite())
    cells["scan-roundoff"] = parse_config_text(SCAN_ROUNDOFF)
    cells["graded"] = SystemConfig(
        k1=2.5994743688442696, k2=0.3087902992049112, k3=2.4221422211917996,
        k4=2.1020645838329948, k5=0.35134330214148696, gamma=0.4182313172418874,
        tau=Tau.TAU3, damping=Damping.TYPE_III, coupling=Coupling.ZERO_ORDER)
    rng = np.random.default_rng(4711)
    cells.update((f"random-{i}", random_config(rng)) for i in range(16))
    return cells


class TestRateThreshold:
    """certify() takes c1 from the closed-form threshold
    c*(xi) = -lambda_max(H^-1/2 Q H^-1/2)/f(xi), with no slack."""

    @pytest.mark.parametrize("name", sorted(_search_cells()))
    def test_matches_eigvalsh_bisection(self, name):
        """c1 holds at every grid xi by a Cholesky test one xi at a time, and
        the next 3-significant-digit rate fails at worst_xi."""
        cfg = _search_cells()[name]
        cert = certify(cfg)
        assert oracles.certificate_problems(cfg, cert) == []
        assert cert.max_eig_margin <= 0.0
        grid = default_xi_grid()[1:]
        assert cert.worst_on_edge == (cert.worst_xi in (grid[0], grid[-1]))

    def test_graded_drift_certifies(self):
        """A lower-triangle eigvalsh overstates the scaled drift at xi ~ 79-94
        here (3.0e-8 against a true -3.2e-9).  The upper-triangle threshold
        certifies; its c1 holds at every grid xi without slack, and the rate
        binds mid-grid."""
        cfg = SystemConfig(
            k1=1.8336329393646031, k2=2.213912764838688, k3=2.25057768325397,
            k4=1.5106375836082657, k5=2.0130910309772343, gamma=0.6885520981417247,
            tau=Tau.TAU1, damping=Damping.TYPE_III, coupling=Coupling.ZERO_ORDER)
        cert = certify(cfg)
        assert cert.c1 > 0.2
        assert 1.0 <= cert.worst_xi <= 1.2 and not cert.worst_on_edge
        assert cert.max_eig_margin <= 0.0
        assert oracles.certificate_problems(cfg, cert) == []

    def test_eigvalsh_calls(self, monkeypatch):
        """eigvalsh sees the whole grid once for the equivalence bounds and
        once more per lambda that a probe of a few rows fails to reject: at
        most 2 full-grid passes plus one per lambda the probe let through
        and the full pass rejected.  Every lambda with c3 = lambda +
        min gen_eigs > 0 is probed, and no other lambda reaches eigvalsh."""
        eigvalsh, calls = np.linalg.eigvalsh, []

        def counted(a, *args, **kwargs):
            eigs = eigvalsh(a, *args, **kwargs)
            # matrices seen, and whether c* = -lambda_max/f > 0 on every row
            calls.append((len(a), bool(np.all(eigs[:, -1] < 0))))
            return eigs

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        default, coarse = default_xi_grid()[1:], _coarse_grid()
        runs = [(name, cfg, default) for name, cfg in standard_suite().items()]
        runs += [("probe-miss", _probe_miss_config(), default)]
        runs += [(f"coarse-{i}", cfg, coarse) for i, cfg in enumerate(_coarse_configs())]
        skipped, suite_full, probe_rejects_after_full = 0, 0, 0
        for name, cfg, grid in runs:
            calls.clear()
            cert = certify(cfg, grid)
            gen_min = cert.c3 - cert.big_lambda
            tried = [2.0 ** k for k in range(round(math.log2(cert.big_lambda)) + 1)]
            with_c3 = sum(lam + gen_min > 0 for lam in tried)
            skipped += len(tried) - with_c3
            assert calls[0][0] == grid.size, name
            solves = calls[1:]
            probes = [ok for size, ok in solves if size < grid.size]
            assert len(probes) == with_c3, name
            assert all(size <= max(8, grid.size // 16 + 2) for size, _ in solves
                       if size < grid.size), name
            # a full pass follows exactly the probes that found no c* <= 0
            for prev, (size, _) in zip(solves, solves[1:]):
                assert (size == grid.size) == (prev[0] < grid.size and prev[1]), name
            full = 1 + sum(size == grid.size for size, _ in solves)
            let_through = sum(probes)
            assert full <= 2 + (let_through - 1), name
            assert solves[-1] == (grid.size, True), name
            if name in standard_suite():
                suite_full += full
            first_full = next(i for i, (size, _) in enumerate(solves) if size == grid.size)
            probe_rejects_after_full += sum(size < grid.size and not ok
                                            for size, ok in solves[first_full:])
        assert skipped > 0
        # on the suite the probe rejects every lambda short of the accepted one
        assert suite_full == 2 * len(standard_suite())
        # the rows of the last full pass rejected a lambda on their own
        assert probe_rejects_after_full > 0


def _coarse_grid() -> np.ndarray:
    """20 points per decade, where every 16th point misses the binding region
    and the probe of a rejected full pass does the rejecting."""
    return default_xi_grid(1e-2, 1e2, 20, include_zero=False)


def _coarse_configs() -> list[SystemConfig]:
    return covering_configs(np.random.default_rng(7), 1)


def _probe_miss_config() -> SystemConfig:
    """A config whose probe of every 16th grid point passes at a lambda that
    the full pass rejects; the next lambda is probed on the 8 rows of
    smallest c*."""
    return SystemConfig(
        k1=2.1203426741750704, k2=1.300978546030882, k3=0.4733724004484798,
        k4=1.7006958319627965, k5=2.3451417472319456, gamma=-0.6244249459324511,
        tau=Tau.TAU1, damping=Damping.FRICTIONAL, coupling=Coupling.ZERO_ORDER)


# (Lambda, c1, worst_xi) of each suite cell on the default grid
PINNED = {
    "tau1-frictional-first": (64.0, 0.196, 0.01),
    "tau1-frictional-zero": (16.0, 0.0476, 0.6683439175686146),
    "tau1-type3-first": (16.0, 0.204, 1.0),
    "tau1-type3-zero": (16.0, 0.26, 1.071519305237607),
    "tau2-frictional-first": (16.0, 0.681, 0.6456542290346556),
    "tau2-frictional-zero": (16.0, 0.669, 0.5754399373371569),
    "tau2-type3-first": (16.0, 0.916, 0.6683439175686146),
    "tau2-type3-first-eq": (16.0, 0.328, 0.6760829753919819),
    "tau2-type3-zero": (16.0, 0.963, 0.6237348354824191),
    "tau3-frictional-first": (32.0, 0.125, 0.5754399373371569),
    "tau3-frictional-zero": (32.0, 0.347, 0.588843655355589),
    "tau3-type3-first": (32.0, 0.746, 0.6382634861905486),
    "tau3-type3-first-eq": (16.0, 0.328, 0.6760829753919819),
    "tau3-type3-zero": (32.0, 0.967, 0.7244359600749902),
}


class TestRealForm:
    """certify() works on S^-1 (.) S, where every matrix it solves is real."""

    def test_functional_is_real_under_similarity(self):
        """Im(S^-1 G S) is exactly 0 for G = F/ftilde on the default grid."""
        grid = default_xi_grid()[1:]
        cells = [*standard_suite().values(),
                 *covering_configs(np.random.default_rng(315), 13)]
        assert len(cells) >= 314
        for cfg in cells:
            g = _f_part_matrix(cfg, select_lambdas(cfg), grid) / f_tilde(cfg, grid)[:, None, None]
            s = real_similarity(cfg)
            assert np.all((g * (s[None, :] / s[:, None])).imag == 0.0), cfg

    @staticmethod
    def _oracle_runs():
        cells = _search_cells()
        cells["probe-miss"] = _probe_miss_config()
        runs = [(name, cfg, None) for name, cfg in cells.items()]
        runs += [(f"covering-{i}", cfg, None)
                 for i, cfg in enumerate(covering_configs(np.random.default_rng(20), 1))]
        runs += [(f"coarse-{i}", cfg, _coarse_grid()) for i, cfg in enumerate(_coarse_configs())]
        return runs

    def test_matches_complex_oracle(self):
        """The real form with the probe-first search gives the certificate of
        the complex matrices with a full pass per lambda: the same lambda,
        c1 and binding point, and constants equal to roundoff."""
        for name, cfg, grid in self._oracle_runs():
            got, want = certify(cfg, grid), oracles.certify_complex(cfg, grid)
            for key in ("big_lambda", "c1", "worst_xi", "worst_on_edge", "case"):
                assert getattr(got, key) == getattr(want, key), (name, key)
            for key in ("c", "c3", "c4", "c_tilde"):
                assert getattr(got, key) == pytest.approx(getattr(want, key),
                                                          rel=1e-14, abs=0.0), (name, key)
            assert got.max_eig_margin <= 0.0, name
            assert got.max_eig_margin == pytest.approx(want.max_eig_margin, rel=1e-9), name

    def test_pinned_suite_certificates(self, suite_certificates):
        for name, cert in suite_certificates.items():
            assert (cert.big_lambda, cert.c1, cert.worst_xi) == PINNED[name], name


@pytest.mark.parametrize("name", sorted(standard_suite()))
def test_binding_threshold_matches_mpmath(name, suite_certificates):
    """At worst_xi, the double-precision threshold c* agrees with a 60-digit
    eighe of the same H-scaled drift matrix, and c1 is that c* rounded down
    to 3 significant digits."""
    mpmath = pytest.importorskip("mpmath")
    cfg, cert = standard_suite()[name], suite_certificates[name]
    xi = cert.worst_xi
    h = hermitian_energy(cfg).matrix
    s = 1.0 / np.sqrt(np.real(np.diag(h)))
    a = generator_batch(cfg, xi)[0]
    m = functional_form(cfg, cert.params, xi, cert.big_lambda).matrix
    q = s[:, None] * hermitian_part(a.conj().T @ m + m @ a) * s
    f = f_of_xi(cfg, xi)
    c_star = -np.linalg.eigvalsh(q, UPLO="U")[-1] / f
    with mpmath.workdps(60):
        eigs = mpmath.eighe(mpmath.matrix(q.tolist()), eigvals_only=True)
        exact = float(-max(eigs) / mpmath.mpf(float(f)))
    assert c_star == pytest.approx(exact, rel=1e-11), name
    step = 10.0 ** (math.floor(math.log10(cert.c1)) - 2)
    assert cert.c1 <= exact < cert.c1 + step * (1.0 + 1e-9), name


class TestDirectAssembly:
    """_f_part_matrix adds each identity's monomial into the running stack;
    the result is bitwise the dense sum of weighted hermitian_from_terms."""

    @staticmethod
    def _cells() -> dict[str, SystemConfig]:
        cells = dict(standard_suite())
        rng = np.random.default_rng(2718)
        while len(cells) < 34:
            cfg = random_config(rng)
            if cfg.stable:
                cells[f"random-{len(cells) - 14}"] = cfg
        return cells

    def test_weighted_terms_match_dense_stack(self, rng):
        """Diagonal monomials and several monomials on one slot, which the
        catalog W never has, still add bitwise as the dense stack does."""
        n = 50
        coeff = lambda: rng.normal(size=n) + 1j * rng.normal(size=n)  # noqa: E731
        terms = [(coeff(), 2, 2), (coeff(), 1, 5), (coeff(), 5, 1), (rng.normal(size=n), 1, 5),
                 (0.7 - 0.2j, 3, 3), (coeff(), 2, 2)]
        weight = rng.normal(size=n)
        start = rng.normal(size=(n, DIM, DIM)) + 1j * rng.normal(size=(n, DIM, DIM))
        got = start.copy()
        add_weighted_terms(got, terms, weight)
        want = start + weight[:, None, None] * hermitian_from_terms(terms, (n,))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("xi", [0.37, 61.0, "grid", "2d"])
    def test_bitwise_equal_to_dense_sum(self, xi):
        x = {"grid": default_xi_grid()[1:],
             "2d": np.array([[1e-4, 0.5], [7.3, 1e4]])}.get(xi, xi)
        for name, cfg in self._cells().items():
            params = select_lambdas(cfg)
            got = _f_part_matrix(cfg, params, x)
            want = oracles.f_part_dense(cfg, params, x)
            assert got.shape == want.shape == np.shape(x) + (DIM, DIM), name
            assert np.array_equal(got, want), name


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

    @pytest.mark.parametrize("coupling", list(Coupling))
    @pytest.mark.parametrize("damping", list(Damping))
    def test_tau3_is_swapped_tau2_image(self, coupling, damping):
        """Generator, energy, parameters and functional of a tau3 system are
        those of its tau2 image conjugated by the component swap, exactly."""
        cfg = SystemConfig(k1=1.0, k2=1.3, k3=0.8, k4=1.1, k5=0.9, gamma=-1.2,
                           tau=Tau.TAU3, damping=damping, coupling=coupling)
        image = _tau2_image(cfg)
        assert (image.tau, image.k2, image.k3) == (Tau.TAU2, cfg.k3, cfg.k2)
        grid = default_xi_grid()
        assert np.array_equal(generator_batch(cfg, grid),
                              _SWAP @ generator_batch(image, grid) @ _SWAP)
        assert np.array_equal(hermitian_energy(cfg).matrix,
                              _SWAP @ hermitian_energy(image).matrix @ _SWAP)
        params, image_params = select_lambdas(cfg), select_lambdas(image)
        assert params.case == case_name(cfg)
        assert image_params.case == case_name(image)
        assert params.as_dict() | {"case": None} == image_params.as_dict() | {"case": None}
        for xi in (0.01, 0.3, 1.0, 2.7, 64.0):
            m = functional_form(cfg, params, xi, 4.0).matrix
            m_image = functional_form(image, image_params, xi, 4.0).matrix
            assert np.array_equal(m, _SWAP @ m_image @ _SWAP), xi

    @pytest.mark.parametrize("name", TAU3_CELLS)
    def test_tau3_certificate_matches_image(self, name, suite_certificates):
        """A tau3 certificate carries the constants of its tau2 image's; the
        eigenvalue solves run on permuted stacks, so they agree to roundoff."""
        cert = suite_certificates[name]
        image_cert = certify(_tau2_image(standard_suite()[name]))
        assert cert.case == case_name(standard_suite()[name])
        for key in ("c", "c3", "c4", "c_tilde", "big_lambda"):
            assert getattr(cert, key) == pytest.approx(getattr(image_cert, key),
                                                       rel=1e-12, abs=0.0), key


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
