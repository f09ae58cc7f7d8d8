import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tlab import fullline, model
from tlab.forms import ETA, SIGMA, THETA, U, Y
from tlab.model import (
    ConfigError, Coupling, Damping, SystemConfig, Tau,
    assemble_generator, config_text, dissipation_rate, energy_generator_batch, energy_sqrt,
    generator_batch, hermitian_energy, parse_config_text, real_generator_batch, real_similarity,
)
from tlab.dynamics import default_xi_grid
from tlab.suite import standard_suite

from conftest import covering_configs, random_config, random_state


def _cfg(**kw):
    base = dict(k1=1.0, k2=1.0, k3=2.0, k4=1.0, k5=1.0, gamma=1.0,
                tau=Tau.TAU1, damping=Damping.TYPE_III,
                coupling=Coupling.FIRST_ORDER)
    base.update(kw)
    return SystemConfig(**base)


class TestConfigValidation:
    def test_positive_coefficients_required(self):
        for key in ("k1", "k2", "k3", "k4", "k5"):
            with pytest.raises(ConfigError):
                _cfg(**{key: 0.0})
            with pytest.raises(ConfigError):
                _cfg(**{key: -1.0})

    def test_gamma_nonzero(self):
        with pytest.raises(ConfigError):
            _cfg(gamma=0.0)

    def test_chi_and_stability(self):
        assert _cfg(k2=1.0, k3=2.0).chi == 1.0
        assert _cfg(k2=1.0, k3=2.0).stable
        assert not _cfg(k2=1.5, k3=1.5).stable
        # near-equal within tolerance counts as chi = 0
        assert not _cfg(k2=1.0, k3=1.0 + 1e-14).stable
        # other thermal placements are always stable
        assert _cfg(k2=1.5, k3=1.5, tau=Tau.TAU2).stable
        assert _cfg(k2=1.5, k3=1.5, tau=Tau.TAU3).stable

    def test_equal_speeds(self):
        assert _cfg(k1=1.0, k2=1.0, k3=1.0).equal_speeds
        assert not _cfg(k1=1.0, k2=1.0, k3=1.0 + 1e-6).equal_speeds
        assert _cfg(k1=2.0, k2=2.0, k3=2.0 + 1e-13).equal_speeds

    def test_alpha_bounds(self):
        cfg = _cfg(k1=0.5, k2=3.0)
        assert cfg.alpha1 == 0.25
        assert cfg.alpha2 == 1.5


class TestConfigParsing:
    def test_round_trip(self, rng):
        for _ in range(20):
            cfg = random_config(rng)
            assert parse_config_text(config_text(cfg)) == cfg

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config_text("k1 = 1\nk2 = 1\nwhat = 7\n")

    def test_duplicate_key(self):
        text = config_text(_cfg()) + "\nk1 = 2.0\n"
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(text)

    def test_missing_key(self):
        with pytest.raises(ConfigError, match="k5"):
            parse_config_text("k1=1\nk2=1\nk3=2\nk4=1\ngamma=1\n"
                              "tau=1\ndamping=type3\ncoupling=first\n")

    def test_comments_and_blanks_ignored(self):
        text = "# comment\n\n" + config_text(_cfg())
        assert parse_config_text(text) == _cfg()


class TestGenerator:
    def test_matches_componentwise_rhs(self, rng):
        for _ in range(60):
            cfg = random_config(rng)
            xi = float(rng.uniform(-3.0, 3.0))
            s = random_state(rng)
            lhs = assemble_generator(cfg, xi).a @ s
            rhs = oracles.mode_rhs(cfg, xi, s)
            assert np.allclose(lhs, rhs, rtol=0, atol=1e-13)

    def test_eta_row_example(self):
        cfg = _cfg()
        a = assemble_generator(cfg, 1.0).a
        expected = np.array([0, -1j, 0, 0, 0, 0, 1j, -1.0])
        assert np.allclose(a[7], expected)

    def test_decomposition_consistent(self, rng):
        cfg = random_config(rng)
        xi = 1.7
        gm = assemble_generator(cfg, xi)
        recombined = -(-xi ** 2 * gm.a2 + 1j * xi * gm.a1 + gm.a0)
        assert np.allclose(gm.a, recombined)

    def test_batch_matches_pointwise(self, rng):
        for _ in range(20):
            cfg = random_config(rng)
            xi = np.concatenate(([0.0], rng.uniform(-5.0, 5.0, size=7)))
            batch = generator_batch(cfg, xi)
            assert batch.shape == (8, 8, 8)
            for x, a in zip(xi, batch):
                assert np.array_equal(a, assemble_generator(cfg, float(x)).a)

    def test_real_similarity(self, rng):
        """S^-1 A(xi) S is real for every placement, damping and coupling."""
        for tau in Tau:
            for damping in Damping:
                for coupling in Coupling:
                    cfg = random_config(rng, tau=tau, damping=damping, coupling=coupling)
                    s = real_similarity(cfg)
                    assert np.all(np.isin(s, (1.0, 1j)))
                    a = generator_batch(cfg, rng.uniform(-5.0, 5.0, size=5))
                    similar = a * s[None, :] / s[:, None]
                    assert np.all(similar.imag == 0.0)


    def test_real_batch_is_bitwise_the_complex_expression(self):
        """real_generator_batch builds B from real coefficients, and its bytes
        are those of (S^-1 A S).real from generator_batch, signed zeros
        included: eig at xi = 0 sees the sign of a zero."""
        grids = (default_xi_grid(), np.geomspace(1e-6, 1e6, 97))
        for cfg in [*standard_suite().values(), *covering_configs(np.random.default_rng(74), 3)]:
            s = real_similarity(cfg)
            for xi in grids:
                want = (generator_batch(cfg, xi) * (s[None, :] / s[:, None])).real
                got = real_generator_batch(cfg, xi)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)
                assert got.tobytes() == want.tobytes()

    def test_generator_data_built_once_per_config(self):
        """The per-config coefficients, similarity and energy scaling are built
        once and read-only, and the three batches built from them are bitwise
        those of an uncached build, on the 14 cells and covering_configs."""
        xi = np.concatenate(([0.0, -0.0], np.geomspace(1e-6, 1e6, 25),
                             -np.geomspace(1e-3, 1e3, 7)))
        x = xi.reshape(-1, 1, 1)
        for cfg in [*standard_suite().values(), *covering_configs(np.random.default_rng(76), 1)]:
            a0, a1, a2 = model._generator_coefficients.__wrapped__(cfg)
            s = real_similarity.__wrapped__(cfg)
            h = energy_sqrt.__wrapped__(cfg)
            c1 = (1j * a1 * (s[None, :] / s[:, None])).real
            b = x ** 2 * a2 - x * c1 - a0
            for got, want in ((generator_batch(cfg, xi), x ** 2 * a2 - 1j * x * a1 - a0),
                              (real_generator_batch(cfg, xi), b),
                              (energy_generator_batch(cfg, xi), b * (h[:, None] / h))):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), cfg
            shared = (*model._generator_coefficients(cfg), *model._real_coefficients(cfg),
                      real_similarity(cfg), energy_sqrt(cfg))
            assert model._generator_coefficients(cfg)[0] is shared[0]
            assert real_similarity(cfg) is shared[-2] and energy_sqrt(cfg) is shared[-1]
            for arr in shared:
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 1.0

    def test_energy_generator_is_parity_symmetric_and_damped_on_eta(self):
        """The facts the eigen kernel relies on: P Bt is symmetric for the
        parity P = -1 on (u, y, theta, sigma), and Bt + Bt^T = -2 d E_eta with
        d = k5 xi^(2 eps0), each within 4 eps max|Bt|, on the 14 cells and
        covering_configs at 400 frequencies."""
        xi = np.concatenate(([0.0], np.geomspace(1e-4, 1e4, 399)))
        parity = np.ones(8)
        parity[[U, Y, THETA, SIGMA]] = -1.0
        assert np.array_equal(fullline._PARITY, parity)
        for cfg in [*standard_suite().values(), *covering_configs(np.random.default_rng(75), 2)]:
            b = energy_generator_batch(cfg, xi)
            tol = 4.0 * np.finfo(float).eps * np.abs(b).max(axis=(1, 2))[:, None, None]
            pb = parity[:, None] * b
            assert np.all(np.abs(pb - pb.transpose(0, 2, 1)) <= tol), cfg
            damping = np.zeros_like(b)
            damping[:, ETA, ETA] = -2.0 * cfg.k5 * xi ** (2 * cfg.epsilon0)
            assert np.all(np.abs(b + b.transpose(0, 2, 1) - damping) <= tol), cfg


class TestEnergy:
    def test_energy_matches_oracle(self, rng):
        for _ in range(30):
            cfg = random_config(rng)
            s = random_state(rng)
            h = hermitian_energy(cfg)
            assert h(s) == pytest.approx(oracles.energy(cfg, s), rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           xi=st.floats(-5.0, 5.0, allow_nan=False))
    def test_dissipation_identity(self, seed, xi):
        """Lie derivative of the energy is exactly the damping term."""
        rng = np.random.default_rng(seed)
        cfg = random_config(rng)
        s = random_state(rng)
        a = assemble_generator(cfg, xi).a
        h = hermitian_energy(cfg).matrix
        drift = a.conj().T @ h + h @ a
        lie = oracles.quadratic_form(drift, s)
        expected = dissipation_rate(cfg, xi, s)
        scale = max(abs(expected), 1.0)
        assert abs(lie - expected) <= 1e-12 * scale

    def test_conserved_at_zero_frequency_type3(self, rng):
        cfg = random_config(rng, damping=Damping.TYPE_III)
        s = random_state(rng)
        assert dissipation_rate(cfg, 0.0, s) == 0.0

    def test_damped_at_zero_frequency_frictional(self, rng):
        cfg = random_config(rng, damping=Damping.FRICTIONAL)
        s = np.zeros(8, complex)
        s[7] = 1.0
        assert dissipation_rate(cfg, 0.0, s) == pytest.approx(-cfg.k5)


def test_one_eig_call():
    """dynamics.eigen_batch holds the package's only np.linalg.eig call: every
    spectrum, the non-decay witness and the whole-line norms share it."""
    calls = []
    for path in sorted(Path(model.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.linalg.eig",
                                                                        "numpy.linalg.eig"):
                calls.append(path.name)
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                assert "eig" not in [a.name for a in node.names], path.name
    assert calls == ["dynamics.py"]


def test_only_dynamics_imports_threads():
    """dynamics.eigen_batch's pool is the package's one: no other module of
    tlab imports concurrent.futures or threading, in any form."""
    importers = set()
    for path in sorted(Path(model.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
            else:
                continue
            if any(n == m or n.startswith(m + ".")
                   for n in names for m in ("threading", "concurrent.futures")):
                importers.add(path.name)
    assert importers == {"dynamics.py"}


def test_no_module_imports_scipy_linalg():
    """model.expm is the package's only matrix exponential: no module of
    tlab imports scipy.linalg, in any form."""
    for path in sorted(Path(model.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
            else:
                continue
            assert not [n for n in names if n == "scipy.linalg" or n.startswith("scipy.linalg.")
                        ], (path.name, names)
