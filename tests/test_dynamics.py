import math

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

import oracles
from tlab.dynamics import (
    CaseMismatchError, EigensolverError, NoImaginaryEigenvalueError,
    characteristic_det_chi0, default_xi_grid, nondecay_witness, propagate,
    spectra, spectral_abscissa_scan, spectrum,
)
from tlab.model import ModeState, Tau, assemble_generator
from tlab.suite import standard_suite, unstable_reference

from conftest import random_config, random_state


class TestPropagate:
    def test_matches_reference_integrator(self, rng):
        for _ in range(8):
            cfg = random_config(rng)
            xi = float(rng.uniform(-2.0, 2.0))
            s0 = random_state(rng)
            t = float(rng.uniform(0.5, 5.0))
            got = propagate(cfg, xi, ModeState(values=s0, xi=xi), t).values
            want = oracles.integrate_mode(cfg, xi, s0, t)
            assert np.allclose(got, want, rtol=0, atol=1e-8)

    def test_zero_time_is_identity(self, rng):
        cfg = random_config(rng)
        s0 = random_state(rng)
        out = propagate(cfg, 1.3, ModeState(values=s0, xi=1.3), 0.0).values
        assert np.allclose(out, s0, atol=1e-15)

    def test_semigroup_property(self, rng):
        cfg = random_config(rng)
        xi = 0.7
        s0 = ModeState(values=random_state(rng), xi=xi)
        one = propagate(cfg, xi, propagate(cfg, xi, s0, 1.5), 2.5).values
        two = propagate(cfg, xi, s0, 4.0).values
        assert np.allclose(one, two, atol=1e-11)

    def test_rejects_bad_time(self, rng):
        cfg = random_config(rng)
        s0 = ModeState(values=random_state(rng), xi=1.0)
        with pytest.raises(ValueError):
            propagate(cfg, 1.0, s0, -1.0)
        with pytest.raises(ValueError):
            propagate(cfg, 1.0, s0, math.inf)


class TestSpectrum:
    def test_backward_error_small(self, rng):
        for _ in range(20):
            cfg = random_config(rng)
            xi = float(rng.uniform(0.0, 5.0))
            res = spectrum(cfg, xi)
            a = assemble_generator(cfg, xi).a
            # eigenvalues reproduce det(lam I - A) = 0 through the LU oracle
            scale = np.linalg.norm(a, 2) ** 8
            for lam in res.eigenvalues:
                assert abs(oracles.char_poly_det(a, lam)) <= 1e-8 * max(scale, 1.0)

    def test_sorted_and_abscissa(self, rng):
        cfg = random_config(rng)
        res = spectrum(cfg, 1.1)
        reals = res.eigenvalues.real
        assert np.all(np.diff(reals) >= -1e-15)
        assert res.abscissa == pytest.approx(reals.max())

    def test_stable_suite_has_negative_abscissa(self):
        for cfg in standard_suite().values():
            for xi in (0.1, 1.0, 10.0):
                assert spectrum(cfg, xi).abscissa < 0.0

    def test_unstable_reference_touches_axis(self):
        cfg = unstable_reference()
        res = spectrum(cfg, 1.0)
        assert res.nearest_imaginary_gap <= 1e-10
        close = res.eigenvalues[np.abs(res.eigenvalues.real)
                                == res.nearest_imaginary_gap]
        assert np.any(np.abs(np.abs(close.imag) - math.sqrt(cfg.k2)) < 1e-8)


class TestBatchedSpectra:
    def test_matches_pointwise_complex_eigvals(self):
        """Eigenvalue multisets agree with scipy's complex eigvals of A(xi)."""
        grid = default_xi_grid()
        cfgs = list(standard_suite().values()) + [unstable_reference()]
        worst = 0.0
        for cfg in cfgs:
            got = spectra(cfg, grid)
            assert got.shape == (grid.size, 8)
            for xi, row in zip(grid, got):
                want = scipy.linalg.eigvals(assemble_generator(cfg, xi).a)
                dist = np.abs(row[:, None] - want[None, :])
                rows, cols = scipy.optimize.linear_sum_assignment(dist)
                rel = dist[rows, cols] / np.maximum(1.0, np.abs(want[cols]))
                worst = max(worst, float(rel.max()))
        assert worst <= 1e-12

    def test_rows_sorted_with_conjugates_adjacent(self, rng):
        cfg = random_config(rng)
        eigs = spectra(cfg, [0.0, 0.5, 2.0, 40.0])
        for row in eigs:
            assert np.all(np.diff(row.real) >= 0.0)
            # a real matrix's conjugate pairs share their real part exactly,
            # and the negative imaginary part comes first
            for k in np.flatnonzero(row.imag < 0):
                assert row[k + 1] == np.conj(row[k])

    def test_backward_error_check_names_xi(self, rng, monkeypatch):
        cfg = random_config(rng)
        grid = np.array([0.1, 0.7, 3.0])
        real_eig = np.linalg.eig

        def perturbed(b):
            w, v = real_eig(b)
            w = w.astype(complex)
            w[1, 0] += 1e-3 * (1.0 + abs(w[1, 0]))
            return w, v

        monkeypatch.setattr(np.linalg, "eig", perturbed)
        with pytest.raises(EigensolverError, match="at xi=0.7"):
            spectra(cfg, grid)

    def test_rejects_bad_grid(self, rng):
        cfg = random_config(rng)
        with pytest.raises(ValueError):
            spectra(cfg, [])
        with pytest.raises(ValueError):
            spectra(cfg, [1.0, math.inf])


class TestScanAndGrid:
    def test_grid_shape(self):
        grid = default_xi_grid(1e-1, 1e1, 10)
        assert grid[0] == 0.0
        assert grid[1] == pytest.approx(1e-1)
        assert grid[-1] == pytest.approx(1e1)
        assert len(grid) == 22  # zero + 21 log-spaced points over 2 decades

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            default_xi_grid(1.0, 0.5)

    def test_scan_matches_pointwise(self, rng):
        cfg = random_config(rng)
        grid = [0.0, 0.3, 1.0, 3.0]
        scan = spectral_abscissa_scan(cfg, grid)
        assert [xi for xi, _ in scan] == grid
        for xi, absc in scan:
            assert absc == pytest.approx(spectrum(cfg, xi).abscissa)

    def test_scan_rejects_bad_grid(self, rng):
        cfg = random_config(rng)
        with pytest.raises(ValueError):
            spectral_abscissa_scan(cfg, [])
        with pytest.raises(ValueError):
            spectral_abscissa_scan(cfg, [0.0, math.nan])


class TestClosedFormDeterminant:
    def test_matches_lu_oracle(self, rng):
        for _ in range(25):
            base = random_config(rng, tau=Tau.TAU1)
            cfg = type(base)(k1=base.k1, k2=base.k2, k3=base.k2, k4=base.k4,
                             k5=base.k5, gamma=base.gamma, tau=base.tau,
                             damping=base.damping, coupling=base.coupling)
            xi = float(rng.uniform(0.1, 3.0))
            lam = complex(rng.normal(), rng.normal())
            a = assemble_generator(cfg, xi).a
            want = oracles.char_poly_det(a, lam)
            got = characteristic_det_chi0(cfg, xi, lam)
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    def test_roots_on_imaginary_axis(self, rng):
        cfg = unstable_reference()
        for xi in (0.5, 1.0, 2.0):
            lam = 1j * math.sqrt(cfg.k2) * xi
            scale = max(1.0, abs(characteristic_det_chi0(cfg, xi, 1.0 + 1.0j)))
            assert abs(characteristic_det_chi0(cfg, xi, lam)) <= 1e-9 * scale
        lam0 = 1j * math.sqrt(2.0 * cfg.k1)
        scale0 = max(1.0, abs(characteristic_det_chi0(cfg, 0.0, 1.0 + 1.0j)))
        assert abs(characteristic_det_chi0(cfg, 0.0, lam0)) <= 1e-9 * scale0

    def test_case_guard(self, rng):
        with pytest.raises(CaseMismatchError):
            characteristic_det_chi0(random_config(rng, tau=Tau.TAU2), 1.0, 1.0j)
        stable = standard_suite()["tau1-type3-first"]
        with pytest.raises(CaseMismatchError):
            characteristic_det_chi0(stable, 1.0, 1.0j)


class TestNondecayWitness:
    def test_unstable_mode_keeps_norm(self):
        cfg = unstable_reference()
        w = nondecay_witness(cfg, xi=1.0, t_final=100.0)
        assert abs(w["ratio"] - 1.0) <= 1e-6
        assert abs(w["eigenvalue"].real) <= 1e-10
        assert abs(abs(w["eigenvalue"].imag) - math.sqrt(cfg.k2)) <= 1e-8

    def test_stable_config_has_no_witness(self):
        cfg = standard_suite()["tau1-type3-first"]
        with pytest.raises(NoImaginaryEigenvalueError):
            nondecay_witness(cfg, xi=1.0, t_final=10.0)
