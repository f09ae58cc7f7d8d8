import math
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

import oracles
from tlab import dynamics, fullline
from tlab.dynamics import (
    CaseMismatchError, EigensolverError, NoImaginaryEigenvalueError,
    characteristic_det_chi0, default_xi_grid, nondecay_witness, propagate,
    spectra, spectrum,
)
from tlab.forms import V
from tlab.model import (
    Tau, assemble_generator, generator_batch, parse_config_text, real_generator_batch,
)
from tlab.suite import standard_suite, unstable_reference

from conftest import (
    SCAN_ROUNDOFF, covering_configs, random_config, random_state, scan_roundoff_config,
)


class TestPropagate:
    def test_matches_reference_integrator(self, rng):
        for _ in range(8):
            cfg = random_config(rng)
            xi = float(rng.uniform(-2.0, 2.0))
            s0 = random_state(rng)
            t = float(rng.uniform(0.5, 5.0))
            got = propagate(cfg, xi, s0, [t])[0]
            want = oracles.integrate_mode(cfg, xi, s0, t)
            assert np.allclose(got, want, rtol=0, atol=1e-8)

    def test_zero_time_is_identity(self, rng):
        cfg = random_config(rng)
        s0 = random_state(rng)
        out = propagate(cfg, 1.3, s0, [0.0])[0]
        assert np.allclose(out, s0, atol=1e-15)

    def test_semigroup_property(self, rng):
        cfg = random_config(rng)
        xi = 0.7
        s0 = random_state(rng)
        one = propagate(cfg, xi, propagate(cfg, xi, s0, [1.5])[0], [2.5])[0]
        two = propagate(cfg, xi, s0, [4.0])[0]
        assert np.allclose(one, two, atol=1e-11)

    @pytest.mark.parametrize("name", ["tau2-type3-zero", "tau3-type3-zero", "tau1-type3-first"])
    def test_long_time_matches_mpmath(self, name, rng):
        """At xi in {0, 1e-3} and t = 1e4 (|A t|_1 about 2e4): within 1e-11 of
        a 40-digit mpmath.expm of the complex A t applied to the state."""
        mpmath = pytest.importorskip("mpmath")
        cfg = standard_suite()[name]
        s0 = random_state(rng)
        for xi in (0.0, 1e-3):
            got = propagate(cfg, xi, s0, [1e4])[0]
            with mpmath.workdps(40):
                ref = mpmath.expm(mpmath.matrix(generator_batch(cfg, xi)[0].tolist()) * 10000)
                want = np.array((ref * mpmath.matrix(s0.tolist())).tolist(),
                                dtype=complex)[:, 0]
            err = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert err <= 1e-11, (xi, err)

    def test_rejects_bad_time(self, rng):
        cfg = random_config(rng)
        s0 = random_state(rng)
        with pytest.raises(ValueError):
            propagate(cfg, 1.0, s0, [-1.0])
        with pytest.raises(ValueError):
            propagate(cfg, 1.0, s0, [0.0, math.inf])
        with pytest.raises(ValueError):
            propagate(cfg, math.nan, s0, [1.0])


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

    @staticmethod
    def _count_svd(monkeypatch) -> list:
        svd, calls = np.linalg.svd, []

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        return calls

    def test_residual_between_frobenius_and_exact_limit_passes(self, monkeypatch):
        """A residual above 1e-10 |B|_F/sqrt(8) but below 1e-10 |B|_2 fails
        the cheap test, reaches the singular values and passes."""
        cfg = standard_suite()["tau1-type3-first"]
        grid = np.array([0.7, 3.0])
        b = real_generator_batch(cfg, grid)[1]
        cheap = 1e-10 * max(np.linalg.norm(b) / math.sqrt(8), 1.0)
        exact = 1e-10 * max(np.linalg.norm(b, 2), 1.0)
        assert exact > 1.5 * cheap
        shift = 0.5 * (cheap + exact)
        real_eig = np.linalg.eig

        def perturbed(m):
            w, v = real_eig(m)
            w = w.astype(complex)
            w[1, 0] += shift
            return w, v

        monkeypatch.setattr(np.linalg, "eig", perturbed)
        calls = self._count_svd(monkeypatch)
        eigs = spectra(cfg, grid)
        assert len(calls) == 1
        assert eigs.shape == (2, 8)

    @pytest.mark.parametrize("name", sorted(standard_suite()) + ["scan-roundoff", "unstable"])
    def test_clean_grid_takes_no_singular_values(self, name, monkeypatch):
        cells = {**standard_suite(), "scan-roundoff": parse_config_text(SCAN_ROUNDOFF),
                 "unstable": unstable_reference()}
        calls = self._count_svd(monkeypatch)
        spectra(cells[name], default_xi_grid())
        assert calls == []

    def test_rejects_bad_grid(self, rng):
        cfg = random_config(rng)
        with pytest.raises(ValueError):
            spectra(cfg, [])
        with pytest.raises(ValueError):
            spectra(cfg, [1.0, math.inf])

    @pytest.mark.parametrize("name", ["seed811-p3", "seed904-p3"])
    def test_small_abscissa_matches_mpmath(self, name):
        """Where eig's real part has the wrong sign (+8.1e-14 at xi = 91.2 on
        seed811-p3, +1.6e-13 at 95.5 on seed904-p3), the abscissa from the
        dissipation identity agrees with a 60-digit eig of the same matrix."""
        mpmath = pytest.importorskip("mpmath")
        cfg = scan_roundoff_config(name)
        grid = default_xi_grid()[[1, 401, 793, 797, -1]]  # 0.01, 1, 91.2, 95.5, 100
        got = spectra(cfg, grid).real.max(axis=1)
        for xi, absc, b in zip(grid, got, real_generator_batch(cfg, grid)):
            with mpmath.workdps(60):
                eigs = mpmath.eig(mpmath.matrix(b.tolist()), left=False, right=False)
                exact = float(max(mpmath.re(z) for z in eigs))
            assert absc == pytest.approx(exact, rel=1e-6), xi


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
        scan = spectra(cfg, grid).real.max(axis=1)
        assert scan.shape == (len(grid),)
        for xi, absc in zip(grid, scan):
            assert absc == pytest.approx(spectrum(cfg, xi).abscissa)

    def test_scan_rejects_bad_grid(self, rng):
        cfg = random_config(rng)
        with pytest.raises(ValueError):
            spectra(cfg, [])
        with pytest.raises(ValueError):
            spectra(cfg, [0.0, math.nan])


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

    def test_witness_is_a_neutral_entry_of_spectra(self):
        """The witness reads the neutral test of spectra: its eigenvalue is
        one of the entries spectra marks Re = 0."""
        cfg = unstable_reference()
        lam = nondecay_witness(cfg, xi=1.0, t_final=100.0)["eigenvalue"]
        eigs = spectra(cfg, [1.0])[0]
        assert lam.imag > 0
        assert lam in eigs[eigs.real == 0.0]

    @pytest.mark.parametrize("name", sorted(standard_suite()))
    def test_stable_config_has_no_witness(self, name):
        with pytest.raises(NoImaginaryEigenvalueError):
            nondecay_witness(standard_suite()[name], xi=1.0, t_final=10.0)


def _split_cells() -> list:
    return [*standard_suite().values(), *covering_configs(np.random.default_rng(29), 1)]


class TestSplitEigen:
    """eigen_batch splits a large stack into one chunk per usable CPU; each
    matrix stays its own LAPACK call, so every result is bitwise the
    single call's."""

    def _run(self, monkeypatch, cpus, floor, fn):
        with monkeypatch.context() as m:
            m.setattr(dynamics, "_CPUS", cpus)
            m.setattr(dynamics, "EIG_CHUNK_MIN", floor)
            return fn()

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_kernel_and_spectra_do_not_depend_on_the_split(self, cpus, monkeypatch):
        grid = default_xi_grid()
        for cfg in _split_cells():
            def kernel():
                return [*dynamics.eigen_batch(cfg, grid), spectra(cfg, grid)]
            one = self._run(monkeypatch, 1, dynamics.EIG_CHUNK_MIN, kernel)
            split = self._run(monkeypatch, cpus, 1, kernel)
            for a, b in zip(one, split):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), cfg

    def test_norms_do_not_depend_on_the_split(self, monkeypatch):
        """Values, errors and the node, eig and Levin counts, on a grid whose
        panels take both the expm and the eigen route."""
        datum = fullline.InitialDatum.component(V, fullline.Gaussian(1.0, 1.0))
        times = [0.0, 1.0, 10.0, 100.0]
        for cfg in _split_cells():
            def norms():
                return fullline.solution_norms_sq(cfg, datum, times, 0)
            one = self._run(monkeypatch, 1, dynamics.EIG_CHUNK_MIN, norms)
            split = self._run(monkeypatch, 2, 1, norms)
            assert one.eig > 0, cfg
            assert one.values.tobytes() == split.values.tobytes(), cfg
            assert one.errors.tobytes() == split.errors.tobytes(), cfg
            assert (one.nodes, one.eig, one.levin) == (split.nodes, split.eig, split.levin), cfg

    def test_failure_in_one_chunk_is_an_eigensolver_error(self, monkeypatch):
        cfg = standard_suite()["tau2-type3-first"]
        grid = default_xi_grid()
        target = dynamics.energy_generator_batch(cfg, grid[-1:])[0]
        real_eig, calls = np.linalg.eig, []

        def failing(b):
            calls.append(b.shape[0])
            if any(np.array_equal(m, target) for m in b):
                raise np.linalg.LinAlgError("injected")
            return real_eig(b)

        monkeypatch.setattr(np.linalg, "eig", failing)
        with monkeypatch.context() as m:
            m.setattr(dynamics, "_CPUS", 2)
            m.setattr(dynamics, "EIG_CHUNK_MIN", 1)
            with pytest.raises(EigensolverError, match="injected"):
                spectra(cfg, grid)
        assert sorted(calls) == [grid.size // 2, grid.size - grid.size // 2]

    @pytest.mark.parametrize("cpus, n", [(1, 802), (2, 2 * dynamics.EIG_CHUNK_MIN - 1)])
    def test_no_thread_without_a_split(self, cpus, n, monkeypatch):
        """One usable CPU, or a stack under the floor: one call, no pool."""
        monkeypatch.setattr(dynamics, "_POOL", None)
        monkeypatch.setattr(dynamics, "_CPUS", cpus)
        before = threading.active_count()
        spectra(standard_suite()["tau1-type3-first"], np.geomspace(1e-2, 1e2, n))
        assert dynamics._POOL is None
        assert threading.active_count() == before

    def test_concurrent_callers_share_one_pool(self, monkeypatch):
        """More calling threads than cores, with a short switch interval: the
        pool is built once and every caller gets the single call's result."""
        cfg = standard_suite()["tau3-type3-zero"]
        grid = default_xi_grid()
        want = self._run(monkeypatch, 1, dynamics.EIG_CHUNK_MIN, lambda: spectra(cfg, grid))
        monkeypatch.setattr(dynamics, "_POOL", None)
        monkeypatch.setattr(dynamics, "_CPUS", 2)
        monkeypatch.setattr(dynamics, "EIG_CHUNK_MIN", 1)
        built, pool = [], dynamics.concurrent.futures.ThreadPoolExecutor

        def counted(*args, **kwargs):
            built.append(1)
            return pool(*args, **kwargs)

        monkeypatch.setattr(dynamics.concurrent.futures, "ThreadPoolExecutor", counted)
        results = [None] * 8

        def call(k):
            results[k] = spectra(cfg, grid)

        threads = [threading.Thread(target=call, args=(k,)) for k in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            if dynamics._POOL is not None:
                dynamics._POOL.shutdown()
        assert not any(t.is_alive() for t in threads)
        assert built == [1]
        assert all(r is not None and r.tobytes() == want.tobytes() for r in results)
