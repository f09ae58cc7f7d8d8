import math
from fractions import Fraction

import numpy as np
import pytest

from tlab.dynamics import default_xi_grid
from tlab.envelope import (
    HighBranch, UnstableCaseError, envelope_cell, f_of_xi, f_tilde,
    high_freq_sup_bound, low_freq_integral_bound, piecewise_lower_bound,
    predict_rates, regularity_loss,
)
from tlab.model import Coupling, Damping, SystemConfig, Tau
from tlab.suite import standard_suite, unstable_reference


def _cells():
    """Expected (p, m) for every stable cell of the classification."""
    return {
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


class TestEnvelopeCells:
    def test_cell_table(self):
        suite = standard_suite()
        for name, expected in _cells().items():
            assert envelope_cell(suite[name]) == expected, name

    def test_exponential_cells_are_exactly_the_equal_speed_first_type3(self):
        suite = standard_suite()
        expo = {name for name, cfg in suite.items()
                if not regularity_loss(cfg)}
        assert expo == {"tau2-type3-first-eq", "tau3-type3-first-eq"}

    def test_unstable_has_no_cell(self):
        with pytest.raises(UnstableCaseError):
            envelope_cell(unstable_reference())

    def test_consistency_invariant(self):
        """In every cell p <= 2m, with equality exactly for the exponential
        cells; zero-order coupling lowers p by 2; frictional damping lowers
        p by 2 relative to type III in the same placement."""
        suite = standard_suite()
        for name, cfg in suite.items():
            p, m = envelope_cell(cfg)
            assert p <= 2 * m
            assert (p == 2 * m) == (not regularity_loss(cfg))
            assert p == (4 if cfg.tau is Tau.TAU1
                         else 4 if cfg.coupling is Coupling.FIRST_ORDER
                         else 2) + 2 * cfg.epsilon0


class TestEnvelopeFunction:
    def test_f_tilde_polynomial(self):
        cfg = standard_suite()["tau1-type3-first"]
        # m = 4: 1 + xi^2 + xi^4 + xi^6 + xi^8
        assert f_tilde(cfg, 2.0) == pytest.approx(1 + 4 + 16 + 64 + 256)

    def test_array_matches_scalar_calls(self):
        """f and f_tilde over the certify grid equal each scalar call, bit for bit."""
        grid = default_xi_grid(include_zero=False)
        for cfg in standard_suite().values():
            for fn in (f_of_xi, f_tilde):
                values = fn(cfg, grid)
                assert values.shape == grid.shape
                assert np.array_equal(values, [fn(cfg, float(x)) for x in grid])

    def test_piecewise_lower_bound_holds(self):
        for cfg in standard_suite().values():
            for xi in np.concatenate([np.linspace(1e-3, 1.0, 40),
                                      np.logspace(0.0, 2.0, 40)]):
                assert f_of_xi(cfg, float(xi)) >= piecewise_lower_bound(
                    cfg, float(xi)) * (1.0 - 1e-12)

    def test_low_and_high_asymptotes(self):
        cfg = standard_suite()["tau2-type3-zero"]  # p=4, m=5
        assert f_of_xi(cfg, 1e-4) == pytest.approx(1e-16, rel=1e-6)
        # high frequency: f ~ xi^{p-2m} = xi^{-6}
        assert f_of_xi(cfg, 1e3) == pytest.approx(1e-18, rel=1e-5)


class TestRatePredictions:
    def test_low_exponents(self):
        suite = standard_suite()
        assert predict_rates(suite["tau1-type3-first"], 0, 1).low_exponent \
            == Fraction(1, 12)
        assert predict_rates(suite["tau2-type3-zero"], 0, 1).low_exponent \
            == Fraction(1, 8)
        assert predict_rates(suite["tau2-frictional-zero"], 1, 0).low_exponent \
            == Fraction(3, 4)

    def test_high_branches(self):
        suite = standard_suite()
        pred = predict_rates(suite["tau2-type3-first-eq"], 0, 1)
        assert pred.high_branch is HighBranch.EXPONENTIAL
        assert pred.high_exponent is None
        pred = predict_rates(suite["tau1-type3-first"], 0, 2)
        assert pred.high_branch is HighBranch.POLYNOMIAL
        assert pred.high_exponent == Fraction(2, 2)  # ell/(2m-p) = 2/2

    def test_unstable_prediction(self):
        pred = predict_rates(unstable_reference(), 0, 1)
        assert not pred.stable
        assert pred.low_exponent is None

    def test_invalid_derivative_orders(self):
        cfg = standard_suite()["tau1-type3-first"]
        with pytest.raises(ValueError):
            predict_rates(cfg, -1, 0)

    def test_as_dict_rationals_are_strings(self):
        d = predict_rates(standard_suite()["tau1-type3-first"], 0, 1).as_dict()
        assert d["low_exponent"] == "1/12"


class TestAuxiliaryBounds:
    def test_low_freq_sweep(self, rng):
        """50x30 sweep: the integral never exceeds its claimed bound."""
        for _ in range(50):
            r1 = float(rng.uniform(0.0, 6.0))
            r2 = float(rng.uniform(0.5, 8.0))
            r3 = float(rng.uniform(0.05, 3.0))
            for t in np.logspace(-2, 5, 30):
                out = low_freq_integral_bound(r1, r2, r3, float(t))
                assert out["integral"] <= out["bound"] * (1.0 + 1e-8)

    def test_high_freq_sweep(self, rng):
        for _ in range(50):
            s1 = float(rng.uniform(0.2, 6.0))
            s2 = float(rng.uniform(0.05, 3.0))
            s3 = float(rng.uniform(0.5, 8.0))
            for t in np.logspace(-2, 5, 30):
                out = high_freq_sup_bound(s1, s2, s3, float(t))
                assert out["sup"] <= out["bound"] * (1.0 + 1e-10)

    def test_low_freq_instantiations(self):
        """The exponent triples used by the decay theorem's low branch."""
        c = 0.4
        for j in range(4):
            for t in (0.0, 1.0, 100.0, 1e4):
                out = low_freq_integral_bound(2 * j, 6.0, c / 5.0, t)
                assert out["integral"] <= out["bound"] * (1.0 + 1e-8)
                # decay exponent (r1+1)/r2 = (2j+1)/6
                expected = (2 * j + 1) / 6.0
                if t >= 100.0:
                    ratio = out["integral"] / (1.0 + t) ** (-expected)
                    assert ratio <= out["constant"] * (1.0 + 1e-8)

    def test_high_freq_instantiations(self):
        c = 0.4
        for ell in range(4):
            if ell == 0:
                continue  # s1 > 0 required
            for t in (0.0, 1.0, 100.0, 1e4):
                out = high_freq_sup_bound(2 * ell, c / 5.0, 2.0, t)
                assert out["sup"] <= out["bound"] * (1.0 + 1e-10)

    @pytest.mark.parametrize("r1,r2,r3,t", [
        # points of the seed-707 sweep in criterion 7
        (3.7982324901711824, 4.9320694929384095, 1.4748949548842019, 0.01),
        (4.471938652370451, 7.710634566331137, 2.042418020777115, 32903.44562312671),
        (2.3878394966091845, 5.842244872069097, 2.521874019292519, 1e5),
    ])
    def test_low_freq_closed_form_matches_mpmath(self, r1, r2, r3, t):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            # split where the integrand turns from x^r1 growth to decay
            knee = min(0.5, float((r3 * t) ** (-1.0 / r2)))
            want = mpmath.quad(lambda x: x ** r1 * mpmath.exp(-r3 * t * x ** r2),
                               [0, knee, 1])
        got = low_freq_integral_bound(r1, r2, r3, t)["integral"]
        assert got == pytest.approx(float(want), rel=1e-13, abs=0.0)

    def test_low_freq_at_time_zero(self):
        out = low_freq_integral_bound(2.0, 6.0, 0.08, 0.0)
        assert out["integral"] == 1.0 / 3.0
        assert out["constant"] == pytest.approx(
            max(2.0 ** 0.5 / 3.0, 2.0 ** 0.5 / (6.0 * 0.08 ** 0.5) * math.gamma(0.5)))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            low_freq_integral_bound(-1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            high_freq_sup_bound(0.0, 1.0, 1.0, 0.0)
