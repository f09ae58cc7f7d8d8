import json
from pathlib import Path

import numpy as np
import pytest

from tlab import fullline
from tlab.cli import main
from tlab.model import config_text
from tlab.suite import standard_suite, unstable_reference


@pytest.fixture
def stable_config(tmp_path):
    p = tmp_path / "stable.cfg"
    p.write_text(config_text(standard_suite()["tau1-type3-first"]))
    return p


@pytest.fixture
def unstable_config(tmp_path):
    p = tmp_path / "unstable.cfg"
    p.write_text(config_text(unstable_reference()))
    return p


def _fast(extra=()):
    return ["--xi-per-decade", "10", "--times", "12"] + list(extra)


class TestExitCodes:
    def test_missing_config_is_usage_error(self, tmp_path):
        assert main(["identities", "--config", str(tmp_path / "none.cfg"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_malformed_config_is_usage_error(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("k1 = 1\nbogus = 2\n")
        assert main(["identities", "--config", str(p),
                     "--out", str(tmp_path / "o")]) == 2

    def test_bad_flag_values(self, stable_config, tmp_path):
        assert main(["identities", "--config", str(stable_config),
                     "--out", str(tmp_path / "o"), "--times", "1"]) == 2

    def test_unknown_subcommand(self, stable_config, tmp_path):
        assert main(["frobnicate", "--config", str(stable_config),
                     "--out", str(tmp_path / "o")]) == 2

    def test_verification_failure_is_exit_one(self, unstable_config, tmp_path):
        # certify refuses the non-decaying configuration
        assert main(["certify", "--config", str(unstable_config),
                     "--out", str(tmp_path / "o")] + _fast()) == 1

    def test_numerical_failure_is_exit_three(self, stable_config, tmp_path, monkeypatch,
                                             capsys):
        def fail(*args, **kwargs):
            raise fullline.QuadratureError("error 1e-3 vs value 1e-2 at t=2154.4")

        monkeypatch.setattr(fullline, "decay_series", fail)
        assert main(["decay", "--config", str(stable_config),
                     "--out", str(tmp_path / "o")] + _fast()) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")
        assert err.count("\n") == 1

    def test_spectrum_scan_unstable_exit_zero(self, unstable_config, tmp_path):
        # the scan itself succeeds: instability is expected there, not a failure
        code = main(["spectrum-scan", "--config", str(unstable_config),
                     "--out", str(tmp_path / "o")] + _fast())
        assert code == 0
        summary = json.loads((tmp_path / "o" / "spectrum_summary.json").read_text())
        assert summary["expected_stable"] is False


    def test_spectrum_scan_eigensolver_failure_is_exit_three(self, stable_config, tmp_path,
                                                             monkeypatch, capsys):
        real_eig = np.linalg.eig

        def perturbed(b):
            w, v = real_eig(b)
            w = w.astype(complex)
            w[3, 2] += 1e-3 * (1.0 + abs(w[3, 2]))
            return w, v

        monkeypatch.setattr(np.linalg, "eig", perturbed)
        assert main(["spectrum-scan", "--config", str(stable_config),
                     "--out", str(tmp_path / "o")] + _fast()) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: backward error")
        assert err.count("\n") == 1


# a stable tau3 zero-order type-III config whose spectral abscissa near
# xi = 98.9 is about -1.8e-12, close to eigensolver roundoff
SCAN_ROUNDOFF = """\
k1 = 0.760879
k2 = 1.517054
k3 = 0.728807
k4 = 0.973145
k5 = 1.790744
gamma = 1.253842
tau = 3
damping = type3
coupling = zero
"""


class TestArtifacts:
    def test_spectrum_scan_resolves_small_stable_abscissa(self, tmp_path):
        cfg = tmp_path / "roundoff.cfg"
        cfg.write_text(SCAN_ROUNDOFF)
        out = tmp_path / "o"
        assert main(["spectrum-scan", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "spectrum_summary.json").read_text())
        assert summary["stable_scan"] is True
        assert summary["max_abscissa_nonzero_xi"] < 0.0


    def test_identities_pass(self, stable_config, tmp_path):
        out = tmp_path / "o"
        assert main(["identities", "--config", str(stable_config),
                     "--out", str(out)]) == 0
        payload = json.loads((out / "identities.json").read_text())
        assert payload["pass"] is True
        assert payload["max_residual"] <= 1e-12

    def test_certify_fields(self, stable_config, tmp_path):
        out = tmp_path / "o"
        assert main(["certify", "--config", str(stable_config),
                     "--out", str(out)] + _fast()) == 0
        payload = json.loads((out / "certificate.json").read_text())
        assert payload["case"] == "case1"
        assert payload["variant"] == "type3-first"
        assert 0 < payload["c"] <= 1.0
        assert payload["c3"] > 0
        assert set(payload) >= {"case", "variant", "lambda_params", "big_lambda",
                                "c", "c_tilde", "c3", "c4", "worst_xi",
                                "max_eig_margin"}

    def test_predict_fields(self, stable_config, tmp_path):
        out = tmp_path / "o"
        assert main(["predict", "--config", str(stable_config),
                     "--out", str(out), "--j", "0", "--ell", "1"]) == 0
        payload = json.loads((out / "prediction.json").read_text())
        assert payload["low_exponent"] == "1/12"
        assert payload["high_branch"] == "polynomial"

    def test_simulate_mode_csv(self, stable_config, tmp_path):
        out = tmp_path / "o"
        assert main(["simulate-mode", "--config", str(stable_config),
                     "--out", str(out), "--times", "12"]) == 0
        lines = (out / "mode.csv").read_text().splitlines()
        assert lines[0] == "t,norm,energy"
        assert len(lines) == 13

    def test_spectrum_scan_csv_header(self, stable_config, tmp_path):
        out = tmp_path / "o"
        assert main(["spectrum-scan", "--config", str(stable_config),
                     "--out", str(out)] + _fast()) == 0
        header = (out / "spectrum.csv").read_text().splitlines()[0]
        assert header.startswith("xi,re1,im1,re2,im2")
        assert header.endswith("re8,im8,abscissa")

    @pytest.mark.parametrize("name", ["tau2-type3-first-eq", "tau3-type3-first-eq"])
    def test_report_equal_speed_cells_pass(self, name, tmp_path):
        """report reaches decay's horizon, past the exponential branch's transient."""
        cfg = tmp_path / "eq.cfg"
        cfg.write_text(config_text(standard_suite()[name]))
        out = tmp_path / "o"
        # the default 31 times: the tail fit needs 8 points past the transient
        assert main(["report", "--config", str(cfg), "--out", str(out),
                     "--xi-per-decade", "10"]) == 0
        assert json.loads((out / "report.json").read_text())["decay"]["pass"] is True

    def test_report_unstable_witness(self, unstable_config, tmp_path):
        out = tmp_path / "o"
        assert main(["report", "--config", str(unstable_config),
                     "--out", str(out)] + _fast()) == 0
        payload = json.loads((out / "report.json").read_text())
        inst = payload["instability"]
        assert abs(inst["norm_ratio_t100"] - 1.0) <= 1e-6
        assert abs(abs(inst["eigenvalue_im"]) - inst["expected_im"]) <= 1e-8


class TestDeterminism:
    def _run_twice(self, subcommand, config, tmp_path, extra=()):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main([subcommand, "--config", str(config),
                         "--out", str(out)] + _fast(extra)) == 0
            outs.append(out)
        return outs

    @pytest.mark.parametrize("subcommand,files", [
        ("identities", ["identities.json"]),
        ("certify", ["certificate.json"]),
        ("predict", ["prediction.json"]),
        ("simulate-mode", ["mode.csv", "mode_summary.json"]),
        ("spectrum-scan", ["spectrum.csv", "spectrum_summary.json"]),
    ])
    def test_byte_identical_reruns(self, subcommand, files, stable_config, tmp_path):
        a, b = self._run_twice(subcommand, stable_config, tmp_path)
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes()
