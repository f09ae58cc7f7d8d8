"""The tlab names the benchmark harness under perfbench/ reaches still exist.

perfbench/spans.py wraps entry points by rebinding module attributes, and
perfbench/checker.py rebuilds certificate matrices through
lyapunov.functional_form.  A src/ change that drops one of these names
would otherwise fail only in a traced benchmark run.  Nothing under
perfbench/ is changed here: the tracer is installed and uninstalled again.
"""

import importlib.util
from pathlib import Path

import numpy as np

from tlab import dynamics, lyapunov, model
from tlab.suite import standard_suite

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_names_resolve():
    """perfbench's tracer installs and uninstalls cleanly, and checker.py can
    rebuild M(xi) from a certificate's as_dict fields."""
    spans = _load_spans()
    before = {name: getattr(dynamics, name) for name in ("spectrum", "propagate")}
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert dynamics.propagate is not before["propagate"]
    finally:
        tracer.uninstall()
    assert all(getattr(dynamics, name) is fn for name, fn in before.items())

    cfg = standard_suite()["tau1-type3-first"]
    cert = lyapunov.certify(cfg, np.logspace(-2, 2, 41)).as_dict()
    params = lyapunov.LyapunovParams(**cert["lambda_params"])
    tlab_cfg = model.parse_config_text(model.config_text(cfg))
    m = lyapunov.functional_form(tlab_cfg, params, 1.0, cert["big_lambda"]).matrix
    assert m.shape == (8, 8)
    assert np.all(np.isfinite(m.view(float)))
