"""Run one op in-process and account for it without ever aborting the run.

An op is one verdict-producing call: a `tlab.cli.main([...])` subcommand, or
a norms triple (`fullline.decay_series` plus the datum's `sobolev_norm_sq`
and `l1_norm`).  Any exception an op raises is recorded by class, and every
IntegrationWarning it emits is counted.

Host speed: on a shared machine the same code runs up to ~1.5x slower for
stretches of seconds to minutes.  A fixed probe (numpy/scipy and plain
Python, no tlab code) is timed between ops, at most every PROBE_EVERY
seconds, and each op's wall time is also reported in reference seconds:
wall * REF_PROBE_S / (median of the last three probes once the op is done).
"""

from __future__ import annotations

import contextlib
import io
import statistics
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.integrate
import scipy.linalg

from tlab import cli, fullline, model

REF_PROBE_S = 0.005   # probe time that defines one reference second
PROBE_EVERY = 0.25    # seconds of ops between probes
_PROBE_MATRIX = (np.arange(64).reshape(8, 8) % 7 - 3) * 0.3 + 0.1j * np.eye(8)


def probe() -> float:
    """Seconds for a fixed mix of small matrix exponentials and interpreted code."""
    start = time.perf_counter()
    for _ in range(150):
        scipy.linalg.expm(_PROBE_MATRIX)
    acc = 0
    for i in range(25000):
        acc += i * i % 7
    return time.perf_counter() - start


class SpeedProbe:
    """Probe samples taken between ops."""

    def __init__(self) -> None:
        self.samples = [probe()]
        self._at = time.perf_counter()

    def refresh(self, force: bool = False) -> float:
        """Probe if due (or forced); the current speed estimate, in probe seconds.

        The median of the last three probes, taken at least PROBE_EVERY
        apart, follows the host's slow and fast stretches, which last a
        second or more, but not a single outlying probe."""
        if force or time.perf_counter() - self._at >= PROBE_EVERY:
            self.samples.append(probe())
            self._at = time.perf_counter()
        return statistics.median(self.samples[-3:])


@dataclass
class OpResult:
    op: dict
    seconds: float
    out_dir: Path
    exit_code: int | None = None
    error: str | None = None        # exception class name, when the op raised
    error_detail: str = ""
    quad_warnings: int = 0
    ref_seconds: float | None = None   # wall seconds at the reference probe speed
    value: dict = field(default_factory=dict)  # norms ops: the computed numbers

    @property
    def ok(self) -> bool:
        """Completed with the expected exit code (norms ops: without raising)."""
        if self.error is not None:
            return False
        return self.op["kind"] == "norms" or self.exit_code == self.op["expect"]


def make_datum(profiles: list[dict]) -> fullline.InitialDatum:
    slots: list = [fullline.Zero()] * 8
    for p in profiles:
        if p["kind"] == "gaussian":
            slots[p["component"]] = fullline.Gaussian(p["amplitude"], p["width"])
        else:
            slots[p["component"]] = fullline.GaussianDerivative(
                p["order"], p["amplitude"], p["width"])
    return fullline.InitialDatum(profiles=tuple(slots))


def _norms(op: dict, config_path: Path) -> dict:
    cfg = model.load_config(config_path)
    datum = make_datum(op["datum"])
    series = fullline.decay_series(cfg, datum, op["times"], op["j"])
    return {"series": [[t, v] for t, v in series],
            "datum_norm_sq": datum.sobolev_norm_sq(op["j"]),
            "l1_norm": datum.l1_norm()}


def run_op(op: dict, config_path: Path, out_dir: Path) -> OpResult:
    """Time one op; the caller's tracer (if any) is already installed."""
    result = OpResult(op=op, seconds=0.0, out_dir=out_dir)
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            if op["kind"] == "cli":
                result.exit_code = cli.main([op["subcommand"], "--config", str(config_path),
                                             "--out", str(out_dir), *op["flags"]])
            else:
                result.value = _norms(op, config_path)
        except Exception as exc:  # the run goes on; the op counts as failed
            result.error = type(exc).__name__
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            result.error_detail = (f"{exc} ({Path(frame.filename).name}:{frame.lineno})")[:300]
        result.seconds = time.perf_counter() - start
    result.quad_warnings = sum(issubclass(w.category, scipy.integrate.IntegrationWarning)
                               for w in caught)
    if result.exit_code not in (None, 0) and not result.error_detail:
        result.error_detail = stderr.getvalue().strip()[:300]
    return result


def run_pass(pass_inputs: dict, pass_dir: Path, speed: SpeedProbe | None = None,
             tracer=None) -> list[OpResult]:
    """Run every op of a pass in order.

    The configs are already written under pass_dir/configs/; each op writes
    its artifacts under pass_dir/ops/<index>/.  With a speed probe, each
    result gets its reference seconds; with a tracer, the pass is the root span.
    """
    todo = [(op, pass_dir / "configs" / f"{op['config']}.txt", pass_dir / "ops" / str(i))
            for i, op in enumerate(pass_inputs["ops"])]
    root = tracer.open("bench.pass") if tracer else None
    results = []
    for n, (op, cfg_path, out) in enumerate(todo, start=1):
        res = run_op(op, cfg_path, out)
        if speed:
            res.ref_seconds = res.seconds * REF_PROBE_S / speed.refresh(force=n == len(todo))
        results.append(res)
    if tracer:
        tracer.close(root, "bench.pass")
    return results
