"""Spans around each tlab module's public entry points, for the traced run.

Entry points are wrapped from outside by rebinding module and class
attributes (every binding site of a function, since modules import some
names directly); nothing under src/ changes.  Spans (name, start, end,
parent) are kept in compact arrays and written when the run ends.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import math
import time
import warnings
from array import array
from collections import Counter
from pathlib import Path

import numpy as np
import scipy.integrate
import scipy.linalg

from tlab import cli, dynamics, envelope, fullline, identities, lyapunov, model

_clock = time.perf_counter

ENVELOPE_ENTRY_POINTS = ("envelope_cell", "f_tilde", "f_of_xi", "piecewise_lower_bound",
                         "regularity_loss", "predict_rates", "low_freq_integral_bound",
                         "high_freq_sup_bound")
TLAB_MODULES = (model, dynamics, envelope, fullline, identities, lyapunov)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._open = Counter()          # open spans per name
        self.counters: Counter = Counter()
        self.max_rel_err = 0.0
        self._norm_quad: list[list[float]] = []   # [value, error] per open norm
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(math.nan)
        self._stack.append(sid)
        self._open[name] += 1
        self.start.append(_clock())
        return sid

    def close(self, sid: int, name: str) -> None:
        self.end[sid] = _clock()
        self._stack.pop()
        self._open[name] -= 1

    def span(self, fn, name: str, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                res = fn(*args, **kwargs)
            except Exception as exc:
                self.counters[f"{name}:{type(exc).__name__}"] += 1
                raise
            finally:
                self.close(sid, name)
            if on_result is not None:
                on_result(res)
            return res
        return wrapper

    # -- installation ------------------------------------------------------
    def _rebind(self, owner: object, attr: str, new: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        self._rebind(cli, "main", self.span(cli.main, "cli"))
        assemble = model.assemble_generator
        for mod in TLAB_MODULES:
            if getattr(mod, "assemble_generator", None) is assemble:
                wrapped = self.span(assemble, "model.assemble")
                if mod is fullline:
                    wrapped = self._counting(wrapped, "fullline.integrand_evals")
                self._rebind(mod, "assemble_generator", wrapped)
        self._rebind(fullline, "sobolev_norm_sq", self._norm(fullline.sobolev_norm_sq))
        self._rebind(fullline.InitialDatum, "fourier",
                     self.span(fullline.InitialDatum.fourier, "fullline.fourier"))
        for attr in ("sobolev_norm_sq", "l1_norm"):
            self._rebind(fullline.InitialDatum, attr,
                         self.span(getattr(fullline.InitialDatum, attr), "fullline.datum_norm"))
        self._rebind(scipy.linalg, "expm", self._expm(scipy.linalg.expm))
        self._rebind(scipy.integrate, "quad", self._quad(scipy.integrate.quad))
        self._rebind(lyapunov, "certify", self.span(lyapunov.certify, "lyapunov.certify",
                                                    self._doublings))
        for attr in ("w_matrix", "r_matrix"):
            self._rebind(identities.IdentityEntry, attr,
                         self.span(getattr(identities.IdentityEntry, attr), "identities.matrix"))
        self._rebind(identities, "identity_residual",
                     self.span(identities.identity_residual, "identities.residual"))
        self._rebind(dynamics, "spectrum", self.span(dynamics.spectrum, "dynamics.spectrum"))
        self._rebind(dynamics, "propagate", self.span(dynamics.propagate, "dynamics.propagate"))
        for attr in ENVELOPE_ENTRY_POINTS:
            self._rebind(envelope, attr, self.span(getattr(envelope, attr), "envelope"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _counting(self, fn, counter: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _doublings(self, cert) -> None:
        self.counters["lyapunov.lambda_doublings"] += round(math.log2(cert.big_lambda))

    def _expm(self, fn):
        inside = self.span(fn, "fullline.expm")
        outside = self.span(fn, "linalg.expm")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._open["fullline.norm"]:
                return inside(*args, **kwargs)
            return outside(*args, **kwargs)
        return wrapper

    def _norm(self, fn):
        spanned = self.span(fn, "fullline.norm")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._norm_quad.append([0.0, 0.0])
            try:
                return spanned(*args, **kwargs)
            finally:
                value, error = self._norm_quad.pop()
                if value != 0.0:
                    self.max_rel_err = max(self.max_rel_err, error / abs(value))
        return wrapper

    def _quad(self, fn):
        """Record quad's value and error estimate, and its warnings, inside norms."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._open["fullline.norm"]:
                return fn(*args, **kwargs)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                res = fn(*args, **kwargs)
            for w in caught:
                if issubclass(w.category, scipy.integrate.IntegrationWarning):
                    self.counters["fullline.quad_warnings"] += 1
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            acc = self._norm_quad[-1]
            acc[0] += res[0]
            acc[1] += res[1]
            return res
        return wrapper

    # -- summary -----------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start": np.frombuffer(self.start), "end": np.frombuffer(self.end)}

    def by_name(self) -> dict[str, dict]:
        """calls, total (outermost spans of the name) and self seconds per name."""
        a = self.arrays()
        nid, parent = a["name_id"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        nested = np.zeros(dur.size, dtype=bool)
        nested[has_parent] = nid[parent[has_parent]] == nid[has_parent]
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid[~nested], weights=dur[~nested], minlength=k)
        self_s = np.bincount(nid, weights=own, minlength=k)
        return {name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


RATIOS = ("fullline.evals_per_norm", "fullline.max_rel_err")


def layer_unit(name: str) -> str:
    """The unit BENCHMARK.json gives a per-layer metric."""
    if name in RATIOS:
        return "ratio"
    if name == "cli.artifact_bytes":
        return "bytes"
    return "s" if name.endswith(("_s", ".s")) else "count"


def layer_metrics(tracer: Tracer, artifact_bytes: int) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, from one traced pass."""
    stats = tracer.by_name()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def get(name: str) -> dict:
        return stats.get(name, zero)

    norm = get("fullline.norm")
    evals = tracer.counters["fullline.integrand_evals"]
    return {
        "model.assemble_calls": get("model.assemble")["calls"],
        "model.assemble_s": get("model.assemble")["s"],
        "fullline.integrand_evals": evals,
        "fullline.evals_per_norm": evals / norm["calls"] if norm["calls"] else 0.0,
        "fullline.expm_calls": get("fullline.expm")["calls"],
        "fullline.expm_s": get("fullline.expm")["s"],
        "fullline.fourier_calls": get("fullline.fourier")["calls"],
        "fullline.fourier_s": get("fullline.fourier")["s"],
        "fullline.norm_calls": norm["calls"],
        "fullline.norm_s": norm["s"],
        "fullline.norm_self_s": norm["self_s"],
        "fullline.quad_warnings": tracer.counters["fullline.quad_warnings"],
        "fullline.quad_errors": tracer.counters["fullline.norm:QuadratureError"],
        "fullline.max_rel_err": tracer.max_rel_err,
        "lyapunov.certify_calls": get("lyapunov.certify")["calls"],
        "lyapunov.certify_s": get("lyapunov.certify")["s"],
        "lyapunov.certify_self_s": get("lyapunov.certify")["self_s"],
        "lyapunov.lambda_doublings": tracer.counters["lyapunov.lambda_doublings"],
        "identities.matrix_calls": get("identities.matrix")["calls"],
        "identities.matrix_s": get("identities.matrix")["s"],
        "identities.residual_calls": get("identities.residual")["calls"],
        "identities.residual_s": get("identities.residual")["s"],
        "dynamics.spectrum_calls": get("dynamics.spectrum")["calls"],
        "dynamics.spectrum_s": get("dynamics.spectrum")["s"],
        "dynamics.propagate_calls": get("dynamics.propagate")["calls"],
        "dynamics.propagate_s": get("dynamics.propagate")["s"],
        "envelope.calls": get("envelope")["calls"],
        "envelope.s": get("envelope")["s"],
        "cli.calls": get("cli")["calls"],
        "cli.self_s": get("cli")["self_s"],
        "cli.artifact_bytes": artifact_bytes,
    }
