"""Output checker; runs after the timed passes, never inside them.

Four checks, each rejection naming the op it belongs to:

* verdict    -- no CLI op passes (exit 0) where the expected verdict is a
  failure; an op that exits non-zero or raises where a pass is expected is
  a failed op, counted in ok_share, but not an incorrect result;
* certificate -- each distinct certificate is sound by propagation at seeded
  (xi, t) with t ~ 1/(c f(xi)), where the exponential acts, and its drift
  inequality holds at a fixed and a seeded set of points of the grid it was
  certified on, with the program's own slack of 1e-8 |H| (off that grid the
  margin relative to the rate term c1 f |H| is only recorded: `tlab certify`
  checks its grid alone, and off it the inequality fails by up to ~1e-2 of
  the rate term on some cells);
* norm       -- a seeded sample of norms agrees with the reference rule at
  1e-5 relative (the error the program's own quadrature accepts);
* identical  -- a seeded sample of ops, run again, gives the same bytes.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import reference
from inputs import config_text
from tlab import lyapunov, model

NORM_RTOL = 1e-5
PROPAGATION_RTOL = 1e-6   # expm at t ~ 1e10 loses about t * eps * |A| digits
WITNESS_TOL = 1e-8        # slack on the drift inequality, times |H|
# the grid `tlab certify` certifies on with its default flags
CERTIFY_GRID = np.logspace(-2.0, 2.0, 801)


def check_certificate(cfg: dict, cert: dict,
                      rng: np.random.Generator) -> tuple[list[str], float]:
    """(problems, worst off-grid drift margin relative to c1 f |H|) of one
    certificate payload; no problems when it is sound."""
    problems = []
    c, c_tilde = cert["c"], cert["c_tilde"]
    if not (0.0 < c <= 1.0 and cert["c3"] > 0.0):
        return [f"constants out of range: c={c}, c3={cert['c3']}"], 0.0
    for xi in 10.0 ** rng.uniform(-2.0, 2.0, size=12):
        rate = c * float(reference.envelope_f(cfg, xi))
        t = float(rng.uniform(0.25, 4.0)) / rate
        lhs = reference.propagator_norm_sq(cfg, xi, t)
        bound = c_tilde * math.exp(-rate * t)
        if lhs > bound * (1.0 + PROPAGATION_RTOL):
            problems.append(f"|e^(At)|^2 = {lhs:.6e} > bound {bound:.6e} at xi={xi:.6g}, t={t:.6g}")

    h = reference.energy_matrix(cfg)
    h_norm = float(np.linalg.norm(h, 2))
    tol = WITNESS_TOL * h_norm * (1.0 + 1e-6)
    on_grid = np.concatenate((CERTIFY_GRID[::20], rng.choice(CERTIFY_GRID, size=20),
                              [cert["worst_xi"]]))
    for xi, top in zip(on_grid, _drift_margins(cfg, cert, on_grid)):
        if top > tol:
            problems.append(f"drift margin {top:.3e} > {tol:.3e} at xi={xi:.6g}")
            break
    off_grid = 10.0 ** rng.uniform(-2.0, 2.0, size=10)
    rate = c * cert["c4"] * reference.envelope_f(cfg, off_grid) * h_norm
    return problems, float(np.max(_drift_margins(cfg, cert, off_grid) / rate))


def _drift_margins(cfg: dict, cert: dict, xis: np.ndarray) -> np.ndarray:
    """Top eigenvalue of Herm(A* M + M A) + c1 f H, c1 = c * c4, at each xi, for
    the functional M(xi) the certificate names (its multiplier and parameters)."""
    params = lyapunov.LyapunovParams(**cert["lambda_params"])
    tlab_cfg = model.parse_config_text(config_text(cfg))
    h = reference.energy_matrix(cfg)
    c1 = cert["c"] * cert["c4"]
    tops = []
    for xi, a, f in zip(xis, reference.generator(cfg, xis), reference.envelope_f(cfg, xis)):
        m = lyapunov.functional_form(tlab_cfg, params, float(xi), cert["big_lambda"]).matrix
        drift = a.conj().T @ m + m @ a
        tops.append(float(np.linalg.eigvalsh(0.5 * (drift + drift.conj().T) + c1 * f * h)[-1]))
    return np.array(tops)


def norm_problems(cfg: dict, datum: list[dict], j: int, pairs: list[tuple[float, float]],
                  datum_norm_sq: float | None = None,
                  l1_norm: float | None = None) -> list[str]:
    """Compare (t, |d^j U(t)|) pairs and the datum's norms with the reference."""
    problems = []

    def compare(label: str, got_sq: float, want_sq: float) -> None:
        if not abs(got_sq - want_sq) <= NORM_RTOL * abs(want_sq):
            problems.append(f"{label}: {got_sq:.10e} vs reference {want_sq:.10e}")

    for t, norm in pairs:
        compare(f"|d^{j} U({t:g})|^2", norm * norm,
                reference.solution_norm_sq(cfg, datum, t, j))
    if datum_norm_sq is not None:
        compare(f"|d^{j} U0|^2", datum_norm_sq, reference.datum_sobolev_norm_sq(datum, j))
    if l1_norm is not None:
        compare("|U0|_L1", l1_norm, reference.datum_l1_norm(datum))
    return problems


def decay_rows(out_dir: Path, t_max: float) -> list[tuple[float, float]]:
    with open(out_dir / "decay.csv", newline="") as fh:
        rows = [(float(r["t"]), float(r["norm"])) for r in csv.DictReader(fh)]
    return [(t, n) for t, n in rows if t <= t_max]


def artifacts(out_dir: Path) -> dict[str, bytes]:
    return {p.relative_to(out_dir).as_posix(): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def check_run(passes: list[tuple[dict, list]], rng: np.random.Generator,
              norm_samples: int) -> tuple[list[dict], dict]:
    """Verdict, certificate and norm rejections over every pass, and the worst
    off-grid drift margin of each certificate that has a positive one."""
    rejections: list[dict] = []
    off_grid: dict[str, float] = {}

    def reject(op: dict, check: str, detail: str) -> None:
        rejections.append({"op": op["id"], "check": check, "detail": detail})

    seen_certs: set[bytes] = set()
    for inputs, results in passes:
        configs = inputs["configs"]
        for res in results:
            op = res.op
            if op["kind"] == "cli" and res.exit_code == 0 != op["expect"]:
                reject(op, "verdict", f"exit 0, expected {op['expect']}")
            if res.ok and op["kind"] == "cli" and op["subcommand"] == "certify" \
                    and op["expect"] == 0:
                blob = (res.out_dir / "certificate.json").read_bytes()
                if blob not in seen_certs:
                    seen_certs.add(blob)
                    problems, margin = check_certificate(configs[op["config"]],
                                                         json.loads(blob), rng)
                    for p in problems:
                        reject(op, "certificate", p)
                    if margin > 0.0:
                        off_grid[op["id"]] = margin
            if res.ok and op["kind"] == "cli" and op["subcommand"] == "decay":
                pairs = decay_rows(res.out_dir, 10.0)
                for p in norm_problems(configs[op["config"]], op["datum"], op["j"], pairs):
                    reject(op, "norm", p)
        norm_ops = [r for r in results if r.ok and r.op["kind"] == "norms"]
        for i in rng.permutation(len(norm_ops))[:norm_samples]:
            res = norm_ops[i]
            op = res.op
            for p in norm_problems(configs[op["config"]], op["datum"], op["j"],
                                   res.value["series"], res.value["datum_norm_sq"],
                                   res.value["l1_norm"]):
                reject(op, "norm", p)
    return rejections, off_grid


def identical_problems(first, second) -> list[str]:
    """Differences between two runs of the same op (files, or returned numbers)."""
    if first.op["kind"] == "norms":
        a, b = json.dumps(first.value), json.dumps(second.value)
        return [] if a == b else [f"values differ: {a[:120]} vs {b[:120]}"]
    if second.exit_code != first.exit_code or second.error != first.error:
        return [f"outcome differs: {first.exit_code}/{first.error} vs "
                f"{second.exit_code}/{second.error}"]
    a, b = artifacts(first.out_dir), artifacts(second.out_dir)
    if a.keys() != b.keys():
        return [f"files differ: {sorted(a)} vs {sorted(b)}"]
    return [f"{name} differs" for name in a if a[name] != b[name]]
