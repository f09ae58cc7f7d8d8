"""Command-line front end.

Subcommands: simulate-mode, spectrum-scan, identities, certify, predict,
decay, report and suite.  Each reads one --config, except suite, which takes
none: it runs over the standard suite and writes each cell's config.  Exit
codes: 0 pass, 1 verification failure (a named criterion did not hold), 2
usage or configuration error, 3 numerical failure (quadrature, eigensolver
or certificate search could not reach its tolerance, a check's margin lies
below roundoff, or a computed quantity is not finite, so no verdict was
reached).  Outputs are deterministic: a fixed command line (config + flags +
seed) yields byte-identical CSV/JSON artifacts.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import numpy as np

from tlab import dynamics, envelope, fullline, identities, lyapunov, model, suite

# k3 values of the suite's scan across the k3 = k2 degeneracy of the
# unstable reference (k2 = 1)
K3_SCAN = (0.8, 0.95, 1.0, 1.05, 1.2)


def _fmt(x: float) -> str:
    """17 significant digits, enough to round-trip a double exactly."""
    return f"{float(x):.17g}"


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: str, rows: Sequence[Sequence[float]] | np.ndarray) -> None:
    """One line per row, each value as _fmt writes it: the whole table is one
    %-format over the flat tuple of its values (%g converts through float(),
    as _fmt does)."""
    table = np.asarray(rows, dtype=float)
    row_fmt = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    path.write_text(header + "\n" + (row_fmt * len(table)) % tuple(table.ravel().tolist()))


class VerificationFailure(RuntimeError):
    """A named acceptance check failed; maps to exit code 1."""


class RoundoffError(RuntimeError):
    """A check's margin lies below the roundoff of the computation it checks;
    maps to exit code 3."""


def _xi_grid(args: argparse.Namespace, include_zero: bool = True) -> np.ndarray:
    return dynamics.default_xi_grid(args.xi_min, args.xi_max, args.xi_per_decade,
                                    include_zero)


def _cmd_simulate_mode(cfg: model.SystemConfig, args: argparse.Namespace,
                       out: Path) -> dict:
    """Propagate a seeded random unit mode and check energy dissipation.

    An energy increase beyond the 1e-10 relative tolerance fails the check,
    unless it lies within the roundoff of the matrix exponential that
    produced it: then the check cannot be decided in double precision, and
    RoundoffError says so.  model.expm squares its Taylor block s times, and
    each squaring doubles the error it inherits and adds u, so the state at
    time t carries a relative error of about 2^(s+1) u, s from
    model.expm_squarings of the real generator at t.  An energy that is not
    finite (the generator or its exponential overflowed) decides nothing:
    FloatingPointError names xi and the first such time, and no artifact is
    written.
    """
    rng = np.random.default_rng(args.seed)
    xi = args.xi
    vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    vec /= np.linalg.norm(vec)
    times = np.linspace(0.0, 50.0, args.times)
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite energy fails below
        states = dynamics.propagate(cfg, xi, vec, times)
        conj = states.conj()[:, None, :]
        norms = np.sqrt(np.real(conj @ states[:, :, None]))[:, 0, 0]
        h = model.hermitian_energy(cfg).matrix
        energies = np.real(conj @ (h @ states[:, :, None]))[:, 0, 0]
    finite = np.isfinite(energies)
    if not finite.all():
        raise FloatingPointError(
            f"energy dissipation at xi={xi}: the mode energy is not finite at "
            f"t={times[np.argmin(finite)]:.6g} (the propagation overflowed)")
    _write_csv(out / "mode.csv", "t,norm,energy", np.column_stack([times, norms, energies]))
    monotone = bool(np.all(energies[1:] <= energies[:-1] * (1 + 1e-10)))
    summary = {"xi": xi, "initial_energy": float(energies[0]),
               "final_energy": float(energies[-1]), "energy_monotone": monotone}
    _write_json(out / "mode_summary.json", summary)
    if not monotone:
        squarings = model.expm_squarings(model.real_generator_batch(cfg, xi), times[1:])
        rise = [((b - e) / e, math.ldexp(np.finfo(float).eps, int(s)), t)   # 2^(s+1) u
                for e, b, t, s in zip(energies, energies[1:], times[1:], squarings)
                if b > e * (1 + 1e-10)]
        if all(r <= bound for r, bound, _ in rise):
            r, bound, t = max(rise)
            raise RoundoffError(
                f"energy dissipation at xi={xi}: relative energy increase {r:.3g} at t={t:.6g} "
                f"against the 1e-10 tolerance lies within the expm roundoff bound "
                f"2^(s+1) u = {bound:.3g}")
        raise VerificationFailure("energy dissipation: mode energy increased along the trajectory")
    return summary


def _cmd_spectrum_scan(cfg: model.SystemConfig, args: argparse.Namespace,
                       out: Path) -> dict:
    grid = _xi_grid(args)
    eigs = dynamics.spectra(cfg, grid)
    pairs = np.stack([eigs.real, eigs.imag], axis=2).reshape(grid.size, -1)
    abscissa = eigs.real.max(axis=1)
    header = "xi," + ",".join(f"re{i},im{i}" for i in range(1, 9)) + ",abscissa"
    _write_csv(out / "spectrum.csv", header, np.column_stack([grid, pairs, abscissa]))
    worst = float(abscissa[grid != 0.0].max())
    summary = {"max_abscissa_nonzero_xi": worst,
               "stable_scan": bool(worst < 0.0),
               "expected_stable": cfg.stable}
    _write_json(out / "spectrum_summary.json", summary)
    if cfg.stable and worst >= 0.0:
        raise VerificationFailure(
            f"stable-case spectral gap: abscissa {worst} >= 0 on the scan grid")
    return summary


def _cmd_identities(cfg: model.SystemConfig, args: argparse.Namespace,
                    out: Path) -> dict:
    rng = np.random.default_rng(args.seed)
    entries = identities.entries_for(cfg)
    report = {}
    worst = 0.0
    for entry in entries:
        residuals = identities.identity_residual(entry, cfg, rng.uniform(0.1, 3.0, size=25))
        report[entry.name] = float(residuals.max())
        worst = max(worst, report[entry.name])
    payload = {"entries": report, "max_residual": worst, "pass": bool(worst <= 1e-12)}
    _write_json(out / "identities.json", payload)
    if worst > 1e-12:
        raise VerificationFailure(
            f"identity catalog: max residual {worst} exceeds 1e-12")
    return payload


def _certificate_payload(cfg: model.SystemConfig, cert: lyapunov.DecayCertificate) -> dict:
    payload = cert.as_dict()
    payload["variant"] = f"{cfg.damping.value}-{cfg.coupling.value}"
    return payload


def _cmd_certify(cfg: model.SystemConfig, args: argparse.Namespace, out: Path) -> dict:
    if not cfg.stable:
        raise VerificationFailure(
            "certificate: configuration is in the unstable case (tau1, chi = 0)")
    grid = _xi_grid(args, include_zero=False)
    cert = lyapunov.certify(cfg, grid)
    payload = _certificate_payload(cfg, cert)
    _write_json(out / "certificate.json", payload)
    return payload


def _cmd_predict(cfg: model.SystemConfig, args: argparse.Namespace, out: Path) -> dict:
    pred = envelope.predict_rates(cfg, args.j, args.ell)
    payload = pred.as_dict()
    _write_json(out / "prediction.json", payload)
    return payload


def _default_datum() -> fullline.InitialDatum:
    return fullline.InitialDatum.component(
        model.V, fullline.Gaussian(amplitude=1.0, width=1.0))


def _write_diagnostics(out: Path, times: list[float], quad: fullline.NormQuadrature) -> None:
    """diagnostics.json: the whole-line quadrature's node count, how many of
    those nodes were eigendecomposed, its Levin system count, its frequency
    cutoff and the bound on the norm beyond it, and, per time, its error
    estimate for |d^j U(t)|_{L2}^2 (the bound included)."""
    _write_json(out / "diagnostics.json", {"quadrature": {
        "nodes": quad.nodes, "eig": quad.eig, "levin": quad.levin, "cutoff": quad.cutoff,
        "tail_bound": quad.tail_bound, "times": [float(t) for t in times],
        "errors": quad.errors.tolist()}})


def _cmd_decay(cfg: model.SystemConfig, args: argparse.Namespace, out: Path) -> dict:
    if not cfg.stable:
        raise VerificationFailure(
            "decay bound: configuration is in the unstable case (tau1, chi = 0)")
    times = fullline.default_times(args.times)
    datum = _default_datum()
    report = fullline.verify_theorem_bound(cfg, datum, args.j, args.ell,
                                           times=times)
    _write_csv(out / "decay.csv", "t,norm,envelope,ratio", report["rows"])
    summary = {
        "c0": report["c0"],
        "tail_slope": report["ratio_tail_slope"],
        "predicted_low": report["predicted_low"],
        "pass": report["pass"],
    }
    if "note" in report:
        summary["note"] = report["note"]
    _write_json(out / "decay_summary.json", summary)
    _write_diagnostics(out, times, report["quadrature"])
    if not report["pass"]:
        raise VerificationFailure(
            "decay bound: envelope ratio unbounded or growing on the tail")
    return summary


def _cmd_report(cfg: model.SystemConfig, args: argparse.Namespace, out: Path) -> dict:
    """Aggregate classification, certificate or instability evidence,
    rate prediction, and the decay verification for one configuration."""
    report: dict = {
        "classification": {
            "case": lyapunov.case_name(cfg),
            "chi": cfg.chi,
            "equal_speeds": cfg.equal_speeds,
            "stable": cfg.stable,
            "config": cfg.describe(),
        }
    }
    if not cfg.stable:
        witness = dynamics.nondecay_witness(cfg, xi=1.0, t_final=100.0)
        lam = witness["eigenvalue"]
        report["instability"] = {
            "eigenvalue_re": lam.real,
            "eigenvalue_im": lam.imag,
            "expected_im": math.sqrt(cfg.k2) * 1.0,
            "norm_ratio_t100": witness["ratio"],
            "verdict": "non-decaying mode confirmed",
        }
        report["prediction"] = envelope.predict_rates(cfg, args.j,
                                                      args.ell).as_dict()
        _write_json(out / "report.json", report)
        return report

    grid = _xi_grid(args, include_zero=False)
    cert = lyapunov.certify(cfg, grid)
    report["certificate"] = _certificate_payload(cfg, cert)
    report["prediction"] = envelope.predict_rates(cfg, args.j,
                                                  args.ell).as_dict()
    times = fullline.default_times(args.times)
    decay = fullline.verify_theorem_bound(cfg, _default_datum(), args.j,
                                          args.ell, times=times,
                                          certificate=cert)
    report["decay"] = {"c0": decay["c0"], "tail_slope": decay["ratio_tail_slope"],
                       "pass": decay["pass"]}
    _write_json(out / "report.json", report)
    _write_diagnostics(out, times, decay["quadrature"])
    if not decay["pass"]:
        raise VerificationFailure("report: decay bound failed")
    return report


def _cmd_suite(cfg: None, args: argparse.Namespace, out: Path) -> dict:
    """Certify and predict every standard cell, then scan the spectral
    abscissa across the k3 = k2 degeneracy of the unstable reference."""
    grid = _xi_grid(args, include_zero=False)
    (out / "configs").mkdir(exist_ok=True)
    rows = ["name,p,m,loss,low_exponent,high_branch,c,c_tilde,big_lambda"]
    cells = {}
    for name, cell in sorted(suite.standard_suite().items()):
        (out / "configs" / f"{name}.cfg").write_text(model.config_text(cell))
        cert = lyapunov.certify(cell, grid)
        pred = envelope.predict_rates(cell, args.j, args.ell).as_dict()
        p, m = envelope.envelope_cell(cell)
        cells[name] = {"p": p, "m": m, "certificate": _certificate_payload(cell, cert),
                       "prediction": pred}
        rows.append(f"{name},{p},{m},{int(envelope.regularity_loss(cell))},"
                    f"{pred['low_exponent']},{pred['high_branch']},"
                    + ",".join(_fmt(v) for v in (cert.c, cert.c_tilde, cert.big_lambda)))
    (out / "rate_table.csv").write_text("\n".join(rows) + "\n")
    scan = []
    for k3 in K3_SCAN:
        ref = replace(suite.unstable_reference(), k3=k3)
        record = {"k3": k3, "max_abscissa": float(dynamics.spectra(ref, grid).real.max()),
                  "stable": ref.stable}
        if not ref.stable:
            witness = dynamics.nondecay_witness(ref, xi=1.0, t_final=100.0)
            record.update(eigenvalue_im=witness["eigenvalue"].imag,
                          expected_im=math.sqrt(ref.k2),
                          norm_ratio_t100=witness["ratio"])
        scan.append(record)
    payload = {"cells": cells, "degeneracy_scan": scan}
    _write_json(out / "suite.json", payload)
    for record in scan:
        if record["stable"] and record["max_abscissa"] >= 0.0:
            raise VerificationFailure(
                f"stable-case spectral gap: abscissa {record['max_abscissa']} >= 0 "
                f"at k3 = {record['k3']} on the scan grid")
    return payload


_DISPATCH = {
    "simulate-mode": _cmd_simulate_mode,
    "spectrum-scan": _cmd_spectrum_scan,
    "identities": _cmd_identities,
    "certify": _cmd_certify,
    "predict": _cmd_predict,
    "decay": _cmd_decay,
    "report": _cmd_report,
    "suite": _cmd_suite,
}


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command line; returns the process exit code."""
    try:
        cfg = None if args.config is None else model.load_config(args.config)
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return 2
    except model.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        _DISPATCH[args.subcommand](cfg, args, out)
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (fullline.QuadratureError, dynamics.EigensolverError,
            lyapunov.CertificateSearchError, RoundoffError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (model.ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parse_args leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="tlab",
        description="Spectral verification lab for laminated thermoelastic beams",
    )
    parser.add_argument("subcommand", choices=list(_DISPATCH))
    parser.add_argument("--config", help="path to a key=value config file "
                        "(every subcommand but suite)")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--xi-min", type=float, default=1e-2)
    parser.add_argument("--xi-max", type=float, default=1e2)
    parser.add_argument("--xi-per-decade", type=int, default=200)
    parser.add_argument("--times", type=int, default=31)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--j", type=int, default=0)
    parser.add_argument("--ell", type=int, default=1)
    parser.add_argument("--xi", type=float, default=1.0,
                        help="mode frequency for simulate-mode")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if (args.config is None) != (args.subcommand == "suite"):
        print("error: suite takes no --config and every other subcommand needs one",
              file=sys.stderr)
        return 2
    for flag, least in (("xi_per_decade", 1), ("times", 2), ("j", 0), ("ell", 0)):
        if getattr(args, flag) < least:
            print(f"error: --{flag.replace('_', '-')} must be >= {least}, "
                  f"got {getattr(args, flag)}", file=sys.stderr)
            return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
