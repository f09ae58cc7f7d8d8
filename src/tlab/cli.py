"""Command-line front end.

Subcommands: simulate-mode, spectrum-scan, identities, certify, predict,
decay, report.  Exit codes: 0 pass, 1 verification failure (a named
criterion did not hold), 2 usage or configuration error, 3 numerical
failure (quadrature, eigensolver or certificate search could not reach
its tolerance, so no verdict was reached).  Outputs are
deterministic: a fixed manifest (config + flags + seed) yields
byte-identical CSV/JSON artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tlab import dynamics, envelope, fullline, identities, lyapunov, model

SUBCOMMANDS = ("simulate-mode", "spectrum-scan", "identities", "certify",
               "predict", "decay", "report")


def _fmt(x: float) -> str:
    """17 significant digits, enough to round-trip a double exactly."""
    return f"{float(x):.17g}"


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: str, rows: list[list[float]]) -> None:
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class RunManifest:
    subcommand: str
    config_path: str
    out_dir: str
    xi_min: float = 1e-2
    xi_max: float = 1e2
    xi_per_decade: int = 200
    times: int = 31
    seed: int = 0
    j: int = 0
    ell: int = 1
    extra: dict = field(default_factory=dict)


class VerificationFailure(RuntimeError):
    """A named acceptance check failed; maps to exit code 1."""


def _xi_grid(manifest: RunManifest, include_zero: bool = True) -> np.ndarray:
    return dynamics.default_xi_grid(manifest.xi_min, manifest.xi_max,
                                    manifest.xi_per_decade, include_zero)


def _cmd_simulate_mode(cfg: model.SystemConfig, manifest: RunManifest,
                       out: Path) -> dict:
    """Propagate a seeded random unit mode and check energy dissipation."""
    rng = np.random.default_rng(manifest.seed)
    xi = float(manifest.extra.get("xi", 1.0))
    vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    vec /= np.linalg.norm(vec)
    s0 = model.ModeState(values=vec, xi=xi)
    h = model.hermitian_energy(cfg)
    times = np.linspace(0.0, 50.0, manifest.times)
    rows = []
    energies = []
    for t in times:
        s = dynamics.propagate(cfg, xi, s0, float(t))
        e = h(s.values)
        energies.append(e)
        rows.append([float(t), math.sqrt(s.norm_sq), e])
    _write_csv(out / "mode.csv", "t,norm,energy", rows)
    e0 = energies[0]
    monotone = all(b <= a * (1 + 1e-10) for a, b in zip(energies, energies[1:]))
    summary = {"xi": xi, "initial_energy": e0, "final_energy": energies[-1],
               "energy_monotone": bool(monotone)}
    _write_json(out / "mode_summary.json", summary)
    if not monotone:
        raise VerificationFailure("energy dissipation: mode energy increased along the trajectory")
    return summary


def _cmd_spectrum_scan(cfg: model.SystemConfig, manifest: RunManifest,
                       out: Path) -> dict:
    grid = _xi_grid(manifest)
    eigs = dynamics.spectra(cfg, grid)
    pairs = np.stack([eigs.real, eigs.imag], axis=2).reshape(grid.size, -1)
    rows = np.column_stack([grid, pairs, eigs.real.max(axis=1)]).tolist()
    header = "xi," + ",".join(f"re{i},im{i}" for i in range(1, 9)) + ",abscissa"
    _write_csv(out / "spectrum.csv", header, rows)
    nonzero = [(r[0], r[-1]) for r in rows if r[0] != 0.0]
    worst = max(a for _, a in nonzero)
    summary = {"max_abscissa_nonzero_xi": worst,
               "stable_scan": bool(worst < 0.0),
               "expected_stable": cfg.stable}
    _write_json(out / "spectrum_summary.json", summary)
    if cfg.stable and worst >= 0.0:
        raise VerificationFailure(
            f"stable-case spectral gap: abscissa {worst} >= 0 on the scan grid")
    return summary


def _cmd_identities(cfg: model.SystemConfig, manifest: RunManifest,
                    out: Path) -> dict:
    rng = np.random.default_rng(manifest.seed)
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


def _cmd_certify(cfg: model.SystemConfig, manifest: RunManifest, out: Path) -> dict:
    if not cfg.stable:
        raise VerificationFailure(
            "certificate: configuration is in the unstable case (tau1, chi = 0)")
    grid = _xi_grid(manifest, include_zero=False)
    cert = lyapunov.certify(cfg, grid)
    payload = _certificate_payload(cfg, cert)
    _write_json(out / "certificate.json", payload)
    return payload


def _cmd_predict(cfg: model.SystemConfig, manifest: RunManifest, out: Path) -> dict:
    pred = envelope.predict_rates(cfg, manifest.j, manifest.ell)
    payload = pred.as_dict()
    _write_json(out / "prediction.json", payload)
    return payload


def _default_datum() -> fullline.InitialDatum:
    return fullline.InitialDatum.component(
        model.V, fullline.Gaussian(amplitude=1.0, width=1.0))


def _cmd_decay(cfg: model.SystemConfig, manifest: RunManifest, out: Path) -> dict:
    if not cfg.stable:
        raise VerificationFailure(
            "decay bound: configuration is in the unstable case (tau1, chi = 0)")
    times = fullline.default_times(manifest.times)
    datum = _default_datum()
    report = fullline.verify_theorem_bound(cfg, datum, manifest.j, manifest.ell,
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
    if not report["pass"]:
        raise VerificationFailure(
            "decay bound: envelope ratio unbounded or growing on the tail")
    return summary


def _cmd_report(cfg: model.SystemConfig, manifest: RunManifest, out: Path) -> dict:
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
        report["prediction"] = envelope.predict_rates(cfg, manifest.j,
                                                      manifest.ell).as_dict()
        _write_json(out / "report.json", report)
        return report

    grid = _xi_grid(manifest, include_zero=False)
    cert = lyapunov.certify(cfg, grid)
    report["certificate"] = _certificate_payload(cfg, cert)
    report["prediction"] = envelope.predict_rates(cfg, manifest.j,
                                                  manifest.ell).as_dict()
    times = fullline.default_times(manifest.times)
    decay = fullline.verify_theorem_bound(cfg, _default_datum(), manifest.j,
                                          manifest.ell, times=times,
                                          certificate=cert)
    report["decay"] = {"c0": decay["c0"], "tail_slope": decay["ratio_tail_slope"],
                       "pass": decay["pass"]}
    _write_json(out / "report.json", report)
    if not decay["pass"]:
        raise VerificationFailure("report: decay bound failed")
    return report


_DISPATCH = {
    "simulate-mode": _cmd_simulate_mode,
    "spectrum-scan": _cmd_spectrum_scan,
    "identities": _cmd_identities,
    "certify": _cmd_certify,
    "predict": _cmd_predict,
    "decay": _cmd_decay,
    "report": _cmd_report,
}


def run(manifest: RunManifest) -> int:
    """Execute one manifest; returns the process exit code."""
    if manifest.subcommand not in _DISPATCH:
        print(f"error: unknown subcommand {manifest.subcommand!r}", file=sys.stderr)
        return 2
    try:
        cfg = model.load_config(manifest.config_path)
    except FileNotFoundError:
        print(f"error: config file not found: {manifest.config_path}", file=sys.stderr)
        return 2
    except model.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(manifest.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        _DISPATCH[manifest.subcommand](cfg, manifest, out)
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (fullline.QuadratureError, dynamics.EigensolverError,
            lyapunov.CertificateSearchError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (model.ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlab",
        description="Spectral verification lab for laminated thermoelastic beams",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to a key=value config file")
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
    if args.xi_per_decade < 1 or args.times < 2 or args.j < 0 or args.ell < 0:
        print("error: grid and derivative flags must be positive", file=sys.stderr)
        return 2
    manifest = RunManifest(
        subcommand=args.subcommand,
        config_path=args.config,
        out_dir=args.out,
        xi_min=args.xi_min,
        xi_max=args.xi_max,
        xi_per_decade=args.xi_per_decade,
        times=args.times,
        seed=args.seed,
        j=args.j,
        ell=args.ell,
        extra={"xi": args.xi},
    )
    return run(manifest)


if __name__ == "__main__":
    sys.exit(main())
