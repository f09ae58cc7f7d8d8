"""Seeded input generator: configurations, initial data and the op lists.

The program under test only ever sees what this module generates (config
files and the argument lists built from them).  Every pass of a workload is
a fixed list of ops derived from (seed, pass index), so the same seed gives
the same inputs, and a traced run of pass 0 repeats its counts exactly.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

WORKLOADS = ("certify-sweep", "decay-long", "norms-short")

CLI_SWEEP = ("identities", "spectrum-scan", "certify", "predict", "simulate-mode")

# decay-long runs `tlab decay` on a fixed subset of cells.  --times 7 gives
# the grid 0, 1, 4.6, 21.5, 100, 464, 2154, 1e4: long enough that the
# integrand dominates, with t = 2154 inside the range (t ~ 1.4e3-3e3) where
# tau2-frictional-zero raises QuadratureError (a known defect).
DECAY_CELLS = (
    "tau1-type3-first",      # regularity-loss cell, polynomial high branch
    "tau2-type3-first-eq",   # equal speeds: exponential branch, certifies inside
    "tau3-frictional-zero",  # zero-order frictional cell
    "tau2-frictional-zero",  # known defect: QuadratureError at t ~ 1.4e3-3e3
)
DECAY_TIMES = 7

# the CLI's built-in datum for decay/report: a unit Gaussian in v
CLI_DATUM = ({"kind": "gaussian", "component": 0, "amplitude": 1.0, "width": 1.0},)

# a stable tau3 zero-order type-III configuration on which `tlab spectrum-scan`
# exits 1 (a known defect): at xi ~ 98.9 the true abscissa is ~ -1e-12,
# below the eigensolver's roundoff, and the computed one is +5e-13.  Found by
# a seeded random config; kept fixed so the defect shows on every run.
SCAN_ROUNDOFF = {"k1": 0.760879, "k2": 1.517054, "k3": 0.728807, "k4": 0.973145,
                 "k5": 1.790744, "gamma": 1.253842, "tau": 3, "damping": "type3",
                 "coupling": "zero"}

RANDOM_CONFIGS = {"certify-sweep": 3, "norms-short": 4}
NORM_TRIPLES = 100


def standard_cells() -> dict[str, dict]:
    """The fourteen standard cells: every placement x damping x coupling with
    k3 = 2, plus the equal-speed first-order type-III cells of tau2 and tau3."""
    cells = {}
    for tau in (1, 2, 3):
        for damping in ("type3", "frictional"):
            for coupling in ("first", "zero"):
                cells[f"tau{tau}-{damping}-{coupling}"] = _cfg(tau, damping, coupling, 2.0)
    for tau in (2, 3):
        cells[f"tau{tau}-type3-first-eq"] = _cfg(tau, "type3", "first", 1.0)
    return cells


def unstable_reference() -> dict:
    """tau1 with k2 = k3: purely imaginary spectrum, no certificate exists."""
    return _cfg(1, "type3", "first", 1.0)


def _cfg(tau: int, damping: str, coupling: str, k3: float) -> dict:
    return {"k1": 1.0, "k2": 1.0, "k3": k3, "k4": 1.0, "k5": 1.0, "gamma": 1.0,
            "tau": tau, "damping": damping, "coupling": coupling}


def random_config(rng: np.random.Generator) -> dict:
    """A stable configuration away from the k2 = k3 degeneracy of tau1."""
    ks = [round(float(k), 6) for k in rng.uniform(0.5, 2.0, size=5)]
    tau = int(rng.integers(1, 4))
    if tau == 1 and abs(ks[2] - ks[1]) < 0.25:
        ks[2] = round(ks[1] + 0.25 if ks[1] < 1.25 else ks[1] - 0.25, 6)
    gamma = round(float(rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])), 6)
    return {"k1": ks[0], "k2": ks[1], "k3": ks[2], "k4": ks[3], "k5": ks[4],
            "gamma": gamma, "tau": tau,
            "damping": str(rng.choice(["type3", "frictional"])),
            "coupling": str(rng.choice(["first", "zero"]))}


def stable(cfg: dict) -> bool:
    return not (cfg["tau"] == 1 and cfg["k2"] == cfg["k3"])


def config_text(cfg: dict) -> str:
    keys = ("k1", "k2", "k3", "k4", "k5", "gamma", "tau", "damping", "coupling")
    return "".join(f"{k} = {cfg[k]!r}\n" if isinstance(cfg[k], float) else f"{k} = {cfg[k]}\n"
                   for k in keys)


def write_configs(pass_inputs: dict, pass_dir: Path) -> None:
    """One config file per configuration, under pass_dir/configs/."""
    cfg_dir = pass_dir / "configs"
    cfg_dir.mkdir(parents=True)
    for name, cfg in pass_inputs["configs"].items():
        (cfg_dir / f"{name}.txt").write_text(config_text(cfg))


def random_datum(rng: np.random.Generator) -> list[dict]:
    """Gaussian or Gaussian-derivative profiles on 1-3 random components."""
    components = sorted(int(c) for c in rng.choice(8, size=int(rng.integers(1, 4)),
                                                  replace=False))
    profiles = []
    for comp in components:
        order = int(rng.integers(0, 3))
        profiles.append({
            "kind": "gaussian" if order == 0 else "gaussian_derivative",
            "component": comp,
            "amplitude": round(float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])), 6),
            "width": round(float(rng.uniform(0.6, 2.0)), 6),
            "order": order,
        })
    return profiles


def generate(workload: str, seed: int, pass_index: int) -> dict:
    """Inputs of one pass: {"configs": {name: cfg}, "ops": [op, ...]}.

    An op is {"id", "kind": "cli" | "norms", "config", ...}; cli ops carry
    the subcommand, extra flags and the expected exit code, norms ops the
    datum, j and times.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, pass_index, WORKLOADS.index(workload)])
    configs = dict(standard_cells())
    configs["unstable-reference"] = unstable_reference()
    configs["scan-roundoff"] = SCAN_ROUNDOFF
    for i in range(RANDOM_CONFIGS.get(workload, 0)):
        configs[f"random-p{pass_index}-{i}"] = random_config(rng)

    ops: list[dict] = []
    if workload == "certify-sweep":
        for name, cfg in configs.items():
            for sub in CLI_SWEEP:
                flags: list[str] = []
                if sub in ("identities", "simulate-mode"):
                    flags += ["--seed", str(int(rng.integers(0, 2 ** 31)))]
                if sub == "simulate-mode":
                    flags += ["--xi", repr(round(float(10 ** rng.uniform(-1, 1)), 6))]
                if sub == "predict":
                    flags += ["--j", str(int(rng.integers(0, 3))),
                              "--ell", str(int(rng.integers(0, 3)))]
                expect = 1 if (sub == "certify" and not stable(cfg)) else 0
                ops.append({"id": f"p{pass_index}/{sub}/{name}", "kind": "cli",
                            "config": name, "subcommand": sub, "flags": flags,
                            "expect": expect})
    elif workload == "decay-long":
        for name in [DECAY_CELLS[i] for i in rng.permutation(len(DECAY_CELLS))]:
            ops.append({"id": f"p{pass_index}/decay/{name}", "kind": "cli",
                        "config": name, "subcommand": "decay",
                        "flags": ["--times", str(DECAY_TIMES)], "expect": 0,
                        "datum": list(CLI_DATUM), "j": 0})
    else:
        names = list(configs)
        for i in range(NORM_TRIPLES):
            name = names[i] if i < len(names) else names[int(rng.integers(0, len(names)))]
            times = [0.0] + sorted(round(float(x), 6) for x in
                                   (rng.uniform(0.1, 1.0), rng.uniform(1.0, 10.0)))
            ops.append({"id": f"p{pass_index}/norms/{i}", "kind": "norms",
                        "config": name, "datum": random_datum(rng),
                        "j": int(rng.integers(0, 3)), "times": times})
    return {"workload": workload, "seed": seed, "pass": pass_index,
            "configs": configs, "ops": ops}


def warmup_op(workload: str, seed: int) -> tuple[dict, dict]:
    """One untimed op through the same layers, run during set-up."""
    cfg = standard_cells()["tau1-type3-first"]
    if workload == "certify-sweep":
        op = {"id": "warmup", "kind": "cli", "config": "warmup", "subcommand": "certify",
              "flags": [], "expect": 0}
    else:
        rng = np.random.default_rng([seed, 2 ** 20, WORKLOADS.index(workload)])
        op = {"id": "warmup", "kind": "norms", "config": "warmup",
              "datum": random_datum(rng), "j": 0, "times": [0.0, 1.0]}
    return op, cfg


def digest(inputs: dict) -> str:
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
