#!/usr/bin/env python3
"""Self-test of the benchmark's generator and checker.

    python3 perfbench/selftest.py

Checks that the metrics the benchmark prints have the names and units
BENCHMARK.json gives them, that the input generator is deterministic for
a seed, that the checker accepts real outputs, and that it rejects a norm scaled by 1+1e-4
and a certificate whose rate c is doubled.  Exits 0 when every check holds.
"""

import json
import shutil
import sys

import run

run.import_tlab()

import numpy as np  # noqa: E402

import checker  # noqa: E402
import inputs  # noqa: E402
import ops  # noqa: E402
import spans  # noqa: E402

TRACE_METRICS = ("trace.run_s", "trace.untraced_run_s", "trace.overhead_s",
                 "trace.self_sum_s", "trace.spans")


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    expect(declared == run.UNITS, "end-to-end metrics and units match BENCHMARK.json")
    declared = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    printed = [*spans.layer_metrics(spans.Tracer(), 0), *TRACE_METRICS]
    expect(declared == {k: spans.layer_unit(k) for k in printed},
           "per-layer metrics and units match BENCHMARK.json")

    for workload in inputs.WORKLOADS:
        a, b = (inputs.digest(inputs.generate(workload, 5, 0)) for _ in range(2))
        expect(a == b, f"{workload}: same seed, same inputs")
    for workload in ("certify-sweep", "norms-short"):
        a, b = (inputs.generate(workload, s, 0)["ops"] for s in (5, 6))
        expect(a != b, f"{workload}: another seed, other inputs")

    work = run.OUT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    cells = inputs.standard_cells()
    rng = np.random.default_rng(5)
    for name in ("tau2-type3-first", "tau1-frictional-zero"):
        cfg_path = work / f"{name}.txt"
        cfg_path.parent.mkdir(parents=True, exist_ok=True)
        cfg_path.write_text(inputs.config_text(cells[name]))
        op = {"id": name, "kind": "cli", "config": name, "subcommand": "certify",
              "flags": [], "expect": 0}
        res = ops.run_op(op, cfg_path, work / name)
        cert = json.loads((work / name / "certificate.json").read_text())
        expect(res.ok and not checker.check_certificate(cells[name], cert, rng)[0],
               f"{name}: certificate accepted")
        doubled = dict(cert, c=2.0 * cert["c"])
        expect(bool(checker.check_certificate(cells[name], doubled, rng)[0]),
               f"{name}: certificate with doubled c rejected")

    pass_inputs = inputs.generate("norms-short", 5, 0)
    for op in pass_inputs["ops"][:2]:
        cfg = pass_inputs["configs"][op["config"]]
        cfg_path = work / f"{op['config']}.txt"
        cfg_path.write_text(inputs.config_text(cfg))
        value = ops.run_op(op, cfg_path, work / "norms").value
        args = (cfg, op["datum"], op["j"])
        expect(not checker.norm_problems(*args, value["series"], value["datum_norm_sq"],
                                         value["l1_norm"]), f"{op['id']}: norms accepted")
        t, norm = value["series"][-1]
        expect(bool(checker.norm_problems(*args, [(t, norm * (1 + 1e-4))])),
               f"{op['id']}: |U({t:g})| scaled by 1+1e-4 rejected")
        expect(bool(checker.norm_problems(*args, [], datum_norm_sq=value["datum_norm_sq"]
                                          * (1 + 1e-4))),
               f"{op['id']}: datum norm scaled by 1+1e-4 rejected")
        expect(bool(checker.norm_problems(*args, [], l1_norm=value["l1_norm"] * (1 + 1e-4))),
               f"{op['id']}: L1 norm scaled by 1+1e-4 rejected")
    shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
