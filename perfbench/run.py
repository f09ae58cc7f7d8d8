#!/usr/bin/env python3
"""tlab benchmark: one command, one workload, one process.

    python3 perfbench/run.py --workload certify-sweep --seed 1 --seconds 10 --trace 0

Each workload runs as a closed loop with one client: ops run one after
another, in passes.  A pass is the fixed op list that perfbench/inputs.py
generates from (seed, pass index); passes repeat until --seconds have
elapsed (at least one pass).  The checker runs after the timed passes.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the full record (provenance, every
op, rejections, generated inputs and their hash) goes to
.perfbench_out/<workload>-seed<seed>-trace<trace>/.

--trace 0 reports the end-to-end metrics:

  setup_s      median of this process's set-up (start of the script to the
               first timed op: imports, inputs, config files, one warm-up op)
               and of four child processes doing the same set-up;
  run_s        median over passes of the summed op times of the pass;
  op_p50_s     median op time, over every op of the run;
  op_tail_s    median over passes of the pass's highest percentile with at
               least ten ops beyond it (its slowest op when a pass has ten
               ops or fewer); per pass, so the percentile does not move
               with the number of passes that fit; it goes to results.json;
  ok_share     1 - failed_share: the share of ops that completed with the
               expected verdict and passed the checker (failed_share itself
               is 0 on most workloads, and a metric here is never 0);
  peak_rss_mb  peak resident set of this process after the timed passes.

Times are reference seconds (see ops.py): wall seconds scaled by the speed
of a fixed probe timed between ops, which cancels the host's slow and fast
stretches; the wall seconds are kept in results.json.  `correct` is false
when the checker refutes a result the program presented as good (a pass
that should fail, a wrong number, a changed artifact); an op that raises or
exits non-zero where a pass is expected is a failed op, listed by name.

--trace 1 runs pass 0 once untraced and once with spans around every tlab
module's entry points, and reports the per-layer metrics of the traced pass
(counts repeat exactly for a seed) plus the tracing overhead, in wall
seconds; --seconds is not used there.

The sources are taken from src/ next to this directory; without them the
command exits with status 1 before printing anything.
"""

import time

START = time.perf_counter()

import os  # noqa: E402

# BLAS pools at one thread for this process and its set-up children;
# TLAB_THREADS is left at the program's default (unset)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("TLAB_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_CHILDREN = 4
NORM_SAMPLES = 2                      # norms triples checked per pass
RERUNS = {"certify-sweep": 3, "decay-long": 1, "norms-short": 2}
UNITS = {"setup_s": "s", "run_s": "s", "op_p50_s": "s", "op_tail_s": "s",
         "ok_share": "ratio", "peak_rss_mb": "MB"}


def import_tlab() -> None:
    src = ROOT / "src"
    if not (src / "tlab" / "__init__.py").is_file():
        sys.exit(f"error: tlab sources not found under {src}")
    sys.path.insert(0, str(src))
    import tlab
    if Path(tlab.__file__).resolve().parent != (src / "tlab").resolve():
        sys.exit(f"error: imported tlab from {tlab.__file__}, not from {src}")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", type=int, default=None, metavar="K",
                    help=argparse.SUPPRESS)  # child process timing one set-up
    return ap.parse_args(argv)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at least
    ten samples beyond it; the maximum when there are fewer than eleven."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def provenance(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "source_sha256": src.hexdigest(),
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
        "blas_threads": "1 (OMP/OPENBLAS/MKL/BLIS/NUMEXPR_NUM_THREADS=1, this process)",
        "tlab_threads": "program default (TLAB_THREADS unset)",
        "cpu_pinning": "none", "cache_dropping": "none",
        "loop": "closed loop, one client, ops one after another",
    }


def child_setups(args: argparse.Namespace) -> list[dict]:
    """Set-up time of fresh processes doing the same set-up as this one."""
    times = []
    for k in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only", str(k)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return times


def main() -> int:
    args = parse_args()
    import_tlab()

    import numpy as np

    import checker
    import inputs
    import ops
    import spans

    if args.workload not in inputs.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {inputs.WORKLOADS}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.setup_only is not None:
        tag = f"{args.workload}-seed{args.seed}-setup{args.setup_only}"
    run_dir = OUT / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    work = run_dir / "work"

    # ---- set-up: inputs, config files, one untimed warm-up op --------------
    warm_op, warm_cfg = inputs.warmup_op(args.workload, args.seed)
    warm_dir = work / "warmup"
    inputs.write_configs({"configs": {"warmup": warm_cfg}}, warm_dir)
    ops.run_op(warm_op, warm_dir / "configs" / "warmup.txt", warm_dir / "out")
    generated = [inputs.generate(args.workload, args.seed, 0)]
    inputs.write_configs(generated[0], work / "p0")
    setup_wall_s = time.perf_counter() - START
    setup_s = setup_wall_s * ops.REF_PROBE_S / statistics.median(ops.probe() for _ in range(3))
    if args.setup_only is not None:
        shutil.rmtree(run_dir, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    # ---- timed passes ------------------------------------------------------
    passes: list[tuple[dict, list]] = []
    pass_wall_s: list[float] = []
    if args.trace == 0:
        speed = ops.SpeedProbe()
        loop_start = time.perf_counter()
        while True:
            index = len(passes)
            start = time.perf_counter()
            results = ops.run_pass(generated[index], work / f"p{index}", speed)
            pass_wall_s.append(time.perf_counter() - start)
            passes.append((generated[index], results))
            if time.perf_counter() - loop_start >= args.seconds:
                break
            generated.append(inputs.generate(args.workload, args.seed, index + 1))
            inputs.write_configs(generated[-1], work / f"p{index + 1}")
    else:
        start = time.perf_counter()
        results = ops.run_pass(generated[0], work / "p0")
        untraced_s = time.perf_counter() - start
        passes.append((generated[0], results))
        inputs.write_configs(generated[0], work / "p0-traced")
        tracer = spans.Tracer()
        tracer.install()
        try:
            start = time.perf_counter()
            traced = ops.run_pass(generated[0], work / "p0-traced", tracer=tracer)
            traced_s = time.perf_counter() - start
        finally:
            tracer.uninstall()
        tracer.write(run_dir / "spans.npz")
        artifact_bytes = sum(p.stat().st_size for r in traced
                             for p in r.out_dir.rglob("*") if p.is_file())
        layer = spans.layer_metrics(tracer, artifact_bytes)
        layer_stats = tracer.by_name()
        self_sum = sum(s["self_s"] for s in layer_stats.values())
        layer.update({"trace.run_s": traced_s, "trace.untraced_run_s": untraced_s,
                      "trace.overhead_s": traced_s - untraced_s,
                      "trace.self_sum_s": self_sum, "trace.spans": len(tracer.start)})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # ---- checks (untimed) --------------------------------------------------
    rng = np.random.default_rng([args.seed, 99])
    rejections, off_grid = checker.check_run(passes, rng, NORM_SAMPLES)
    first = [r for r in passes[0][1] if r.ok]
    if args.trace == 1:
        pairs = [(a, b) for a, b in zip(passes[0][1], traced) if a.ok]
    else:
        pairs = []
        for i in rng.permutation(len(first))[:RERUNS[args.workload]]:
            res = first[i]
            again = ops.run_op(res.op, res.out_dir.parent.parent / "configs"
                               / f"{res.op['config']}.txt", work / "rerun" / str(i))
            pairs.append((res, again))
    for a, b in pairs:
        for problem in checker.identical_problems(a, b):
            rejections.append({"op": a.op["id"], "check": "identical", "detail": problem})

    all_results = [r for _, results in passes for r in results]
    rejected = {r["op"] for r in rejections}
    failed_ops = sorted({r.op["id"] for r in all_results if not r.ok} | rejected)
    attempted = len(all_results)

    if args.trace == 0:
        op_seconds = [r.ref_seconds for r in all_results]
        tails = [tail([r.ref_seconds for r in results]) for _, results in passes]
        _, tail_pct, beyond = tails[0]
        children = child_setups(args)
        setups = [setup_s] + [c["setup_s"] for c in children]
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(sum(r.ref_seconds for r in results)
                                       for _, results in passes),
            "op_p50_s": statistics.median(op_seconds),
            "op_tail_s": statistics.median(t[0] for t in tails),
            "ok_share": 1.0 - len(failed_ops) / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        wall = [r.seconds for r in all_results]
        details = {
            "time_unit": f"reference seconds: wall * {ops.REF_PROBE_S} / probe seconds",
            "setup_samples_s": setups,
            "setup_wall_samples_s": [setup_wall_s] + [c["setup_wall_s"] for c in children],
            "pass_wall_s": pass_wall_s, "op_samples": len(op_seconds),
            "op_wall_p50_s": statistics.median(wall), "pass_tails_s": [t[0] for t in tails],
            "op_tail_percentile": tail_pct, "op_tail_beyond": beyond,
            "failed_share": len(failed_ops) / attempted,
            "probe_s": {"samples": len(speed.samples), "median": statistics.median(speed.samples),
                        "min": min(speed.samples), "max": max(speed.samples)},
        }
        units = UNITS
    else:
        metrics = layer
        details = {"layers": layer_stats}
        units = {k: spans.layer_unit(k) for k in layer}

    record = {
        "provenance": provenance(args),
        "inputs_sha256": [inputs.digest(g) for g in generated],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "details": details,
        "failed_ops": failed_ops,
        "rejections": rejections,
        "certificate_off_grid_margin": off_grid,
        "ops": [{"id": r.op["id"], "seconds": r.seconds, "ref_seconds": r.ref_seconds,
                 "exit_code": r.exit_code,
                 "error": r.error, "error_detail": r.error_detail,
                 "quad_warnings": r.quad_warnings} for r in all_results],
    }
    (run_dir / "results.json").write_text(json.dumps(record, indent=1) + "\n")
    (run_dir / "inputs.json").write_text(json.dumps(generated, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"inputs {record['inputs_sha256'][0][:16]}  passes {len(passes)}")
    for r in all_results:
        if not r.ok:
            print(f"failed op {r.op['id']}: {r.error or f'exit {r.exit_code}'} {r.error_detail}")
    for rej in rejections:
        print(f"rejected {rej['op']} [{rej['check']}]: {rej['detail']}")
    for op_id, margin in off_grid.items():
        print(f"note {op_id}: drift inequality fails at points off the certify grid "
              f"by {margin:.2e} of c1 f |H|")
    notes = {"op_p50_s": f"(n={attempted})",
             "op_tail_s": f"(p{details.get('op_tail_percentile', 0):.1f} per pass, "
                          f"{len(passes)} passes)",
             "ok_share": f"(failed_share {len(failed_ops)}/{attempted})"}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]} {notes.get(name, '')}".rstrip())
    print(json.dumps({"correct": not rejections, "attempted": attempted,
                      "failed": len(failed_ops),
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
