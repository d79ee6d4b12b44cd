"""affseg benchmark: one run of one workload.

    python3 bench/run.py --workload segment --seed 1 --seconds 15 --trace 0

A run makes its inputs from the seed in a separate set-up process, which
times the set-up several times.  It then repeats passes of the workload
until --seconds have passed and prints, as its last line, one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json.  With --trace 1
the run alternates untraced and traced passes and reports the per-layer
metrics, taken from the traced passes; the tracing overhead is the
difference between the two kinds of pass.  Every time is scaled to
reference machine speed by a kernel timed between operations (speed.py).
A record of the run (seed, input properties, output digest, environment,
raw times, failed checks) is written to bench/_work/records/.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import env

DEFAULT_SEED = 1
HELDOUT_SEED = 2  # reserved for confirming a claim made on other seeds
SETUP_TIMEOUT_S = 150
LAYERS = ("volume", "malis", "zwatershed", "agglo", "metrics", "stitch")
BENCH = Path(__file__).resolve().parent
WORK = BENCH / "_work"


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("segment", "train", "blocks"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input, for the smoke test")
    return ap.parse_args(argv)


def _setup(args, inputs: Path) -> dict:
    """Run make_inputs.py in its own process and return its report."""
    cmd = [sys.executable, str(BENCH / "make_inputs.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(inputs), "--size", args.size]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"bench: set-up failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _timed_phase(args, inputs: Path, outputs: Path):
    """Repeat passes until the time is up; a pass that raises ends the phase."""
    import speed
    import tracing
    import workloads

    run_pass = workloads.PASSES[args.workload]
    cfg = workloads.SIZES[args.size][args.workload]
    min_passes = 2 if args.trace else 1
    passes, error = [], None
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        p = workloads.Pass(tracing.Tracer() if traced else tracing.NullTracer(), outputs)
        p.sample_speed(force=True)
        t0, excluded = time.perf_counter(), p.excluded
        try:
            run_pass(p, inputs, cfg)
        except Exception:  # an operation failed: report it, keep what completed
            error = traceback.format_exc()
            break
        p.sample_speed(force=True)
        p.wall = time.perf_counter() - t0 - (p.excluded - excluded)
        p.scale = speed.scale(p.kernel_s)
        p.finish()
        passes.append(p)
        if len(passes) >= min_passes and time.perf_counter() - start >= args.seconds:
            break
    return passes, error, p.ops if error else 0


def _end_to_end(passes, setup) -> dict:
    import numpy as np

    walls = [p.wall * p.scale for p in passes]
    # segment has no smaller unit of work than the whole volume
    items = [x * p.scale for p in passes for x in p.items] or walls
    p50, p80 = np.percentile(items, [50, 80])
    return {
        "wall_s": statistics.median(walls),
        "item_ms_p50": 1000.0 * p50,
        "item_ms_p80": 1000.0 * p80,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup["setup_s"]),
    }


def _layer_values(p) -> dict:
    """Per-layer metrics of one traced pass."""
    tot = p.tracer.totals()
    selfs = p.tracer.self_times()
    c = p.counts
    s = lambda name: tot.get(name, 0.0)  # noqa: E731
    v = {
        "volume.read_s": s("volume.read_volume"),
        "volume.write_s": s("volume.write_volume"),
        "volume.bytes_read": c["volume.bytes_read"],
        "volume.bytes_written": c["volume.bytes_written"],
        "malis.gradient_s": s("malis.malis_gradient"),
        "malis.edges": c["malis.edges"],
        "malis.labeled_pairs": c["malis.labeled_pairs"],
        "malis.grad_nonzero_edges": c["malis.grad_nonzero_edges"],
        "malis.forest_edge_ratio": (c["malis.forest_edges"] / c["malis.edges"]
                                    if c["malis.edges"] else 0.0),
        "zwatershed.s": s("zwatershed.zwatershed"),
        "zwatershed.fragments": c["zwatershed.fragments"],
        "zwatershed.background_voxels": c["zwatershed.background_voxels"],
        "agglo.build_rag_s": c["agglo.build_rag_s"],
        "agglo.agglomerate_s": s("agglo.agglomerate"),
        "agglo.loop_s": s("agglo.agglomerate") - c["agglo.build_rag_s"],
        "agglo.rag_nodes": c["agglo.rag_nodes"],
        "agglo.rag_edges": c["agglo.rag_edges"],
        "agglo.merges": c["agglo.merges"],
        "agglo.apply_threshold_s": s("agglo.apply_threshold"),
        "agglo.train_scorer_s": s("agglo.train_scorer"),
        "agglo.training_rows": c["agglo.training_rows"],
        "metrics.split_vi_s": s("metrics.split_vi"),
        "metrics.vi_curve_s": s("metrics.vi_curve"),
        "metrics.curve_points": c["metrics.curve_points"],
        "stitch.graph_s": c["stitch.graph_s"],
        "stitch.stitch_s": s("stitch.stitch"),
        "stitch.blocks": c["stitch.blocks"],
        "stitch.graph_edges": c["stitch.graph_edges"],
        "stitch.edges_merged": c["stitch.edges_merged"],
        "stitch.halo_overhead": ((c["stitch.halo_voxels"] - c["stitch.volume_voxels"])
                                 / c["stitch.volume_voxels"] if c["stitch.volume_voxels"] else 0.0),
        "trace.spans": len(p.tracer.spans),
    }
    for layer in LAYERS:
        v[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    v["bench.self_s"] = p.wall - sum(selfs.get(layer, 0.0) for layer in LAYERS)
    return v


def _per_layer(passes, setup, units) -> dict:
    traced = []
    for p in passes:
        if p.traced:
            v = _layer_values(p)
            traced.append({k: x * p.scale if units.get(k) == "s" else x for k, x in v.items()})
    out = {k: statistics.median(v[k] for v in traced) for k in traced[0]}
    for key in ("synthdata.labels_s", "synthdata.affinities_s"):
        out[key] = statistics.median(setup[key])
    plain = statistics.median(p.wall * p.scale for p in passes if not p.traced)
    out["trace.overhead_share"] = (statistics.median(p.wall * p.scale for p in passes if p.traced)
                                   - plain) / plain
    return out


def _declared(trace: int) -> dict[str, str]:
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _environment() -> dict:
    import numpy as np

    return {
        "git_revision": env.git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "thread_pins": env.thread_pins(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = _args(argv)
    env.prepare()
    import speed

    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    inputs, outputs = run_dir / "inputs", run_dir / "outputs"
    inputs.mkdir(parents=True, exist_ok=True)
    outputs.mkdir(exist_ok=True)
    try:
        setup = _setup(args, inputs)
        passes, error, failed_pass_ops = _timed_phase(args, inputs, outputs)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if error:
        print(error, file=sys.stderr)
    if not passes or (args.trace and not any(p.traced for p in passes)):
        sys.exit("bench: no pass completed")

    units = _declared(args.trace)
    computed = _per_layer(passes, setup, units) if args.trace else _end_to_end(passes, setup)
    if set(computed) != set(units):
        sys.exit(f"bench: metrics differ from BENCHMARK.json: {sorted(set(computed) ^ set(units))}")
    metrics = {k: {"value": float(computed[k]), "unit": units[k]} for k in units}

    digests = [p.digest_hex for p in passes]
    failed_checks = [name for p in passes for name, ok in p.checks if not ok]
    if len(set(digests)) > 1:
        failed_checks.append("passes over the same inputs gave different outputs")
    attempted = sum(p.ops for p in passes) + failed_pass_ops
    failed = len(failed_checks) + (1 if error else 0)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    first = passes[0]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_role": {DEFAULT_SEED: "default", HELDOUT_SEED: "held-out"}.get(args.seed, "other"),
        "size": args.size,
        "trace": args.trace,
        "seconds": args.seconds,
        "inputs": {**setup["inputs"], **first.props,
                   **{k: v for k, v in first.counts.items() if not k.endswith("_s")}},
        "passes": len(passes),
        "pass_wall_raw_s": [p.wall for p in passes],
        "pass_kernel_median_s": [statistics.median(p.kernel_s) for p in passes],
        "pass_kernel_samples": [len(p.kernel_s) for p in passes],
        "reference_kernel_s": speed.REF_S,
        "items": sum(len(p.items) for p in passes) or len(passes),
        "setup": {k: setup[k] for k in ("setup_s", "synthdata.labels_s",
                                         "synthdata.affinities_s", "raw")},
        "output_digest": digests[0],
        "fail_rate": failed / attempted if attempted else 1.0,
        "failed_checks": failed_checks,
        "error": error,
        "environment": _environment(),
        "result": result,
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    (records / name).write_text(json.dumps(record, indent=1) + "\n")
    print(f"bench: {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{failed}/{attempted} failed, digest {digests[0][:16]}, "
          f"record {records / name}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
