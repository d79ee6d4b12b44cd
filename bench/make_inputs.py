"""Set-up process of one benchmark run: write a workload's inputs.

    python3 bench/make_inputs.py --workload segment --seed 1 --out DIR

Generates the inputs REPS times (each repetition rewrites the same
bytes) and prints one JSON line: the seconds of each repetition and of
its synth_labels and synth_affinities calls, scaled to reference speed
(speed.py), the raw seconds, and the properties of the inputs.  `run.py`
starts it as a separate process so that the memory set-up needs never
counts toward the peak RSS of the timed phase.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import env

REPS = 3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    env.prepare()
    import speed
    import workloads

    keys = ("setup_s", "synthdata.labels_s", "synthdata.affinities_s")
    report: dict = {key: [] for key in keys}
    report["raw"] = {key: [] for key in keys + ("kernel_s",)}
    for _ in range(REPS):
        before = [speed.sample() for _ in range(5)]
        t0 = time.perf_counter()
        timers, props = workloads.make_inputs(args.workload, args.seed, args.size, args.out)
        timers["setup_s"] = time.perf_counter() - t0
        samples = before + [speed.sample() for _ in range(5)]
        scale = speed.scale(samples)
        for key in keys:
            report[key].append(timers[key] * scale)
            report["raw"][key].append(timers[key])
        report["raw"]["kernel_s"].append(speed.REF_S / scale)
    report["inputs"] = props
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
