"""Command-line entry point.

One subcommand per pipeline stage plus `pipeline`, which chains
watershed -> agglomerate -> eval and writes every intermediate.  Any flag
can instead come from a JSON config file (``--config``): the file holds one
object per subcommand, keyed and converted like the flags; flags given on
the command line win over config values, and config values win over
built-in defaults.

Exit codes: 0 success, 2 usage or validation error, 1 runtime error.
All subcommands are deterministic: identical inputs give byte-identical
outputs, regardless of ``--threads`` (which caps internal parallelism;
the current implementation runs single-threaded and accepts any cap).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from affseg import agglo, metrics, synthdata
from affseg.malis import malis_gradient
from affseg.stitch import (
    InvalidPartition,
    partition_blocks,
    read_manifest,
    stitch,
    write_manifest,
)
from affseg.volume import AffinityVolume, LabelVolume, Shape3, read_volume, write_volume
from affseg.zwatershed import WatershedParams, size_filter, zwatershed


class CliError(Exception):
    """Validation problem: reported on stderr, exit code 2."""


def _read_labels(path) -> LabelVolume:
    vol = read_volume(path)
    if not isinstance(vol, LabelVolume):
        raise CliError(f"{path}: expected a label volume")
    return vol


def _read_affinities(path) -> AffinityVolume:
    vol = read_volume(path)
    if not isinstance(vol, AffinityVolume):
        raise CliError(f"{path}: expected an affinity volume")
    try:
        return AffinityVolume(vol.data)  # read_volume skips the range check
    except ValueError as e:
        raise CliError(f"{path}: {e}") from e


def _checked(fn, *args, **kwargs):
    """Call a library function whose ValueError means a bad parameter (exit 2)."""
    try:
        return fn(*args, **kwargs)
    except ValueError as e:
        raise CliError(str(e)) from e


def _config_value(where: str, action: argparse.Action, value):
    """Convert a config value with the type, arity and choices of its flag."""
    if action.nargs == 0:  # a switch such as --normalize
        if not isinstance(value, bool):
            raise CliError(f"{where}: expected true or false, got {value!r}")
        return value
    many = action.nargs is not None
    items = value if many and isinstance(value, list) else [value]
    if many != isinstance(value, list) or not items or action.nargs not in (None, "+", len(items)):
        raise CliError(f"{where}: expected {action.nargs or 1} value(s), got {value!r}")
    out = []
    for v in items:
        try:
            if isinstance(v, bool) or not isinstance(v, (str, int, float)):
                raise ValueError
            out.append((action.type or str)(str(v)))
            if action.choices is not None and out[-1] not in action.choices:
                raise ValueError
        except ValueError:
            raise CliError(f"{where}: invalid value {v!r}") from None
    return out if many else out[0]


def _load_config(path, command: str, parser: argparse.ArgumentParser) -> dict:
    """The command's config section, each value converted like its flag."""
    if path is None:
        return {}
    with open(path) as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise CliError(f"{path}: config root must be a JSON object")
    sec = cfg.get(command, {})
    if not isinstance(sec, dict):
        raise CliError(f"{path}: section {command!r} must be a JSON object")
    out = {}
    for key, value in sec.items():
        action = parser._option_string_actions.get(f"--{key}")
        if action is None or key in ("config", "help"):
            raise CliError(f"{path}: unknown key {key!r} in section {command!r}")
        out[key] = _config_value(f"{path}: {command}.{key}", action, value)
    return out


def _resolve(args, section: dict, name: str, default=None, required: bool = False):
    """Flag value if given, else config value, else default."""
    v = getattr(args, name.replace("-", "_"), None)
    if v is None:
        v = section.get(name, default)
    if required and v is None:
        raise CliError(f"missing required option --{name} (or config key {name!r})")
    return v


def _scorer_from(args, section) -> object:
    kind = _resolve(args, section, "scorer", default="mean")
    if kind == "mean":
        return agglo.MeanAffinity()
    if kind == "logistic":
        model = _resolve(args, section, "model", required=True)
        return agglo.Logistic.load(model)
    raise CliError(f"unknown scorer {kind!r} (choose mean or logistic)")


def _watershed_params(args, section) -> WatershedParams:
    return _checked(
        WatershedParams,
        t_high=float(_resolve(args, section, "t-high", 0.98)),
        t_low=float(_resolve(args, section, "t-low", 0.2)),
        size_min=int(_resolve(args, section, "size-min", 25)),
        t_merge=float(_resolve(args, section, "t-merge", 0.3)),
    )


def _cmd_synth(args, section) -> int:
    shape = _resolve(args, section, "shape", required=True)
    sp = synthdata.SynthParams(
        n_seeds=int(_resolve(args, section, "seeds", required=True)),
        anisotropy=float(_resolve(args, section, "anisotropy", 1.0)),
        rng_seed=int(_resolve(args, section, "rng-seed", 0)),
    )
    npar = synthdata.NoiseParams(
        flip_sigma=float(_resolve(args, section, "sigma", 0.0)),
        jitter_prob=float(_resolve(args, section, "jitter", 0.0)),
        rng_seed=int(_resolve(args, section, "rng-seed", 0)),
    )
    gt_out = _resolve(args, section, "gt-out", required=True)
    aff_out = _resolve(args, section, "aff-out", required=True)
    gt = synthdata.synth_labels(Shape3(*[int(s) for s in shape]), sp)
    aff = synthdata.synth_affinities(gt, npar)
    write_volume(gt, gt_out)
    write_volume(aff, aff_out)
    return 0


def _cmd_malis_grad(args, section) -> int:
    aff = _read_affinities(_resolve(args, section, "aff", required=True))
    gt = _read_labels(_resolve(args, section, "gt", required=True))
    out = _resolve(args, section, "grad-out", required=True)
    normalize = bool(_resolve(args, section, "normalize", False))
    result = malis_gradient(aff, gt, normalize=normalize)
    write_volume(result.gradient, out)
    print(repr(result.loss))
    return 0


def _cmd_watershed(args, section) -> int:
    aff = _read_affinities(_resolve(args, section, "aff", required=True))
    out = _resolve(args, section, "out", required=True)
    params = _watershed_params(args, section)
    seg, stats = zwatershed(aff, params)
    write_volume(seg, out)
    print(f"segments={stats.n_segments} background={stats.background}", file=sys.stderr)
    return 0


def _cmd_size_filter(args, section) -> int:
    labels = _read_labels(_resolve(args, section, "labels", required=True))
    aff = _read_affinities(_resolve(args, section, "aff", required=True))
    out = _resolve(args, section, "out", required=True)
    size_min = int(_resolve(args, section, "size-min", 25))
    t_merge = float(_resolve(args, section, "t-merge", 0.3))
    write_volume(_checked(size_filter, labels, aff, size_min, t_merge), out)
    return 0


def _cmd_build_rag(args, section) -> int:
    labels = _read_labels(_resolve(args, section, "labels", required=True))
    aff = _read_affinities(_resolve(args, section, "aff", required=True))
    out = _resolve(args, section, "out", required=True)
    rag = agglo.build_rag(labels, aff)
    with open(out, "w") as f:
        f.write("label_a,label_b,boundary_count,mean_affinity\n")
        for a, b in sorted(rag.edges):
            acc = rag.edge_acc(a, b)
            f.write(f"{a},{b},{acc.total_count},{acc.pooled_mean():.6f}\n")
    print(f"nodes={rag.n_nodes} edges={rag.n_edges}", file=sys.stderr)
    return 0


def _cmd_train(args, section) -> int:
    labels = _read_labels(_resolve(args, section, "labels", required=True))
    aff = _read_affinities(_resolve(args, section, "aff", required=True))
    gt = _read_labels(_resolve(args, section, "gt", required=True))
    out = _resolve(args, section, "model-out", required=True)
    rag = agglo.build_rag(labels, aff)
    scorer = agglo.train_scorer(rag, gt)
    scorer.save(out)
    return 0


def _cmd_agglomerate(args, section) -> int:
    labels = _read_labels(_resolve(args, section, "labels", required=True))
    aff = _read_affinities(_resolve(args, section, "aff", required=True))
    out = _resolve(args, section, "out", required=True)
    tree_out = _resolve(args, section, "tree-out")
    theta = float(_resolve(args, section, "theta", 0.5))
    scorer = _scorer_from(args, section)
    seg, tree = _checked(agglo.agglomerate, labels, aff, scorer, theta)
    write_volume(seg, out)
    if tree_out:
        tree.write(tree_out)
    return 0


def _cmd_apply_threshold(args, section) -> int:
    base = _read_labels(_resolve(args, section, "base", required=True))
    tree_path = _resolve(args, section, "tree", required=True)
    out = _resolve(args, section, "out", required=True)
    theta = float(_resolve(args, section, "theta", required=True))
    tree = agglo.MergeTree.read(tree_path, base)
    write_volume(_checked(agglo.apply_threshold, tree, base, theta), out)
    return 0


def _cmd_eval(args, section) -> int:
    seg = _read_labels(_resolve(args, section, "seg", required=True))
    gt = _read_labels(_resolve(args, section, "gt", required=True))
    score = metrics.split_vi(seg, gt)
    print(f"{score.vi_under:.6f},{score.vi_over:.6f}")
    return 0


def _cmd_curve(args, section) -> int:
    base = _read_labels(_resolve(args, section, "base", required=True))
    gt = _read_labels(_resolve(args, section, "gt", required=True))
    tree_path = _resolve(args, section, "tree", required=True)
    out = _resolve(args, section, "out", required=True)
    thetas = _resolve(args, section, "thetas", required=True)
    thetas = [float(t) for t in thetas]
    tree = agglo.MergeTree.read(tree_path, base)
    curve = _checked(metrics.vi_curve, tree, base, gt, thetas)
    with open(out, "w") as f:
        f.write("theta,vi_under,vi_over\n")
        for theta, score in curve:
            f.write(f"{theta:.6f},{score.vi_under:.6f},{score.vi_over:.6f}\n")
    return 0


def _cmd_partition(args, section) -> int:
    shape = [int(v) for v in _resolve(args, section, "shape", required=True)]
    block = [int(v) for v in _resolve(args, section, "block", required=True)]
    halo = [int(v) for v in _resolve(args, section, "halo", required=True)]
    out = _resolve(args, section, "out", required=True)
    prefix = _resolve(args, section, "prefix", "block")
    try:
        specs = partition_blocks(Shape3(*shape), tuple(block), tuple(halo))
    except (InvalidPartition, ValueError) as e:
        raise CliError(str(e)) from e
    paths = [f"{prefix}_{i:04d}.volb" for i in range(len(specs))]
    write_manifest(specs, paths, out)
    return 0


def _cmd_stitch(args, section) -> int:
    manifest = _resolve(args, section, "manifest", required=True)
    out = _resolve(args, section, "out", required=True)
    min_ratio = float(_resolve(args, section, "min-ratio", 0.5))
    min_voxels = int(_resolve(args, section, "min-voxels", 2))
    specs, paths = read_manifest(manifest)
    labelings = [_read_labels(p) for p in paths]
    merged = _checked(stitch, specs, labelings, min_ratio=min_ratio, min_voxels=min_voxels)
    write_volume(merged, out)
    return 0


def _cmd_pipeline(args, section) -> int:
    aff = _read_affinities(_resolve(args, section, "aff", required=True))
    gt = _read_labels(_resolve(args, section, "gt", required=True))
    workdir = _resolve(args, section, "workdir", required=True)
    params = _watershed_params(args, section)
    theta = float(_resolve(args, section, "theta", 0.5))
    _checked(agglo.check_theta, theta)
    scorer = _scorer_from(args, section)
    os.makedirs(workdir, exist_ok=True)

    seg, stats = zwatershed(aff, params)
    write_volume(seg, os.path.join(workdir, "watershed.volb"))
    merged, tree = agglo.agglomerate(seg, aff, scorer, theta)
    write_volume(merged, os.path.join(workdir, "agglomerated.volb"))
    tree.write(os.path.join(workdir, "merge_tree.txt"))
    score = metrics.split_vi(merged, gt)
    print(f"{score.vi_under:.6f},{score.vi_over:.6f}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "malis-grad": _cmd_malis_grad,
    "watershed": _cmd_watershed,
    "size-filter": _cmd_size_filter,
    "build-rag": _cmd_build_rag,
    "train": _cmd_train,
    "agglomerate": _cmd_agglomerate,
    "apply-threshold": _cmd_apply_threshold,
    "eval": _cmd_eval,
    "curve": _cmd_curve,
    "partition": _cmd_partition,
    "stitch": _cmd_stitch,
    "pipeline": _cmd_pipeline,
}


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its values")
    common.add_argument("--threads", type=int, default=1,
                        help="cap on internal parallelism (output-invariant)")

    p = argparse.ArgumentParser(prog="affseg",
                                description="affinity-graph segmentation toolkit")
    sub = p.add_subparsers(dest="command")

    sp = sub.add_parser("synth", parents=[common], help="generate synthetic GT + affinities")
    sp.add_argument("--shape", nargs=3, type=int, metavar=("Z", "Y", "X"))
    sp.add_argument("--seeds", type=int)
    sp.add_argument("--anisotropy", type=float)
    sp.add_argument("--sigma", type=float)
    sp.add_argument("--jitter", type=float)
    sp.add_argument("--rng-seed", type=int)
    sp.add_argument("--gt-out")
    sp.add_argument("--aff-out")

    sp = sub.add_parser("malis-grad", parents=[common],
                        help="pair-count loss gradient; prints the loss")
    sp.add_argument("--aff")
    sp.add_argument("--gt")
    sp.add_argument("--grad-out")
    sp.add_argument("--normalize", action="store_const", const=True, default=None)

    sp = sub.add_parser("watershed", parents=[common], help="affinity watershed")
    sp.add_argument("--aff")
    sp.add_argument("--out")
    sp.add_argument("--t-high", type=float)
    sp.add_argument("--t-low", type=float)
    sp.add_argument("--size-min", type=int)
    sp.add_argument("--t-merge", type=float)

    sp = sub.add_parser("size-filter", parents=[common], help="re-filter small segments")
    sp.add_argument("--labels")
    sp.add_argument("--aff")
    sp.add_argument("--out")
    sp.add_argument("--size-min", type=int)
    sp.add_argument("--t-merge", type=float)

    sp = sub.add_parser("build-rag", parents=[common],
                        help="boundary summary CSV of a segmentation")
    sp.add_argument("--labels")
    sp.add_argument("--aff")
    sp.add_argument("--out")

    sp = sub.add_parser("train", parents=[common], help="fit the logistic boundary scorer")
    sp.add_argument("--labels")
    sp.add_argument("--aff")
    sp.add_argument("--gt")
    sp.add_argument("--model-out")

    sp = sub.add_parser("agglomerate", parents=[common], help="hierarchical merging")
    sp.add_argument("--labels")
    sp.add_argument("--aff")
    sp.add_argument("--scorer", choices=["mean", "logistic"])
    sp.add_argument("--model")
    sp.add_argument("--theta", type=float)
    sp.add_argument("--out")
    sp.add_argument("--tree-out")

    sp = sub.add_parser("apply-threshold", parents=[common], help="replay a merge tree")
    sp.add_argument("--tree")
    sp.add_argument("--base")
    sp.add_argument("--theta", type=float)
    sp.add_argument("--out")

    sp = sub.add_parser("eval", parents=[common], help="split-VI against ground truth")
    sp.add_argument("--seg")
    sp.add_argument("--gt")

    sp = sub.add_parser("curve", parents=[common], help="split-VI threshold sweep CSV")
    sp.add_argument("--tree")
    sp.add_argument("--base")
    sp.add_argument("--gt")
    sp.add_argument("--thetas", nargs="+", type=float)
    sp.add_argument("--out")

    sp = sub.add_parser("partition", parents=[common], help="emit a block manifest skeleton")
    sp.add_argument("--shape", nargs=3, type=int, metavar=("Z", "Y", "X"))
    sp.add_argument("--block", nargs=3, type=int, metavar=("Z", "Y", "X"))
    sp.add_argument("--halo", nargs=3, type=int, metavar=("Z", "Y", "X"))
    sp.add_argument("--out")
    sp.add_argument("--prefix")

    sp = sub.add_parser("stitch", parents=[common], help="merge per-block labelings")
    sp.add_argument("--manifest")
    sp.add_argument("--out")
    sp.add_argument("--min-ratio", type=float)
    sp.add_argument("--min-voxels", type=int)

    sp = sub.add_parser("pipeline", parents=[common],
                        help="watershed -> agglomerate -> eval with intermediates")
    sp.add_argument("--aff")
    sp.add_argument("--gt")
    sp.add_argument("--workdir")
    sp.add_argument("--t-high", type=float)
    sp.add_argument("--t-low", type=float)
    sp.add_argument("--size-min", type=int)
    sp.add_argument("--t-merge", type=float)
    sp.add_argument("--scorer", choices=["mean", "logistic"])
    sp.add_argument("--model")
    sp.add_argument("--theta", type=float)

    return p, sub.choices


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        threads = getattr(args, "threads", 1)
        if threads is not None and threads < 1:
            raise CliError(f"--threads must be >= 1, got {threads}")
        section = _load_config(getattr(args, "config", None), args.command,
                               commands[args.command])
        return _COMMANDS[args.command](args, section)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 -- boundary of the program
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
