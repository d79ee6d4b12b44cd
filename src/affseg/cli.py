"""Command-line entry point.

One subcommand per pipeline stage plus `pipeline`, which chains
watershed -> agglomerate -> eval and writes every intermediate.  Each flag
is declared once, in `_build_parser`, with its type and either its default
(read from the library where it has one, e.g. `WatershedParams`) or
``required=True``.  Any flag can instead come from a JSON config file
(``--config``): one object per subcommand, keyed by flag name.  Its keys
are placed before the command line's flags and parsed with them, so each
is converted and checked as its flag is (with argparse's message), flags
beat config values and config values beat defaults, and missing required
flags are reported together.  All of it, and ``--threads``, is checked
before any input is read.

Exit codes: 0 success; 2 for any ValueError, which every bad-input error of
the package is (a bad parameter, a malformed config, tree, model or volume
file, a ground truth `train` cannot learn from), and for a usage error;
1 for anything else, such as a missing input or config file.
All subcommands are deterministic: identical inputs give byte-identical
outputs, regardless of ``--threads`` (a cap on internal parallelism; the
current implementation is single-threaded).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from affseg import agglo, metrics, synthdata
from affseg.malis import malis_gradient
from affseg.stitch import partition_blocks, read_manifest, stitch, tiled_shape, write_manifest
from affseg.volume import (AffinityVolume, LabelVolume, Shape3, read_volume,
                           require_affinity_range, require_same_shape, write_volume)
from affseg.zwatershed import WatershedParams, size_filter, zwatershed

def _read_labels(path) -> LabelVolume:
    vol = read_volume(path)
    if not isinstance(vol, LabelVolume):
        raise ValueError(f"{path}: expected a label volume")
    return vol


def _read_gt(path) -> LabelVolume:
    gt = _read_labels(path)
    if not gt.data.any():
        raise ValueError(f"{path}: ground truth has no labeled voxel")
    return gt


def _read_affinities(path) -> AffinityVolume:
    vol = read_volume(path)
    if not isinstance(vol, AffinityVolume):
        raise ValueError(f"{path}: expected an affinity volume")
    try:
        require_affinity_range(vol.data)  # read_volume skips the range check
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e
    return vol


def _config_tokens(path, command: str, parser: argparse.ArgumentParser) -> list[str]:
    """The command's config section as flag tokens for argparse to convert and
    check: ``--key=value`` for one value, ``--key v1 v2 ...`` for a list and
    ``--key`` for a switch set true.  The JSON types, which the tokens do not
    carry, are checked here: a switch takes true or false, a list goes to a
    flag of several values only, and no other flag takes a boolean, null or
    an object."""
    with open(path) as f:
        try:
            cfg = json.load(f)
        except ValueError as e:
            raise ValueError(f"{path}: malformed config: {e}") from e
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config root must be a JSON object")
    sec = cfg.get(command, {})
    if not isinstance(sec, dict):
        raise ValueError(f"{path}: section {command!r} must be a JSON object")
    tokens = []
    for key, value in sec.items():
        action = parser._option_string_actions.get(f"--{key}")
        if action is None or key in ("config", "help"):
            raise ValueError(f"{path}: unknown key {key!r} in section {command!r}")
        items = value if isinstance(value, list) and action.nargs else [value]
        if (action.nargs == 0) != isinstance(value, bool) or not all(
                isinstance(v, (str, int, float)) for v in items):
            raise ValueError(f"{path}: {command}.{key}: invalid value {value!r}")
        if isinstance(value, list):
            tokens += [f"--{key}", *map(str, value)]
        elif value is not False:
            tokens.append(f"--{key}" if value is True else f"--{key}={value}")
    return tokens


def _scorer_from(args) -> object:
    if args.scorer == "mean":
        return agglo.MeanAffinity()
    if args.model is None:
        raise ValueError("missing required option --model (or config key 'model')")
    return agglo.Logistic.load(args.model)


def _watershed_params(args) -> WatershedParams:
    return WatershedParams(args.t_high, args.t_low, args.size_min, args.t_merge)


def _cmd_synth(args) -> int:
    sp = synthdata.SynthParams(args.seeds, args.anisotropy, args.rng_seed)
    npar = synthdata.NoiseParams(args.sigma, args.jitter, args.rng_seed)
    gt = synthdata.synth_labels(Shape3(*args.shape), sp)
    aff = synthdata.synth_affinities(gt, npar)
    write_volume(gt, args.gt_out)
    write_volume(aff, args.aff_out)
    return 0


def _cmd_malis_grad(args) -> int:
    aff = _read_affinities(args.aff)
    gt = _read_labels(args.gt)
    result = malis_gradient(aff, gt, normalize=args.normalize)
    write_volume(result.gradient, args.grad_out)
    print(repr(result.loss))
    return 0


def _cmd_watershed(args) -> int:
    aff = _read_affinities(args.aff)
    seg, stats = zwatershed(aff, _watershed_params(args))
    write_volume(seg, args.out)
    print(f"segments={stats.n_segments} background={stats.background}", file=sys.stderr)
    return 0


def _cmd_size_filter(args) -> int:
    labels = _read_labels(args.labels)
    aff = _read_affinities(args.aff)
    write_volume(size_filter(labels, aff, args.size_min, args.t_merge), args.out)
    return 0


def _cmd_build_rag(args) -> int:
    scorer = agglo.MeanAffinity()
    rag = agglo.build_rag(_read_labels(args.labels), _read_affinities(args.aff), scorer.reads)
    counts, means = rag.table.total_count.tolist(), scorer.score(rag.table, None, None).tolist()
    with open(args.out, "w") as f:
        f.write("label_a,label_b,boundary_count,mean_affinity\n")  # rows in (lo, hi) order
        f.writelines(f"{a},{b},{n},{m:.6f}\n" for a, b, n, m in zip(rag.lo, rag.hi, counts, means))
    print(f"nodes={rag.n_nodes} edges={rag.n_edges}", file=sys.stderr)
    return 0


def _cmd_train(args) -> int:
    labels, aff, gt = _read_labels(args.labels), _read_affinities(args.aff), _read_gt(args.gt)
    agglo.train_scorer(agglo.build_rag(labels, aff), gt).save(args.model_out)
    return 0


def _cmd_agglomerate(args) -> int:
    scorer = _scorer_from(args)
    labels = _read_labels(args.labels)
    aff = _read_affinities(args.aff)
    seg, tree = agglo.agglomerate(labels, aff, scorer, args.theta)
    write_volume(seg, args.out)
    if args.tree_out:
        tree.write(args.tree_out)
    return 0


def _cmd_apply_threshold(args) -> int:
    base = _read_labels(args.base)
    tree = agglo.MergeTree.read(args.tree, base)
    write_volume(agglo.apply_threshold(tree, base, args.theta), args.out)
    return 0


def _cmd_eval(args) -> int:
    score = metrics.split_vi(_read_labels(args.seg), _read_gt(args.gt))
    print(f"{score.vi_under:.6f},{score.vi_over:.6f}")
    return 0


def _cmd_curve(args) -> int:
    base = _read_labels(args.base)
    gt = _read_gt(args.gt)
    tree = agglo.MergeTree.read(args.tree, base)
    curve = metrics.vi_curve(tree, base, gt, args.thetas)
    with open(args.out, "w") as f:
        f.write("theta,vi_under,vi_over\n")
        for theta, score in curve:
            f.write(f"{theta:.6f},{score.vi_under:.6f},{score.vi_over:.6f}\n")
    return 0


def _cmd_partition(args) -> int:
    specs = partition_blocks(Shape3(*args.shape), args.block, args.halo)
    paths = [f"{args.prefix}_{i:04d}.volb" for i in range(len(specs))]
    write_manifest(specs, paths, args.out)
    return 0


def _cmd_stitch(args) -> int:
    specs, paths = read_manifest(args.manifest)
    tiled_shape(specs)
    labelings = [_read_labels(p) for p in paths]
    merged = stitch(specs, labelings, min_ratio=args.min_ratio, min_voxels=args.min_voxels)
    write_volume(merged, args.out)
    return 0


def _cmd_pipeline(args) -> int:
    params = _watershed_params(args)
    agglo.check_theta(args.theta)
    scorer = _scorer_from(args)
    aff = _read_affinities(args.aff)
    gt = _read_gt(args.gt)
    require_same_shape(aff, gt)
    os.makedirs(args.workdir, exist_ok=True)

    seg, stats = zwatershed(aff, params)
    write_volume(seg, os.path.join(args.workdir, "watershed.volb"))
    merged, tree = agglo.agglomerate(seg, aff, scorer, args.theta)
    write_volume(merged, os.path.join(args.workdir, "agglomerated.volb"))
    tree.write(os.path.join(args.workdir, "merge_tree.txt"))
    del aff, seg, tree  # split_vi reads only merged and gt
    score = metrics.split_vi(merged, gt)
    print(f"{score.vi_under:.6f},{score.vi_over:.6f}")
    return 0


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    p = argparse.ArgumentParser(prog="affseg",
                                description="affinity-graph segmentation toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(handler=handler)
        sp.add_argument("--config", help="JSON config file; flags override its values")
        sp.add_argument("--threads", type=int, default=1,
                        help="cap on internal parallelism (output-invariant)")
        return sp

    def required(sp, *flags, **kwargs):
        for flag in flags:
            sp.add_argument(flag, required=True, **kwargs)

    def watershed_flags(sp, names=("t-high", "t-low", "size-min", "t-merge")):
        for name in names:
            default = getattr(WatershedParams, name.replace("-", "_"))
            sp.add_argument(f"--{name}", type=type(default), default=default)

    def scorer_flags(sp):
        sp.add_argument("--scorer", choices=["mean", "logistic"], default="mean")
        sp.add_argument("--model", help="model file; required with --scorer logistic")
        sp.add_argument("--theta", type=float, default=0.5)

    zyx = dict(nargs=3, type=int, metavar=("Z", "Y", "X"))

    sp = command("synth", _cmd_synth, "generate synthetic GT + affinities")
    required(sp, "--shape", **zyx)
    required(sp, "--seeds", type=int)
    sp.add_argument("--anisotropy", type=float, default=synthdata.SynthParams.anisotropy)
    sp.add_argument("--sigma", type=float, default=synthdata.NoiseParams.flip_sigma)
    sp.add_argument("--jitter", type=float, default=synthdata.NoiseParams.jitter_prob)
    sp.add_argument("--rng-seed", type=int, default=synthdata.SynthParams.rng_seed)
    required(sp, "--gt-out", "--aff-out")

    sp = command("malis-grad", _cmd_malis_grad, "pair-count loss gradient; prints the loss")
    required(sp, "--aff", "--gt", "--grad-out")
    sp.add_argument("--normalize", action="store_true")

    sp = command("watershed", _cmd_watershed, "affinity watershed")
    required(sp, "--aff", "--out")
    watershed_flags(sp)

    sp = command("size-filter", _cmd_size_filter, "re-filter small segments")
    required(sp, "--labels", "--aff", "--out")
    watershed_flags(sp, ("size-min", "t-merge"))

    sp = command("build-rag", _cmd_build_rag, "boundary summary CSV of a segmentation")
    required(sp, "--labels", "--aff", "--out")

    sp = command("train", _cmd_train, "fit the logistic boundary scorer")
    required(sp, "--labels", "--aff", "--gt", "--model-out")

    sp = command("agglomerate", _cmd_agglomerate, "hierarchical merging")
    required(sp, "--labels", "--aff", "--out")
    scorer_flags(sp)
    sp.add_argument("--tree-out")

    sp = command("apply-threshold", _cmd_apply_threshold, "replay a merge tree")
    required(sp, "--tree", "--base", "--out")
    required(sp, "--theta", type=float)

    sp = command("eval", _cmd_eval, "split-VI against ground truth")
    required(sp, "--seg", "--gt")

    sp = command("curve", _cmd_curve, "split-VI threshold sweep CSV")
    required(sp, "--tree", "--base", "--gt", "--out")
    required(sp, "--thetas", nargs="+", type=float)

    sp = command("partition", _cmd_partition, "emit a block manifest skeleton")
    required(sp, "--shape", "--block", "--halo", **zyx)
    required(sp, "--out")
    sp.add_argument("--prefix", default="block")

    sp = command("stitch", _cmd_stitch, "merge per-block labelings")
    required(sp, "--manifest", "--out")
    sp.add_argument("--min-ratio", type=float, default=0.5)
    sp.add_argument("--min-voxels", type=int, default=2)

    sp = command("pipeline", _cmd_pipeline,
                 "watershed -> agglomerate -> eval with intermediates")
    required(sp, "--aff", "--gt", "--workdir")
    watershed_flags(sp)
    scorer_flags(sp)

    return p, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    try:
        if argv and argv[0] in commands:
            # the config section goes before the command line's flags, which win
            pre = argparse.ArgumentParser(add_help=False)
            pre.add_argument("--config", nargs="?")  # a missing path is the full parse's error
            path = pre.parse_known_args(argv[1:])[0].config
            if path is not None:
                argv[1:1] = _config_tokens(path, argv[0], commands[argv[0]])
        args = parser.parse_args(argv)
        if args.threads < 1:
            raise ValueError(f"--threads must be >= 1, got {args.threads}")
        return args.handler(args)
    except SystemExit as e:  # argparse: usage error or --help
        return int(e.code) if e.code else 0
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 -- boundary of the program
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
