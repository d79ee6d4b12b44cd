import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from affseg.agglo import MODEL_MAGIC_VERSION, N_FEATURES
from affseg.cli import REQUIRED, _build_parser, main
from affseg.synthdata import NoiseParams, SynthParams, synth_affinities, synth_labels
from affseg.volume import AffinityVolume, LabelVolume, Shape3, read_volume, write_volume


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def workdir(tmp_path):
    """Synthetic GT + noisy affinities on disk, plus a watershed result."""
    gt = synth_labels(Shape3(6, 12, 12), SynthParams(n_seeds=4, anisotropy=2.0, rng_seed=0))
    aff = synth_affinities(gt, NoiseParams(flip_sigma=0.25, jitter_prob=0.0, rng_seed=0))
    write_volume(gt, tmp_path / "gt.volb")
    write_volume(aff, tmp_path / "aff.volb")
    code, _, _ = run(["watershed", "--aff", str(tmp_path / "aff.volb"),
                      "--out", str(tmp_path / "ws.volb"),
                      "--t-high", "0.995", "--t-low", "0.5",
                      "--size-min", "0", "--t-merge", "0.5"])
    assert code == 0
    return tmp_path


def test_unknown_subcommand():
    code, _, _ = run(["frobnicate"])
    assert code == 2


def test_no_subcommand():
    code, _, _ = run([])
    assert code == 2


def test_eval_identity_prints_zeros(workdir):
    code, out, _ = run(["eval", "--seg", str(workdir / "gt.volb"),
                        "--gt", str(workdir / "gt.volb")])
    assert code == 0
    assert out == "0.000000,0.000000\n"


def test_eval_missing_file_is_runtime_error(workdir):
    code, _, err = run(["eval", "--seg", str(workdir / "nope.volb"),
                        "--gt", str(workdir / "gt.volb")])
    assert code == 1
    assert "error" in err


def test_eval_missing_flag_is_usage_error(workdir):
    code, _, err = run(["eval", "--gt", str(workdir / "gt.volb")])
    assert code == 2
    assert "--seg" in err or "seg" in err


def test_watershed_invalid_params_usage_error(workdir):
    code, _, _ = run(["watershed", "--aff", str(workdir / "aff.volb"),
                      "--out", str(workdir / "x.volb"),
                      "--t-high", "0.2", "--t-low", "0.9"])
    assert code == 2


def test_synth_writes_volumes(tmp_path):
    code, _, _ = run(["synth", "--shape", "4", "6", "6", "--seeds", "3",
                      "--anisotropy", "2.0", "--sigma", "0.1", "--jitter", "0.2",
                      "--rng-seed", "5",
                      "--gt-out", str(tmp_path / "gt.volb"),
                      "--aff-out", str(tmp_path / "aff.volb")])
    assert code == 0
    gt = read_volume(tmp_path / "gt.volb")
    aff = read_volume(tmp_path / "aff.volb")
    assert gt.data.shape == (4, 6, 6)
    assert aff.data.shape == (3, 4, 6, 6)


def test_malis_grad_prints_loss_and_writes_gradient(workdir):
    code, out, _ = run(["malis-grad", "--aff", str(workdir / "aff.volb"),
                        "--gt", str(workdir / "gt.volb"),
                        "--grad-out", str(workdir / "grad.volb")])
    assert code == 0
    loss = float(out.strip())
    assert loss > 0.0
    grad = read_volume(workdir / "grad.volb")
    assert grad.data.shape == (3, 6, 12, 12)


def test_config_file_with_flag_override(workdir):
    cfg = {"eval": {"seg": str(workdir / "gt.volb"), "gt": str(workdir / "gt.volb")}}
    cfg_path = workdir / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, _ = run(["eval", "--config", str(cfg_path)])
    assert code == 0
    assert out == "0.000000,0.000000\n"

    # a flag beats the config value: ws is oversegmented, so vi_over > 0
    code, out2, _ = run(["eval", "--config", str(cfg_path),
                         "--seg", str(workdir / "ws.volb")])
    assert code == 0
    assert out2 != out
    assert float(out2.strip().split(",")[1]) > 0.0


def test_full_cli_workflow_and_determinism(workdir, tmp_path):
    """Every subcommand, run twice into separate dirs: byte-identical outputs."""
    from workflows import run_all_subcommands

    first = run_all_subcommands(workdir, tmp_path / "run1", threads=1)
    second = run_all_subcommands(workdir, tmp_path / "run2", threads=8)
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"


# SHA-256 of every output of `run_all_subcommands` that does not go through
# a BLAS matmul (model.bin and agg_log.volb do, via the logistic fit), so
# any change to what the CLI writes shows up here.  Recorded before the
# edge helpers in affseg.volume and the single replay path in affseg.agglo
# replaced their per-module copies.
PINNED_DIGESTS = {
    "agg.volb": "e8b63a6ecf3fa63efb3f703453495a2abc096b0e6e91d453661b781dcd146af0",
    "agglomerated.volb": "c0806cf05497d2aab7f0122ff90d31dff399a7777a056be4a1a80fe957867a16",
    "curve.csv": "edb1c30f0dde339d06118711342a3bbb6c6b6679ebb589dc50a28c0dce10b371",
    "eval_stdout": "250cdb7099de5859abc43961d138742162d8735881a371a711854fec96db31bc",
    "grad.volb": "164957320114eb27f210d36d5702fbe66c40618a1338bc996006edaa700f3b5d",
    "malis_stdout": "989013a3b4819b51549d2181098ee2e967257fe551eb8e1d6cefe32d830a68a5",
    "manifest.txt": "e7769e071d41ff13f1d8ce31d2622a220e6829f9318923b8bc2dc4d0e110e32c",
    "merge_tree.txt": "69a3b5dca480bd5b86d048d952e70436024b04d493f38fd0d70376a7be58b8e0",
    "pipeline_stdout": "282eb529362f7e62edf62b654eabbf6c008c8248a1b0f991b06864f0cc3756e2",
    "rag.csv": "ffc9560cda63b8677fab21cf27b37e2caeb290301a3105f98897854d4fce67f7",
    "sf.volb": "e70d6118bf67aaa173b1e1e731457a7865c02c40426ac61fa159f8070c12e4f8",
    "stitched.volb": "83187a4f71dc7dbf0049e4c54afe07e4b34412d0f7d9911d2cbc143de0980715",
    "thr.volb": "c0806cf05497d2aab7f0122ff90d31dff399a7777a056be4a1a80fe957867a16",
    "tree.txt": "11424c5b345bbc1e261488316762867c0581b80117bff8cbc4d5ec448da52815",
    "watershed.volb": "efe839f373febbc96d2910d88182dd48638f85fe0cc1990340d9f5f85b56a2ba",
    "ws.volb": "efe839f373febbc96d2910d88182dd48638f85fe0cc1990340d9f5f85b56a2ba",
}


def test_outputs_match_pinned_digests(workdir, tmp_path):
    from workflows import run_all_subcommands

    files = run_all_subcommands(workdir, tmp_path / "run", threads=1)
    assert set(files) - set(PINNED_DIGESTS) == {"model.bin", "agg_log.volb"}
    for name, digest in PINNED_DIGESTS.items():
        assert hashlib.sha256(files[name]).hexdigest() == digest, f"{name} changed"


def _write_raw_affinities(path, data):
    write_volume(AffinityVolume(np.asarray(data, dtype=np.float32), check_range=False), path)


@pytest.mark.parametrize("where,bad", [((0, 0, 0, 0), np.nan), ((0, 0, 0, 0), -0.5),
                                       (..., 7.0)])
def test_out_of_range_affinities_are_usage_errors(workdir, where, bad):
    data = read_volume(workdir / "aff.volb").data.copy()
    data[where] = bad
    _write_raw_affinities(workdir / "bad.volb", data)
    code, _, err = run(["watershed", "--aff", str(workdir / "bad.volb"),
                        "--out", str(workdir / "o.volb")])
    assert code == 2
    assert "affinities must be finite and lie in [0, 1]" in err
    assert not (workdir / "o.volb").exists()


def test_gradient_volume_as_affinities_rejected(workdir):
    code, _, _ = run(["malis-grad", "--aff", str(workdir / "aff.volb"),
                      "--gt", str(workdir / "gt.volb"),
                      "--grad-out", str(workdir / "grad.volb")])
    assert code == 0
    for argv in (["watershed", "--out", str(workdir / "o.volb")],
                 ["malis-grad", "--gt", str(workdir / "gt.volb"),
                  "--grad-out", str(workdir / "g2.volb")]):
        code, _, err = run(argv + ["--aff", str(workdir / "grad.volb")])
        assert code == 2, argv
        assert "grad.volb" in err


def _run_with_config(workdir, command, section, *flags):
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({command: section}))
    return run([command, "--config", str(cfg), *flags])


def test_config_unknown_key_is_usage_error(workdir):
    code, _, err = _run_with_config(
        workdir, "watershed",
        {"aff": str(workdir / "aff.volb"), "out": str(workdir / "o.volb"), "t_high": 0.5})
    assert code == 2
    assert "t_high" in err
    assert not (workdir / "o.volb").exists()


def test_config_boolean_must_be_true_or_false(workdir):
    section = {"aff": str(workdir / "aff.volb"), "gt": str(workdir / "gt.volb"),
               "grad-out": str(workdir / "g.volb")}
    code, _, err = _run_with_config(workdir, "malis-grad", {**section, "normalize": "false"})
    assert code == 2
    assert "normalize" in err
    # JSON false really means off, true means on
    code, plain, _ = _run_with_config(workdir, "malis-grad", {**section, "normalize": False})
    assert code == 0
    code, normed, _ = _run_with_config(workdir, "malis-grad", {**section, "normalize": True})
    assert code == 0
    assert float(normed) < float(plain)


@pytest.mark.parametrize("key,value", [
    ("size-min", "many"), ("size-min", 2.5), ("t-high", True), ("t-low", [0.5]),
])
def test_config_values_converted_like_flags(workdir, key, value):
    section = {"aff": str(workdir / "aff.volb"), "out": str(workdir / "o.volb"), key: value}
    code, _, err = _run_with_config(workdir, "watershed", section)
    assert code == 2
    assert key in err


def test_config_values_match_flags(workdir):
    code, _, _ = _run_with_config(
        workdir, "watershed",
        {"aff": str(workdir / "aff.volb"), "out": str(workdir / "c.volb"),
         "t-high": "0.995", "t-low": 0.5, "size-min": 0, "t-merge": 0.5})
    assert code == 0
    assert (workdir / "c.volb").read_bytes() == (workdir / "ws.volb").read_bytes()
    code, _, _ = _run_with_config(
        workdir, "partition", {"shape": [6, 12, 12], "block": [6, 6, 12], "halo": [0, 2, 0],
                               "out": str(workdir / "m.txt")})
    assert code == 0
    code, _, _ = _run_with_config(
        workdir, "partition", {"shape": [6, 12], "block": [6, 6, 12], "halo": [0, 2, 0],
                               "out": str(workdir / "m.txt")})
    assert code == 2


@pytest.fixture
def replay_inputs(workdir):
    """The workdir plus a full merge tree of ws.volb and a one-block manifest."""
    code, _, _ = run(["agglomerate", "--labels", str(workdir / "ws.volb"),
                      "--aff", str(workdir / "aff.volb"), "--theta", "0.0",
                      "--out", str(workdir / "agg.volb"), "--tree-out", str(workdir / "tree.txt")])
    assert code == 0
    code, _, _ = run(["partition", "--shape", "6", "12", "12", "--block", "6", "12", "12",
                      "--halo", "0", "0", "0", "--out", str(workdir / "manifest.txt"),
                      "--prefix", str(workdir / "blk")])
    assert code == 0
    (workdir / "blk_0000.volb").write_bytes((workdir / "ws.volb").read_bytes())
    return workdir


def _replay_argv(command, *flags):
    return [command, "--tree", "tree.txt", "--base", "ws.volb", *flags]


BAD_PARAMETERS = {
    "apply-threshold-theta-7": _replay_argv("apply-threshold", "--theta", "7", "--out", "o.volb"),
    "apply-threshold-theta-nan": _replay_argv("apply-threshold", "--theta", "nan",
                                              "--out", "o.volb"),
    "curve-theta-5": _replay_argv("curve", "--gt", "gt.volb", "--thetas", "5", "0.5",
                                  "--out", "o.csv"),
    "curve-non-decreasing": _replay_argv("curve", "--gt", "gt.volb", "--thetas", "0.2", "0.5",
                                         "--out", "o.csv"),
    "size-filter-size-min-negative": ["size-filter", "--labels", "ws.volb", "--aff", "aff.volb",
                                      "--size-min", "-5", "--out", "o.volb"],
    "size-filter-t-merge-3": ["size-filter", "--labels", "ws.volb", "--aff", "aff.volb",
                              "--t-merge", "3", "--out", "o.volb"],
    "agglomerate-theta-1.5": ["agglomerate", "--labels", "ws.volb", "--aff", "aff.volb",
                              "--theta", "1.5", "--out", "o.volb"],
    "pipeline-theta-2": ["pipeline", "--aff", "aff.volb", "--gt", "gt.volb",
                         "--workdir", "pipe", "--theta", "2"],
    "stitch-min-ratio-0": ["stitch", "--manifest", "manifest.txt", "--min-ratio", "0",
                           "--out", "o.volb"],
    "stitch-min-voxels-0": ["stitch", "--manifest", "manifest.txt", "--min-voxels", "0",
                            "--out", "o.volb"],
    "partition-shape-0": ["partition", "--shape", "0", "4", "4", "--block", "2", "2", "2",
                          "--halo", "1", "1", "1", "--out", "o.csv"],
    "synth-seeds-0": ["synth", "--shape", "4", "6", "6", "--seeds", "0",
                      "--gt-out", "o.volb", "--aff-out", "o.csv"],
    "synth-shape-0": ["synth", "--shape", "0", "8", "8", "--seeds", "3",
                      "--gt-out", "o.volb", "--aff-out", "o.csv"],
    "synth-anisotropy-nan": ["synth", "--shape", "4", "6", "6", "--seeds", "3",
                             "--anisotropy", "nan", "--gt-out", "o.volb", "--aff-out", "o.csv"],
    "synth-anisotropy-inf": ["synth", "--shape", "4", "6", "6", "--seeds", "3",
                             "--anisotropy", "inf", "--gt-out", "o.volb", "--aff-out", "o.csv"],
    "synth-sigma-nan": ["synth", "--shape", "4", "6", "6", "--seeds", "3",
                        "--sigma", "nan", "--gt-out", "o.volb", "--aff-out", "o.csv"],
    "synth-sigma-inf": ["synth", "--shape", "4", "6", "6", "--seeds", "3",
                        "--sigma", "inf", "--gt-out", "o.volb", "--aff-out", "o.csv"],
    "synth-too-many-seeds": ["synth", "--shape", "1", "1", "2", "--seeds", "5",
                             "--gt-out", "o.volb", "--aff-out", "o.csv"],
}


@pytest.mark.parametrize("case", sorted(BAD_PARAMETERS))
def test_bad_parameters_are_usage_errors(replay_inputs, case):
    paths = {"ws.volb", "aff.volb", "gt.volb", "tree.txt", "manifest.txt", "o.volb", "o.csv",
             "pipe"}
    argv = [str(replay_inputs / a) if a in paths else a for a in BAD_PARAMETERS[case]]
    code, _, err = run(argv)
    assert code == 2, err
    assert err.startswith("error: ")
    for out in ("o.volb", "o.csv", "pipe"):
        assert not (replay_inputs / out).exists()


def test_inputs_never_mutated(workdir):
    aff_bytes = (workdir / "aff.volb").read_bytes()
    gt_bytes = (workdir / "gt.volb").read_bytes()
    run(["watershed", "--aff", str(workdir / "aff.volb"),
         "--out", str(workdir / "o.volb"),
         "--t-high", "0.9", "--t-low", "0.3", "--size-min", "0", "--t-merge", "0.3"])
    run(["eval", "--seg", str(workdir / "gt.volb"), "--gt", str(workdir / "gt.volb")])
    assert (workdir / "aff.volb").read_bytes() == aff_bytes
    assert (workdir / "gt.volb").read_bytes() == gt_bytes


def test_pipeline_noiseless_reaches_zero_vi(tmp_path):
    gt = synth_labels(Shape3(6, 10, 10), SynthParams(n_seeds=3, anisotropy=2.0, rng_seed=7))
    aff = synth_affinities(gt, NoiseParams())
    write_volume(gt, tmp_path / "gt.volb")
    write_volume(aff, tmp_path / "aff.volb")
    code, out, _ = run(["pipeline", "--aff", str(tmp_path / "aff.volb"),
                        "--gt", str(tmp_path / "gt.volb"),
                        "--workdir", str(tmp_path / "work"),
                        "--t-high", "0.9", "--t-low", "0.3", "--size-min", "0",
                        "--t-merge", "0.3", "--scorer", "mean", "--theta", "0.5"])
    assert code == 0
    assert out == "0.000000,0.000000\n"


def test_curve_csv_format(workdir, tmp_path):
    run(["agglomerate", "--labels", str(workdir / "ws.volb"),
         "--aff", str(workdir / "aff.volb"), "--scorer", "mean", "--theta", "0.0",
         "--out", str(tmp_path / "a.volb"), "--tree-out", str(tmp_path / "t.txt")])
    code, _, _ = run(["curve", "--tree", str(tmp_path / "t.txt"),
                      "--base", str(workdir / "ws.volb"),
                      "--gt", str(workdir / "gt.volb"),
                      "--thetas", "1.0", "0.5", "0.0",
                      "--out", str(tmp_path / "c.csv")])
    assert code == 0
    lines = (tmp_path / "c.csv").read_text().splitlines()
    assert lines[0] == "theta,vi_under,vi_over"
    assert len(lines) == 4
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == 3
        float(parts[0]), float(parts[1]), float(parts[2])


def test_threads_validation(workdir):
    code, _, _ = run(["eval", "--seg", str(workdir / "gt.volb"),
                      "--gt", str(workdir / "gt.volb"), "--threads", "0"])
    assert code == 2


def test_threads_from_config_validated_like_flag(workdir):
    section = {"seg": str(workdir / "gt.volb"), "gt": str(workdir / "gt.volb")}
    for flags, cfg in (([], {**section, "threads": 0}), (["--threads", "0"], section)):
        code, out, err = _run_with_config(workdir, "eval", cfg, *flags)
        assert code == 2, err
        assert "threads" in err
        assert out == ""


def test_malformed_config_is_usage_error_naming_file(workdir):
    cfg = workdir / "cfg.json"
    cfg.write_text('{"eval": {"seg": "gt.volb",\n')
    code, _, err = run(["eval", "--config", str(cfg)])
    assert code == 2
    assert str(cfg) in err
    # a config file that is not there is a missing input like any other
    code, _, err = run(["eval", "--config", str(workdir / "nope.json")])
    assert code == 1
    assert "nope.json" in err


BAD_INPUT_FILES = {
    "tree-two-fields": ("tree.txt", "3 1 0.9\n1 2\n", 2),
    "tree-score-not-a-float": ("tree.txt", "3 1 0.9\n\n1 2 notafloat\n", 3),
    "tree-self-merge": ("tree.txt", "3 1 0.9\n2 2 0.8\n", 2),
    "tree-absorbed-survivor": ("tree.txt", "3 1 0.9\n1 3 0.8\n", 2),
    "tree-absorbed-twice": ("tree.txt", "3 1 0.9\n2 1 0.8\n", 2),
    "tree-label-not-in-base": ("tree.txt", "3 1 0.9\n999 1000 0.9\n", 2),
    "tree-score-nan": ("tree.txt", "3 1 0.9\n3 2 nan\n", 2),
    "tree-score-above-one": ("tree.txt", "3 1 0.9\n3 2 1.5\n", 2),
    "manifest-12-fields": ("manifest.txt", "0 6 0 12 0 12 0 6 0 12 0 12\n", 1),
    "manifest-not-an-int": ("manifest.txt", "0 6 0 12 0 12 0 6 0 1.5 0 12 blk.volb\n", 1),
    "manifest-core-outside-halo": ("manifest.txt", "0 6 0 12 0 12 0 6 2 12 0 12 blk.volb\n", 1),
    "manifest-halo-reversed": ("manifest.txt", "0 6 0 12 0 12 0 6 0 12 0 12 blk.volb\n"
                               "0 4 0 4 0 4 4 0 0 4 0 4 blk.volb\n", 2),
    "manifest-negative-start": ("manifest.txt", "-2 6 0 12 0 12 -2 6 0 12 0 12 blk.volb\n", 1),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT_FILES))
def test_malformed_tree_and_manifest_lines_are_usage_errors(replay_inputs, case):
    name, text, lineno = BAD_INPUT_FILES[case]
    bad = replay_inputs / f"bad_{name}"
    bad.write_text(text)
    base = ["--base", str(replay_inputs / "ws.volb")]
    if name == "tree.txt":
        commands = [["apply-threshold", "--tree", str(bad), *base, "--theta", "0.5",
                     "--out", str(replay_inputs / "o.volb")],
                    ["curve", "--tree", str(bad), *base, "--gt", str(replay_inputs / "gt.volb"),
                     "--thetas", "0.5", "--out", str(replay_inputs / "o.csv")]]
    else:
        commands = [["stitch", "--manifest", str(bad), "--out", str(replay_inputs / "o.volb")]]
    for argv in commands:
        code, _, err = run(argv)
        assert code == 2, err
        assert f"{bad}: line {lineno}:" in err
        assert not (replay_inputs / "o.volb").exists()
        assert not (replay_inputs / "o.csv").exists()


@pytest.mark.parametrize("cores,message", [
    ([(0, 4), (2, 6)], "cores of blocks 0 and 1 overlap"),   # two writers for z 2 and 3
    ([(0, 2), (4, 6)], "the cores of 2 blocks do not tile (6, 12, 12)"),  # no writer for z 2, 3
    ([], "the cores of 0 blocks do not tile"),
])
def test_stitch_cores_that_do_not_tile_are_usage_errors(replay_inputs, cores, message):
    manifest = replay_inputs / "bad_manifest.txt"
    blk = replay_inputs / "blk_0000.volb"
    manifest.write_text("".join(f"{z0} {z1} 0 12 0 12 0 6 0 12 0 12 {blk}\n" for z0, z1 in cores))
    code, _, err = run(["stitch", "--manifest", str(manifest),
                        "--out", str(replay_inputs / "o.volb")])
    assert code == 2, err
    assert message in err
    assert not (replay_inputs / "o.volb").exists()


def test_stitch_checks_the_tiling_before_reading_blocks(replay_inputs):
    manifest = replay_inputs / "bad_manifest.txt"
    manifest.write_text(2 * f"0 6 0 12 0 12 0 6 0 12 0 12 {replay_inputs / 'nope.volb'}\n")
    code, _, err = run(["stitch", "--manifest", str(manifest),
                        "--out", str(replay_inputs / "o.volb")])
    assert code == 2, err
    assert "cores of blocks 0 and 1 overlap" in err
    assert not (replay_inputs / "o.volb").exists()


BAD_VOLUMES = {
    "zero-dimension": (lambda raw: raw[:16] + bytes(8) + raw[24:],
                       "dimension z must be a positive integer, got 0"),
    "truncated-payload": (lambda raw: raw[:-8], "payload is"),
    "bad-magic": (lambda raw: b"XXXX" + raw[4:], "not a VOLB file"),
}


@pytest.mark.parametrize("case", sorted(BAD_VOLUMES))
def test_malformed_volume_files_are_usage_errors(workdir, case):
    corrupt, message = BAD_VOLUMES[case]
    bad = workdir / "bad.volb"
    bad.write_bytes(corrupt((workdir / "ws.volb").read_bytes()))
    before = sorted(workdir.iterdir())
    for argv in (["eval", "--seg", str(bad), "--gt", str(workdir / "gt.volb")],
                 ["size-filter", "--labels", str(bad), "--aff", str(workdir / "aff.volb"),
                  "--out", str(workdir / "o.volb")]):
        code, out, err = run(argv)
        assert code == 2, err
        assert f"{bad}: {message}" in err
        assert out == ""
        assert sorted(workdir.iterdir()) == before


def test_mismatched_volume_shapes_are_usage_errors(workdir):
    other = workdir / "other.volb"
    write_volume(LabelVolume(np.ones((6, 12, 10), dtype=np.uint64)), other)
    manifest = workdir / "manifest.txt"  # one 6x12x12 block whose labeling is 6x12x10
    manifest.write_text(f"0 6 0 12 0 12 0 6 0 12 0 12 {other}\n")
    before = sorted(workdir.iterdir())
    differ = "volume shapes differ"
    for argv, message in (
            (["eval", "--seg", str(other), "--gt", str(workdir / "gt.volb")], differ),
            (["agglomerate", "--labels", str(other), "--aff", str(workdir / "aff.volb"),
              "--out", str(workdir / "o.volb")], differ),
            (["pipeline", "--aff", str(workdir / "aff.volb"), "--gt", str(other),
              "--workdir", str(workdir / "pipe")], differ),
            (["stitch", "--manifest", str(manifest), "--out", str(workdir / "o.volb")],
             "block 0 labeling shape (6, 12, 10) != halo (6, 12, 12)")):
        code, out, err = run(argv)
        assert code == 2, err
        assert message in err
        assert out == ""
        assert sorted(workdir.iterdir()) == before


@pytest.mark.parametrize("command", ["agglomerate", "pipeline"])
def test_malformed_model_file_is_usage_error_naming_file(replay_inputs, command):
    model = replay_inputs / "model.bin"
    model.write_bytes(b"\x01\x00")
    before = sorted(replay_inputs.iterdir())
    code, _, err = run(_required_argv(replay_inputs, command)
                       + ["--scorer", "logistic", "--model", str(model)])
    assert code == 2, err
    assert f"{model}: model file must be 417 bytes, got 2" in err
    assert sorted(replay_inputs.iterdir()) == before


@pytest.mark.parametrize("at, value", [(0, np.nan), (N_FEATURES, np.inf)],
                         ids=["nan-weight", "inf-bias"])
@pytest.mark.parametrize("command", ["agglomerate", "pipeline"])
def test_non_finite_model_is_usage_error_naming_file(replay_inputs, command, at, value):
    values = np.zeros(N_FEATURES + 1)  # the weights, then the bias
    values[at] = value
    model = replay_inputs / "model.bin"
    model.write_bytes(bytes([MODEL_MAGIC_VERSION]) + values.astype("<f8").tobytes())
    before = sorted(replay_inputs.iterdir())
    code, _, err = run(_required_argv(replay_inputs, command)
                       + ["--scorer", "logistic", "--model", str(model)])
    assert code == 2, err
    assert f"{model}: weights and bias must be finite" in err
    assert sorted(replay_inputs.iterdir()) == before


def _required_flags():
    """(subcommand, flag) for every flag the parser declares REQUIRED."""
    _, commands = _build_parser()
    return [(name, action.option_strings[0]) for name, sp in commands.items()
            for action in sp._actions if action.default is REQUIRED]


# one complete, valid set of required options per subcommand, over the
# replay_inputs files; every other token names a new file in that directory
REQUIRED_ARGV = {
    "synth": {"--shape": "4 6 6", "--seeds": "3", "--gt-out": "n_gt.volb",
              "--aff-out": "n_aff.volb"},
    "malis-grad": {"--aff": "aff.volb", "--gt": "gt.volb", "--grad-out": "n.volb"},
    "watershed": {"--aff": "aff.volb", "--out": "n.volb"},
    "size-filter": {"--labels": "ws.volb", "--aff": "aff.volb", "--out": "n.volb"},
    "build-rag": {"--labels": "ws.volb", "--aff": "aff.volb", "--out": "n.csv"},
    "train": {"--labels": "ws.volb", "--aff": "aff.volb", "--gt": "gt.volb",
              "--model-out": "n.bin"},
    "agglomerate": {"--labels": "ws.volb", "--aff": "aff.volb", "--out": "n.volb"},
    "apply-threshold": {"--tree": "tree.txt", "--base": "ws.volb", "--theta": "0.5",
                        "--out": "n.volb"},
    "eval": {"--seg": "ws.volb", "--gt": "gt.volb"},
    "curve": {"--tree": "tree.txt", "--base": "ws.volb", "--gt": "gt.volb",
              "--thetas": "0.9 0.5", "--out": "n.csv"},
    "partition": {"--shape": "6 12 12", "--block": "6 6 12", "--halo": "0 2 0",
                  "--out": "n.txt"},
    "stitch": {"--manifest": "manifest.txt", "--out": "n.volb"},
    "pipeline": {"--aff": "aff.volb", "--gt": "gt.volb", "--workdir": "n_dir"},
}


def _required_argv(dirpath, command, omit=None):
    argv = [command]
    for flag, value in REQUIRED_ARGV[command].items():
        if flag != omit:
            argv += [flag] + [v if v[0].isdigit() else str(dirpath / v) for v in value.split()]
    return argv


def test_required_argv_covers_every_required_flag():
    assert sorted(_required_flags()) == sorted(
        (command, flag) for command, flags in REQUIRED_ARGV.items() for flag in flags)


@pytest.mark.parametrize("command", sorted(REQUIRED_ARGV))
def test_required_argv_runs(replay_inputs, command):
    code, _, err = run(_required_argv(replay_inputs, command))
    assert code == 0, err


@pytest.mark.parametrize("command,flag", _required_flags())
def test_missing_required_option_is_usage_error(replay_inputs, command, flag):
    before = sorted(replay_inputs.iterdir())
    code, out, err = run(_required_argv(replay_inputs, command, omit=flag))
    assert code == 2
    assert f"missing required option {flag} " in err
    assert out == ""
    assert sorted(replay_inputs.iterdir()) == before


@pytest.mark.parametrize("command", ["agglomerate", "pipeline"])
def test_logistic_scorer_requires_model(replay_inputs, command):
    before = sorted(replay_inputs.iterdir())
    code, _, err = run(_required_argv(replay_inputs, command) + ["--scorer", "logistic"])
    assert code == 2
    assert "missing required option --model " in err
    assert sorted(replay_inputs.iterdir()) == before
