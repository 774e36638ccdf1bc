"""Command-line round trips."""

import importlib.resources
import json
import re
from dataclasses import fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poselift import experiment, synth
from poselift.cli import _keys, _section, load_config, main
from poselift.experiment import ExperimentConfig, ladder_experiment, ladder_rungs
from poselift.iso import WEIGHT_MODES, IsoConfig
from poselift.pose_io import parse_config, parse_value
from poselift.kcs import discriminator_features
from poselift.pose_io import (default_topology, load_checkpoint, read_pose2d, read_pose3d,
                              save_checkpoint, write_pose3d)
from poselift.skeleton import PoseSequence3D, project_to_crop
from poselift.synth import SyntheticMotionConfig, generate
from poselift.tcn import KERNEL, TcnConfig, TcnModel, TrainConfig
from poselift.visibility import sequence_visibility

TOPO = default_topology()


def write_cfg(path, **keys):
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return str(path)


def run(*argv):
    return main([str(a) for a in argv])


def test_synth_gen_writes_exact_projection_when_noiseless(tmp_path, monkeypatch):
    monkeypatch.setattr(synth, "NOISE_PX", 0.0)
    cfg = write_cfg(tmp_path / "c.cfg", **{
        "synth.n_sequences": 1, "synth.frames": 12, "synth.mask_occluded_prob": 0.0})
    out = tmp_path / "synth"
    assert run("synth-gen", "--config", cfg, "--seed", 5, "--out", out) == 0
    gt = read_pose3d(out / "seq00_v0_gt.pose3d", TOPO)
    det = read_pose2d(out / "seq00_v0_det.pose2d", TOPO)
    clean = project_to_crop(gt, det.scale_mm)
    np.testing.assert_allclose(det.frames, clean.frames, atol=1e-7)
    vis = np.loadtxt(out / "seq00_v0_vis.txt", dtype=int)
    assert vis.shape == (12, TOPO.K)


def test_synth_gen_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path / "c.cfg", **{
        "seed": 1, "synth.n_sequences": 1, "synth.frames": 8})
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    run("synth-gen", "--config", cfg, "--out", out_a)
    run("synth-gen", "--config", cfg, "--seed", 9, "--out", out_b)
    run("synth-gen", "--config", cfg, "--seed", 1, "--out", out_c)
    a = (out_a / "seq00_v0_gt.pose3d").read_text()
    assert a != (out_b / "seq00_v0_gt.pose3d").read_text()
    assert a == (out_c / "seq00_v0_gt.pose3d").read_text()


@pytest.fixture(scope="module")
def sample_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("sample")
    seq = generate(SyntheticMotionConfig(n_sequences=1, frames=30, seed=3), TOPO)[0]
    main(["synth-gen", "--config",
          write_cfg(root / "s.cfg", **{"synth.n_sequences": 1, "synth.frames": 30,
                                       "seed": 3}),
          "--out", str(root)])
    return root


def test_visibility_matches_library(sample_files, tmp_path):
    cfg = write_cfg(tmp_path / "v.cfg",
                    pose3d=sample_files / "seq00_v0_gt.pose3d")
    out = tmp_path / "vis"
    assert run("visibility", "--config", cfg, "--out", out) == 0
    got = np.loadtxt(out / "visibility.txt", dtype=int).astype(bool)
    pose = read_pose3d(sample_files / "seq00_v0_gt.pose3d", TOPO)
    np.testing.assert_array_equal(got, sequence_visibility(pose, TOPO))


def test_augment_masks_and_zeroes(sample_files, tmp_path):
    cfg = write_cfg(tmp_path / "a.cfg", **{
        "pose2d": sample_files / "seq00_v0_det.pose2d",
        "occ.p1": 0.3, "occ.p2": 0.0, "occ.p3": 0.0,
        "occ.frame_block_prob": 0.0, "occ.shift_prob": 0.0, "occ.swap_prob": 0.0})
    out = tmp_path / "aug"
    assert run("augment", "--config", cfg, "--seed", 2, "--out", out) == 0
    aug = read_pose2d(out / "augmented.pose2d", TOPO)
    before = read_pose2d(sample_files / "seq00_v0_det.pose2d", TOPO)
    assert aug.mask.sum() > before.mask.sum()
    assert np.all(aug.confidence[aug.mask] == 0.0)
    assert np.all(aug.frames[aug.mask] == 0.0)


def test_features_matches_library(sample_files, tmp_path):
    cfg = write_cfg(tmp_path / "f.cfg",
                    pose3d=sample_files / "seq00_v0_gt.pose3d", scorer_interval=2)
    out = tmp_path / "feat"
    assert run("features", "--config", cfg, "--out", out) == 0
    got = np.loadtxt(out / "features.txt")
    pose = read_pose3d(sample_files / "seq00_v0_gt.pose3d", TOPO)
    want = discriminator_features(pose, TOPO, 2)
    assert got.shape == want.shape == (30, TOPO.M * (TOPO.M + 1) + 3 * TOPO.K)
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    cfg = write_cfg(root / "t.cfg", **{
        "synth.n_sequences": 2, "synth.frames": 40, "synth.seed": 11,
        "tcn.embed_dim": 8, "tcn.window_len": 8, "tcn.strides": "1",
        "tcn.channels": 8, "tcn.branch_layers": 1,
        "train.steps_per_epoch": 4, "train.batch_size": 2,
        "train.w1": 0.0, "train.w2": 0.0, "train.w3": 0.01,
        "scorer_window": 8, "epochs": 1})
    assert main(["train", "--config", cfg, "--seed", "0", "--out", str(root)]) == 0
    return root


def test_train_outputs(trained):
    assert (trained / "model.ckpt.npz").exists()
    assert (trained / "scorer.ckpt.npz").exists()
    history = json.loads((trained / "history.json").read_text())
    assert len(history) == 1 and np.isfinite(history[0]["loss"])


def test_infer_and_iso_refine_and_eval(trained, sample_files, tmp_path):
    det = sample_files / "seq00_v0_det.pose2d"
    gt = sample_files / "seq00_v0_gt.pose3d"
    out_i = tmp_path / "infer"
    cfg = write_cfg(tmp_path / "i.cfg", model=trained / "model.ckpt.npz", det2d=det)
    assert run("infer", "--config", cfg, "--out", out_i) == 0
    pred = read_pose3d(out_i / "pred.pose3d", TOPO)
    assert pred.T == 30 and np.all(np.isfinite(pred.frames))

    out_r = tmp_path / "refine"
    # the barely trained lifter collapses toward tiny poses, so the fitted
    # projection scale is huge; both the realness weight and the step must
    # shrink for the refinement to run its full budget
    cfg = write_cfg(tmp_path / "r.cfg", **{
        "pose3d": out_i / "pred.pose3d", "det2d": det, "gt3d": gt,
        "scorer": trained / "scorer.ckpt.npz",
        "iso.weight_mode": "soft", "iso.iterations": 8, "iso.lambda1": 1e-8,
        "iso.step_size": 0.01})
    assert run("iso-refine", "--config", cfg, "--out", out_r) == 0
    trace = json.loads((out_r / "trace.json").read_text())
    assert len(trace) == 8
    assert {"iteration", "loss", "rep", "gen", "smooth", "mpjpe"} <= set(trace[0])

    # without gt3d the trace has no error column
    cfg = write_cfg(tmp_path / "r2.cfg", **{
        "pose3d": out_i / "pred.pose3d", "det2d": det,
        "iso.weight_mode": "constant", "iso.iterations": 2, "iso.lambda1": 0.0})
    out_r2 = tmp_path / "refine2"
    assert run("iso-refine", "--config", cfg, "--out", out_r2) == 0
    trace = json.loads((out_r2 / "trace.json").read_text())
    assert "mpjpe" not in trace[0]

    out_e = tmp_path / "eval"
    cfg = write_cfg(tmp_path / "e.cfg", gt3d=gt,
                    pred3d=out_r / "refined.pose3d")
    assert run("eval", "--config", cfg, "--out", out_e) == 0
    report = json.loads((out_e / "report.json").read_text())
    assert report["mpjpe_mm"] >= report["p_mpjpe_mm"] >= 0
    assert "mpjpe_mm" in (out_e / "report.txt").read_text()


def test_eval_of_identical_poses(sample_files, tmp_path):
    gt = sample_files / "seq00_v0_gt.pose3d"
    cfg = write_cfg(tmp_path / "e.cfg", gt3d=gt, pred3d=gt)
    out = tmp_path / "eval0"
    assert run("eval", "--config", cfg, "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mpjpe_mm"] == 0.0 and report["pck150"] == 1.0


def test_disc_train_is_not_a_subcommand(capsys):
    # the pose prior is the KCS energy model, fitted by `train` and
    # `run-experiment`; there is no separately trained scorer
    with pytest.raises(SystemExit) as exc:
        main(["disc-train"])
    assert exc.value.code == 2
    assert "invalid choice: 'disc-train'" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("disc.channels", 8), ("fake_noise_mm", 120.0)])
def test_stale_scorer_training_key_exits_2(tmp_path, capsys, key, value):
    cfg = write_cfg(tmp_path / "t.cfg", **{key: value})
    assert run("train", "--config", cfg, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err == f"poselift train: ConfigError: unknown config key {key!r}\n"
    assert not (tmp_path / "o").exists()


def test_run_experiment_subcommand(tmp_path):
    cfg = write_cfg(tmp_path / "x.cfg", **{
        "synth.n_sequences": 2, "synth.frames": 40, "synth.seed": 50,
        "synth.mask_occluded_prob": 0.0,
        "eval_synth.n_sequences": 1, "eval_synth.frames": 40, "eval_synth.seed": 60,
        "tcn.embed_dim": 8, "tcn.window_len": 8, "tcn.strides": "1",
        "tcn.channels": 8, "tcn.branch_layers": 1,
        "train.steps_per_epoch": 3, "train.batch_size": 2,
        "train.w1": 0.0, "train.w2": 0.0, "train.w3": 0.0,
        "iso.iterations": 3, "iso.lambda1": 0.0, "epochs": 1,
        "scorer_window": 8})
    out = tmp_path / "exp"
    assert run("run-experiment", "--config", cfg, "--seed", 0, "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failure"] is None
    assert "eval00_iso.pose3d" in manifest["files"]


@pytest.mark.parametrize("command", ["train", "run-experiment"])
def test_keypoint_count_comes_from_the_topology(tmp_path, command):
    # the default skeleton without its nose: 16 keypoints, and no tcn key says so
    text = importlib.resources.files("poselift.data").joinpath("h36m17.topo").read_text()
    text = text.replace("keypoint nose\n", "").replace(
        "bone neck nose\nbone nose head_top\n", "bone neck head_top\n")
    (tmp_path / "16.topo").write_text(text)
    cfg = write_cfg(tmp_path / "x.cfg", **{
        "topology": tmp_path / "16.topo",
        "synth.n_sequences": 2, "synth.frames": 40, "synth.seed": 50,
        "eval_synth.n_sequences": 1, "eval_synth.frames": 40, "eval_synth.seed": 60,
        "tcn.embed_dim": 8, "tcn.window_len": 8, "tcn.strides": "1",
        "tcn.channels": 8, "tcn.branch_layers": 1,
        "train.steps_per_epoch": 3, "train.batch_size": 2, "train.w3": 0.01,
        "iso.iterations": 3, "iso.lambda1": 0.0, "epochs": 1, "scorer_window": 8})
    out = tmp_path / "o"
    assert run(command, "--config", cfg, "--seed", 0, "--out", out) == 0
    assert TcnModel.load(out / "model.ckpt.npz").config.n_keypoints == 16


def test_errors_exit_nonzero(tmp_path, capsys):
    # missing required config key
    cfg = write_cfg(tmp_path / "bad.cfg")
    assert run("visibility", "--config", cfg, "--out", tmp_path / "o1") == 2
    assert "pose3d" in capsys.readouterr().err
    # nonexistent input file
    cfg = write_cfg(tmp_path / "bad2.cfg", pose3d=tmp_path / "missing.pose3d")
    assert run("visibility", "--config", cfg, "--out", tmp_path / "o2") == 2
    assert capsys.readouterr().err
    # malformed config value
    cfg = write_cfg(tmp_path / "bad3.cfg", **{"synth.frames": "many"})
    assert run("synth-gen", "--config", cfg, "--out", tmp_path / "o3") == 2
    assert "synth.frames" in capsys.readouterr().err
    # unknown subcommand exits via argparse
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("key, value", [("tcn.window", 99),
                                        ("tcn.use_embedding", "flase"),
                                        ("tcn.strides", "1.5,2.9"),
                                        ("synth.view_rotations", "1:2")])
def test_bad_config_key_exits_2_naming_it(tmp_path, capsys, key, value):
    cfg = write_cfg(tmp_path / "bad.cfg", **{key: value})
    assert run("synth-gen", "--config", cfg, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and key in err
    assert not (tmp_path / "o").exists()


def test_iso_refine_realness_weight_without_scorer_exits_2(sample_files, tmp_path, capsys):
    # iso.lambda1 defaults to 0.1: without a scorer the realness term would
    # silently drop out of the refinement
    for extra in ({}, {"iso.lambda1": 0.5}):
        cfg = write_cfg(tmp_path / "r.cfg", **{
            "pose3d": sample_files / "seq00_v0_gt.pose3d",
            "det2d": sample_files / "seq00_v0_det.pose2d",
            "iso.iterations": 3, **extra})
        assert run("iso-refine", "--config", cfg, "--out", tmp_path / "r") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "ConfigError" in err
        assert "iso.lambda1" in err and "scorer" in err
        assert not (tmp_path / "r" / "trace.json").exists()


def test_iso_refine_ground_truth_of_other_length_exits_2(sample_files, tmp_path, capsys):
    gt = read_pose3d(sample_files / "seq00_v0_gt.pose3d", TOPO)
    short = tmp_path / "short_gt.pose3d"
    write_pose3d(short, PoseSequence3D(gt.frames[:24]), TOPO)
    cfg = write_cfg(tmp_path / "r.cfg", **{
        "pose3d": sample_files / "seq00_v0_gt.pose3d",
        "det2d": sample_files / "seq00_v0_det.pose2d", "gt3d": short,
        "iso.iterations": 3, "iso.lambda1": 0.0})
    assert run("iso-refine", "--config", cfg, "--out", tmp_path / "r") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "InvalidInputError" in err and "ground truth" in err
    assert not (tmp_path / "r" / "trace.json").exists()


@pytest.mark.parametrize("key, value, named", [
    ("occ.p1", 2, "occ.p1=2.0 outside [0,1]"),
    ("iso.sigma", 0, "iso.sigma must be > 0"),
    ("iso.weight_mode", "calibrated",
     "iso.weight_mode 'calibrated' is not one of constant/confidence/hard/soft"),
    ("tcn.strides", "2,1", "tcn.strides must be strictly increasing"),
    ("train.w1", -1, "train.*: loss weights must be nonnegative"),
    ("iso.cal_temperature", 0, "iso.cal_*: calibration temperature"),
    ("synth.frames", 1, "synth.*: need n_sequences >= 1 and frames >= 2"),
    ("synth.speed_multipliers", "", "synth.speed_multipliers must hold at least one speed"),
    ("synth.mask_occluded_prob", 1.5, "synth.mask_occluded_prob=1.5 outside [0,1]"),
    ("iso.sigma", "nan", "config key iso.sigma = 'nan': nan is not a finite number"),
    ("iso.step_size", "inf", "config key iso.step_size = 'inf': inf is not a finite number"),
    ("train.lr", "nan", "config key train.lr = 'nan': nan is not a finite number"),
    ("scorer_reg", "nan", "config key scorer_reg = 'nan': nan is not a finite number"),
    ("synth.speed_multipliers", "1,-inf",
     "config key synth.speed_multipliers = '1,-inf': -inf is not a finite number"),
    ("train.lr", -1, "train.*: need lr >= 0"),
    ("epochs", -1, "epochs must be >= 0"),
    ("aug_copies", 0, "aug_copies must be >= 1"),
    ("scorer_interval", 0, "scorer_interval must be >= 1"),
    ("data_dir", "no-such-data-dir", "data_dir 'no-such-data-dir' does not exist"),
    ("seed", -1, "seed=-1 must be >= 0"),
    ("synth.seed", -5, "synth.seed=-5 must be >= 0"),
    ("eval_synth.seed", -5, "eval_synth.seed=-5 must be >= 0"),
    ("eval_occlusion.seed", -5, "eval_occlusion.seed=-5 must be >= 0"),
])
def test_section_range_error_names_the_key(tmp_path, capsys, key, value, named):
    cfg = write_cfg(tmp_path / "bad.cfg", **{key: value})
    assert run("synth-gen", "--config", cfg, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"ConfigError: {named}" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["synth-gen", "train", "run-experiment"])
def test_a_negative_seed_flag_exits_2_before_making_the_out_dir(tmp_path, capsys, command):
    assert run(command, "--seed", -1, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == f"poselift {command}: ConfigError: seed=-1 must be >= 0\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train", "run-experiment"])
def test_scorer_chains_shorter_than_the_interval_fail_the_train_stage(tmp_path, capsys,
                                                                     command):
    # the default train.gen_window = 4 and train.w3 = 0.01 feed the scorer 4-frame chains
    cfg = write_cfg(tmp_path / "t.cfg", scorer_interval=4)
    assert run(command, "--config", cfg, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == (
        f"poselift {command}: ConfigError: train.gen_window = 4 must exceed "
        "scorer_interval = 4 while train.w3 > 0\n")
    assert not (tmp_path / "o" / "model.ckpt.npz").exists()


def test_subcommands_that_never_train_take_a_long_scorer_interval(sample_files, tmp_path):
    for command, keys in (("features", {"pose3d": sample_files / "seq00_v0_gt.pose3d"}),
                          ("synth-gen", {"synth.n_sequences": 1, "synth.frames": 12})):
        cfg = write_cfg(tmp_path / f"{command}.cfg", scorer_interval=5, **keys)
        assert run(command, "--config", cfg, "--out", tmp_path / command) == 0


def test_train_with_negative_epochs_exits_2_before_making_the_out_dir(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "t.cfg", epochs=-1)
    assert run("train", "--config", cfg, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == "poselift train: ConfigError: epochs must be >= 0\n"
    assert not (tmp_path / "o").exists()


# every pose-reading subcommand, with its damaged (`short.*`) input
POSE_COMMANDS = [
    ("visibility", {"pose3d": "short.pose3d"}),
    ("augment", {"pose2d": "short.pose2d"}),
    ("features", {"pose3d": "short.pose3d"}),
    ("infer", {"det2d": "short.pose2d"}),
    ("iso-refine", {"pose3d": "seq00_v0_gt.pose3d", "det2d": "short.pose2d"}),
    ("eval", {"gt3d": "short.pose3d", "pred3d": "seq00_v0_gt.pose3d"}),
]


def run_on_damaged_pose(sample_files, trained, tmp_path, command, keys, damage):
    """Exit code of `command` with its `short.*` input(s) made by `damage(lines)`."""
    for short, src in (("short.pose3d", "seq00_v0_gt.pose3d"),
                       ("short.pose2d", "seq00_v0_det.pose2d")):
        lines = (sample_files / src).read_text().splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("frame,"))
        (tmp_path / short).write_text("\n".join(damage(lines, header)) + "\n")
    own = {k: (tmp_path if v.startswith("short") else sample_files) / v for k, v in keys.items()}
    extra = {"infer": {"model": trained / "model.ckpt.npz"}, "iso-refine": {"iso.lambda1": 0.0}}
    cfg = write_cfg(tmp_path / "c.cfg", **own, **extra.get(command, {}))
    return run(command, "--config", cfg, "--out", tmp_path / "o")


@pytest.mark.parametrize("command, keys", POSE_COMMANDS)
def test_short_pose_row_exits_2(sample_files, trained, tmp_path, capsys, command, keys):
    def drop_last_field(lines, header):
        lines[header + 1] = lines[header + 1].rsplit(",", 1)[0]
        return lines
    assert run_on_damaged_pose(sample_files, trained, tmp_path, command, keys,
                               drop_last_field) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"poselift {command}: InvalidInputError: " in err
    assert "fields, header has" in err


@pytest.mark.parametrize("command, keys", POSE_COMMANDS)
def test_header_only_pose_table_exits_2(sample_files, trained, tmp_path, capsys, command, keys):
    assert run_on_damaged_pose(sample_files, trained, tmp_path, command, keys,
                               lambda lines, header: lines[:header + 1]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"poselift {command}: InvalidInputError: " in err
    assert "short.pose" in err and "header but no rows" in err


def test_infer_on_checkpoint_with_unknown_config_key_exits_2(trained, sample_files,
                                                             tmp_path, capsys):
    from poselift.pose_io import load_checkpoint, save_checkpoint
    arrays, meta = load_checkpoint(trained / "model.ckpt.npz")
    save_checkpoint(tmp_path / "odd", arrays,
                    {**meta, "config": {**meta["config"], "dilation": 2}})
    cfg = write_cfg(tmp_path / "i.cfg", model=tmp_path / "odd.npz",
                    det2d=sample_files / "seq00_v0_det.pose2d")
    assert run("infer", "--config", cfg, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "InvalidInputError: checkpoint config" in err
    assert "dilation" in err


def test_infer_on_a_model_file_that_is_not_a_checkpoint_exits_2(sample_files, tmp_path,
                                                                capsys):
    cfg = tmp_path / "exp.cfg"
    write_cfg(cfg, model=cfg, det2d=sample_files / "seq00_v0_det.pose2d")
    assert run("infer", "--config", cfg, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"poselift infer: InvalidInputError: {cfg} is not a poselift checkpoint" in err


@pytest.mark.parametrize("entry", ["mean", "precision", "incidence", "fit_energies", "interval"])
def test_iso_refine_on_a_scorer_checkpoint_missing_an_entry_exits_2(sample_files, tmp_path,
                                                                    capsys, entry):
    arrays = {"mean": np.zeros(3), "precision": np.eye(3), "incidence": np.zeros((17, 16)),
              "fit_energies": np.zeros(1)}
    meta = {"kind": "kcs-energy", "interval": 1}
    arrays.pop(entry, None)
    meta.pop(entry, None)
    scorer = tmp_path / "scorer.npz"
    save_checkpoint(scorer, arrays, meta)
    cfg = write_cfg(tmp_path / "r.cfg", scorer=scorer,
                    pose3d=sample_files / "seq00_v0_gt.pose3d",
                    det2d=sample_files / "seq00_v0_det.pose2d")
    assert run("iso-refine", "--config", cfg, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == (
        f"poselift iso-refine: InvalidInputError: {scorer}: "
        f"kcs-energy checkpoint has no {entry!r} entry\n")
    assert not (tmp_path / "o" / "refined.pose3d").exists()


# F = M(M+1) + 3K = 323 feature columns for the 17-keypoint, 16-bone skeleton
@pytest.mark.parametrize("entry, value, want", [
    ("incidence", np.zeros(17), "K x M"),
    ("mean", np.zeros(3), "(323,) for K = 17 keypoints and M = 16 bones"),
    ("precision", np.eye(3), "(323, 323)"),
    ("fit_energies", np.zeros((2, 2)), "1-D"),
])
def test_iso_refine_on_a_scorer_checkpoint_with_a_misshapen_entry_exits_2(
        sample_files, tmp_path, capsys, entry, value, want):
    arrays = {"mean": np.zeros(323), "precision": np.eye(323),
              "incidence": np.zeros((17, 16)), "fit_energies": np.zeros(1), entry: value}
    scorer = tmp_path / "scorer.npz"
    save_checkpoint(scorer, arrays, {"kind": "kcs-energy", "interval": 1})
    cfg = write_cfg(tmp_path / "r.cfg", scorer=scorer,
                    pose3d=sample_files / "seq00_v0_gt.pose3d",
                    det2d=sample_files / "seq00_v0_det.pose2d")
    assert run("iso-refine", "--config", cfg, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == (
        f"poselift iso-refine: InvalidInputError: {scorer}: kcs-energy checkpoint entry "
        f"{entry!r} has shape {value.shape}, not {want}\n")
    assert not (tmp_path / "o" / "refined.pose3d").exists()


@pytest.mark.parametrize("interval", [1.5, "x", None, 0, -2, True])
def test_iso_refine_on_a_scorer_checkpoint_with_a_bad_interval_exits_2(
        sample_files, tmp_path, capsys, interval):
    arrays = {"mean": np.zeros(323), "precision": np.eye(323),
              "incidence": np.zeros((17, 16)), "fit_energies": np.zeros(1)}
    scorer = tmp_path / "scorer.npz"
    save_checkpoint(scorer, arrays, {"kind": "kcs-energy", "interval": interval})
    cfg = write_cfg(tmp_path / "r.cfg", scorer=scorer,
                    pose3d=sample_files / "seq00_v0_gt.pose3d",
                    det2d=sample_files / "seq00_v0_det.pose2d")
    assert run("iso-refine", "--config", cfg, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == (
        f"poselift iso-refine: InvalidInputError: {scorer}: kcs-energy checkpoint entry "
        f"'interval' is {interval!r}, not an integer >= 1\n")
    assert not (tmp_path / "o" / "refined.pose3d").exists()


@pytest.mark.parametrize("key, value, named", [
    ("embed_dim", 1.5, "'float' object cannot be interpreted as an integer"),
    ("strides", "ab", "invalid literal for int()"),
    ("channels", "32", "'<' not supported"),
])
def test_infer_on_a_model_checkpoint_with_a_bad_config_value_exits_2(
        trained, sample_files, tmp_path, capsys, key, value, named):
    arrays, meta = load_checkpoint(trained / "model.ckpt.npz")
    model = tmp_path / "odd.npz"
    save_checkpoint(model, arrays, {**meta, "config": {**meta["config"], key: value}})
    cfg = write_cfg(tmp_path / "i.cfg", model=model, det2d=sample_files / "seq00_v0_det.pose2d")
    assert run("infer", "--config", cfg, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"poselift infer: InvalidInputError: checkpoint config in {model} "
                          "does not build a model: ")
    assert named in err
    assert not (tmp_path / "o" / "pred.pose3d").exists()


@pytest.mark.parametrize("fault, named", [
    ("head.w", "array 'head.w' has shape (3, 3), expected (8, 51)"),
    ("no head.b", "checkpoint missing arrays: ['head.b']"),
    ("stray", "checkpoint has unexpected arrays: ['branch9.layer0.w0']"),
    ("kind", "not a model checkpoint: kind='kcs-energy'"),
])
def test_infer_on_a_malformed_model_checkpoint_names_the_file_and_exits_2(
        trained, sample_files, tmp_path, capsys, fault, named):
    arrays, meta = load_checkpoint(trained / "model.ckpt.npz")
    if fault == "head.w":
        arrays["head.w"] = np.zeros((3, 3))
    elif fault == "no head.b":
        del arrays["head.b"]
    elif fault == "stray":
        arrays["branch9.layer0.w0"] = np.zeros(3)
    else:
        meta = {**meta, "kind": "kcs-energy"}
    model = tmp_path / "odd.npz"
    save_checkpoint(model, arrays, meta)
    cfg = write_cfg(tmp_path / "i.cfg", model=model, det2d=sample_files / "seq00_v0_det.pose2d")
    assert run("infer", "--config", cfg, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == f"poselift infer: InvalidInputError: {model}: {named}\n"
    assert not (tmp_path / "o" / "pred.pose3d").exists()


def test_iso_refine_with_a_model_checkpoint_as_scorer_names_the_file_and_exits_2(
        trained, sample_files, tmp_path, capsys):
    scorer = trained / "model.ckpt.npz"
    cfg = write_cfg(tmp_path / "r.cfg", scorer=scorer,
                    pose3d=sample_files / "seq00_v0_gt.pose3d",
                    det2d=sample_files / "seq00_v0_det.pose2d")
    assert run("iso-refine", "--config", cfg, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == (
        f"poselift iso-refine: InvalidInputError: {scorer}: not an energy checkpoint: "
        "kind='tcn'\n")


@pytest.mark.parametrize("lineno, field, value, named", [
    (3, 4, "nan", "conf = nan is not finite"),          # first row: frame,keypoint,x,y,conf
    (5, 4, "1.25", "conf = 1.25 is outside [0, 1]"),
    (4, 2, "-inf", "x = -inf is not finite"),
    (1, 0, "# scale_mm = -2000", "scale_mm = -2000 is not a finite number > 0"),
])
def test_iso_refine_on_detections_with_a_bad_number_names_the_line_and_exits_2(
        sample_files, trained, tmp_path, capsys, lineno, field, value, named):
    lines = (sample_files / "seq00_v0_det.pose2d").read_text().splitlines()
    cells = lines[lineno - 1].split(",")
    cells[field] = value
    lines[lineno - 1] = ",".join(cells)
    det = tmp_path / "bad.pose2d"
    det.write_text("\n".join(lines) + "\n")
    cfg = write_cfg(tmp_path / "r.cfg", scorer=trained / "scorer.ckpt.npz",
                    pose3d=sample_files / "seq00_v0_gt.pose3d", det2d=det)
    assert run("iso-refine", "--config", cfg, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == (
        f"poselift iso-refine: InvalidInputError: {det}:{lineno}: {named}\n")
    assert not (tmp_path / "o" / "refined.pose3d").exists()


def test_iso_refine_on_detections_with_a_masked_confident_row_names_the_line_and_exits_2(
        sample_files, trained, tmp_path, capsys):
    lines = (sample_files / "seq00_v0_det.pose2d").read_text().splitlines()
    cells = lines[3].split(",")                     # line 4: frame 0, second keypoint
    cells[4:6] = ["0.75", "1"]
    lines[3] = ",".join(cells)
    det = tmp_path / "bad.pose2d"
    det.write_text("\n".join(lines) + "\n")
    cfg = write_cfg(tmp_path / "r.cfg", scorer=trained / "scorer.ckpt.npz",
                    pose3d=sample_files / "seq00_v0_gt.pose3d", det2d=det)
    assert run("iso-refine", "--config", cfg, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == (
        f"poselift iso-refine: InvalidInputError: {det}:4: masked entry has conf = 0.75, "
        "not 0\n")
    assert not (tmp_path / "o" / "refined.pose3d").exists()


def test_train_with_sequences_shorter_than_the_scorer_window_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "t.cfg", **{"synth.n_sequences": 2, "synth.frames": 10})
    assert run("train", "--config", cfg, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == (
        "poselift train: ConfigError: scorer_window = 16 exceeds every training "
        "sequence's length (longest 10 frames)\n")
    assert not (tmp_path / "o" / "model.ckpt.npz").exists()


def run_experiment_on_data_dir(tmp_path, capsys, files: dict, named: str) -> None:
    """`run-experiment` on a data dir of {name: text} files fails at synth with `named`."""
    data = tmp_path / "data"
    data.mkdir()
    for name, text in files.items():
        (data / name).write_text(text)
    cfg = write_cfg(tmp_path / "x.cfg", **{"synth.n_sequences": 1, "synth.frames": 20,
                                           "data_dir": data})
    out = tmp_path / "exp"
    assert run("run-experiment", "--config", cfg, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"poselift run-experiment: {named}" in err
    failure = json.loads((out / "manifest.json").read_text())["failure"]
    assert failure["stage"] == "synth" and named in failure["error"]
    assert not (out / "model.ckpt.npz").exists()


@pytest.mark.parametrize("name, named", [
    ("seq_gt.pose3d", "InvalidInputError: no detections for seq_gt.pose3d"),
    ("notes.txt", "InvalidInputError: no *_gt.pose3d files under"),
])
def test_run_experiment_on_a_bad_data_dir_exits_2_after_the_synth_stage(
        sample_files, tmp_path, capsys, name, named):
    # the data dir holds one ground-truth pose file, under `name`, and no detections
    run_experiment_on_data_dir(
        tmp_path, capsys, {name: (sample_files / "seq00_v0_gt.pose3d").read_text()}, named)


def test_run_experiment_on_a_data_dir_with_an_orphaned_detection_file_exits_2(
        sample_files, tmp_path, capsys):
    # two detection files and one ground-truth file: the detections of `b` have no pair
    det = (sample_files / "seq00_v0_det.pose2d").read_text()
    run_experiment_on_data_dir(
        tmp_path, capsys,
        {"a_gt.pose3d": (sample_files / "seq00_v0_gt.pose3d").read_text(),
         "a_det.pose2d": det, "b_det.pose2d": det},
        "InvalidInputError: no ground truth for b_det.pose2d")


def test_run_experiment_on_eval_pairs_of_unequal_length_exits_2_after_the_synth_stage(
        sample_files, tmp_path, capsys):
    # 30 frames of ground truth beside the first 20 frames of their detections
    det = (sample_files / "seq00_v0_det.pose2d").read_text().splitlines()
    det = [line for line in det if not line[:1].isdigit() or int(line.split(",")[0]) < 20]
    run_experiment_on_data_dir(
        tmp_path, capsys,
        {"a_gt.pose3d": (sample_files / "seq00_v0_gt.pose3d").read_text(),
         "a_det.pose2d": "\n".join(det) + "\n"},
        "InvalidInputError: a_gt.pose3d has 30 frames but a_det.pose2d has 20")


# every config key; a knob added or retired shows up here as a deliberate diff
CONFIG_KEYS = {
    "aug_copies", "data_dir", "epochs", "seed",
    "scorer_interval", "scorer_reg", "scorer_window",
    *(f"{s}.{k}" for s in ("synth", "eval_synth") for k in (
        "frames", "mask_occluded_prob", "n_sequences", "seed", "speed_multipliers",
        "view_rotations")),
    *(f"{s}.{k}" for s in ("occ", "eval_occlusion") for k in (
        "frame_block_prob", "l", "p1", "p2", "p3", "shift_prob", "swap_prob")),
    "eval_occlusion.seed",
    "iso.cal_bias", "iso.cal_temperature", "iso.iterations", "iso.lambda1", "iso.lambda2",
    "iso.sigma", "iso.step_size", "iso.weight_mode",
    "tcn.branch_layers", "tcn.channels", "tcn.embed_dim", "tcn.strides", "tcn.use_embedding",
    "tcn.window_len",
    "train.batch_size", "train.gen_window", "train.lr", "train.lr_decay", "train.momentum",
    "train.snapshot_every", "train.steps_per_epoch", "train.w1", "train.w2", "train.w3",
}


def test_config_key_census():
    assert len(CONFIG_KEYS) == 58
    assert set(_keys(ExperimentConfig)) == CONFIG_KEYS


def test_a_config_that_repeats_a_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("synth.seed = 1\nsynth.n_sequences = 2\nsynth.seed = 2\n")
    assert run("synth-gen", "--config", cfg, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == ("poselift synth-gen: ConfigError: line 3: config key "
                                       "synth.seed is set again; the first is line 1\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, key", [
    ("synth-gen", "synth.crop_px"), ("synth-gen", "eval_synth.crop_px"),
    ("augment", "occ.crop_px"), ("synth-gen", "eval_occlusion.crop_px"),
    ("iso-refine", "iso.crop_px"), ("features", "interval"),
    *(("synth-gen", f"{s}.{k}") for s in ("synth", "eval_synth") for k in (
        "smooth_window", "max_joint_angle", "yaw_step", "wobble", "conf_visible",
        "conf_occluded")),
    ("iso-refine", "iso.refit_every"), ("iso-refine", "iso.threshold"),
    ("augment", "occ.shift_px"), ("synth-gen", "eval_occlusion.shift_px"),
    ("synth-gen", "synth.scale_mm"), ("synth-gen", "eval_synth.scale_mm"),
    ("train", "tcn.kernel"), ("train", "tcn.activation"), ("train", "tcn.output_scale_mm"),
    *(("synth-gen", f"{s}.{k}") for s in ("synth", "eval_synth") for k in (
        "angle_step", "noise_px")),
    ("train", "tcn.n_keypoints"),
])
def test_retired_key_exits_2(tmp_path, capsys, command, key):
    cfg = write_cfg(tmp_path / "r.cfg", **{key: 256})
    assert run(command, "--config", cfg, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == f"poselift {command}: ConfigError: unknown config key {key!r}\n"
    assert not (tmp_path / "o").exists()


def test_keys_sit_on_experiment_defaults():
    default = ExperimentConfig()
    cfg = load_config({"tcn.window_len": "20", "synth.frames": "60", "aug_copies": "2",
                       "scorer_interval": "2", "scorer_reg": "0.01",
                       "eval_occlusion.p1": "0.1", "iso.cal_bias": "0.5"})
    assert cfg.tcn == replace(default.tcn, window_len=20)
    assert cfg.train_synth == replace(default.train_synth, frames=60)
    assert (cfg.aug_copies, cfg.scorer_interval, cfg.scorer_reg) == (2, 2, 0.01)
    assert cfg.eval_occlusion.p1 == 0.1 and cfg.occlusion is None
    assert cfg.iso.calibration.bias == 0.5 and cfg.iso.calibration.temperature == 1.0


def config_text(value, seps=",:") -> str:
    """A config value as `key = value` text: the inverse of `parse_value`."""
    if isinstance(value, tuple):
        return seps[0].join(config_text(v, seps[1:]) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def all_sections_built(cls, value=None):
    """`value` (None: `cls()`) with each section it leaves at None built from its class defaults."""
    value = cls() if value is None else value
    hints = get_type_hints(cls)
    return replace(value, **{f.name: all_sections_built(sub, getattr(value, f.name))
                             for f in fields(cls) if (sub := _section(hints[f.name]))})


def config_value(cfg, path):
    for name in path:
        cfg = getattr(cfg, name)
    return cfg


def test_every_default_round_trips_through_config_text():
    full = all_sections_built(ExperimentConfig)
    lines, unset = [], set()
    for key, (path, _) in _keys(ExperimentConfig).items():
        value = config_value(full, path)
        if value is None:
            unset.add(key)
        else:
            lines.append(f"{key} = {config_text(value)}")
    assert unset == {"data_dir"}
    assert load_config(parse_config("\n".join(lines))) == full


def floats(lo=None, hi=None, **bounds):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **bounds)


POSITIVE = floats(0.0, exclude_min=True)
NONNEGATIVE = floats(0.0)
UNIT = floats(0.0, 1.0)
# a valid value for each config field, by field name; window_len and
# scorer_window are drawn as their excess over the least value the other
# fields allow
FIELD_VALUES = {
    **dict.fromkeys(("seed", "epochs", "iterations", "window_len", "scorer_window"),
                    st.integers(0, 2**32)),
    **dict.fromkeys(("aug_copies", "scorer_interval", "n_sequences", "branch_layers",
                     "channels", "embed_dim", "batch_size", "snapshot_every",
                     "steps_per_epoch"), st.integers(1, 10**6)),
    **dict.fromkeys(("frames", "l", "gen_window"), st.integers(2, 10**6)),
    "strides": st.lists(st.integers(1, 99), min_size=1, max_size=5, unique=True).map(
        lambda s: tuple(sorted(s))),
    "bias": floats(),
    **dict.fromkeys(("scorer_reg", "temperature", "sigma", "step_size", "lr_decay"),
                    POSITIVE),
    **dict.fromkeys(("lambda1", "lambda2", "lr", "w1", "w2", "w3"), NONNEGATIVE),
    **dict.fromkeys(("mask_occluded_prob", "p1", "p2", "p3", "frame_block_prob",
                     "shift_prob", "swap_prob"), UNIT),
    "momentum": floats(0.0, 1.0, exclude_max=True),
    "speed_multipliers": st.lists(POSITIVE, min_size=1, max_size=4).map(tuple),
    "view_rotations": st.lists(st.tuples(floats(), floats(), floats()), max_size=3).map(tuple),
    "use_embedding": st.booleans(),
    "weight_mode": st.sampled_from(WEIGHT_MODES),
    "data_dir": st.sampled_from([str(Path(__file__).parent), str(Path(__file__).parents[1])]),
}


@st.composite
def config_values(draw):
    """{key: value} for every config key, values that build together."""
    values = {key: draw(FIELD_VALUES[path[-1]])
              for key, (path, _) in _keys(ExperimentConfig).items()}
    values["tcn.window_len"] += 1 + (values["tcn.branch_layers"] * (KERNEL - 1)
                                     * max(values["tcn.strides"]))
    values["scorer_window"] += values["scorer_interval"] + 1
    return values


@settings(max_examples=60)
@given(values=config_values())
def test_every_key_round_trips_through_config_text(values):
    keys = _keys(ExperimentConfig)
    cfg = load_config(parse_config("".join(f"{key} = {config_text(value)}\n"
                                           for key, value in values.items())))
    assert {key: config_value(cfg, path) for key, (path, _) in keys.items()} == values
    again = "".join(f"{key} = {config_text(config_value(cfg, path))}\n"
                    for key, (path, _) in keys.items())
    assert load_config(parse_config(again)) == cfg


def readme_demo_config() -> dict:
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return parse_config(re.search(r"cat > exp\.cfg <<'CFG'\n(.*?)\nCFG\n", readme,
                                  re.S).group(1))


def test_readme_demo_config_is_the_experiment_default_plus_its_keys():
    assert load_config(readme_demo_config()) == replace(ExperimentConfig(), iso=IsoConfig())


def differing_fields(value, default) -> set:
    return {f.name for f in fields(default) if getattr(value, f.name) != getattr(default, f.name)}


def ladder_configs(out, monkeypatch) -> list:
    """The ExperimentConfig of every run `ladder_experiment` makes, none of them trained."""
    cfgs = []

    def record(cfg, topo=None):
        cfgs.append(cfg)
        Path(cfg.out_dir).mkdir(parents=True)
        (Path(cfg.out_dir) / "report.json").write_text('{"final_mpjpe_mm": 1.0}')

    monkeypatch.setattr(experiment, "run_experiment", record)
    ladder_experiment(out)
    return cfgs


def test_readme_demo_and_ladder_name_only_what_they_change(tmp_path, monkeypatch):
    # the README's rule, "a file names only what it changes": no line of the
    # demo config sets a key to its ExperimentConfig() value; a key of a
    # section that is off by default (iso.*) turns the section on
    default, keys = ExperimentConfig(), _keys(ExperimentConfig)
    for key, text in readme_demo_config().items():
        path, typ = keys[key]
        section = config_value(default, path[:-1])
        assert section is None or parse_value(key, text, typ) != getattr(section, path[-1]), key
    # and every ladder run's lifter, training and refinement are the class
    # defaults but for what the rungs and seeds vary
    cfgs = ladder_configs(tmp_path, monkeypatch)
    assert len(cfgs) == 3 * len(ladder_rungs())
    for cfg in cfgs:
        assert differing_fields(cfg.tcn, TcnConfig()) <= {"strides", "use_embedding"}, cfg.out_dir
        assert differing_fields(cfg.train, TrainConfig()) <= {"weights", "seed"}, cfg.out_dir
        assert cfg.iso is None or differing_fields(cfg.iso, IsoConfig()) == {"lambda1"}
    assert any(cfg.iso is not None for cfg in cfgs)


# a config key in backticks: `<section>.<field>`, optionally `= value`; a
# module constant (`skeleton.CROP_PX`), a wildcard (`synth.*`), a call and a
# Python file (`synth.py`) are not keys
SECTIONS = sorted({key.split(".")[0] for key in _keys(ExperimentConfig) if "." in key})
DOTTED_KEY = re.compile(r"`((?:%s)\.(?!py`)[a-z_][a-z0-9_]*)(?![\w.(*])[^`]*`"
                        % "|".join(SECTIONS))


def test_readme_key_guard_sees_keys_and_only_keys():
    text = ("`occ.shift_px`, `synth.view_rotations = 0:1.57:0`, `train.w3 > 0`, `synth.*`, "
            "`skeleton.CROP_PX`, `synth.SCALE_MM`, `synth.py`, `iso.calibrate()`, `model.ckpt`")
    assert DOTTED_KEY.findall(text) == ["occ.shift_px", "synth.view_rotations", "train.w3"]


def test_every_dotted_key_the_readme_names_is_a_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    named = set(DOTTED_KEY.findall(readme))
    assert named and not named - set(_keys(ExperimentConfig))


def test_run_experiment_echoes_scorer_window(tmp_path):
    # acceptance criterion 10's config
    cfg = write_cfg(tmp_path / "exp.cfg", **{
        "synth.n_sequences": 2, "synth.frames": 40, "synth.seed": 50,
        "synth.mask_occluded_prob": 0.0,
        "eval_synth.n_sequences": 1, "eval_synth.frames": 40,
        "eval_synth.seed": 60,
        "tcn.embed_dim": 8, "tcn.window_len": 8, "tcn.strides": "1",
        "tcn.channels": 8, "tcn.branch_layers": 1,
        "train.steps_per_epoch": 3, "train.batch_size": 2,
        "train.w1": 0.0, "train.w2": 0.0, "train.w3": 0.01,
        "iso.iterations": 3, "iso.lambda1": 0.01, "iso.step_size": 0.01,
        "epochs": 1, "scorer_window": 8})
    out = tmp_path / "run"
    assert run("run-experiment", "--config", cfg, "--seed", 0, "--out", out) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["scorer_window"] == 8


def test_train_matches_run_experiment_bytes(tmp_path):
    cfg = write_cfg(tmp_path / "t.cfg", **{
        "synth.n_sequences": 2, "synth.frames": 40, "synth.seed": 12,
        "eval_synth.n_sequences": 1, "eval_synth.frames": 40,
        "tcn.embed_dim": 8, "tcn.window_len": 8, "tcn.strides": "1",
        "tcn.channels": 8, "tcn.branch_layers": 1,
        "train.steps_per_epoch": 3, "train.batch_size": 2, "train.w3": 0.01,
        "occ.p1": 0.2, "aug_copies": 2, "scorer_window": 8, "epochs": 2})
    a, b = tmp_path / "train", tmp_path / "exp"
    assert run("train", "--config", cfg, "--seed", 3, "--out", a) == 0
    assert run("run-experiment", "--config", cfg, "--seed", 3, "--out", b) == 0
    for name in ("model.ckpt.npz", "history.json", "scorer.ckpt.npz"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
