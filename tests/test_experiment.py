"""Pipeline orchestration tests."""

import ctypes
import dataclasses
import hashlib
import importlib.resources
import json
from pathlib import Path

import numpy as np
import pytest

from poselift.augment import OcclusionConfig
from poselift.errors import ConfigError, InvalidInputError
from poselift.experiment import (ExperimentConfig, ladder_experiment,
                                 ladder_rungs, run_experiment)
from poselift.iso import CalibratedConfidence, IsoConfig
from poselift.pose_io import default_topology, parse_topology
from poselift.synth import SyntheticMotionConfig
from poselift.tcn import LossWeights, TcnModel, TrainConfig

TOPO = default_topology()


def tiny_config(out_dir, **kw):
    base = dict(
        out_dir=str(out_dir), seed=0, epochs=1,
        train_synth=SyntheticMotionConfig(n_sequences=2, frames=40, seed=100,
                                          mask_occluded_prob=0.0),
        eval_synth=SyntheticMotionConfig(n_sequences=1, frames=40, seed=200,
                                         mask_occluded_prob=0.9),
        train=TrainConfig(steps_per_epoch=5, batch_size=2,
                          weights=LossWeights(w1=0.0, w2=0.0, w3=0.0)),
        scorer_window=8)
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_experiment_all_stages_and_manifest(tmp_path):
    out = tmp_path / "run"
    cfg = tiny_config(out,
                      train=TrainConfig(steps_per_epoch=5, batch_size=2,
                                        weights=LossWeights(w1=0.0, w2=0.0, w3=0.01)),
                      iso=IsoConfig(iterations=5, lambda1=0.01))
    manifest = run_experiment(cfg, TOPO)
    assert all(v == "ok" for v in manifest["stages"].values())
    assert manifest["failure"] is None
    # completeness: every file present is listed, every digest correct
    on_disk = {str(p.relative_to(out)) for p in out.rglob("*")
               if p.is_file() and p.name != "manifest.json"}
    assert set(manifest["files"]) == on_disk
    for rel, digest in manifest["files"].items():
        assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest
    report = json.loads((out / "report.json").read_text())
    assert report["refined"] is not None
    assert report["final_mpjpe_mm"] == report["refined"]["mpjpe_mm"]
    assert (out / "scorer.ckpt.npz").exists()
    trace = json.loads((out / "eval00_trace.json").read_text())
    assert len(trace) == 5 and "mpjpe" in trace[0]


def test_run_experiment_skips_scorer_without_realness_terms(tmp_path):
    cfg = tiny_config(tmp_path / "noscorer")
    manifest = run_experiment(cfg, TOPO)
    assert manifest["stages"]["scorer"].startswith("skipped")
    assert manifest["stages"]["refine"].startswith("skipped")
    assert not (tmp_path / "noscorer" / "scorer.ckpt.npz").exists()
    report = json.loads((tmp_path / "noscorer" / "report.json").read_text())
    assert report["refined"] is None
    assert report["final_mpjpe_mm"] == report["raw"]["mpjpe_mm"]


def test_run_experiment_takes_the_keypoint_count_from_the_topology(tmp_path):
    # the default skeleton without its nose (16 keypoints), with the 17-keypoint
    # TcnConfig() the config carries
    text = importlib.resources.files("poselift.data").joinpath("h36m17.topo").read_text()
    text = text.replace("keypoint nose\n", "").replace(
        "bone neck nose 100\nbone nose head_top 100\n", "bone neck head_top 100\n")
    topo = parse_topology(text)
    assert topo.K == 16
    out = tmp_path / "run"
    manifest = run_experiment(tiny_config(out, iso=IsoConfig(iterations=3, lambda1=0.0)), topo)
    assert manifest["failure"] is None
    assert manifest["config"]["tcn"]["n_keypoints"] == 16
    assert TcnModel.load(out / "model.ckpt.npz").config.n_keypoints == 16


def test_run_experiment_deterministic_digests(tmp_path):
    outs = []
    for name in ("a", "b"):
        cfg = tiny_config(tmp_path / name,
                          iso=IsoConfig(iterations=3, lambda1=0.0))
        run_experiment(cfg, TOPO)
        outs.append(tmp_path / name)
    ma = json.loads((outs[0] / "manifest.json").read_text())
    mb = json.loads((outs[1] / "manifest.json").read_text())
    assert ma["files"] == mb["files"]
    assert (outs[0] / "manifest.json").read_bytes() == \
        (outs[1] / "manifest.json").read_bytes()


def test_run_experiment_seed_changes_artifacts(tmp_path):
    digests = []
    for seed in (0, 1):
        cfg = tiny_config(tmp_path / f"s{seed}", seed=seed)
        manifest = run_experiment(cfg, TOPO)
        digests.append(manifest["files"]["model.ckpt.npz"])
    assert digests[0] != digests[1]


def test_run_experiment_failure_writes_partial_manifest(tmp_path):
    # a gt file without its detection file fails the synth stage after the
    # config has validated
    data = tmp_path / "data"
    data.mkdir()
    from poselift.pose_io import write_pose3d
    from poselift.synth import generate
    seq = generate(SyntheticMotionConfig(n_sequences=1, frames=8, seed=1), TOPO)[0]
    write_pose3d(data / "eval00_gt.pose3d", seq.pose3d, TOPO)
    out = tmp_path / "fail"
    cfg = tiny_config(out, data_dir=str(data))
    with pytest.raises(InvalidInputError):
        run_experiment(cfg, TOPO)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failure"]["stage"] == "synth"
    assert "InvalidInputError" in manifest["failure"]["error"]
    assert "eval" not in manifest["stages"]


def test_run_experiment_writes_the_same_files_whatever_blas_thread_count(tmp_path):
    # a threaded BLAS cuts products by its thread count and changes their
    # bits; the pipeline runs on one BLAS thread and puts the count back
    from poselift import parallel

    set_threads = parallel._openblas("set_num_threads", None, (ctypes.c_int,))
    if set_threads is None:
        pytest.skip("numpy's BLAS thread count cannot be set here")
    before = parallel.blas_threads()
    files = []
    try:
        for threads in (1, 2):
            set_threads(threads)
            out = tmp_path / f"blas{threads}"
            run_experiment(tiny_config(
                out, train=TrainConfig(steps_per_epoch=5, batch_size=8,
                                       weights=LossWeights(w1=0.0, w2=0.0, w3=0.01)),
                iso=IsoConfig(iterations=5, lambda1=0.01)), TOPO)
            assert parallel.blas_threads() == threads
            files.append({str(p.relative_to(out)): p.read_bytes()
                          for p in out.rglob("*") if p.is_file()})
        # a stage that fails puts the count back too: no eval pairs to read
        (tmp_path / "empty").mkdir()
        with pytest.raises(InvalidInputError):
            run_experiment(tiny_config(tmp_path / "fail", data_dir=str(tmp_path / "empty")),
                           TOPO)
        assert parallel.blas_threads() == 2
    finally:
        set_threads(before)
    assert "manifest.json" in files[0] and "eval00_trace.json" in files[0]
    assert files[0] == files[1]


def test_overlapping_blas_pins_hold_until_the_last_one_ends():
    # two threads' blocks overlap and the first to enter leaves first: the
    # other still runs on one BLAS thread, and the count before both returns
    import threading

    from poselift import parallel

    set_threads = parallel._openblas("set_num_threads", None, (ctypes.c_int,))
    if set_threads is None:
        pytest.skip("numpy's BLAS thread count cannot be set here")
    before = parallel.blas_threads()
    first_in, second_in, first_out = (threading.Event() for _ in range(3))

    def first():
        with parallel.one_blas_thread():
            first_in.set()
            assert second_in.wait(10)
        first_out.set()

    def second():
        assert first_in.wait(10)
        with parallel.one_blas_thread():
            second_in.set()
            assert first_out.wait(10)
            return parallel.blas_threads()

    try:
        set_threads(2)
        assert parallel.run([first, second], 2)[1] == 1
        assert parallel.blas_threads() == 2
    finally:
        set_threads(before)


def test_a_blas_pin_without_a_setter_runs_its_block(monkeypatch):
    from poselift import parallel

    monkeypatch.setattr(parallel, "_openblas", lambda *args: None)
    with parallel.one_blas_thread():
        assert parallel.blas_threads() == 0


def test_run_experiment_reads_eval_pairs_from_data_dir(tmp_path):
    first = tmp_path / "first"
    run_experiment(tiny_config(first), TOPO)
    second = tmp_path / "second"
    cfg = tiny_config(second, data_dir=str(first))
    manifest = run_experiment(cfg, TOPO)
    assert manifest["stages"]["synth"] == "ok"
    # the copied eval pair round-trips bit-identically through the text format
    assert manifest["files"]["eval00_gt.pose3d"] == \
        json.loads((first / "manifest.json").read_text())["files"]["eval00_gt.pose3d"]


def mixed_length_data(data):
    """Eval pairs of 40, 30 and 40 frames written under `data`, for data_dir."""
    from poselift.pose_io import write_pose2d, write_pose3d
    from poselift.synth import generate

    data.mkdir()
    for name, frames, seed in (("a", 40, 1), ("b", 30, 2), ("c", 40, 3)):
        view = generate(SyntheticMotionConfig(n_sequences=1, frames=frames, seed=seed,
                                              mask_occluded_prob=0.9), TOPO)[0].views[0]
        write_pose3d(data / f"{name}_gt.pose3d", view.pose3d, TOPO)
        write_pose2d(data / f"{name}_det.pose2d", view.det2d, TOPO)
    return data


def refining_config(out, data):
    return tiny_config(out, data_dir=str(data),
                       train=TrainConfig(steps_per_epoch=5, batch_size=2,
                                         weights=LossWeights(w1=0.0, w2=0.0, w3=0.01)),
                       iso=IsoConfig(iterations=30, lambda1=0.01))


@pytest.mark.parametrize("stack_frames", [1024, 40])
def test_refine_stage_writes_what_refining_each_pair_alone_writes(tmp_path, monkeypatch,
                                                                  stack_frames):
    # eval pairs of 40, 30 and 40 frames: one stack per length, or with a
    # 40-frame cap one stack per pair
    import poselift.experiment as experiment
    import poselift.iso as iso
    from poselift.pose_io import write_json, write_pose3d

    data = mixed_length_data(tmp_path / "data")
    monkeypatch.setattr(iso, "STACK_FRAMES", stack_frames)
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return iso.refine_many(*args, **kwargs)

    monkeypatch.setattr(experiment, "refine_many", recording)
    out = tmp_path / "run"
    run_experiment(refining_config(out, data), TOPO)
    assert len(calls) == 1
    (preds, dets, scorer, iso_cfg), kwargs = calls[0]
    alone = tmp_path / "alone"
    alone.mkdir()
    for i, (pred, det, gt) in enumerate(zip(preds, dets, kwargs["gts"], strict=True)):
        pose, trace = iso.refine(pred, det, scorer, iso_cfg, gt3d=gt)
        write_pose3d(alone / "iso.pose3d", pose, TOPO)
        write_json(alone / "trace.json", trace)
        assert (out / f"eval{i:02d}_iso.pose3d").read_bytes() == \
            (alone / "iso.pose3d").read_bytes()
        assert (out / f"eval{i:02d}_trace.json").read_bytes() == \
            (alone / "trace.json").read_bytes()
    assert [p.T for p in preds] == [40, 30, 40]


def test_run_experiment_writes_the_same_files_on_one_core_and_two(tmp_path, monkeypatch):
    # criterion 10 across core counts: on two cores the two 40-frame pairs
    # descend on two threads, the 30-frame pair after one of them
    from poselift import parallel

    data = mixed_length_data(tmp_path / "data")
    files = []
    for cores in (1, 2):
        monkeypatch.setattr(parallel, "cores", lambda: cores)
        out = tmp_path / f"cores{cores}"
        run_experiment(refining_config(out, data), TOPO)
        files.append({str(p.relative_to(out)): p.read_bytes()
                      for p in out.rglob("*") if p.is_file()})
    assert "manifest.json" in files[0] and "eval02_trace.json" in files[0]
    assert files[0] == files[1]


def test_a_long_pair_writes_the_same_files_on_one_core_and_two(tmp_path, monkeypatch,
                                                               one_blas_thread):
    # one 480-frame pair: on two cores its energy evaluations split in two
    from poselift import parallel
    from poselift.discriminator import KcsEnergyModel
    from poselift.pose_io import write_pose2d, write_pose3d
    from poselift.synth import generate

    data = tmp_path / "data"
    data.mkdir()
    view = generate(SyntheticMotionConfig(n_sequences=1, frames=480, seed=4,
                                          mask_occluded_prob=0.9), TOPO)[0].views[0]
    write_pose3d(data / "a_gt.pose3d", view.pose3d, TOPO)
    write_pose2d(data / "a_det.pose2d", view.det2d, TOPO)
    parts, call = [], KcsEnergyModel.energies_and_grad

    def recording(self, frames, weight, work=None, parts_=1):
        parts.append(parts_)
        return call(self, frames, weight, work, parts_)

    monkeypatch.setattr(KcsEnergyModel, "energies_and_grad", recording)
    files = []
    for cores in (1, 2):
        monkeypatch.setattr(parallel, "cores", lambda: cores)
        out = tmp_path / f"cores{cores}"
        run_experiment(refining_config(out, data), TOPO)
        files.append({str(p.relative_to(out)): p.read_bytes()
                      for p in out.rglob("*") if p.is_file()})
    assert parts == [1] * 30 + [2] * 30
    assert "manifest.json" in files[0] and "eval00_iso.pose3d" in files[0]
    assert files[0] == files[1]


def test_a_wide_model_trains_to_the_same_files_on_one_core_and_two(tmp_path, monkeypatch,
                                                                   one_blas_thread):
    # a tcn section above the branch-thread gate: on two cores the training
    # run's team and each training forward (8 x 23 rows, two views, a
    # scorer) run its branches in two groups; the team and the one chunk of
    # the 59-row lift of the infer stage stay in one
    from poselift import parallel
    from poselift.tcn import TcnConfig, TcnModel

    groups, deal = [], TcnModel.branch_groups

    def recording(self, rows, centers):
        got = deal(self, rows, centers)
        groups.append(len(got))
        return got

    monkeypatch.setattr(TcnModel, "branch_groups", recording)
    files = []
    for cores in (1, 2):
        monkeypatch.setattr(parallel, "cores", lambda: cores)
        out = tmp_path / f"cores{cores}"
        run_experiment(tiny_config(
            out, tcn=TcnConfig(embed_dim=256, window_len=20, strides=(1, 2, 3),
                               channels=128, branch_layers=2),
            train_synth=SyntheticMotionConfig(n_sequences=2, frames=40, seed=100,
                                              view_rotations=((0.0, 1.2, 0.0),),
                                              mask_occluded_prob=0.0),
            train=TrainConfig(steps_per_epoch=3, batch_size=8, weights=LossWeights(w3=0.01))),
            TOPO)
        files.append({str(p.relative_to(out)): p.read_bytes()
                      for p in out.rglob("*") if p.is_file()})
    assert groups == [1] * 9 + [2] * 7 + [1] * 2
    assert "manifest.json" in files[0] and "model.ckpt.npz" in files[0]
    assert files[0] == files[1]


def test_config_validation(tmp_path):
    # every check runs when the config is built
    for field, value in [("out_dir", ""), ("epochs", -1), ("aug_copies", 0),
                         ("scorer_interval", 0), ("scorer_window", 1), ("scorer_reg", 0.0),
                         ("data_dir", str(tmp_path / "missing"))]:
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(**{field: value})


def test_every_config_section_is_frozen():
    sections, todo = {}, [ExperimentConfig(
        occlusion=OcclusionConfig(), iso=IsoConfig(calibration=CalibratedConfidence()))]
    while todo:
        cfg = todo.pop()
        sections[type(cfg)] = cfg
        todo += [v for v in vars(cfg).values() if dataclasses.is_dataclass(v)]
    assert len(sections) == 8
    for cfg in sections.values():
        name = dataclasses.fields(cfg)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, getattr(cfg, name))


def test_ladder_rung_progression():
    rungs = ladder_rungs()
    assert [r["name"] for r in rungs] == [
        "base", "+embedding", "+multi-stride", "+multi-view", "+tkcs",
        "+occlusion-aug", "+iso"]
    assert not rungs[0]["tcn"].use_embedding and rungs[1]["tcn"].use_embedding
    assert rungs[1]["tcn"].strides == (1,) and rungs[2]["tcn"].strides == (1, 2, 3)
    assert rungs[3]["weights"].w1 > 0 and rungs[2]["weights"].w1 == 0
    assert rungs[4]["weights"].w3 > 0 and rungs[3]["weights"].w3 == 0
    assert rungs[5]["occlusion"] is not None and rungs[4]["occlusion"] is None
    assert rungs[6]["iso"] is not None and rungs[5]["iso"] is None
    # each rung only ever adds components
    for a, b in zip(rungs, rungs[1:]):
        assert b["tcn"].use_embedding >= a["tcn"].use_embedding
        assert set(a["tcn"].strides) <= set(b["tcn"].strides)
        assert b["weights"].w1 >= a["weights"].w1
        assert b["weights"].w3 >= a["weights"].w3


def test_ladder_experiment_writes_table(tmp_path):
    # one single-step epoch exercises the plumbing at near-zero training cost
    # (the exactly-zero-init model would have all-degenerate bone directions)
    table = ladder_experiment(tmp_path / "ladder", seeds=(0,), epochs=1,
                              train_cfg=TrainConfig(steps_per_epoch=1, batch_size=1),
                              topo=TOPO)
    assert [r["name"] for r in table["rows"]] == [r["name"] for r in ladder_rungs()]
    assert all(len(r["per_seed"]) == 1 for r in table["rows"])
    assert all(np.isfinite(r["mean_mpjpe_mm"]) for r in table["rows"])
    assert (tmp_path / "ladder" / "ladder.json").exists()
    text = (tmp_path / "ladder" / "ladder.txt").read_text()
    assert "+multi-stride" in text
    saved = json.loads((tmp_path / "ladder" / "ladder.json").read_text())
    assert saved["rows"] == table["rows"]
