"""Synthetic motion and frame-batched cylinder visibility.

poselift.synth and poselift.visibility work on whole sequences at once; the
per-frame references in oracles.py are the loops they replace, and every
output must match them byte for byte.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poselift.errors import ConfigError, TopologyError
from poselift.experiment import ExperimentConfig
from poselift.pose_io import default_topology
from poselift.skeleton import PoseSequence3D, RotationAugment, rotate_pose, rotation_matrix
from poselift.synth import SyntheticMotionConfig, _fk, _rodrigues, generate, rest_offsets
from poselift.visibility import (_cylinder_arrays, _occlusion_tests, frame_visibility,
                                 sequence_visibility)

from conftest import plausible_pose_bank, random_cloud_pose, rest_pose
from oracles import (axis_angle_matrix, fk_per_frame, frame_hard_visibility, generate_per_frame,
                     sequence_visibility_per_frame)


def _seeds(seed):
    return [int(v) for v in np.random.SeedSequence(seed).generate_state(2)]


def _bench_train(seed):
    return SyntheticMotionConfig(n_sequences=4, frames=120, seed=_seeds(seed)[0],
                                 speed_multipliers=(1.0, 1.6),
                                 view_rotations=((0.0, math.pi / 2, 0.0),),
                                 mask_occluded_prob=0.0)


def _bench_eval(n, frames):
    def make(seed):
        return SyntheticMotionConfig(n_sequences=n, frames=frames, seed=_seeds(seed)[1],
                                     speed_multipliers=(1.0, 1.6), mask_occluded_prob=0.9)
    return make


CONFIGS = {
    "bench-train": _bench_train,
    "pipeline-eval": _bench_eval(3, 96),
    "lift-eval": _bench_eval(8, 480),
    "experiment-train": lambda seed: dataclasses.replace(ExperimentConfig().train_synth, seed=seed),
    "experiment-eval": lambda seed: dataclasses.replace(ExperimentConfig().eval_synth, seed=seed),
    "defaults": lambda seed: SyntheticMotionConfig(seed=seed),
}


def assert_same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_same_sequences(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.action == w.action
        assert_same_bytes(g.pose3d.frames, w.pose3d.frames)
        assert g.pose3d.actions == w.pose3d.actions
        assert len(g.views) == len(w.views)
        for gv, wv in zip(g.views, w.views):
            assert gv.rotation == wv.rotation
            assert_same_bytes(gv.pose3d.frames, wv.pose3d.frames)
            assert_same_bytes(gv.pose3d.visibility, wv.pose3d.visibility)
            assert_same_bytes(gv.visible, wv.visible)
            for name in ("frames", "confidence", "mask"):
                assert_same_bytes(getattr(gv.det2d, name), getattr(wv.det2d, name))
            assert gv.det2d.scale_mm == wv.det2d.scale_mm
            assert gv.det2d.actions == wv.det2d.actions


# ------------------------------------------------------------- generate


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_generate_matches_per_frame_oracle(topo, name, seed):
    cfg = CONFIGS[name](seed)
    assert_same_sequences(generate(cfg, topo), generate_per_frame(cfg, topo))


def test_generate_matches_per_frame_oracle_three_views(topo):
    cfg = SyntheticMotionConfig(n_sequences=3, frames=50, seed=5,
                                speed_multipliers=(0.5, 1.0, 2.3),
                                view_rotations=((0.3, 1.2, -0.2), (0.0, -2.5, 0.4)),
                                mask_occluded_prob=0.5)
    got = generate(cfg, topo)
    assert len(got[0].views) == 3
    assert_same_sequences(got, generate_per_frame(cfg, topo))


@pytest.fixture(scope="module")
def multiview(topo):
    return generate(SyntheticMotionConfig(n_sequences=3, frames=80, seed=21,
                                          speed_multipliers=(1.0, 1.7),
                                          view_rotations=((0.2, 1.3, 0.1), (0.0, -0.7, 0.0))),
                    topo)


def test_bone_lengths_constant_within_a_sequence(topo, multiview):
    rest = np.linalg.norm(rest_offsets(topo), axis=1)
    parents = [p for p, _ in topo.bones]
    children = [c for _, c in topo.bones]
    for seq in multiview:
        for view in seq.views:
            f = view.pose3d.frames
            lengths = np.linalg.norm(f[:, children] - f[:, parents], axis=2)
            assert np.all(lengths.max(axis=0) - lengths.min(axis=0) <= 1e-9)
            np.testing.assert_allclose(lengths, np.broadcast_to(rest, lengths.shape),
                                       rtol=0.0, atol=1e-9)


def test_root_stays_at_origin(topo, multiview):
    for seq in multiview:
        assert np.all(seq.pose3d.frames[:, topo.root_index] == 0.0)
        for view in seq.views:
            assert np.all(view.pose3d.frames[:, topo.root_index] == 0.0)


def test_views_are_rotations_of_view_zero(topo, multiview):
    for seq in multiview:
        base = seq.views[0].pose3d
        assert seq.views[0].rotation == RotationAugment()
        for view in seq.views:
            np.testing.assert_array_equal(view.pose3d.frames,
                                          rotate_pose(base, view.rotation).frames)


def test_fk_matches_per_frame_oracle(topo):
    rng = np.random.default_rng(4)
    offsets = rest_offsets(topo)
    for t_len in (1, 7, 64):
        rotvecs = rng.normal(0.0, 0.5, size=(t_len, topo.M, 3))
        rotvecs[0, :3] = 0.0                      # no rotation: the identity path
        rotvecs[-1, 3] = [1e-13, 0.0, 0.0]        # below the 1e-12 angle cut
        rotvecs[-1, 4] = [0.0, 2e-12, 0.0]        # just above it
        global_rots = rotation_matrix(rng.uniform(-0.2, 0.2, t_len),
                                      rng.uniform(-np.pi, np.pi, t_len), 0.0)
        assert_same_bytes(_fk(topo, offsets, rotvecs, global_rots),
                          fk_per_frame(topo, offsets, rotvecs, global_rots))
        local = _rodrigues(rotvecs)
        for t in range(t_len):
            for m in range(topo.M):
                assert_same_bytes(local[t, m], axis_angle_matrix(rotvecs[t, m]))


@pytest.mark.parametrize("field, value", [
    ("n_sequences", 0), ("frames", 1), ("speed_multipliers", (1.0, 0.0)),
    ("speed_multipliers", ()), ("speed_multipliers", (float("nan"),)),
    ("mask_occluded_prob", -0.1), ("mask_occluded_prob", 1.5),
    ("mask_occluded_prob", float("nan"))])
def test_config_rejects_bad_fields_when_built(field, value):
    with pytest.raises(ConfigError):
        SyntheticMotionConfig(**{field: value})


def test_rotation_matrix_stack_matches_scalar_calls():
    rng = np.random.default_rng(3)
    angles = rng.uniform(-np.pi, np.pi, size=(3, 40))
    stack = rotation_matrix(angles[0], angles[1], 0.0)
    assert stack.shape == (40, 3, 3)
    for t in range(40):
        assert_same_bytes(stack[t], RotationAugment(alpha=angles[0, t], beta=angles[1, t]).matrix())
    assert rotation_matrix(0.1, 0.2, 0.3).shape == (3, 3)
    assert rotation_matrix(angles[:, :6].reshape(3, 2, 3)[0], 0.5, angles[2, :3]).shape == (2, 3, 3, 3)


# ------------------------------------------------------------- visibility


def special_frames(topo):
    """Rest-pose frames that each take one degenerate path of the geometry."""
    def with_moves(**moves):
        frame = rest_pose(topo)
        for name, target in moves.items():
            frame[topo.index(name)] = target(frame)
        return frame

    elbow = topo.index("elbow_l")
    shoulder = topo.index("shoulder_l")
    neck = topo.index("neck")
    spine = topo.index("spine")
    return [
        # zero-height lower arm: wrist on the elbow
        with_moves(wrist_l=lambda f: f[elbow]),
        # upper arm along the viewing axis: edge-on, its rectangle is a segment
        with_moves(elbow_l=lambda f: f[shoulder] + np.array([0.0, 0.0, -280.0])),
        # both shoulders on the neck: zero torso radius; the spine, on the
        # torso axis and behind it, is visible only because that radius is 0
        with_moves(shoulder_l=lambda f: f[neck], shoulder_r=lambda f: f[neck],
                   spine=lambda f: f[spine] * np.array([0.0, 1.0, 0.0]) + np.array([0.0, 0.0, 40.0])),
    ]


def test_sequence_visibility_matches_oracle_on_plausible_poses(topo):
    frames = plausible_pose_bank(topo, 600, seed=12)
    pose = PoseSequence3D(frames)
    got = sequence_visibility(pose, topo)
    assert_same_bytes(got, sequence_visibility_per_frame(pose, topo))
    assert 0 < (~got).sum() < got.size


def test_sequence_visibility_matches_oracle_on_perturbed_poses(topo):
    rng = np.random.default_rng(13)
    frames = plausible_pose_bank(topo, 400, seed=14)
    frames = frames + rng.normal(0.0, 40.0, size=frames.shape)
    clouds = np.stack([random_cloud_pose(rng, topo, spread=400.0) for _ in range(100)])
    pose = PoseSequence3D(np.concatenate([frames, clouds]))
    assert_same_bytes(sequence_visibility(pose, topo), sequence_visibility_per_frame(pose, topo))


def test_degenerate_cylinders_mixed_with_normal_frames(topo):
    special = special_frames(topo)
    _, _, radii, degenerate = _cylinder_arrays(np.stack(special), topo)
    c = {spec.name: i for i, spec in enumerate(topo.cylinders)}
    assert degenerate[0, c["lower_arm_l"]]
    assert not degenerate[1, c["upper_arm_l"]]
    assert radii[2, c["torso"]] == 0.0 and degenerate[2, c["torso"]]
    assert frame_visibility(special[2], topo).hard[topo.index("spine")] == 1
    normal = plausible_pose_bank(topo, 12, seed=15)
    frames = np.concatenate([normal[:4], special[:1], normal[4:8], special[1:], normal[8:]])
    pose = PoseSequence3D(frames)
    got = sequence_visibility(pose, topo)
    assert_same_bytes(got, sequence_visibility_per_frame(pose, topo))
    for t, frame in enumerate(frames):
        report = frame_visibility(frame, topo)
        assert_same_bytes(report.hard.astype(bool), got[t])
        assert_same_bytes(report.hard.astype(bool), frame_hard_visibility(frame, topo))


def test_edge_on_cylinder_gates_nothing(topo):
    frame = special_frames(topo)[1]
    # a wrist straight behind the edge-on upper arm stays visible to it
    frame[topo.index("wrist_l")] = (frame[topo.index("shoulder_l")]
                                    + np.array([0.0, 0.0, 300.0]))
    gated, _ = _occlusion_tests(frame[None], topo)
    upper_arm = [spec.name for spec in topo.cylinders].index("upper_arm_l")
    assert not gated[0, :, upper_arm].any()


def test_wrong_keypoint_count_raises(topo):
    with pytest.raises(TopologyError):
        sequence_visibility(PoseSequence3D(np.zeros((3, topo.K - 1, 3))), topo)
    with pytest.raises(TopologyError):
        frame_visibility(np.zeros((topo.K + 1, 3)), topo)


def test_topology_without_cylinders_raises(topo):
    bare = dataclasses.replace(topo, cylinders=())
    pose = PoseSequence3D(np.stack([rest_pose(topo)] * 2))
    with pytest.raises(TopologyError):
        sequence_visibility(pose, bare)
    with pytest.raises(TopologyError):
        frame_visibility(rest_pose(topo), bare)
    with pytest.raises(TopologyError):
        _cylinder_arrays(rest_pose(topo)[None], bare)


# Poses on a 1/64 mm grid below 2^13 mm, moved by whole millimetres up to
# 1e4, stay on that grid below 2^15 mm: every coordinate, and every
# difference the geometry takes, is exact in float64, so the hard labels
# must agree with no margin band.
def _grid_frames():
    topo = default_topology()
    rng = np.random.default_rng(16)
    frames = plausible_pose_bank(topo, 200, seed=17)
    frames = frames + rng.normal(0.0, 30.0, size=frames.shape)
    return np.round(frames * 64.0) / 64.0


GRID_FRAMES = _grid_frames()


@settings(max_examples=60)
@given(start=st.integers(0, 199), length=st.integers(1, 40),
       dz=st.integers(-10_000, 10_000))
def test_hard_visibility_invariant_to_z_translation(topo, start, length, dz):
    frames = GRID_FRAMES[start:start + length]
    assert np.abs(frames).max() < 2.0 ** 13
    moved = frames + np.array([0.0, 0.0, float(dz)])
    assert np.array_equal(moved - np.array([0.0, 0.0, float(dz)]), frames)
    assert_same_bytes(sequence_visibility(PoseSequence3D(moved), topo),
                      sequence_visibility(PoseSequence3D(frames), topo))
