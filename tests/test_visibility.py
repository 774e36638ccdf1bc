import dataclasses

import numpy as np
import pytest

import poselift.visibility as visibility
from poselift.errors import TopologyError
from poselift.skeleton import PoseSequence3D, RotationAugment, rotate_pose
from poselift.visibility import (
    _cylinder_arrays,
    _occlusion_tests,
    frame_visibility,
    sequence_visibility,
)

from conftest import plausible_pose_bank, random_cloud_pose, rest_pose
from oracles import (sequence_visibility_per_frame, visible_by_rectangle_oracle,
                     visible_by_solid_oracle)


def named_pose(topo, **overrides):
    frame = rest_pose(topo)
    for name, coords in overrides.items():
        frame[topo.index(name)] = coords
    return frame


def cylinders(frame, topo):
    """{cylinder name: (radius mm, degenerate)} of one frame."""
    _, _, radii, degenerate = _cylinder_arrays(frame[None], topo)
    return {spec.name: (float(radii[0, c]), bool(degenerate[0, c]))
            for c, spec in enumerate(topo.cylinders)}


# ------------------------------------------------------------- cylinders

def test_ten_cylinders(topo):
    tops, bottoms, radii, degenerate = _cylinder_arrays(rest_pose(topo)[None], topo)
    assert tops.shape == bottoms.shape == (1, 10, 3)
    assert radii.shape == degenerate.shape == (1, 10)
    names = {spec.name for spec in topo.cylinders}
    assert "head" in names and "torso" in names


def test_torso_radius_from_pose(topo):
    # symmetric pose with neck-to-shoulder distance exactly 300
    frame = named_pose(topo)
    neck = frame[topo.index("neck")]
    frame[topo.index("shoulder_l")] = neck + np.array([300.0, 0.0, 0.0])
    frame[topo.index("shoulder_r")] = neck + np.array([-300.0, 0.0, 0.0])
    cyls = cylinders(frame, topo)
    assert cyls["torso"][0] == pytest.approx(300.0)
    assert cyls["head"][0] == 100.0
    assert cyls["upper_arm_l"][0] == 50.0


def test_zero_length_cylinder_degenerate(topo):
    frame = named_pose(topo)
    frame[topo.index("wrist_l")] = frame[topo.index("elbow_l")]
    assert cylinders(frame, topo)["lower_arm_l"][1]
    # degenerate cylinder occludes nothing: report still well formed
    report = frame_visibility(frame, topo)
    assert report.hard.shape == (topo.K,)


def test_build_cylinders_shape_mismatch(topo):
    with pytest.raises(TopologyError):
        _cylinder_arrays(np.zeros((1, 5, 3)), topo)


# ------------------------------------------------------------- plane test

def torso_gate_pose(topo, wrist_z):
    """Pose with the left wrist projected inside the torso rectangle."""
    frame = named_pose(
        topo,
        pelvis=(0.0, 0.0, 0.0),
        spine=(0.0, 200.0, 0.0),
        neck=(0.0, 400.0, 0.0),
        nose=(0.0, 450.0, -80.0),
        head_top=(0.0, 550.0, 0.0),
        shoulder_l=(200.0, 380.0, 0.0),
        elbow_l=(350.0, 200.0, 0.0),
        wrist_l=(50.0, 200.0, wrist_z),
        shoulder_r=(-200.0, 380.0, 0.0),
        elbow_r=(-350.0, 200.0, 0.0),
        wrist_r=(-350.0, 50.0, 0.0),
        hip_r=(-130.0, -20.0, 0.0),
        knee_r=(-130.0, -460.0, 0.0),
        ankle_r=(-130.0, -900.0, 0.0),
        hip_l=(130.0, -20.0, 0.0),
        knee_l=(130.0, -460.0, 0.0),
        ankle_l=(130.0, -900.0, 0.0),
    )
    return frame


def torso_test(topo, frame):
    """(gated, dist) of the left wrist against the torso cylinder."""
    gated, dist = _occlusion_tests(frame[None], topo)
    k, c = topo.index("wrist_l"), [spec.name for spec in topo.cylinders].index("torso")
    return gated[0, k, c], dist[0, k, c]


def test_wrist_in_front_of_torso_visible(topo):
    frame = torso_gate_pose(topo, -500.0)
    assert frame_visibility(frame, topo).hard[topo.index("wrist_l")] == 1
    gated, dist = torso_test(topo, frame)
    assert gated and dist > 0.0


def test_wrist_behind_torso_occluded(topo):
    frame = torso_gate_pose(topo, +500.0)
    assert frame_visibility(frame, topo).hard[topo.index("wrist_l")] == 0
    gated, dist = torso_test(topo, frame)
    assert gated and dist < 0.0


def test_rest_pose_fully_visible(topo):
    report = frame_visibility(rest_pose(topo), topo)
    assert report.hard.tolist() == [1] * topo.K


def test_back_to_camera_hides_forward_wrist(topo):
    frame = torso_gate_pose(topo, -500.0)  # wrist in front of the body
    pose = PoseSequence3D(frame[None])
    flipped = rotate_pose(pose, RotationAugment(beta=np.pi))
    report = frame_visibility(flipped.frames[0], topo)
    assert report.hard[topo.index("wrist_l")] == 0


def test_sequence_visibility_shape(topo):
    frames = np.stack([rest_pose(topo)] * 4)
    vis = sequence_visibility(PoseSequence3D(frames), topo)
    assert vis.shape == (4, topo.K)
    assert vis.all()


def test_sequence_visibility_in_chunks_labels_as_in_one_pass(topo, monkeypatch):
    pose = PoseSequence3D(plausible_pose_bank(topo, 50, seed=4))
    whole = sequence_visibility(pose, topo)
    monkeypatch.setattr(visibility, "CHUNK_FRAMES", 7)
    chunked = sequence_visibility(pose, topo)
    assert np.array_equal(chunked, whole)
    assert np.array_equal(chunked, sequence_visibility_per_frame(pose, topo))
    assert not chunked.all()


# ------------------------------------------------------------- properties

def test_defining_keypoints_never_self_occluded(topo):
    frames = plausible_pose_bank(topo, 100, seed=1)
    gated, _ = _occlusion_tests(frames, topo)
    assert gated.any()
    for c, spec in enumerate(topo.cylinders):
        assert not gated[:, spec.top, c].any()
        assert not gated[:, spec.bottom, c].any()


def test_hard_invariant_to_uniform_scaling(topo):
    # doubling the pose and every fixed radius must not change hard labels
    scaled_cyls = tuple(dataclasses.replace(c, radius_mm=None if c.radius_mm is None else 2.0 * c.radius_mm)
                        for c in topo.cylinders)
    topo2 = dataclasses.replace(topo, cylinders=scaled_cyls)
    frames = plausible_pose_bank(topo, 50, seed=2)
    for frame in frames:
        a = frame_visibility(frame, topo).hard
        b = frame_visibility(frame * 2.0, topo2).hard
        assert np.array_equal(a, b)


# ------------------------------------------------------------- oracles

def test_rectangle_ray_oracle_agreement(topo):
    # module-scale version of the acceptance run (150 poses here)
    frames = plausible_pose_bank(topo, 150, seed=6)
    compared = excluded = 0
    for frame in frames:
        report = frame_visibility(frame, topo)
        for k in range(topo.K):
            want, margin = visible_by_rectangle_oracle(k, frame, topo)
            if margin <= 1.0:
                excluded += 1
                continue
            compared += 1
            assert bool(report.hard[k]) == want, f"keypoint {topo.keypoint_names[k]}"
    assert compared > 0.8 * 150 * topo.K
    assert excluded < 0.2 * 150 * topo.K


def test_solid_oracle_disagreements_classified(topo):
    # the production rectangle test and a true solid-cylinder ray cast
    # disagree only in known buckets: points inside a dilated solid, cap
    # entries, and 1mm boundary bands
    frames = plausible_pose_bank(topo, 100, seed=7)
    agree = disagree = 0
    for frame in frames:
        report = frame_visibility(frame, topo)
        for k in range(topo.K):
            want, diag = visible_by_solid_oracle(k, frame, topo)
            got = bool(report.hard[k])
            if got == want:
                agree += 1
                continue
            disagree += 1
            _, margin = visible_by_rectangle_oracle(k, frame, topo)
            assert (diag["inside_any"] or diag["cap_entry"]
                    or diag["outside_patch_hit"] or margin <= 1.0), (
                f"unclassified disagreement at {topo.keypoint_names[k]}")
    # structural buckets (spine lies inside the torso solid by construction)
    # keep the rate below 1; every disagreement must still be classified
    assert agree / (agree + disagree) > 0.8


def test_vectorized_oracle_matches_scalar(topo):
    from oracles import rectangle_oracle_frame

    frames = plausible_pose_bank(topo, 40, seed=9)
    for frame in frames:
        vis_vec, margin_vec = rectangle_oracle_frame(frame, topo)
        for k in range(topo.K):
            want, margin = visible_by_rectangle_oracle(k, frame, topo)
            assert vis_vec[k] == want
            if np.isfinite(margin):
                assert margin_vec[k] == pytest.approx(margin, rel=1e-9)


def test_cloud_pose_oracle_agreement(topo):
    # wild non-anthropometric poses stress the geometry paths
    rng = np.random.default_rng(8)
    for _ in range(60):
        frame = random_cloud_pose(rng, topo, spread=400.0)
        report = frame_visibility(frame, topo)
        for k in range(topo.K):
            want, margin = visible_by_rectangle_oracle(k, frame, topo)
            if margin <= 1.0:
                continue
            assert bool(report.hard[k]) == want
