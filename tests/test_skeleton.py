import dataclasses
import re

import numpy as np
import pytest

from poselift.errors import DegenerateInputError, InvalidInputError, TopologyError
from poselift.skeleton import (
    PoseSequence2D,
    PoseSequence3D,
    RotationAugment,
    SkeletonTopology,
    orthographic_project,
    procrustes_align,
    project_to_crop,
    rotate_pose,
    rotation_matrix,
)

from poselift.synth import _fk, rest_offsets

from conftest import random_cloud_pose
from oracles import fk_per_frame


# ------------------------------------------------------------- containers

def test_topology_counts(topo):
    assert topo.K == 17
    assert topo.M == topo.K - 1
    assert len(topo.cylinders) == 10
    assert [topo.keypoint_names[i] for i in topo.torso] == ["neck", "shoulder_l", "shoulder_r"]


def test_topology_rejects_cycle():
    with pytest.raises(TopologyError):
        SkeletonTopology(("pelvis", "a", "b"), ((0, 1), (1, 2), (2, 1)), (1, 1, 1))


@pytest.mark.parametrize("bones, stray", [(((0, 1), (2, 3), (3, 2)), "b"),
                                          (((0, 1), (2, 3)), "c")])
def test_topology_rejects_bones_the_root_does_not_reach(bones, stray):
    # a cycle b <-> c beside the tree, and a chain from the parentless b
    with pytest.raises(TopologyError, match=f"keypoint {stray} not connected to root"):
        SkeletonTopology(("pelvis", "a", "b", "c"), bones, (0, 0, 0))


def shuffled_bones(topo, seed):
    """`topo` with its bone lines in a random order."""
    perm = np.random.default_rng(seed).permutation(topo.M)
    return dataclasses.replace(topo, bones=tuple(topo.bones[m] for m in perm))


def listed_parent_first(topo, order) -> bool:
    """Whether each bone of `order` comes after the bone that places its parent."""
    placed = {topo.root_index}
    for m in order:
        parent, child = topo.bones[m]
        if parent not in placed:
            return False
        placed.add(child)
    return True


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_bone_order_places_every_parent_first(topo, seed):
    t = topo if seed is None else shuffled_bones(topo, seed)
    assert sorted(t.bone_order) == list(range(t.M))
    assert listed_parent_first(t, t.bone_order)
    # the shuffled bone lines themselves are not parent first
    assert listed_parent_first(t, range(t.M)) == (seed is None)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fk_of_shuffled_bone_lines_matches_the_per_frame_oracle(topo, seed):
    t = shuffled_bones(topo, seed)
    rng = np.random.default_rng(seed)
    rotvecs = rng.normal(0.0, 0.5, size=(7, t.M, 3))
    global_rots = rotation_matrix(rng.uniform(-0.2, 0.2, 7), rng.uniform(-np.pi, np.pi, 7), 0.0)
    got = _fk(t, rest_offsets(t), rotvecs, global_rots)
    want = fk_per_frame(t, rest_offsets(t), rotvecs, global_rots)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # the same motion as on the bone lines in file order
    perm = [topo.bones.index(bone) for bone in t.bones]
    inverse = np.argsort(perm)
    assert _fk(topo, rest_offsets(topo), rotvecs[:, inverse], global_rots).tobytes() \
        == got.tobytes()


@pytest.mark.parametrize("torso", [(99, 0, 0), (0, -1, 0), (0, 0), (0, 0, 0, 0)])
def test_topology_rejects_a_torso_that_is_not_three_keypoint_indices(topo, torso):
    with pytest.raises(TopologyError, match=re.escape(
            f"torso {torso} is not three keypoint indices below K=17")):
        dataclasses.replace(topo, torso=torso)


def test_pose3d_rejects_nonfinite():
    frames = np.zeros((2, 3, 3))
    frames[1, 2, 0] = np.nan
    with pytest.raises(InvalidInputError):
        PoseSequence3D(frames)


def test_pose2d_masked_entries_need_zero_conf():
    frames = np.zeros((1, 2, 2))
    conf = np.array([[0.5, 0.0]])
    mask = np.array([[True, False]])
    with pytest.raises(InvalidInputError):
        PoseSequence2D(frames, confidence=conf, mask=mask)
    PoseSequence2D(frames, confidence=np.array([[0.0, 0.5]]), mask=mask)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pose2d_rejects_nonfinite_confidence(bad):
    with pytest.raises(InvalidInputError, match="non-finite confidence"):
        PoseSequence2D(np.zeros((1, 2, 2)), confidence=np.array([[0.5, bad]]))


@pytest.mark.parametrize("scale_mm", [-5.0, 0, 0.0, np.nan, np.inf, "2000"])
def test_pose2d_rejects_a_scale_that_is_not_a_finite_positive_number(scale_mm):
    with pytest.raises(InvalidInputError, match="scale_mm"):
        PoseSequence2D(np.zeros((1, 2, 2)), scale_mm=scale_mm)


def test_left_right_pairs(topo):
    pairs = dict(topo.left_right_pairs())
    names = topo.keypoint_names
    for l, r in pairs.items():
        assert names[l].endswith("_l") and names[r] == names[l][:-2] + "_r"
    assert len(pairs) == 6


# ------------------------------------------------------------- projection

def test_project_drops_z():
    pose = PoseSequence3D(np.array([[[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]]), root_relative=False)
    out = orthographic_project(pose)
    assert np.array_equal(out.frames[0, 0], [1.0, 2.0])
    assert np.all(out.confidence == 1) and not out.mask.any()


def test_project_z_translation_invariant(topo):
    rng = np.random.default_rng(0)
    frames = rng.normal(0, 200, size=(4, topo.K, 3))
    a = orthographic_project(PoseSequence3D(frames, root_relative=False))
    shifted = frames.copy()
    shifted[:, :, 2] += 100.0
    b = orthographic_project(PoseSequence3D(shifted, root_relative=False))
    assert np.array_equal(a.frames, b.frames)


def test_project_matches_selection_matrix_oracle(topo):
    # oracle: multiply every keypoint by the 2x3 selection matrix
    sel = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    rng = np.random.default_rng(1)
    frames = rng.normal(0, 400, size=(6, topo.K, 3))
    got = orthographic_project(PoseSequence3D(frames, root_relative=False)).frames
    want = np.einsum("ij,tkj->tki", sel, frames)
    assert np.array_equal(got, want)


def test_project_to_crop_units():
    pose = PoseSequence3D(np.array([[[500.0, -500.0, 77.0], [0.0, 0.0, 0.0]]]), root_relative=False)
    out = project_to_crop(pose, scale_mm=2000.0)
    assert np.allclose(out.frames[0, 0], [0.75, 0.25])
    assert np.allclose(out.frames[0, 1], [0.5, 0.5])
    assert out.scale_mm == 2000.0


# ------------------------------------------------------------- rotation

def test_rotation_identity():
    pose = PoseSequence3D(np.random.default_rng(2).normal(size=(3, 5, 3)), root_relative=False)
    out = rotate_pose(pose, RotationAugment(0.0, 0.0, 0.0))
    assert np.allclose(out.frames, pose.frames)


def test_rotation_beta_pi_involution():
    rng = np.random.default_rng(3)
    pose = PoseSequence3D(rng.normal(size=(4, 6, 3)), root_relative=False)
    r = RotationAugment(beta=np.pi)
    out = rotate_pose(rotate_pose(pose, r), r)
    assert np.allclose(out.frames, pose.frames, atol=1e-9)


def test_rotation_preserves_bone_lengths(topo):
    rng = np.random.default_rng(4)
    for _ in range(20):
        frame = random_cloud_pose(rng, topo)
        pose = PoseSequence3D(frame[None])
        r = RotationAugment.sample(rng)
        rot = rotate_pose(pose, r)
        for p, c in topo.bones:
            before = np.linalg.norm(frame[c] - frame[p])
            after = np.linalg.norm(rot.frames[0, c] - rot.frames[0, p])
            assert abs(after - before) <= 1e-9 * max(before, 1.0)


def test_rotation_matrix_composition_order():
    a, b, g = 0.3, -1.1, 0.7
    ca, sa = np.cos(a), np.sin(a)
    cb, sb = np.cos(b), np.sin(b)
    cg, sg = np.cos(g), np.sin(g)
    rx = np.array([[1, 0, 0], [0, ca, -sa], [0, sa, ca]])
    ry = np.array([[cb, 0, sb], [0, 1, 0], [-sb, 0, cb]])
    rz = np.array([[cg, -sg, 0], [sg, cg, 0], [0, 0, 1]])
    assert np.allclose(rotation_matrix(a, b, g), rz @ ry @ rx)


def test_rotation_sampler_ranges():
    rng = np.random.default_rng(5)
    for _ in range(200):
        r = RotationAugment.sample(rng)
        assert -np.pi <= r.beta <= np.pi
        assert -0.2 * np.pi <= r.alpha <= 0.2 * np.pi
        assert -0.2 * np.pi <= r.gamma <= 0.2 * np.pi


def test_project_after_yaw_z_shift_invariance(topo):
    # rotating about y then shifting z must not change the projection
    rng = np.random.default_rng(6)
    frames = rng.normal(0, 300, size=(2, topo.K, 3))
    r = RotationAugment(beta=0.9)
    rot = rotate_pose(PoseSequence3D(frames, root_relative=False), r)
    shifted = rot.copy()
    shifted.frames[:, :, 2] += 555.0
    assert np.array_equal(orthographic_project(rot).frames,
                          orthographic_project(shifted).frames)


# ------------------------------------------------------------- procrustes

def test_procrustes_exact_on_identical():
    rng = np.random.default_rng(7)
    gt = rng.normal(size=(17, 3))
    aligned = procrustes_align(gt.copy(), gt)
    assert np.allclose(aligned, gt, atol=1e-9)


def test_procrustes_recovers_similarity_transform():
    rng = np.random.default_rng(8)
    for _ in range(10):
        gt = rng.normal(0, 100, size=(17, 3))
        r = RotationAugment.sample(rng).matrix()
        s = rng.uniform(0.3, 3.0)
        t = rng.normal(0, 50, size=3)
        pred = (gt @ r.T) * s + t
        aligned = procrustes_align(pred, gt)
        assert np.sqrt(((aligned - gt) ** 2).sum()) < 1e-9 * s * 100


def test_procrustes_beats_random_search():
    # oracle: residual of the analytic alignment lower-bounds 10k random
    # similarity transforms
    rng = np.random.default_rng(9)
    pred = rng.normal(0, 100, size=(17, 3))
    gt = rng.normal(0, 100, size=(17, 3))
    aligned = procrustes_align(pred, gt)
    best = ((aligned - gt) ** 2).sum()
    n = 10_000
    angles = rng.uniform(-np.pi, np.pi, size=(n, 3))
    scales = rng.uniform(0.2, 5.0, size=n)
    shifts = rng.normal(0, 100, size=(n, 3))
    for i in range(n):
        rm = rotation_matrix(*angles[i])
        cand = scales[i] * (pred @ rm.T) + shifts[i]
        assert ((cand - gt) ** 2).sum() >= best - 1e-9


def test_procrustes_idempotent():
    rng = np.random.default_rng(10)
    pred = rng.normal(size=(17, 3))
    gt = rng.normal(size=(17, 3))
    once = procrustes_align(pred, gt)
    twice = procrustes_align(once, gt)
    r1 = ((once - gt) ** 2).sum()
    r2 = ((twice - gt) ** 2).sum()
    assert abs(r1 - r2) < 1e-12 * max(r1, 1.0)


def test_procrustes_rotation_is_proper():
    # reflections must not sneak in even when they would fit better
    rng = np.random.default_rng(11)
    gt = rng.normal(size=(17, 3))
    pred = gt.copy()
    pred[:, 0] *= -1.0  # mirrored pose
    aligned = procrustes_align(pred, gt)
    # mirrored pose cannot be perfectly recovered by a proper rotation
    assert ((aligned - gt) ** 2).sum() > 1e-3


def test_procrustes_degenerate_gt():
    with pytest.raises(DegenerateInputError):
        procrustes_align(np.random.default_rng(12).normal(size=(5, 3)),
                         np.zeros((5, 3)))
