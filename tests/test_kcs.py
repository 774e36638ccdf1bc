import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from poselift.errors import InvalidInputError, InvalidWindowError
from poselift.kcs import bone_matrix, discriminator_features, kcs, tkcs
from poselift.skeleton import PoseSequence3D, RotationAugment, SkeletonTopology, rotate_pose

from conftest import random_cloud_pose


def tiny_topo(n_bones=2):
    # chain pelvis -> a -> b (or shorter)
    names = ("pelvis", "a", "b")[:n_bones + 1]
    bones = tuple((i, i + 1) for i in range(n_bones))
    return SkeletonTopology(names, bones, (0,) * 3)


def test_bone_matrix_single_bone():
    t = tiny_topo(1)
    frame = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    b = bone_matrix(frame, t)
    assert b.shape == (3, 1)
    assert np.array_equal(b[:, 0], [2.0, 0.0, 0.0])


def test_bone_matrix_translation_invariant(topo):
    rng = np.random.default_rng(0)
    frame = random_cloud_pose(rng, topo)
    shifted = frame + np.array([10.0, -20.0, 30.0])
    assert np.allclose(bone_matrix(frame, topo), bone_matrix(shifted, topo))


def test_bone_matrix_matches_subtraction_oracle(topo):
    rng = np.random.default_rng(1)
    frame = random_cloud_pose(rng, topo)
    b = bone_matrix(frame, topo)
    for m, (p, c) in enumerate(topo.bones):
        assert np.allclose(b[:, m], frame[c] - frame[p])


def test_kcs_orthogonal_unit_bones():
    t = tiny_topo(2)
    frame = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    assert np.allclose(kcs(frame, t), np.eye(2))


def test_kcs_single_bone_length_two():
    t = tiny_topo(1)
    frame = np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    assert np.allclose(kcs(frame, t), [[4.0]])


def test_kcs_algebra(topo):
    rng = np.random.default_rng(2)
    for _ in range(50):
        frame = random_cloud_pose(rng, topo)
        psi = kcs(frame, topo)
        scale = np.abs(psi).max()
        assert np.allclose(psi, psi.T, atol=1e-9 * scale)
        eigvals = np.linalg.eigvalsh(psi)
        assert eigvals.min() >= -1e-9 * scale
        for m, (p, c) in enumerate(topo.bones):
            assert abs(psi[m, m] - ((frame[c] - frame[p]) ** 2).sum()) <= 1e-9 * scale


def test_kcs_rotation_invariant(topo):
    rng = np.random.default_rng(3)
    for _ in range(20):
        frame = random_cloud_pose(rng, topo)
        r = RotationAugment.sample(rng)
        rotated = rotate_pose(PoseSequence3D(frame[None]), r).frames[0]
        a, b = kcs(frame, topo), kcs(rotated, topo)
        assert np.allclose(a, b, atol=1e-9 * max(np.abs(a).max(), 1.0))


def test_kcs_offdiagonal_is_cos_angle(topo):
    rng = np.random.default_rng(4)
    frame = random_cloud_pose(rng, topo)
    psi = kcs(frame, topo)
    b = bone_matrix(frame, topo)
    for m in range(topo.M):
        for n in range(m + 1, topo.M):
            lm, ln = np.linalg.norm(b[:, m]), np.linalg.norm(b[:, n])
            cos = b[:, m] @ b[:, n] / (lm * ln)
            assert abs(psi[m, n] - lm * ln * cos) <= 1e-9 * abs(psi).max()


def test_tkcs_identical_frames_zero(topo):
    rng = np.random.default_rng(5)
    frame = random_cloud_pose(rng, topo)
    assert np.allclose(tkcs(frame, frame, topo), 0.0)


def test_tkcs_bone_growth_diagonal():
    t = tiny_topo(1)
    f0 = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    f1 = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    phi = tkcs(f0, f1, t)
    assert np.allclose(phi, [[3.0]])  # 4 - 1


def test_tkcs_antisymmetric_and_matches_kcs_difference(topo):
    rng = np.random.default_rng(6)
    f0 = random_cloud_pose(rng, topo)
    f1 = random_cloud_pose(rng, topo)
    phi = tkcs(f0, f1, topo)
    assert np.allclose(phi, -(tkcs(f1, f0, topo)))
    assert np.allclose(phi, kcs(f1, topo) - kcs(f0, topo))


def test_upper_triangle_order():
    # 2-bone chain: bones (1,0,0) and (2,2,0) give Psi = [[1, 2], [2, 8]];
    # the Psi block lists its upper triangle row-major, Psi_00, Psi_01, Psi_11
    t = tiny_topo(2)
    frame = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [3.0, 2.0, 0.0]])
    feats = discriminator_features(PoseSequence3D(np.stack([frame, 2.0 * frame])), t)
    assert feats.shape == (2, 2 * 3 + 3 * 3)
    assert np.array_equal(feats[0, :3], [1.0, 2.0, 8.0])
    assert np.array_equal(feats[0, 3:6], [3.0, 6.0, 24.0])   # Psi scales by 4
    assert np.array_equal(feats[0, 6:], frame.ravel())


def test_feature_length_and_shape(topo):
    rng = np.random.default_rng(7)
    frames = np.stack([random_cloud_pose(rng, topo) for _ in range(6)])
    feats = discriminator_features(PoseSequence3D(frames), topo, interval=1)
    m, k = topo.M, topo.K
    assert feats.shape == (6, m * (m + 1) + 3 * k)
    assert feats.shape[1] == 323  # default 17-keypoint topology


def test_features_constant_window_phi_zero(topo):
    rng = np.random.default_rng(8)
    frame = random_cloud_pose(rng, topo)
    frames = np.tile(frame, (5, 1, 1))
    feats = discriminator_features(PoseSequence3D(frames), topo)
    m = topo.M
    n_psi = m * (m + 1) // 2
    assert np.allclose(feats[:, n_psi:2 * n_psi], 0.0)


def test_features_tail_zero_padding(topo):
    rng = np.random.default_rng(9)
    frames = np.stack([random_cloud_pose(rng, topo) for _ in range(7)])
    interval = 2
    feats = discriminator_features(PoseSequence3D(frames), topo, interval=interval)
    m = topo.M
    n_psi = m * (m + 1) // 2
    phi_block = feats[:, n_psi:2 * n_psi]
    assert np.allclose(phi_block[-interval:], 0.0)
    assert not np.allclose(phi_block[0], 0.0)
    # per-frame cross-check against the two-call definition
    want = tkcs(frames[0], frames[interval], topo)[np.triu_indices(m)]
    assert np.allclose(phi_block[0], want)


def test_features_rotation_changes_only_coordinate_block(topo):
    rng = np.random.default_rng(10)
    frames = np.stack([random_cloud_pose(rng, topo) for _ in range(5)])
    window = PoseSequence3D(frames)
    rotated = rotate_pose(window, RotationAugment.sample(rng))
    a = discriminator_features(window, topo)
    b = discriminator_features(rotated, topo)
    m = topo.M
    n_desc = m * (m + 1)  # Psi and Phi blocks together
    scale = np.abs(a[:, :n_desc]).max()
    assert np.allclose(a[:, :n_desc], b[:, :n_desc], atol=1e-9 * scale)
    assert not np.allclose(a[:, n_desc:], b[:, n_desc:])


def test_features_window_too_short(topo):
    frames = np.zeros((1, topo.K, 3))
    with pytest.raises(InvalidWindowError):
        discriminator_features(PoseSequence3D(frames), topo, interval=1)


def test_features_reject_a_window_of_another_skeleton(topo):
    frames = np.zeros((4, topo.K - 1, 3))
    with pytest.raises(InvalidInputError):
        discriminator_features(PoseSequence3D(frames), topo)


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), interval=st.integers(1, 3),
       extra=st.integers(0, 8), shift_mm=st.floats(0.0, 5000.0))
def test_features_psi_phi_invariant_to_rigid_motion(topo, seed, interval, extra, shift_mm):
    rng = np.random.default_rng(seed)
    frames = np.stack([random_cloud_pose(rng, topo) for _ in range(interval + 1 + extra)])
    rot = Rotation.random(random_state=rng).as_matrix()
    shift = rng.normal(size=3)
    moved = frames @ rot.T + shift_mm * shift / np.linalg.norm(shift)
    a = discriminator_features(PoseSequence3D(frames), topo, interval)
    b = discriminator_features(PoseSequence3D(moved), topo, interval)
    n_desc = topo.M * (topo.M + 1)  # Psi and Phi blocks together
    scale = np.abs(a[:, :n_desc]).max()
    np.testing.assert_allclose(b[:, :n_desc], a[:, :n_desc], rtol=0.0, atol=1e-12 * scale)
