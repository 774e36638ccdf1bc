"""Evaluation protocol tests."""

import numpy as np
import pytest

from poselift.errors import DegenerateInputError, InvalidInputError
from poselift.metrics import EvalReport, evaluate, mae, mpjpe, p_mpjpe, pck
from poselift.pose_io import default_topology
from poselift.skeleton import (PoseSequence3D, RotationAugment, procrustes_align,
                               procrustes_align_frames)
from poselift.synth import SyntheticMotionConfig, generate

from oracles import p_mpjpe_per_frame, procrustes_align_single

TOPO = default_topology()
K = TOPO.K

_SEQ = generate(SyntheticMotionConfig(n_sequences=2, frames=40, seed=11), TOPO)
GT = _SEQ[0].pose3d.frames


def noisy(rng, sigma=25.0):
    return GT + rng.normal(0, sigma, GT.shape)


def random_similarity(rng, frames):
    rot = RotationAugment.sample(rng).matrix()
    s = rng.uniform(0.5, 2.0)
    t = rng.uniform(-200, 200, 3)
    return s * frames @ rot.T + t


# ----------------------------------------------------------------- mpjpe


def test_mpjpe_trivia():
    assert mpjpe(GT, GT) == 0.0
    one = GT[:1].copy()
    one[0, 5, 1] += 30.0
    assert mpjpe(one, GT[:1]) == pytest.approx(30.0 / K, rel=1e-12)


def test_mpjpe_matches_double_loop_oracle():
    rng = np.random.default_rng(0)
    pred = noisy(rng)
    want = np.mean([np.linalg.norm(pred[t, k] - GT[t, k])
                    for t in range(GT.shape[0]) for k in range(K)])
    assert mpjpe(pred, GT) == pytest.approx(want, rel=1e-12)


def test_mpjpe_translation_sensitive():
    assert mpjpe(GT + np.array([10.0, 0, 0]), GT) == pytest.approx(10.0, rel=1e-12)


def test_shape_mismatch_rejected():
    with pytest.raises(InvalidInputError):
        mpjpe(GT[:5], GT[:6])
    with pytest.raises(InvalidInputError):
        mpjpe(GT[..., :2], GT[..., :2])


# --------------------------------------------------------------- p_mpjpe


def test_p_mpjpe_zero_under_similarity_transform():
    rng = np.random.default_rng(1)
    pred = random_similarity(rng, GT)
    assert p_mpjpe(pred, GT) == pytest.approx(0.0, abs=1e-9)
    assert mpjpe(pred, GT) > 10.0


def test_p_mpjpe_never_exceeds_mpjpe():
    rng = np.random.default_rng(2)
    for _ in range(50):
        pred = noisy(rng, sigma=rng.uniform(1, 120))
        assert p_mpjpe(pred, GT) <= mpjpe(pred, GT) + 1e-12


def test_p_mpjpe_invariant_to_pred_similarity():
    rng = np.random.default_rng(3)
    pred = noisy(rng)
    base = p_mpjpe(pred, GT)
    for _ in range(5):
        assert p_mpjpe(random_similarity(rng, pred), GT) == pytest.approx(base, rel=1e-9)


def test_p_mpjpe_beats_random_search_oracle():
    # the fitted per-frame alignment must be at least as good as any sampled
    # similarity transform applied to the same frame
    rng = np.random.default_rng(4)
    pred = noisy(rng, sigma=60.0)[:4]
    gt = GT[:4]
    got = p_mpjpe(pred, gt)
    best = np.inf
    for _ in range(300):
        cand = np.mean([np.linalg.norm(random_similarity(rng, pred[t]) - gt[t],
                                       axis=1).mean() for t in range(4)])
        best = min(best, cand)
    assert got <= best + 1e-9


def special_case_frames(rng):
    """(pred, gt) frames that take each per-frame rule of the Procrustes fit."""
    a = np.array([1.0, 1.0, -1.0, -1.0] * 4 + [0.0])
    b = np.array([1.0, -1.0, 1.0, -1.0] * 4 + [0.0])
    # gt spread along x, pred along y with zero cross-covariance: scale <= 0
    orth_gt = np.stack([100.0 * a, np.zeros(K), np.zeros(K)], axis=1) + 50.0
    orth_pred = np.stack([np.zeros(K), 80.0 * b, np.zeros(K)], axis=1) - 20.0
    # spread below 1e-9 mm onto a gt whose centroid is exactly 0: only the
    # collapse rule puts every point exactly on it
    collapsed = 1e-11 * rng.normal(size=(K, 3))
    centred_gt = np.stack([100.0 * a, 60.0 * b, np.zeros(K)], axis=1)
    mirrored = GT[7] * np.array([-1.0, 1.0, 1.0])                  # reflection in x
    return [(orth_pred, orth_gt), (collapsed, centred_gt), (mirrored, GT[7])]


def test_p_mpjpe_matches_per_frame_oracle():
    rng = np.random.default_rng(6)
    specials = special_case_frames(rng)
    for trial in range(20):
        pred = noisy(rng, sigma=rng.choice([0.5, 25.0, 300.0]))
        gt = GT.copy()
        if trial % 2:
            pred = random_similarity(rng, pred)
        for i, (p, g) in enumerate(specials):
            pred[3 + 11 * i], gt[3 + 11 * i] = p, g
        assert p_mpjpe(pred, gt) == p_mpjpe_per_frame(pred, gt)
        aligned = procrustes_align_frames(pred, gt)
        for t in range(len(gt)):
            want = procrustes_align_single(pred[t], gt[t])
            assert aligned[t].tobytes() == want.tobytes()
            assert procrustes_align(pred[t], gt[t]).tobytes() == want.tobytes()
    orth_pred, orth_gt = specials[0]
    xp, xg = orth_pred - orth_pred.mean(axis=0), orth_gt - orth_gt.mean(axis=0)
    assert np.all(xp.T @ xg == 0.0)  # the fitted scale is 0, so it falls back to 1
    collapsed, g = specials[1]
    assert np.all(g.mean(axis=0) == 0.0)
    assert np.all(procrustes_align(collapsed, g) == 0.0)


def test_p_mpjpe_rejects_a_zero_spread_gt_frame():
    gt = GT.copy()
    gt[17] = gt[17, 0]
    with pytest.raises(DegenerateInputError):
        p_mpjpe(noisy(np.random.default_rng(7)), gt)
    with pytest.raises(DegenerateInputError):
        procrustes_align_frames(GT[16:18], gt[16:18])


# -------------------------------------------------------------------- pck


def test_pck_trivia():
    assert pck(GT, GT) == 1.0
    assert pck(GT + np.array([200.0, 0, 0]), GT, 150.0) == 0.0


def test_pck_mixed_exact_count():
    rng = np.random.default_rng(5)
    pred = GT.copy()
    flat = pred.reshape(-1, 3)
    n = flat.shape[0]
    near = rng.random(n) < 0.6
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    flat += dirs * np.where(near, 10.0, 300.0)[:, None]
    assert pck(pred, GT, 150.0) == pytest.approx(near.mean(), abs=1e-15)


def test_pck_zero_radius_counts_exact_matches():
    pred = GT.copy()
    flat = pred.reshape(-1, 3)
    flat[::3] += 1.0
    exact = 1.0 - (np.arange(flat.shape[0]) % 3 == 0).mean()
    assert pck(pred, GT, 0.0) == pytest.approx(exact, abs=1e-15)


def test_pck_monotone_in_radius():
    rng = np.random.default_rng(6)
    pred = noisy(rng, sigma=80.0)
    vals = [pck(pred, GT, r) for r in (300, 200, 150, 100, 50, 10, 0)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    with pytest.raises(InvalidInputError):
        pck(pred, GT, -1.0)


# -------------------------------------------------------------------- mae


def test_mae_trivia():
    # arccos loses quadratic precision at 1, so bitwise-equal poses land at
    # ~sqrt(ulp) rather than exactly zero
    assert mae(GT, GT, TOPO) == pytest.approx(0.0, abs=1e-7)


def test_mae_single_bone_right_angle():
    gt = GT[:1].copy()
    pred = gt.copy()
    parents = {pi for pi, _ in TOPO.bones}
    p, c = next((pi, ci) for pi, ci in TOPO.bones if ci not in parents)
    bone = gt[0, c] - gt[0, p]
    # replace the leaf bone with a perpendicular vector of the same length;
    # moving a leaf keypoint changes exactly one bone direction
    perp = np.cross(bone, [0.0, 0.0, 1.0])
    if np.linalg.norm(perp) < 1e-6:
        perp = np.cross(bone, [0.0, 1.0, 0.0])
    perp *= np.linalg.norm(bone) / np.linalg.norm(perp)
    pred[0, c] = pred[0, p] + perp
    want = (np.pi / 2) / TOPO.M
    assert mae(pred, gt, TOPO) == pytest.approx(want, abs=1e-7)


def test_mae_matches_acos_dot_oracle():
    rng = np.random.default_rng(7)
    pred = noisy(rng)
    want = []
    for t in range(GT.shape[0]):
        for p, c in TOPO.bones:
            u = pred[t, c] - pred[t, p]
            v = GT[t, c] - GT[t, p]
            cos = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
            want.append(np.arccos(np.clip(cos, -1, 1)))
    assert mae(pred, GT, TOPO) == pytest.approx(np.mean(want), rel=1e-12)


def test_mae_scale_invariant():
    rng = np.random.default_rng(8)
    pred = noisy(rng)
    base = mae(pred, GT, TOPO)
    assert mae(3.7 * pred, GT, TOPO) == pytest.approx(base, rel=1e-9)
    assert mae(pred, 0.2 * GT, TOPO) == pytest.approx(base, rel=1e-9)


def test_mae_excludes_zero_length_bones():
    rng = np.random.default_rng(9)
    pred = noisy(rng)[:3]
    gt = GT[:3]
    p, c = TOPO.bones[0]
    pred[1, c] = pred[1, p]  # collapse one bone in one frame
    with pytest.warns(UserWarning, match="zero-length"):
        got = mae(pred, gt, TOPO)
    want = []
    for t in range(3):
        for pi, ci in TOPO.bones:
            if t == 1 and (pi, ci) == (p, c):
                continue
            u = pred[t, ci] - pred[t, pi]
            v = gt[t, ci] - gt[t, pi]
            cos = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
            want.append(np.arccos(np.clip(cos, -1, 1)))
    assert got == pytest.approx(np.mean(want), rel=1e-12)


def test_mae_all_bones_degenerate():
    flat = np.zeros((2, K, 3))
    with pytest.warns(UserWarning):
        with pytest.raises(DegenerateInputError):
            mae(flat, flat, TOPO)


def test_mae_keypoint_count_mismatch():
    with pytest.raises(InvalidInputError):
        mae(GT[:, :10], GT[:, :10], TOPO)


# ----------------------------------------------------------------- report


def test_evaluate_report_fields_and_invariants():
    rng = np.random.default_rng(10)
    rep = evaluate(noisy(rng), GT)
    assert 0.0 <= rep.pck150 <= 1.0
    assert rep.mpjpe_mm >= 0 and rep.p_mpjpe_mm >= 0 and rep.mae_radians >= 0
    assert rep.p_mpjpe_mm <= rep.mpjpe_mm
    assert rep.frames == GT.shape[0]
    assert rep.per_action == {}


def test_evaluate_per_action_breakdown():
    rng = np.random.default_rng(12)
    actions = ["walk"] * 25 + ["sit"] * 15
    gt = PoseSequence3D(GT.copy(), actions=actions)
    pred = noisy(rng)
    rep = evaluate(pred, gt)
    assert set(rep.per_action) == {"walk", "sit"}
    assert rep.per_action["walk"].frames == 25
    assert rep.per_action["sit"].frames == 15
    assert rep.per_action["walk"].mpjpe_mm == pytest.approx(
        mpjpe(pred[:25], GT[:25]), rel=1e-12)
    assert rep.per_action["sit"].pck150 == pytest.approx(
        pck(pred[25:], GT[25:]), abs=1e-15)
    # overall row is the full-sequence metric, not an average of rows
    assert rep.mpjpe_mm == pytest.approx(mpjpe(pred, GT), rel=1e-12)
    text = rep.format_text()
    assert "walk" in text and "sit" in text and "mpjpe_mm" in text
    assert len(text.splitlines()) == 4
    d = rep.as_dict()
    assert d["per_action"]["walk"]["frames"] == 25


def test_evaluate_action_length_mismatch():
    gt = PoseSequence3D(GT.copy(), actions=["walk"] * 10)
    with pytest.raises(InvalidInputError):
        evaluate(GT.copy(), gt)


def test_report_validation():
    with pytest.raises(InvalidInputError):
        EvalReport(1.0, 1.0, 1.5, 0.1, 10)
    with pytest.raises(InvalidInputError):
        EvalReport(-1.0, 1.0, 0.5, 0.1, 10)
    with pytest.raises(InvalidInputError):
        EvalReport(1.0, 1.0, 0.5, np.nan, 10)
