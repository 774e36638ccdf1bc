"""Inference-stage refinement tests."""

import dataclasses

import numpy as np
import pytest
from scipy.ndimage import uniform_filter1d

from poselift.autodiff import Tensor
from poselift.discriminator import KcsEnergyModel
from poselift.errors import ConfigError, InvalidInputError
from poselift.iso import (HARD_THRESHOLD, WEIGHT_MODES, CalibratedConfidence, IsoConfig,
                          calibrate, compute_weights, fit_projection, iso_loss, refine,
                          rep_loss, reprojection_weight, smooth_loss)
from poselift.pose_io import default_topology
from poselift.skeleton import PoseSequence2D, PoseSequence3D, project_to_crop
from poselift.synth import SyntheticMotionConfig, generate
from poselift.tcn import loss_2d

TOPO = default_topology()
SCALE_MM = 2000.0

_SEQS = generate(SyntheticMotionConfig(n_sequences=4, frames=64, seed=42), TOPO)


def gt_window(i=0, t=None):
    frames = _SEQS[i].pose3d.frames
    return PoseSequence3D(frames[: t or len(frames)].copy())


def clean_detections(gt, rng, noise_px=1.0, conf_range=(0.65, 0.98)):
    det = project_to_crop(gt, SCALE_MM)
    frames = det.frames + rng.normal(0, noise_px / 256.0, det.frames.shape)
    conf = rng.uniform(*conf_range, frames.shape[:2])
    return PoseSequence2D(frames, conf, np.zeros_like(conf, bool), SCALE_MM)


def corrupt_detections(gt, rng, frac=0.30, noise_px=1.0):
    det = clean_detections(gt, rng, noise_px)
    frames = det.frames.copy()
    conf = det.confidence.copy()
    bad = rng.random(frames.shape[:2]) < frac
    ang = rng.uniform(0, 2 * np.pi, frames.shape[:2])
    mag = rng.uniform(0.10, 0.30, frames.shape[:2])
    frames[..., 0] += bad * mag * np.cos(ang)
    frames[..., 1] += bad * mag * np.sin(ang)
    conf = np.where(bad, rng.uniform(0.05, 0.35, conf.shape), conf)
    return PoseSequence2D(frames, conf, np.zeros_like(conf, bool), SCALE_MM), bad


def smooth_perturbation(rng, shape, rms=25.0, width=15):
    e = rng.normal(0, 1.0, shape)
    e = uniform_filter1d(e, size=width, axis=0, mode="nearest")
    return e * (rms / np.sqrt((e * e).mean()))


def mpjpe_of(a, b):
    return float(np.linalg.norm(a - b, axis=2).mean())


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ConfigError):
        IsoConfig(weight_mode="fuzzy")
    with pytest.raises(ConfigError):
        IsoConfig(sigma=0.0)
    with pytest.raises(ConfigError):
        IsoConfig(lambda1=-0.1)
    with pytest.raises(ConfigError):
        IsoConfig(iterations=-1)
    with pytest.raises(ConfigError):
        IsoConfig(step_size=0.0)
    with pytest.raises(ConfigError):
        CalibratedConfidence(temperature=0.0)


# ----------------------------------------------------------- calibration


def test_calibrate_identity_when_absent():
    cal = calibrate()
    assert cal.temperature == 1.0 and cal.bias == 0.0
    probe = np.linspace(0.05, 0.95, 19)
    np.testing.assert_allclose(cal(probe), probe, atol=1e-9)


def test_calibrate_degenerate_labels_warn_identity():
    conf = np.linspace(0.1, 0.9, 50)
    with pytest.warns(UserWarning, match="degenerate"):
        cal = calibrate(conf, np.ones(50))
    assert cal.temperature == 1.0 and cal.bias == 0.0


def test_calibrate_recovers_identity_on_calibrated_data():
    rng = np.random.default_rng(7)
    conf = rng.uniform(0.05, 0.95, 20000)
    correct = (rng.random(20000) < conf).astype(float)
    cal = calibrate(conf, correct)
    probe = np.linspace(0.05, 0.95, 200)
    assert np.max(np.abs(cal(probe) - probe)) < 0.02


def test_calibrate_learns_overconfidence():
    # detector reports c but is right only c^2 of the time: the fitted map
    # must pull mid-range confidence downward
    rng = np.random.default_rng(8)
    conf = rng.uniform(0.05, 0.95, 20000)
    correct = (rng.random(20000) < conf ** 2).astype(float)
    cal = calibrate(conf, correct)
    assert cal(0.7) < 0.62
    assert cal(0.3) < 0.2


def test_calibration_map_monotone_and_bounded():
    for t, b in [(1.0, 0.0), (36.0, 0.1), (0.2, -3.0), (5.0, 8.0)]:
        cal = CalibratedConfidence(t, b)
        probe = cal(np.linspace(0.0, 1.0, 1000))
        assert np.all(np.diff(probe) >= 0)
        assert np.all((probe >= 0) & (probe <= 1))
    assert 0.0 <= CalibratedConfidence()(1.0) <= 1.0


def test_calibrate_input_validation():
    with pytest.raises(InvalidInputError):
        calibrate(np.array([0.5, 0.6]), None)
    with pytest.raises(InvalidInputError):
        calibrate(np.array([0.5, 1.4]), np.array([1.0, 0.0]))
    with pytest.raises(InvalidInputError):
        calibrate(np.array([0.5, 0.6]), np.array([1.0, 0.5]))
    with pytest.raises(InvalidInputError):
        calibrate(np.array([0.5, 0.6]), np.array([1.0]))


# --------------------------------------------------------------- weights


def test_weight_modes():
    conf = np.array([0.0, 0.2, 0.5, 0.699, 0.7, 0.9, 1.0])
    dist = np.full(7, 2.0)
    np.testing.assert_array_equal(
        reprojection_weight("constant", conf), np.ones(7))
    np.testing.assert_array_equal(
        reprojection_weight("confidence", conf), conf)
    hard = reprojection_weight("hard", conf)
    np.testing.assert_array_equal(hard, [0, 0, 0, 0, 0.7, 0.9, 1.0])
    soft = reprojection_weight("soft", conf, dist, sigma=1.0)
    np.testing.assert_allclose(soft, 1.0 - np.exp(-conf * 4.0 / 2.0))


def test_soft_weight_examples():
    assert reprojection_weight("soft", 1.0, 0.0, 1.0) == 0.0
    for d in (0.0, 0.5, 3.0, 100.0):
        assert reprojection_weight("soft", 0.0, d, 1.0) == 0.0
    w = reprojection_weight("soft", np.full(50, 0.8), np.linspace(0, 9, 50))
    assert np.all((w >= 0) & (w < 1))


def test_soft_weight_monotone_in_conf_and_distance():
    dist = np.linspace(0.01, 8.0, 200)
    prev = None
    for c in (0.2, 0.5, 1.0):
        w = reprojection_weight("soft", np.full(200, c), dist)
        assert np.all(np.diff(w) > 0)           # increasing in distance
        if prev is not None:
            assert np.all(w > prev)             # increasing in confidence
        prev = w


def test_weight_errors():
    with pytest.raises(ConfigError):
        reprojection_weight("nope", 0.5)
    with pytest.raises(ConfigError):
        reprojection_weight("soft", 0.5, 1.0, sigma=0.0)
    with pytest.raises(InvalidInputError):
        reprojection_weight("soft", 0.5, None)
    with pytest.raises(InvalidInputError):
        reprojection_weight("constant", 1.5)


def test_compute_weights_masked_zero_and_calibration_routing():
    gt = gt_window(0, 8)
    rng = np.random.default_rng(3)
    det = clean_detections(gt, rng)
    mask = np.zeros(det.frames.shape[:2], bool)
    mask[2, 5] = mask[7, 0] = True
    conf = det.confidence.copy()
    conf[mask] = 0.0
    det = PoseSequence2D(det.frames, conf, mask, SCALE_MM)
    sharp = CalibratedConfidence(50.0, 0.0)
    scale, trans = fit_projection(gt.frames, det)
    for mode in WEIGHT_MODES:
        cfg = IsoConfig(weight_mode=mode, calibration=sharp)
        w = compute_weights(gt.frames, det, cfg, scale, trans)
        assert w.shape == mask.shape
        assert np.all(w[mask] == 0.0)
        assert np.all((w >= 0) & (w <= 1))
    # confidence mode weighs by the raw scores, or by their map when one is set
    w = compute_weights(gt.frames, det, IsoConfig(weight_mode="confidence"), scale, trans)
    np.testing.assert_array_equal(w[~mask], conf[~mask])
    cfg = IsoConfig(weight_mode="confidence", calibration=sharp)
    w = compute_weights(gt.frames, det, cfg, scale, trans)
    np.testing.assert_allclose(w[~mask], sharp(conf[~mask]))
    # hard mode thresholds the mapped scores
    cfg = IsoConfig(weight_mode="hard", calibration=sharp)
    w = compute_weights(gt.frames, det, cfg, scale, trans)
    mapped = sharp(conf[~mask])
    np.testing.assert_array_equal(w[~mask], np.where(mapped >= HARD_THRESHOLD, mapped, 0.0))


# ------------------------------------------------------------- alignment


def test_fit_projection_recovers_canonical_alignment():
    gt = gt_window(1, 16)
    det = project_to_crop(gt, SCALE_MM)
    scale, trans = fit_projection(gt.frames, det)
    assert scale == pytest.approx(1.0 / SCALE_MM, rel=1e-9)
    np.testing.assert_allclose(trans, 0.5, atol=1e-9)


def test_fit_projection_ignores_masked_and_weighted_outliers():
    gt = gt_window(1, 16)
    det = project_to_crop(gt, SCALE_MM)
    frames = det.frames.copy()
    mask = np.zeros(frames.shape[:2], bool)
    mask[:, 3] = True
    frames[:, 3] += 0.4                      # garbage where masked
    det_m = PoseSequence2D(frames, np.where(mask, 0.0, 1.0), mask, SCALE_MM)
    scale, trans = fit_projection(gt.frames, det_m)
    assert scale == pytest.approx(1.0 / SCALE_MM, rel=1e-9)
    np.testing.assert_allclose(trans, 0.5, atol=1e-9)
    # same story with weights instead of the mask
    frames = det.frames.copy()
    frames[:, 3] += 0.4
    det_w = PoseSequence2D(frames, np.ones(frames.shape[:2]),
                           np.zeros(frames.shape[:2], bool), SCALE_MM)
    weights = np.ones(frames.shape[:2])
    weights[:, 3] = 0.0
    scale, trans = fit_projection(gt.frames, det_w, weights)
    assert scale == pytest.approx(1.0 / SCALE_MM, rel=1e-9)
    np.testing.assert_allclose(trans, 0.5, atol=1e-9)


def test_fit_projection_fully_masked_frame_finite():
    gt = gt_window(1, 6)
    det = project_to_crop(gt, SCALE_MM)
    mask = np.zeros(det.frames.shape[:2], bool)
    mask[2] = True
    det = PoseSequence2D(det.frames, np.where(mask, 0.0, 1.0), mask, SCALE_MM)
    scale, trans = fit_projection(gt.frames, det)
    assert np.all(np.isfinite(trans))
    assert scale == pytest.approx(1.0 / SCALE_MM, rel=1e-9)


def test_fit_projection_shape_mismatch():
    gt = gt_window(1, 6)
    det = project_to_crop(gt_window(1, 8), SCALE_MM)
    with pytest.raises(InvalidInputError):
        fit_projection(gt.frames, det)


# --------------------------------------------------------------- rep loss


def test_rep_loss_zero_at_exact_projection():
    gt = gt_window(2, 12)
    det = project_to_crop(gt, SCALE_MM)
    det = PoseSequence2D(det.frames, np.full(det.frames.shape[:2], 0.9),
                         np.zeros(det.frames.shape[:2], bool), SCALE_MM)
    for mode in WEIGHT_MODES:
        cfg = IsoConfig(weight_mode=mode)
        assert rep_loss(gt.frames, det, cfg).item() == pytest.approx(0.0, abs=1e-18)


def test_rep_loss_constant_mode_matches_loss_2d():
    gt = gt_window(2, 10)
    rng = np.random.default_rng(5)
    det = clean_detections(gt, rng, noise_px=3.0)
    mask = rng.random(det.frames.shape[:2]) < 0.2
    det = PoseSequence2D(det.frames, np.where(mask, 0.0, det.confidence),
                         mask, SCALE_MM)
    cfg = IsoConfig(weight_mode="constant")
    got = rep_loss(gt.frames, det, cfg, scale=1.0 / SCALE_MM,
                   translation=np.full((10, 2), 0.5)).item()
    count = (~mask).sum()
    want = loss_2d(gt.frames, det).item() * count * 256.0 ** 2
    assert got == pytest.approx(want, rel=1e-12)


def test_rep_loss_matches_double_loop_oracle():
    gt = gt_window(3, 7)
    rng = np.random.default_rng(6)
    det, _ = corrupt_detections(gt, rng)
    cfg = IsoConfig(weight_mode="soft", sigma=1.3)
    scale, trans = fit_projection(gt.frames, det)
    got = rep_loss(gt.frames, det, cfg, scale, trans).item()
    want = 0.0
    for t in range(det.T):
        for k in range(det.K):
            if det.mask[t, k]:
                continue
            px = (gt.frames[t, k, 0] * scale + trans[t, 0] - det.frames[t, k, 0]) * 256.0
            py = (gt.frames[t, k, 1] * scale + trans[t, 1] - det.frames[t, k, 1]) * 256.0
            d2 = px * px + py * py
            w = 1.0 - np.exp(-det.confidence[t, k] * d2 / (2.0 * 1.3 ** 2))
            want += w * d2
    assert got == pytest.approx(want, rel=1e-12)


def test_zero_confidence_keypoints_have_zero_gradient():
    gt = gt_window(0, 9)
    rng = np.random.default_rng(9)
    det = clean_detections(gt, rng)
    conf = det.confidence.copy()
    conf[4, 2] = conf[0, 11] = 0.0
    det = PoseSequence2D(det.frames, conf, np.zeros_like(conf, bool), SCALE_MM)
    for mode in ("confidence", "soft"):
        cfg = IsoConfig(weight_mode=mode)
        x = Tensor(gt.frames.copy(), requires_grad=True)
        rep_loss(x, det, cfg).backward()
        assert np.all(x.grad[4, 2] == 0.0)
        assert np.all(x.grad[0, 11] == 0.0)
        assert np.any(x.grad != 0.0)


def test_masked_detections_have_zero_gradient():
    gt = gt_window(0, 9)
    rng = np.random.default_rng(10)
    det = clean_detections(gt, rng)
    mask = np.zeros(det.frames.shape[:2], bool)
    mask[3, 7] = True
    det = PoseSequence2D(det.frames, np.where(mask, 0.0, det.confidence),
                         mask, SCALE_MM)
    x = Tensor(gt.frames.copy(), requires_grad=True)
    rep_loss(x, det, IsoConfig(weight_mode="constant")).backward()
    assert np.all(x.grad[3, 7] == 0.0)


# --------------------------------------------------------------- iso loss


def test_iso_loss_reduces_to_rep_loss():
    gt = gt_window(1, 8)
    rng = np.random.default_rng(11)
    det = clean_detections(gt, rng)
    cfg = IsoConfig(weight_mode="constant", lambda1=0.0, lambda2=0.0)
    assert iso_loss(gt.frames, det, None, cfg).item() == pytest.approx(
        rep_loss(gt.frames, det, cfg).item(), rel=1e-15)


@pytest.mark.parametrize("mode", WEIGHT_MODES)
@pytest.mark.parametrize("fit", [False, True])
def test_rep_loss_is_iso_loss_with_no_scorer_and_zero_lambdas(mode, fit):
    gt = gt_window(2, 12)
    rng = np.random.default_rng(12)
    det, _ = corrupt_detections(gt, rng)
    frames = gt.frames + smooth_perturbation(rng, gt.frames.shape)
    cfg = IsoConfig(weight_mode=mode, sigma=1.3, lambda1=0.2, lambda2=0.07,
                    calibration=CalibratedConfidence(1.4, -0.2))
    kw = {}
    if fit:
        kw = dict(scale=0.9 / SCALE_MM, translation=rng.uniform(0.4, 0.6, (12, 2)),
                  weights=rng.uniform(0.0, 1.0, (12, TOPO.K)))
    x, y = (Tensor(frames.copy(), requires_grad=True) for _ in range(2))
    got = rep_loss(x, det, cfg, **kw)
    want = iso_loss(y, det, None, dataclasses.replace(cfg, lambda1=0.0, lambda2=0.0), **kw)
    assert got.data.tobytes() == want.data.tobytes()
    got.backward()
    want.backward()
    assert x.grad.tobytes() == y.grad.tobytes() and np.any(x.grad != 0.0)


def test_iso_loss_static_perfect_sequence_is_gen_only():
    frames = np.repeat(gt_window(1, 2).frames[:1], 6, axis=0)
    pose = PoseSequence3D(frames)
    det = project_to_crop(pose, SCALE_MM)
    det = PoseSequence2D(det.frames, np.full(det.frames.shape[:2], 0.9),
                         np.zeros(det.frames.shape[:2], bool), SCALE_MM)
    energy = KcsEnergyModel.fit([s.pose3d.frames[:32] for s in _SEQS], TOPO)
    cfg = IsoConfig(weight_mode="soft", lambda1=0.1, lambda2=0.05)
    got = iso_loss(pose.frames, det, energy, cfg).item()
    assert got == pytest.approx(0.1 * energy.gen_loss(pose.frames).item(), rel=1e-12)


def test_smooth_loss_oracle():
    frames = gt_window(2, 5).frames
    want = np.sum((frames[1:] - frames[:-1]) ** 2)
    assert smooth_loss(frames).item() == pytest.approx(want, rel=1e-12)
    assert smooth_loss(frames[:1]).item() == 0.0


def test_iso_loss_gradient_vs_finite_difference():
    gt = gt_window(3, 6)
    rng = np.random.default_rng(12)
    det, _ = corrupt_detections(gt, rng)
    energy = KcsEnergyModel.fit([s.pose3d.frames[:32] for s in _SEQS], TOPO)
    cfg = IsoConfig(weight_mode="soft", lambda1=0.1, lambda2=0.05)
    base = gt.frames + rng.normal(0, 10.0, gt.frames.shape)
    scale, trans = fit_projection(base, det)
    weights = compute_weights(base, det, cfg, scale, trans)

    def f(arr):
        return iso_loss(arr, det, energy, cfg, scale, trans, weights).item()

    x = Tensor(base.copy(), requires_grad=True)
    iso_loss(x, det, energy, cfg, scale, trans, weights).backward()
    eps = 1e-3
    gmax = np.abs(x.grad).max()
    checked = 0
    for _ in range(200):
        i, j, d = rng.integers(6), rng.integers(17), rng.integers(3)
        if abs(x.grad[i, j, d]) < 1e-6 * gmax:
            continue
        fp, fm = base.copy(), base.copy()
        fp[i, j, d] += eps
        fm[i, j, d] -= eps
        assert (f(fp) - f(fm)) / (2 * eps) == pytest.approx(
            x.grad[i, j, d], rel=1e-4)
        checked += 1
        if checked >= 40:
            break
    assert checked >= 40


# ----------------------------------------------------------------- refine


def test_refine_zero_iterations_identity():
    gt = gt_window(0, 10)
    det = clean_detections(gt, np.random.default_rng(13))
    cfg = IsoConfig(iterations=0)
    out, trace = refine(gt, det, None, cfg)
    np.testing.assert_array_equal(out.frames, gt.frames)
    assert trace == []


def test_refine_trace_deterministic():
    gt = gt_window(0, 16)
    rng = np.random.default_rng(14)
    det, _ = corrupt_detections(gt, rng)
    init = PoseSequence3D(gt.frames + smooth_perturbation(
        np.random.default_rng(15), gt.frames.shape))
    cfg = IsoConfig(weight_mode="soft", iterations=30, lambda1=0.0)
    out1, tr1 = refine(init, det, None, cfg, gt3d=gt)
    out2, tr2 = refine(init, det, None, cfg, gt3d=gt)
    np.testing.assert_array_equal(out1.frames, out2.frames)
    assert tr1 == tr2
    assert set(tr1[0]) == {"iteration", "loss", "rep", "gen", "smooth", "mpjpe"}
    out3, tr3 = refine(init, det, None, cfg)
    assert "mpjpe" not in tr3[0]


def test_refine_mpjpe_strictly_decreases_on_accurate_detections():
    gt = gt_window(0, 32)
    rng = np.random.default_rng(0)
    det = clean_detections(gt, rng, noise_px=0.5)
    init = PoseSequence3D(gt.frames + rng.normal(0, 30.0, gt.frames.shape))
    cfg = IsoConfig(weight_mode="soft", iterations=120, step_size=0.2,
                    lambda1=0.0)
    out, trace = refine(init, det, None, cfg, gt3d=gt)
    m = np.array([r["mpjpe"] for r in trace])
    assert np.all(np.diff(m) < 0)
    assert m[-1] < 0.4 * m[0]


def test_refine_divergence_returns_best_so_far():
    gt = gt_window(1, 12)
    rng = np.random.default_rng(16)
    det = clean_detections(gt, rng)
    init = PoseSequence3D(gt.frames + rng.normal(0, 20.0, gt.frames.shape))
    cfg = IsoConfig(weight_mode="constant", iterations=150, step_size=4e4,
                    lambda1=0.0)
    out, trace = refine(init, det, None, cfg)
    assert len(trace) < 150
    losses = [r["loss"] for r in trace]
    best_it = int(np.argmin(losses))
    cfg_replay = IsoConfig(weight_mode="constant", iterations=best_it,
                           step_size=4e4, lambda1=0.0)
    replay, _ = refine(init, det, None, cfg_replay)
    np.testing.assert_array_equal(out.frames, replay.frames)


def test_refine_mode_ordering_under_corruption():
    # compressed version of the Table-3 trend; the acceptance test runs the
    # full 150-iteration protocol over a window set
    finals = {}
    gt = gt_window(0)
    rng = np.random.default_rng(17)
    det, bad = corrupt_detections(gt, rng)
    init = PoseSequence3D(gt.frames + smooth_perturbation(rng, gt.frames.shape))
    vgt = gt_window(3)
    vrng = np.random.default_rng(99)
    vdet, vbad = corrupt_detections(vgt, vrng)
    calib = calibrate(vdet.confidence.ravel(), (~vbad).ravel().astype(float))
    finals["none"] = mpjpe_of(init.frames, gt.frames)
    for mode, cal in [("constant", None), ("confidence", None),
                      ("hard", None), ("soft", calib)]:
        cfg = IsoConfig(weight_mode=mode, iterations=150, step_size=0.5,
                        lambda1=0.0, calibration=cal)
        out, _ = refine(init, det, None, cfg)
        finals[mode] = mpjpe_of(out.frames, gt.frames)
    assert finals["constant"] > finals["confidence"]
    assert finals["confidence"] > finals["hard"]
    assert finals["hard"] >= finals["soft"]
    assert finals["soft"] < finals["none"]


def test_refine_refits_the_projection_every_25_iterations():
    # confidence weights do not depend on the projection, so stopping refine
    # and restarting it from its output only adds a refit at the restart: the
    # two legs match one unbroken run exactly when the restart falls on a refit
    gt = gt_window(0, 16)
    rng = np.random.default_rng(20)
    det, _ = corrupt_detections(gt, rng)
    init = PoseSequence3D(gt.frames + smooth_perturbation(rng, gt.frames.shape))

    def run(start, iterations):
        cfg = IsoConfig(weight_mode="confidence", iterations=iterations, lambda1=0.0)
        return refine(start, det, None, cfg)[0]

    whole = run(init, 50).frames
    for restart in (5, 25):
        legs = run(run(init, restart), 50 - restart).frames
        assert np.array_equal(legs, whole) == (restart == 25), restart


def test_refine_shape_mismatch():
    gt = gt_window(0, 8)
    det = clean_detections(gt_window(0, 9), np.random.default_rng(18))
    with pytest.raises(InvalidInputError):
        refine(gt, det, None, IsoConfig())


def test_refine_rejects_zero_frames():
    gt = gt_window(0, 8)
    det = clean_detections(gt, np.random.default_rng(18))
    empty = PoseSequence2D(det.frames[:0], det.confidence[:0], det.mask[:0], SCALE_MM)
    with pytest.raises(InvalidInputError, match="0 frames"):
        refine(PoseSequence3D(gt.frames[:0]), empty, None, IsoConfig(iterations=3))


@pytest.mark.parametrize("t, k", [(8, 17), (10, 16)])
def test_refine_ground_truth_shape_mismatch(t, k):
    gt = gt_window(0, 10)
    det = clean_detections(gt, np.random.default_rng(19))
    wrong = PoseSequence3D(gt_window(0, t).frames[:, :k])
    with pytest.raises(InvalidInputError, match="ground truth"):
        refine(gt, det, None, IsoConfig(iterations=3), gt3d=wrong)
