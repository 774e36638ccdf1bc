"""Inference-stage refinement of 3D pose windows against 2D detections.

Gradient descent on the window's 3D coordinates minimizing a weighted
reprojection error plus a realness penalty and a temporal smoothness term.
The reprojection weights come from detector confidence, optionally passed
through a fitted calibration map and a hard or soft threshold; distances
feeding the soft threshold are measured in crop pixels.

The orthographic scale ambiguity is resolved by a closed-form least-squares
fit of one scale per window and one 2D translation per frame between the
projected pose and the detections, refitted periodically during descent.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, InvalidInputError
from .skeleton import CROP_PX, PoseSequence2D, PoseSequence3D

WEIGHT_MODES = ("constant", "confidence", "hard", "soft")
REFIT_EVERY = 25                  # descent iterations between projection refits
HARD_THRESHOLD = 0.7              # hard mode zeroes confidences below this

_CLIP = 1e-6


def _logit(c: np.ndarray) -> np.ndarray:
    c = np.clip(c, _CLIP, 1.0 - _CLIP)
    return np.log(c) - np.log1p(-c)


@dataclass(frozen=True)
class CalibratedConfidence:
    """Monotone map of raw detector confidence to calibrated confidence.

    Temperature-scaled logistic on the logit: c* = sigmoid(t * logit(c) + b)
    with t > 0, so the map is strictly increasing and lands in (0,1).
    Defaults give the identity on (0,1) up to logit clipping.
    """

    temperature: float = 1.0
    bias: float = 0.0

    def __post_init__(self):
        if self.temperature <= 0:
            raise ConfigError("calibration temperature must be > 0")

    def __call__(self, conf) -> np.ndarray:
        z = self.temperature * _logit(np.asarray(conf, dtype=np.float64)) + self.bias
        return 1.0 / (1.0 + np.exp(-z))


def calibrate(conf=None, correct=None) -> CalibratedConfidence:
    """Fit the calibration map on (confidence, was-the-keypoint-correct) pairs.

    Minimizes binary cross-entropy of the mapped confidence against the
    0/1 correctness labels. No pairs -> identity map. Labels all identical
    carry no calibration signal: warns and falls back to the identity.
    """
    if conf is None or len(np.atleast_1d(conf)) == 0:
        return CalibratedConfidence()
    conf = np.asarray(conf, dtype=np.float64).ravel()
    if correct is None:
        raise InvalidInputError("confidence values need matching correctness labels")
    correct = np.asarray(correct, dtype=np.float64).ravel()
    if conf.shape != correct.shape:
        raise InvalidInputError("confidence and labels must have equal length")
    if np.any(conf < 0) or np.any(conf > 1) or not np.all(np.isfinite(conf)):
        raise InvalidInputError("confidence values must lie in [0,1]")
    if not np.all((correct == 0) | (correct == 1)):
        raise InvalidInputError("correctness labels must be 0 or 1")
    if np.all(correct == correct[0]):
        warnings.warn("degenerate calibration labels (all identical); "
                      "falling back to the identity map")
        return CalibratedConfidence()
    from scipy.optimize import minimize     # loaded only here: no pipeline stage fits a map

    z = _logit(conf)

    def bce(params):
        p = 1.0 / (1.0 + np.exp(-(params[0] * z + params[1])))
        p = np.clip(p, 1e-12, 1.0 - 1e-12)
        return -np.mean(correct * np.log(p) + (1.0 - correct) * np.log1p(-p))

    res = minimize(bce, x0=np.array([1.0, 0.0]), method="L-BFGS-B",
                   bounds=[(1e-2, 1e2), (-10.0, 10.0)],
                   options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 1000})
    return CalibratedConfidence(float(res.x[0]), float(res.x[1]))


def reprojection_weight(mode: str, conf, dist=None, sigma: float = 1.0) -> np.ndarray:
    """Per-keypoint weight in [0,1] for the reprojection term."""
    if mode not in WEIGHT_MODES:
        raise ConfigError(f"unknown weight mode {mode!r}; pick from {WEIGHT_MODES}")
    conf = np.asarray(conf, dtype=np.float64)
    if np.any(conf < 0) or np.any(conf > 1) or not np.all(np.isfinite(conf)):
        raise InvalidInputError("confidence values must lie in [0,1]")
    if mode == "constant":
        return np.ones_like(conf)
    if mode == "confidence":
        return conf.copy()
    if mode == "hard":
        return np.where(conf >= HARD_THRESHOLD, conf, 0.0)
    # soft
    if sigma <= 0:
        raise ConfigError("soft threshold sigma must be > 0")
    if dist is None:
        raise InvalidInputError("soft mode needs reprojection distances")
    dist = np.asarray(dist, dtype=np.float64)
    return 1.0 - np.exp(-conf * dist * dist / (2.0 * sigma * sigma))


@dataclass(frozen=True)
class IsoConfig:
    weight_mode: str = "soft"
    sigma: float = 1.0              # soft-threshold width, crop pixels
    lambda1: float = 0.1            # realness penalty weight
    lambda2: float = 0.05           # temporal smoothness weight
    iterations: int = 150
    step_size: float = 0.5          # mm per unit gradient
    calibration: CalibratedConfidence = None

    def __post_init__(self):
        if self.weight_mode not in WEIGHT_MODES:
            raise ConfigError(f"weight_mode {self.weight_mode!r} is not one of "
                              + "/".join(WEIGHT_MODES))
        if self.sigma <= 0:
            raise ConfigError("sigma must be > 0")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ConfigError("lambda weights must be >= 0")
        if self.iterations < 0:
            raise ConfigError("iterations must be >= 0")
        if self.step_size <= 0:
            raise ConfigError("step_size must be > 0")


def fit_projection(frames3d: np.ndarray, det2d: PoseSequence2D,
                   weights: np.ndarray = None):
    """Weighted least-squares orthographic alignment.

    One scale for the window plus one 2D translation per frame, minimizing
    the weighted sum of |s * X_xy + t_f - d|^2 over unmasked keypoints.
    With no weights given every unmasked keypoint counts equally; passing
    the reprojection weights keeps low-trust detections from dragging the
    alignment (an unweighted refit slowly ratchets the translation toward
    outliers the descent refuses to follow). Frames with no effective
    support get a translation centering the pose in the crop.
    """
    frames3d = np.asarray(frames3d, dtype=np.float64)
    if frames3d.shape[0] != det2d.T or frames3d.shape[1] != det2d.K:
        raise InvalidInputError("3D window and detections must match in T and K")
    xy = frames3d[:, :, :2]
    w = (~det2d.mask).astype(np.float64)
    if weights is not None:
        w = w * np.asarray(weights, dtype=np.float64)
    w3 = w[:, :, None]
    counts = w.sum(axis=1)                                  # T
    safe = np.maximum(counts, 1e-12)[:, None, None]
    xbar = (xy * w3).sum(axis=1, keepdims=True) / safe
    dbar = (det2d.frames * w3).sum(axis=1, keepdims=True) / safe
    xc = xy - xbar
    dc = det2d.frames - dbar
    denom = np.sum(w3 * xc * xc)
    if denom < 1e-12:
        scale = 1.0 / det2d.scale_mm if det2d.scale_mm else 1e-3
    else:
        scale = np.sum(w3 * xc * dc) / denom
    trans = (dbar - scale * xbar)[:, 0, :]                  # T x 2
    empty = counts < 1e-12
    if np.any(empty):
        trans[empty] = 0.5 - scale * xy[empty].mean(axis=1)
    return float(scale), trans


def _lift_window(pose) -> Tensor:
    if isinstance(pose, Tensor):
        x = pose
    elif isinstance(pose, PoseSequence3D):
        x = Tensor(pose.frames)
    else:
        x = Tensor(np.asarray(pose, dtype=np.float64))
    if x.ndim != 3 or x.shape[2] != 3:
        raise InvalidInputError(f"3D window must be T x K x 3, got {x.shape}")
    return x


def compute_weights(frames3d: np.ndarray, det2d: PoseSequence2D, cfg: IsoConfig,
                    scale: float, trans: np.ndarray) -> np.ndarray:
    """T x K reprojection weights, read from the mapped confidences when a
    calibration map is set; masked detections weigh exactly zero."""
    conf = det2d.confidence
    if cfg.calibration is not None:
        conf = np.where(det2d.mask, 0.0, cfg.calibration(conf))
    frames3d = np.asarray(frames3d, dtype=np.float64)
    proj = frames3d[:, :, :2] * scale + trans[:, None, :]
    dist = np.linalg.norm(proj - det2d.frames, axis=2) * CROP_PX
    w = reprojection_weight(cfg.weight_mode, conf, dist, cfg.sigma)
    return w * ~det2d.mask


def rep_loss(pose, det2d: PoseSequence2D, cfg: IsoConfig, scale: float = None,
             translation: np.ndarray = None, weights: np.ndarray = None) -> Tensor:
    """Weighted squared reprojection error, crop pixels, summed over T and K.

    Weights are held constant inside each gradient step: they are computed
    from the current coordinates but the gradient does not flow through
    them, so distance-dependent modes cannot inflate their own distances.
    """
    x = _lift_window(pose)
    if x.shape[0] != det2d.T or x.shape[1] != det2d.K:
        raise InvalidInputError("3D window and detections must match in T and K")
    if scale is None or translation is None:
        scale, translation = fit_projection(x.data, det2d)
    if weights is None:
        weights = compute_weights(x.data, det2d, cfg, scale, translation)
    weights = np.asarray(weights, dtype=np.float64)
    d = (x.data[:, :, :2] * scale + translation[:, None, :] - det2d.frames) * CROP_PX

    def back(out):
        gx = np.zeros_like(x.data)
        gx[:, :, :2] = (2.0 * CROP_PX * scale * out.grad) * weights[:, :, None] * d
        x._accumulate(gx)

    return Tensor(((d * d).sum(axis=2) * weights).sum(), (x,), back)


def smooth_loss(pose) -> Tensor:
    """Sum of squared consecutive-frame coordinate differences, mm^2."""
    x = _lift_window(pose)
    if x.shape[0] < 2:
        return Tensor(0.0)
    d = x.data[1:] - x.data[:-1]

    def back(out):
        g = (2.0 * out.grad) * d
        gx = np.zeros_like(x.data)
        gx[1:] += g
        gx[:-1] -= g
        x._accumulate(gx)

    return Tensor((d * d).sum(), (x,), back)


def iso_loss(pose, det2d: PoseSequence2D, scorer, cfg: IsoConfig,
             scale: float = None, translation: np.ndarray = None,
             weights: np.ndarray = None) -> Tensor:
    """L_rep + lambda1 * L_gen + lambda2 * smoothness, as a scalar Tensor."""
    total = rep_loss(pose, det2d, cfg, scale, translation, weights)
    if cfg.lambda1 > 0 and scorer is not None:
        total = total + cfg.lambda1 * scorer.gen_loss(_lift_window(pose))
    if cfg.lambda2 > 0:
        total = total + cfg.lambda2 * smooth_loss(pose)
    return total


def refine(initial_pose3d: PoseSequence3D, det2d: PoseSequence2D, scorer,
           cfg: IsoConfig, gt3d: PoseSequence3D = None):
    """Gradient descent on the window's 3D coordinates.

    Returns (refined PoseSequence3D, trace). The trace holds one dict per
    iteration: loss pieces before that iteration's update, plus MPJPE when
    ground truth is given. Aborts and returns the best-so-far coordinates
    if the loss grows past 10x its starting value.
    """
    pose = initial_pose3d if isinstance(initial_pose3d, PoseSequence3D) \
        else PoseSequence3D(np.asarray(initial_pose3d, dtype=np.float64))
    if pose.T != det2d.T or pose.K != det2d.K:
        raise InvalidInputError("3D window and detections must match in T and K")
    if gt3d is not None and (gt3d.T != pose.T or gt3d.K != pose.K):
        raise InvalidInputError(f"ground truth is {gt3d.T} x {gt3d.K} (T x K), "
                                f"the window {pose.T} x {pose.K}")
    frames = pose.frames.copy()
    scale, trans = fit_projection(frames, det2d)
    trace = []
    loss0 = None
    best_loss, best_frames = np.inf, frames.copy()
    for it in range(cfg.iterations):
        if it % REFIT_EVERY == 0:
            # align with the current weights so distrusted detections do
            # not drag the frame; weights then refresh off the new fit
            weights = compute_weights(frames, det2d, cfg, scale, trans)
            scale, trans = fit_projection(frames, det2d, weights)
        weights = compute_weights(frames, det2d, cfg, scale, trans)
        x = Tensor(frames, requires_grad=True)
        rep = rep_loss(x, det2d, cfg, scale, trans, weights)
        gen = scorer.gen_loss(x) if (scorer is not None and cfg.lambda1 > 0) \
            else Tensor(0.0)
        sm = smooth_loss(x)
        loss = rep + cfg.lambda1 * gen + cfg.lambda2 * sm
        loss.backward()
        lval = loss.item()
        row = {"iteration": it, "loss": lval, "rep": rep.item(),
               "gen": gen.item(), "smooth": sm.item()}
        if gt3d is not None:
            row["mpjpe"] = float(np.linalg.norm(frames - gt3d.frames, axis=2).mean())
        trace.append(row)
        if loss0 is None:
            loss0 = lval
        if lval < best_loss:
            best_loss, best_frames = lval, frames.copy()
        if not np.isfinite(lval) or lval > 10.0 * loss0:
            frames = best_frames
            break
        frames = frames - cfg.step_size * x.grad
    out = pose.copy()
    out.frames = frames
    return out, trace
