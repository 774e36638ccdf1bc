"""Inference-stage refinement of 3D pose windows against 2D detections.

Gradient descent on the window's 3D coordinates minimizing a weighted
reprojection error plus a realness penalty and a temporal smoothness term.
The reprojection weights come from detector confidence, optionally passed
through a fitted calibration map and a hard or soft threshold; distances
feeding the soft threshold are measured in crop pixels.

The orthographic scale ambiguity is resolved by a closed-form least-squares
fit of one scale per window and one 2D translation per frame between the
projected pose and the detections, refitted periodically during descent.

The descent builds no autodiff graph. refine_many stacks windows of equal
length into one B x T x K x 3 array, and each iteration evaluates every
window's three terms and the gradient of their sum in closed form, into
buffers reused across iterations; refine is its one-window case. A window
that aborts stays in its stack, frozen at its best-so-far frames, so a
stack keeps its shape for its whole descent. No window's descent depends
on another's, so refine_many descends its stacks on one thread per
available core (numpy releases the GIL in its array loops and BLAS calls),
and the results are bit for bit the serial ones.
Cores left over, as when one long window is one stack, split each energy
evaluation of a stack into frame ranges, at least PART_FRAMES stacked frames
per range with every cut on a multiple of 48 frames
(discriminator.CUT_FRAMES: where the precision product's row blocks keep
their bits). The ranges run on a team of worker threads (parallel.team) that
the stack starts once for its whole descent and joins when it ends. That
happens only where BLAS runs each product on one thread; a threaded BLAS
already spreads the products over the cores, and cuts of its products do not
keep their bits.
The loss is composed once, in _Objective. The public Tensor node iso_loss
is a one-window call of it, rep_loss is iso_loss with no scorer and both
lambdas at 0, and compute_weights returns its weights, so the nodes that
tests check by finite differences run the arithmetic that refine descends.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import parallel
from .autodiff import Tensor
from .errors import ConfigError, InvalidInputError
from .skeleton import CROP_PX, PoseSequence2D, PoseSequence3D

WEIGHT_MODES = ("constant", "confidence", "hard", "soft")
REFIT_EVERY = 25                  # descent iterations between projection refits
HARD_THRESHOLD = 0.7              # hard mode zeroes confidences below this
STACK_FRAMES = 1024               # most frames refine_many descends as one stack
PART_FRAMES = 160                 # fewest stacked frames per part of a split energy call

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
    _check_confidence(conf)
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


def _check_confidence(conf: np.ndarray) -> None:
    if np.any(conf < 0) or np.any(conf > 1) or not np.all(np.isfinite(conf)):
        raise InvalidInputError("confidence values must lie in [0,1]")


def _soft_weight(neg_conf, dist, sigma: float, out=None) -> np.ndarray:
    """1 - exp(-c d^2 / (2 sigma^2)) from -c and d, written into `out` (not `dist`)."""
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(neg_conf), np.shape(dist)))
    np.multiply(neg_conf, dist, out=out)
    out *= dist
    out /= 2.0 * sigma * sigma
    np.exp(out, out=out)
    return np.subtract(1.0, out, out=out)


def reprojection_weight(mode: str, conf, dist=None, sigma: float = 1.0) -> np.ndarray:
    """Per-keypoint weight in [0,1] for the reprojection term."""
    if mode not in WEIGHT_MODES:
        raise ConfigError(f"unknown weight mode {mode!r}; pick from {WEIGHT_MODES}")
    conf = np.asarray(conf, dtype=np.float64)
    _check_confidence(conf)
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
    return _soft_weight(-conf, np.asarray(dist, dtype=np.float64), sigma)


@dataclass(frozen=True)
class IsoConfig:
    weight_mode: str = "soft"
    sigma: float = 1.0              # soft-threshold width, crop pixels
    lambda1: float = 0.1            # realness penalty weight
    lambda2: float = 0.05           # temporal smoothness weight
    iterations: int = 120
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


# ------------------------------------------------------------ the terms
#
# The smoothness term, over windows with any leading batch axes, (..., T, K, 3),
# serves smooth_loss and _Objective; the objective holds the other two terms.


def _mapped_confidence(det2d: PoseSequence2D, cfg: IsoConfig) -> np.ndarray:
    """The detections' confidences, through the calibration map when one is set."""
    if cfg.calibration is None:
        return det2d.confidence
    return np.where(det2d.mask, 0.0, cfg.calibration(det2d.confidence))


def _smooth_diff(frames, out=None) -> np.ndarray:
    """Consecutive-frame coordinate differences, (..., T - 1, K, 3)."""
    return np.subtract(frames[..., 1:, :, :], frames[..., :-1, :, :], out=out)


def _smooth_grad(diff, coef, out, g=None) -> np.ndarray:
    """Gradient of coef * sum(diff^2) w.r.t. the frames, written into `out`."""
    g = np.multiply(2.0 * coef, diff, out=g)
    out[..., :1, :, :] = 0.0
    out[..., 1:, :, :] = g
    out[..., :-1, :, :] -= g
    return out


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
    x = np.asarray(frames3d, dtype=np.float64)[None]
    return _Objective([det2d], None, cfg, 1).weights(x, np.array([scale], float),
                                                      np.asarray(trans)[None])[0]


def rep_loss(pose, det2d: PoseSequence2D, cfg: IsoConfig, scale: float = None,
             translation: np.ndarray = None, weights: np.ndarray = None) -> Tensor:
    """Weighted squared reprojection error, crop pixels, summed over T and K:
    iso_loss with no scorer and both lambdas at 0, whose value is its rep
    part wherever the window's smoothness sum is finite.

    Weights are held constant inside each gradient step: they are computed
    from the current coordinates but the gradient does not flow through
    them, so distance-dependent modes cannot inflate their own distances.
    """
    return iso_loss(pose, det2d, None, replace(cfg, lambda1=0.0, lambda2=0.0), scale,
                    translation, weights)


def smooth_loss(pose) -> Tensor:
    """Sum of squared consecutive-frame coordinate differences, mm^2."""
    x = _lift_window(pose)
    if x.shape[0] < 2:
        return Tensor(0.0)
    d = _smooth_diff(x.data)

    def back(out):
        x._accumulate(_smooth_grad(d, out.grad, np.empty_like(x.data)))

    return Tensor((d * d).sum(), (x,), back)


def iso_loss(pose, det2d: PoseSequence2D, scorer, cfg: IsoConfig,
             scale: float = None, translation: np.ndarray = None,
             weights: np.ndarray = None) -> Tensor:
    """L_rep + lambda1 * L_gen + lambda2 * smoothness, as one scalar node: the
    loss and gradient that refine descends, a one-window _Objective call at
    the fit (scale, translation), the unweighted one if not given, with the
    given weights held fixed (see rep_loss). The realness term needs a
    scorer and lambda1 > 0."""
    x = _lift_window(pose)
    if x.shape[0] != det2d.T or x.shape[1] != det2d.K:
        raise InvalidInputError("3D window and detections must match in T and K")
    if scale is None or translation is None:
        scale, translation = fit_projection(x.data, det2d)
    objective = _Objective([det2d], scorer, cfg, 1)
    if weights is not None:
        objective.fixed = np.asarray(weights, dtype=np.float64)
    rep, gen, smooth, grad = objective(x.data[None], np.array([scale], float),
                                       np.asarray(translation)[None])
    return Tensor(rep[0] + cfg.lambda1 * gen[0] + cfg.lambda2 * smooth[0], (x,),
                  lambda out: x._accumulate(grad[0] * out.grad))


# ------------------------------------------------------------ refinement


class _Objective:
    """The ISO loss of every window of a B x T x K x 3 stack, without a graph:
    refine descends it, and iso_loss, rep_loss and compute_weights are its
    one-window views.

    A call returns each window's rep, gen and smooth parts and the
    gradient of its total, summed into one reused buffer in the order a
    Tensor graph of the three terms accumulates it: smoothness, then
    energy, then reprojection. Confidences are mapped and checked once,
    weights that do not move with the pose are formed once, and one
    projection residual serves both the soft weights and the reprojection
    term. Every call covers all the windows the objective was built for,
    in buffers made here. The energy calls split into `parts` frame ranges
    (see refine_many).
    """

    def __init__(self, dets: list, scorer, cfg: IsoConfig, parts: int):
        n, t, k = len(dets), dets[0].T, dets[0].K
        self.cfg, self.parts = cfg, parts
        self.scorer = scorer if cfg.lambda1 > 0 else None
        self.det = np.stack([d.frames for d in dets])
        self.keep = ~np.stack([d.mask for d in dets])
        conf = np.stack([_mapped_confidence(d, cfg) for d in dets])
        if cfg.weight_mode == "soft":
            _check_confidence(conf)
            self.neg_conf, self.fixed = -conf, None
        else:
            self.neg_conf, self.fixed = None, reprojection_weight(cfg.weight_mode, conf) * self.keep
        self._resid, self._sq = np.empty((n, t, k, 2)), np.empty((n, t, k, 2))
        self._w, self._key = np.empty((n, t, k)), np.empty((n, t, k))
        self._diff, self._g = np.empty((n, t - 1, k, 3)), np.empty((n, t - 1, k, 3))
        self._grad = np.empty((n, t, k, 3))
        self._energy_work = None if self.scorer is None else self.scorer.workspace((n, t))

    def weights(self, x, scale, trans) -> np.ndarray:
        """B x T x K weights at the fit (scale, trans); the projection residual,
        in crop units, stays in a buffer for __call__."""
        r = np.multiply(x[..., :2], scale[:, None, None, None], out=self._resid)
        r += trans[..., None, :]
        r -= self.det
        if self.fixed is not None:
            return self.fixed
        sq = np.multiply(r, r, out=self._sq)
        dist = np.add(sq[..., 0], sq[..., 1], out=self._key)
        np.sqrt(dist, out=dist)
        dist *= CROP_PX
        w = _soft_weight(self.neg_conf, dist, self.cfg.sigma, out=self._w)
        w *= self.keep
        return w

    def __call__(self, x, scale, trans) -> tuple:
        """(rep, gen, smooth, gradient) of the stack x at the fit (scale, trans)."""
        n, cfg = len(x), self.cfg
        w = self.weights(x, scale, trans)
        d = self._resid
        d *= CROP_PX
        sq = np.multiply(d, d, out=self._sq)
        terms = np.add(sq[..., 0], sq[..., 1], out=self._key)
        terms *= w                                   # w |d|^2 per keypoint
        rep = terms.reshape(n, -1).sum(axis=1)
        grad = self._grad
        if x.shape[1] > 1:
            diff = _smooth_diff(x, out=self._diff)
            smooth = np.multiply(diff, diff, out=self._g).reshape(n, -1).sum(axis=1)
            _smooth_grad(diff, cfg.lambda2, grad, g=self._g)
        else:
            smooth = np.zeros(n)
            grad.fill(0.0)
        if self.scorer is not None:
            gen, gen_grad = self.scorer.energies_and_grad(x, cfg.lambda1, self._energy_work,
                                                          self.parts)
            grad += gen_grad
        else:
            gen = np.zeros(n)
        # the x, y gradient of the reprojection term: 2 CROP_PX scale w d
        cw = np.multiply(w, 2.0 * CROP_PX * scale[:, None, None], out=self._key)
        grad[..., :2] += np.multiply(cw[..., None], d, out=self._sq)
        return rep, gen, smooth, grad


class _Stack:
    """Gradient descent of a stack of equal-length windows.

    __init__ builds everything the descent writes into: the objective with
    its buffers and the energy kernel's, the fit, the best-so-far frames and
    the error buffers. run() descends and returns (frames, trace) of each
    window; every window keeps its own scale, translation, trace,
    best-so-far frames and 10x abort. An aborted window stays in the stack,
    frozen at its best-so-far frames: its gradient is zeroed from then on,
    and the descent ends once every window has aborted. So the stack keeps
    its shape, and run() may go to a worker thread, which then allocates
    only small temporaries: buffers first made on a worker would sit in a
    malloc arena of its own and raise peak memory. When the objective's
    energy calls split, run() opens one team of `parts` threads
    (parallel.team) for the whole descent, so each evaluation's ranges go to
    waiting workers.
    """

    def __init__(self, frames: np.ndarray, dets: list, gts, scorer, cfg: IsoConfig,
                 parts: int):
        n, t = frames.shape[:2]
        self.x, self.dets, self.gts, self.cfg = frames, dets, gts, cfg
        self.objective = _Objective(dets, scorer, cfg, parts)
        self.scale, self.trans = np.empty(n), np.empty((n, t, 2))
        self.best = frames.copy()
        if gts is not None:
            self.err, self.err_norm = np.empty_like(frames), np.empty(frames.shape[:3])

    def run(self) -> tuple:
        with parallel.team(self.objective.parts):
            return self._descend()

    def _descend(self) -> tuple:
        x, gts, cfg, objective = self.x, self.gts, self.cfg, self.objective
        scale, trans, best = self.scale, self.trans, self.best
        n = len(x)
        for b, det in enumerate(self.dets):
            scale[b], trans[b] = fit_projection(x[b], det)
        traces, best_loss = [[] for _ in range(n)], [np.inf] * n
        live, frozen = list(range(n)), []
        for it in range(cfg.iterations):
            if it % REFIT_EVERY == 0:
                # align with the current weights so distrusted detections do
                # not drag the frame; weights then refresh off the new fit
                w = objective.weights(x, scale, trans)
                for b in live:
                    scale[b], trans[b] = fit_projection(x[b], self.dets[b], w[b])
            rep, gen, smooth, grad = objective(x, scale, trans)
            if gts is not None:
                e = np.subtract(x, gts, out=self.err)
                e *= e
                dist = np.add.reduce(e, axis=-1, out=self.err_norm)
                mpjpe = np.sqrt(dist, out=dist).reshape(n, -1).mean(axis=1).tolist()
            rep, gen, smooth = rep.tolist(), gen.tolist(), smooth.tolist()
            for b in list(live):
                loss = rep[b] + cfg.lambda1 * gen[b] + cfg.lambda2 * smooth[b]
                row = {"iteration": it, "loss": loss, "rep": rep[b], "gen": gen[b],
                       "smooth": smooth[b]}
                if gts is not None:
                    row["mpjpe"] = mpjpe[b]
                traces[b].append(row)
                if loss < best_loss[b]:
                    best_loss[b] = loss
                    best[b] = x[b]
                if not math.isfinite(loss) or loss > 10.0 * traces[b][0]["loss"]:
                    x[b] = best[b]
                    live.remove(b)
                    frozen.append(b)
            if not live:
                break
            grad[frozen] = 0.0
            grad *= cfg.step_size
            x -= grad
        return list(x), traces


def _as_pose(pose) -> PoseSequence3D:
    return pose if isinstance(pose, PoseSequence3D) \
        else PoseSequence3D(np.asarray(pose, dtype=np.float64))


def refine_many(poses: list, dets: list, scorer, cfg: IsoConfig, gts: list = None) -> list:
    """refine of every (pose, detections[, ground truth]) triple: a list of
    (refined PoseSequence3D, trace), in input order.

    Windows of equal length descend together as B x T x K x 3 stacks of
    at most STACK_FRAMES frames (a longer window is a stack of one), dealt
    into at least as many stacks per length as there are cores, up to one
    per window. With more than one stack and core, the stacks descend on
    one thread per core, the calling thread one of them; every stack is
    built before any thread starts. With BLAS on one thread, the cores
    per stack thread split the stack's energy evaluations into that many
    frame ranges, each of at least PART_FRAMES stacked frames (the
    scorer's energies_and_grad `parts`), on a team of that many threads that
    lives for the stack's descent. No thread outlives the call. Each window
    keeps its own projection fit, refits, trace, best-so-far frames and abort;
    a window that aborts stays in its stack, frozen, until the stack's last
    window aborts or its iterations run out. So each result is, bit for bit,
    refine of that window alone.
    """
    poses = [_as_pose(p) for p in poses]
    dets = list(dets)
    if len(dets) != len(poses) or (gts is not None and len(gts) != len(poses)):
        raise InvalidInputError(f"{len(poses)} poses need as many detections (got {len(dets)})"
                                + ("" if gts is None else f" and ground truths (got {len(gts)})"))
    groups = {}
    for i, (pose, det) in enumerate(zip(poses, dets)):
        if pose.T < 1:
            raise InvalidInputError(f"window {i} has {pose.T} frames; refinement needs at least 1")
        if pose.T != det.T or pose.K != det.K:
            raise InvalidInputError("3D window and detections must match in T and K")
        gt = None if gts is None else gts[i]
        if gt is not None and (gt.T != pose.T or gt.K != pose.K):
            raise InvalidInputError(f"ground truth is {gt.T} x {gt.K} (T x K), "
                                    f"the window {pose.T} x {pose.K}")
        groups.setdefault((pose.T, pose.K), []).append(i)
    cores = parallel.cores()
    stacks = []                           # the input positions of each stack
    for (t, _), members in groups.items():
        per_stack = max(1, STACK_FRAMES // t)
        count = max(-(-len(members) // per_stack), min(cores, len(members)))
        bounds = [len(members) * j // count for j in range(count + 1)]
        stacks += [members[a:b] for a, b in zip(bounds, bounds[1:])]

    threads = min(cores, len(stacks))
    # cores the stacks leave idle split each stack's energy evaluation by frames
    split = cores // threads if threads and parallel.blas_threads() == 1 else 1

    def build(idx):
        parts = max(1, min(split, len(idx) * poses[idx[0]].T // PART_FRAMES))
        return _Stack(np.stack([poses[i].frames for i in idx]), [dets[i] for i in idx],
                      None if gts is None else np.stack([gts[i].frames for i in idx]),
                      scorer, cfg, parts)

    if threads < 2:
        outs = [build(idx).run() for idx in stacks]
    else:
        outs = parallel.run([build(idx).run for idx in stacks], threads)
    results = [None] * len(poses)
    for idx, (frames, traces) in zip(stacks, outs):
        for i, out_frames, trace in zip(idx, frames, traces):
            pose = poses[i]
            out = PoseSequence3D(out_frames,
                                 None if pose.visibility is None else pose.visibility.copy(),
                                 pose.root_relative,
                                 None if pose.actions is None else list(pose.actions))
            results[i] = (out, trace)
    return results


def refine(initial_pose3d: PoseSequence3D, det2d: PoseSequence2D, scorer,
           cfg: IsoConfig, gt3d: PoseSequence3D = None):
    """Gradient descent on the window's 3D coordinates: refine_many of one window.

    Returns (refined PoseSequence3D, trace). The trace holds one dict per
    iteration: loss pieces before that iteration's update, plus MPJPE when
    ground truth is given. Aborts if the loss turns non-finite or grows
    past 10x its starting value: the trace ends with that iteration's row,
    and the best-so-far coordinates are returned.
    """
    return refine_many([initial_pose3d], [det2d], scorer, cfg,
                       None if gt3d is None else [gt3d])[0]
