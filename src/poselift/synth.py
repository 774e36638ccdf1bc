"""Synthetic articulated motion: smoothed angular random walks on the
kinematic tree, forward kinematics with constant bone lengths, multi-view
pairs by known rotations, and 2D detections with confidence-scaled noise
and cylinder-derived occlusion labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .skeleton import (
    CROP_PX,
    PoseSequence2D,
    PoseSequence3D,
    RotationAugment,
    SkeletonTopology,
    project_to_crop,
    rotate_pose,
    rotation_matrix,
    vector_norm,
)
from .visibility import sequence_visibility

# rest offsets (mm) of the default 17-keypoint skeleton, child relative to
# parent, person upright facing the camera (-z), y up; torso-adjacent joints
# sit a few mm toward the camera so the rest pose has no keypoint exactly on
# a cylinder's diametral plane
REST_OFFSETS = {
    "hip_r": (-130.0, -20.0, -10.0),
    "knee_r": (0.0, -440.0, 0.0),
    "ankle_r": (0.0, -450.0, 0.0),
    "hip_l": (130.0, -20.0, -10.0),
    "knee_l": (0.0, -440.0, 0.0),
    "ankle_l": (0.0, -450.0, 0.0),
    "spine": (0.0, 230.0, -25.0),
    "neck": (0.0, 230.0, 25.0),
    "nose": (0.0, 115.0, -90.0),
    "head_top": (0.0, 140.0, 60.0),
    "shoulder_l": (180.0, -25.0, -10.0),
    "elbow_l": (15.0, -280.0, 10.0),
    "wrist_l": (0.0, -250.0, 0.0),
    "shoulder_r": (-180.0, -25.0, -10.0),
    "elbow_r": (-15.0, -280.0, 10.0),
    "wrist_r": (0.0, -250.0, 0.0),
}

# the one motion model behind training and held-out sequences
SMOOTH_WINDOW = 9                 # moving-average width on the walk steps
MAX_JOINT_ANGLE = 0.8             # rad, rotation-vector norm clamp
YAW_STEP = 0.02                   # rad/frame of global yaw walk
WOBBLE = 0.1                      # rad, global pitch/roll amplitude
CONF_VISIBLE = (0.65, 0.98)       # detection confidence range, visible keypoints
CONF_OCCLUDED = (0.05, 0.35)      # detection confidence range, occluded keypoints
SCALE_MM = 2000.0                 # crop edge in mm for 2D projection
ANGLE_STEP = 0.03                 # rad/frame of raw joint noise
NOISE_PX = 2.0                    # detection noise scale, crop pixels


@dataclass(frozen=True)
class SyntheticMotionConfig:
    """What a motion set varies; the motion model and its noise are the constants above."""

    n_sequences: int = 8
    frames: int = 240
    seed: int = 0
    speed_multipliers: tuple[float, ...] = (1.0,)
    # extra views as (alpha, beta, gamma)
    view_rotations: tuple[tuple[float, float, float], ...] = ()
    mask_occluded_prob: float = 0.5

    def __post_init__(self):
        if self.n_sequences < 1 or self.frames < 2:
            raise ConfigError("need n_sequences >= 1 and frames >= 2")
        if not self.speed_multipliers:
            raise ConfigError("speed_multipliers must hold at least one speed")
        if not all(s > 0 for s in self.speed_multipliers):
            raise ConfigError("speed multipliers must be > 0")
        if not 0.0 <= self.mask_occluded_prob <= 1.0:
            raise ConfigError(f"mask_occluded_prob={self.mask_occluded_prob} outside [0,1]")
        if self.seed < 0:
            raise ConfigError(f"seed={self.seed} must be >= 0")


@dataclass
class ViewData:
    rotation: RotationAugment
    pose3d: PoseSequence3D        # rotated ground truth
    det2d: PoseSequence2D         # noisy detections with conf + mask
    visible: np.ndarray           # T x K cylinder-model visibility


@dataclass
class SyntheticSequence:
    pose3d: PoseSequence3D        # canonical (view 0) motion
    views: list                   # ViewData, views[0] has identity rotation
    action: str


def _rodrigues(rotvecs: np.ndarray) -> np.ndarray:
    """Rotation matrices (..., 3, 3) of rotation vectors (..., 3)."""
    angle = vector_norm(rotvecs)
    still = angle < 1e-12
    axis = rotvecs / np.where(still, 1.0, angle)[..., None]
    x, y, z = axis[..., 0], axis[..., 1], axis[..., 2]
    zero = np.zeros_like(x)
    k = np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=-1).reshape(axis.shape + (3,))
    rot = (np.eye(3) + np.sin(angle)[..., None, None] * k
           + (1.0 - np.cos(angle))[..., None, None] * (k @ k))
    rot[still] = np.eye(3)
    return rot


def _smooth_walk(rng, n_steps: int, n_channels: int, step: float, window: int) -> np.ndarray:
    """Cumulative sum of moving-average smoothed Gaussian steps."""
    raw = rng.normal(0.0, step, size=(n_steps + window, n_channels))
    kernel = np.ones(window) / window
    smooth = np.stack([np.convolve(raw[:, c], kernel, mode="valid") for c in range(n_channels)], axis=1)
    return np.cumsum(smooth[:n_steps], axis=0)


def _resample(track: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Linear interpolation of a (N, C) track at fractional times."""
    base = np.arange(track.shape[0], dtype=np.float64)
    return np.stack([np.interp(times, base, track[:, c]) for c in range(track.shape[1])], axis=1)


def rest_offsets(topo: SkeletonTopology) -> np.ndarray:
    """M x 3 child-minus-parent rest offsets; requires known keypoint names."""
    out = np.zeros((topo.M, 3))
    for m, (_, child) in enumerate(topo.bones):
        name = topo.keypoint_names[child]
        if name not in REST_OFFSETS:
            raise ConfigError(f"no rest offset for keypoint {name!r}")
        out[m] = REST_OFFSETS[name]
    return out


def _fk(topo: SkeletonTopology, offsets: np.ndarray, rotvecs: np.ndarray,
        global_rots: np.ndarray) -> np.ndarray:
    """Forward kinematics: rotvecs (T, M, 3) local, global_rots (T, 3, 3).

    All frames at once; the loop places the bones in topo.bone_order, each
    after the bone that places its parent.
    """
    frames = np.zeros((rotvecs.shape[0], topo.K, 3))
    local = _rodrigues(rotvecs)                     # T x M x 3 x 3
    rots = {topo.root_index: np.eye(3)}             # per placed keypoint
    for m in topo.bone_order:
        p, c = topo.bones[m]
        g = rots[c] = rots[p] @ local[:, m]
        frames[:, c] = frames[:, p] + g @ offsets[m]
    return frames @ global_rots.transpose(0, 2, 1)


def generate_sequence(cfg: SyntheticMotionConfig, topo: SkeletonTopology,
                      rng: np.random.Generator, speed: float) -> PoseSequence3D:
    """One kinematically consistent motion at the given speed multiplier."""
    offsets = rest_offsets(topo)
    base_len = int(np.ceil(cfg.frames * speed)) + 2
    walk = _smooth_walk(rng, base_len, topo.M * 3, ANGLE_STEP, SMOOTH_WINDOW)
    times = np.arange(cfg.frames) * speed
    rotvecs = _resample(walk, times).reshape(cfg.frames, topo.M, 3)
    norms = np.linalg.norm(rotvecs, axis=2, keepdims=True)
    scale = np.where(norms > MAX_JOINT_ANGLE, MAX_JOINT_ANGLE / np.maximum(norms, 1e-12), 1.0)
    rotvecs = rotvecs * scale
    yaw0 = rng.uniform(-np.pi, np.pi)
    yaw_walk = _smooth_walk(rng, base_len, 1, YAW_STEP, SMOOTH_WINDOW)
    yaw = yaw0 + _resample(yaw_walk, times)[:, 0]
    pitch = WOBBLE * np.sin(np.linspace(0, 2 * np.pi, cfg.frames) + rng.uniform(0, 2 * np.pi))
    global_rots = rotation_matrix(pitch, yaw, 0.0)
    frames = _fk(topo, offsets, rotvecs, global_rots)
    frames -= frames[:, topo.root_index:topo.root_index + 1]  # keep root pinned
    return PoseSequence3D(frames)


def detections_for_view(pose3d: PoseSequence3D, topo: SkeletonTopology,
                        cfg: SyntheticMotionConfig, rng: np.random.Generator):
    """Noisy 2D detections + confidence + mask from one view's 3D pose."""
    visible = sequence_visibility(pose3d, topo)
    clean = project_to_crop(pose3d, SCALE_MM)
    t, k = pose3d.T, pose3d.K
    conf = np.where(visible,
                    rng.uniform(*CONF_VISIBLE, size=(t, k)),
                    rng.uniform(*CONF_OCCLUDED, size=(t, k)))
    # noisier detections at lower confidence
    std_px = NOISE_PX * (1.3 - conf)
    noise = rng.normal(0.0, 1.0, size=(t, k, 2)) * (std_px / CROP_PX)[:, :, None]
    coords = clean.frames + noise
    mask = (~visible) & (rng.random((t, k)) < cfg.mask_occluded_prob)
    coords[mask] = 0.0
    conf[mask] = 0.0
    det = PoseSequence2D(coords, confidence=conf, mask=mask, scale_mm=SCALE_MM,
                         actions=pose3d.actions)
    return det, visible


def generate(cfg: SyntheticMotionConfig, topo: SkeletonTopology) -> list:
    """All sequences: speeds cycle over speed_multipliers; views[0] identity."""
    rng = np.random.default_rng(cfg.seed)
    view_rots = [RotationAugment()] + [RotationAugment(*v) for v in cfg.view_rotations]
    out = []
    for s in range(cfg.n_sequences):
        speed = cfg.speed_multipliers[s % len(cfg.speed_multipliers)]
        action = f"speed{speed:g}"
        pose = generate_sequence(cfg, topo, rng, speed)
        pose.actions = [action] * pose.T
        views = []
        for r in view_rots:
            vp = rotate_pose(pose, r)
            det, visible = detections_for_view(vp, topo, cfg, rng)
            vp.visibility = visible
            views.append(ViewData(r, vp, det, visible))
        out.append(SyntheticSequence(pose, views, action))
    return out
