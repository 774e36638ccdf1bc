"""Pose accuracy protocols: position error, aligned error, PCK, bone-angle error."""

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DegenerateInputError, InvalidInputError
from .pose_io import default_topology
from .skeleton import PoseSequence3D, SkeletonTopology, procrustes_align_frames

PCK_RADIUS_MM = 150.0


def _frames_of(pose) -> np.ndarray:
    if isinstance(pose, PoseSequence3D):
        frames = pose.frames
    else:
        frames = np.asarray(pose, dtype=np.float64)
    if frames.ndim != 3 or frames.shape[2] != 3 or frames.shape[0] < 1:
        raise InvalidInputError(f"expected (T, K, 3) pose frames, got {frames.shape}")
    return frames


def _paired(pred, gt):
    p = _frames_of(pred)
    g = _frames_of(gt)
    if p.shape != g.shape:
        raise InvalidInputError(f"pred/gt shape mismatch: {p.shape} vs {g.shape}")
    return p, g


def mpjpe(pred, gt) -> float:
    """Mean per-joint position error in mm, no alignment."""
    p, g = _paired(pred, gt)
    return float(np.linalg.norm(p - g, axis=2).mean())


def p_mpjpe(pred, gt) -> float:
    """Position error after per-frame similarity alignment of pred onto gt."""
    p, g = _paired(pred, gt)
    aligned = procrustes_align_frames(p, g)
    return float(np.linalg.norm(aligned - g, axis=2).mean(axis=1).mean())


def pck(pred, gt, radius_mm: float = PCK_RADIUS_MM) -> float:
    """Fraction of keypoints within radius_mm of ground truth.

    The boundary is inclusive so radius 0 counts exact matches.
    """
    if radius_mm < 0:
        raise InvalidInputError(f"radius must be >= 0, got {radius_mm}")
    p, g = _paired(pred, gt)
    return float((np.linalg.norm(p - g, axis=2) <= radius_mm).mean())


def mae(pred, gt, topo: Optional[SkeletonTopology] = None) -> float:
    """Mean angle in radians between predicted and ground-truth bone directions.

    Bones with zero length in either pose are excluded (with a warning) since
    their direction is undefined.
    """
    if topo is None:
        topo = default_topology()
    p, g = _paired(pred, gt)
    if p.shape[1] != topo.K:
        raise InvalidInputError(f"pose has {p.shape[1]} keypoints, topology expects {topo.K}")
    parents = np.fromiter((b[0] for b in topo.bones), dtype=int)
    children = np.fromiter((b[1] for b in topo.bones), dtype=int)
    bp = p[:, children] - p[:, parents]
    bg = g[:, children] - g[:, parents]
    np_len = np.linalg.norm(bp, axis=2)
    ng_len = np.linalg.norm(bg, axis=2)
    valid = (np_len > 0) & (ng_len > 0)
    if not np.all(valid):
        warnings.warn(f"excluding {int((~valid).sum())} zero-length bone(s) from angle error")
    if not np.any(valid):
        raise DegenerateInputError("no bones with nonzero length in both poses")
    cos = (bp * bg).sum(axis=2) / np.where(valid, np_len * ng_len, 1.0)
    ang = np.arccos(np.clip(cos, -1.0, 1.0))
    return float(ang[valid].mean())


@dataclass(frozen=True)
class EvalReport:
    """All four protocols over one prediction/ground-truth pair."""

    mpjpe_mm: float
    p_mpjpe_mm: float
    pck150: float
    mae_radians: float
    frames: int
    per_action: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 <= self.pck150 <= 1.0):
            raise InvalidInputError(f"pck fraction {self.pck150} outside [0, 1]")
        for name, v in (("mpjpe", self.mpjpe_mm), ("p_mpjpe", self.p_mpjpe_mm),
                        ("mae", self.mae_radians)):
            if v < 0 or not np.isfinite(v):
                raise InvalidInputError(f"{name} must be finite and >= 0, got {v}")

    def rows(self):
        yield ("all", self)
        for action in sorted(self.per_action):
            yield (action, self.per_action[action])

    def format_text(self) -> str:
        lines = [f"{'action':<12} {'frames':>6} {'mpjpe_mm':>9} {'p_mpjpe_mm':>11} "
                 f"{'pck150':>7} {'mae_rad':>8}"]
        for name, r in self.rows():
            lines.append(f"{name:<12} {r.frames:>6d} {r.mpjpe_mm:>9.3f} "
                         f"{r.p_mpjpe_mm:>11.3f} {r.pck150:>7.4f} {r.mae_radians:>8.5f}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        out = {"mpjpe_mm": self.mpjpe_mm, "p_mpjpe_mm": self.p_mpjpe_mm,
               "pck150": self.pck150, "mae_radians": self.mae_radians,
               "frames": self.frames}
        if self.per_action:
            out["per_action"] = {a: r.as_dict() for a, r in self.per_action.items()}
        return out


def evaluate(pred, gt, topo: Optional[SkeletonTopology] = None) -> EvalReport:
    """Run every protocol; per-action rows when gt carries action tags."""
    if topo is None:
        topo = default_topology()
    p, g = _paired(pred, gt)

    def report(pi, gi):
        return EvalReport(mpjpe(pi, gi), p_mpjpe(pi, gi),
                          pck(pi, gi), mae(pi, gi, topo),
                          frames=pi.shape[0])

    top = report(p, g)
    actions = gt.actions if isinstance(gt, PoseSequence3D) else None
    if actions is None:
        return top
    if len(actions) != p.shape[0]:
        raise InvalidInputError(f"{len(actions)} action tags for {p.shape[0]} frames")
    per_action = {}
    for action in sorted(set(actions)):
        sel = np.fromiter((a == action for a in actions), dtype=bool)
        per_action[action] = report(p[sel], g[sel])
    return EvalReport(top.mpjpe_mm, top.p_mpjpe_mm, top.pck150, top.mae_radians,
                      top.frames, per_action)
