"""Skeleton topology, pose containers, projection, rotation, Procrustes.

Conventions used everywhere downstream:
  - 3D coordinates in mm, root-relative (pelvis at the origin of each frame).
  - 2D coordinates normalized to the person crop, [0,1] on both axes.
  - Pixel-valued settings (noise, shifts, the ISO soft threshold) are pixels of the crop.
  - The camera sits at z = -infinity looking toward +z, so orthographic
    projection just drops z and "toward the camera" means decreasing z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateInputError, InvalidInputError, TopologyError

CROP_PX = 256.0  # crop edge in pixels: a pixel setting / CROP_PX is in crop units


@dataclass(frozen=True)
class CylinderSpec:
    """One occluding body cylinder: its axis runs between two keypoints, and its
    radius is fixed or, under the torso rule, the pose's mean distance from
    the topology's torso neck to its two shoulders."""

    name: str
    top: int
    bottom: int
    radius_mm: Optional[float]  # None = torso rule


@dataclass(frozen=True)
class SkeletonTopology:
    """A keypoint tree rooted at `root_name`, and the body cylinders that occlude.

    Building one checks that the bones form a tree: every keypoint but the
    root has one parent, and a walk from the root reaches every bone. That
    walk's order is kept as `bone_order`, the bone indices parent first:
    each bone comes after the bone that places its parent keypoint, so
    forward kinematics can place the bones in that order whatever order
    the bone lines come in. The torso's three keypoints and every
    cylinder's ends must be keypoint indices.
    """

    keypoint_names: tuple
    bones: tuple            # (parent_index, child_index) pairs
    torso: tuple            # (neck, shoulder_l, shoulder_r) indices, for the torso rule
    cylinders: tuple = ()   # CylinderSpec list, the ten-part body decomposition
    root_name: str = "pelvis"
    bone_order: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = len(self.keypoint_names)
        if len(set(self.keypoint_names)) != k:
            raise TopologyError("duplicate keypoint names")
        for p, c in self.bones:
            if not (0 <= p < k and 0 <= c < k):
                raise TopologyError(f"bone ({p},{c}) out of range for K={k}")
        if len(self.torso) != 3 or not all(0 <= i < k for i in self.torso):
            raise TopologyError(f"torso {self.torso} is not three keypoint indices below "
                                f"K={k}")
        # tree check: every non-root keypoint has exactly one parent, and the
        # walk from the root, which is the bone order, reaches every bone
        if self.root_name not in self.keypoint_names:
            raise TopologyError(f"root keypoint {self.root_name!r} missing")
        root = self.keypoint_names.index(self.root_name)
        parent = {c: p for p, c in self.bones}
        if root in parent:
            raise TopologyError("root keypoint has a parent")
        if len(parent) != len(self.bones):
            raise TopologyError("keypoint with two parents; bone graph is not a tree")
        order = [m for m, (p, _) in enumerate(self.bones) if p == root]
        for m in order:                 # the list grows as the walk goes
            order += [n for n, (p, _) in enumerate(self.bones) if p == self.bones[m][1]]
        if len(order) < len(self.bones):
            # a keypoint off the walk hangs from a parentless keypoint or a cycle
            stray = min(set(parent) - {self.bones[m][1] for m in order})
            raise TopologyError(f"keypoint {self.keypoint_names[stray]} not connected to root")
        object.__setattr__(self, "bone_order", tuple(order))
        for spec in self.cylinders:
            for idx in (spec.top, spec.bottom):
                if not (0 <= idx < k):
                    raise TopologyError(f"cylinder {spec.name} references keypoint {idx} out of range")
            if spec.radius_mm is not None and spec.radius_mm <= 0:
                raise TopologyError(f"cylinder {spec.name} radius must be > 0")

    @property
    def K(self) -> int:
        return len(self.keypoint_names)

    @property
    def M(self) -> int:
        return len(self.bones)

    @property
    def root_index(self) -> int:
        return self.keypoint_names.index(self.root_name)

    def index(self, name: str) -> int:
        try:
            return self.keypoint_names.index(name)
        except ValueError:
            raise TopologyError(f"unknown keypoint {name!r}") from None

    def left_right_pairs(self) -> tuple:
        """(left_index, right_index) pairs derived from _l/_r name suffixes."""
        pairs = []
        for i, name in enumerate(self.keypoint_names):
            if name.endswith("_l"):
                other = name[:-2] + "_r"
                if other in self.keypoint_names:
                    pairs.append((i, self.keypoint_names.index(other)))
        return tuple(pairs)


@dataclass
class PoseSequence3D:
    """T x K x 3 keypoint trajectories in mm."""

    frames: np.ndarray
    visibility: Optional[np.ndarray] = None  # T x K, True = visible
    root_relative: bool = True
    actions: Optional[list] = None           # per-frame action tag, optional

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 3 or self.frames.shape[2] != 3:
            raise InvalidInputError(f"3D frames must be T x K x 3, got {self.frames.shape}")
        if not np.all(np.isfinite(self.frames)):
            raise InvalidInputError("non-finite 3D coordinates")
        if self.visibility is not None:
            self.visibility = np.asarray(self.visibility, dtype=bool)
            if self.visibility.shape != self.frames.shape[:2]:
                raise InvalidInputError("visibility shape must be T x K")

    @property
    def T(self) -> int:
        return self.frames.shape[0]

    @property
    def K(self) -> int:
        return self.frames.shape[1]

    def copy(self) -> "PoseSequence3D":
        return PoseSequence3D(
            self.frames.copy(),
            None if self.visibility is None else self.visibility.copy(),
            self.root_relative,
            None if self.actions is None else list(self.actions),
        )


@dataclass
class PoseSequence2D:
    """T x K x 2 detections in normalized crop units with confidence + mask.

    mask True means masked/unobserved; masked entries carry zero coordinates
    and zero confidence. scale_mm, when known, is the edge length of the crop
    in mm (x_norm = x_mm / scale_mm + 0.5 under orthographic viewing).
    """

    frames: np.ndarray
    confidence: Optional[np.ndarray] = None
    mask: Optional[np.ndarray] = None
    scale_mm: Optional[float] = None
    actions: Optional[list] = None

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 3 or self.frames.shape[2] != 2:
            raise InvalidInputError(f"2D frames must be T x K x 2, got {self.frames.shape}")
        if not np.all(np.isfinite(self.frames)):
            raise InvalidInputError("non-finite 2D coordinates")
        t, k = self.frames.shape[:2]
        if self.confidence is None:
            self.confidence = np.ones((t, k), dtype=np.float64)
        else:
            self.confidence = np.asarray(self.confidence, dtype=np.float64)
        if self.mask is None:
            self.mask = np.zeros((t, k), dtype=bool)
        else:
            self.mask = np.asarray(self.mask, dtype=bool)
        if self.confidence.shape != (t, k) or self.mask.shape != (t, k):
            raise InvalidInputError("confidence/mask shape must be T x K")
        if not np.all(np.isfinite(self.confidence)):
            raise InvalidInputError("non-finite confidence")
        if np.any(self.confidence < 0) or np.any(self.confidence > 1):
            raise InvalidInputError("confidence outside [0,1]")
        if np.any(self.confidence[self.mask] != 0):
            raise InvalidInputError("masked entries must carry confidence 0")
        if self.scale_mm is not None and not (isinstance(self.scale_mm, Real)
                                              and 0 < self.scale_mm < math.inf):
            raise InvalidInputError(f"scale_mm = {self.scale_mm!r} is not a finite number > 0")

    @property
    def T(self) -> int:
        return self.frames.shape[0]

    @property
    def K(self) -> int:
        return self.frames.shape[1]

    def copy(self) -> "PoseSequence2D":
        return PoseSequence2D(
            self.frames.copy(),
            self.confidence.copy(),
            self.mask.copy(),
            self.scale_mm,
            None if self.actions is None else list(self.actions),
        )


@dataclass(frozen=True)
class RotationAugment:
    """Euler angles (radians) about x, y, z; composed as Rz(gamma) Ry(beta) Rx(alpha)."""

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0

    # sampling ranges for augmentation draws
    BETA_RANGE = (-np.pi, np.pi)
    SIDE_RANGE = (-0.2 * np.pi, 0.2 * np.pi)

    @classmethod
    def sample(cls, rng: np.random.Generator) -> "RotationAugment":
        a = rng.uniform(*cls.SIDE_RANGE)
        b = rng.uniform(*cls.BETA_RANGE)
        g = rng.uniform(*cls.SIDE_RANGE)
        return cls(alpha=a, beta=b, gamma=g)

    def matrix(self) -> np.ndarray:
        return rotation_matrix(self.alpha, self.beta, self.gamma)


def rotation_matrix(alpha, beta, gamma) -> np.ndarray:
    """R = Rz(gamma) @ Ry(beta) @ Rx(alpha).

    The angles broadcast against each other; array angles of shape S give
    an S x 3 x 3 stack, scalars a single 3 x 3 matrix.
    """
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    cg, sg = np.cos(gamma), np.sin(gamma)
    m = np.zeros(np.broadcast(ca, cb, cg).shape + (3, 3, 3))
    rx, ry, rz = m[..., 0, :, :], m[..., 1, :, :], m[..., 2, :, :]
    rx[..., 0, 0] = 1.0
    rx[..., 1, 1], rx[..., 1, 2], rx[..., 2, 1], rx[..., 2, 2] = ca, -sa, sa, ca
    ry[..., 1, 1] = 1.0
    ry[..., 0, 0], ry[..., 0, 2], ry[..., 2, 0], ry[..., 2, 2] = cb, sb, -sb, cb
    rz[..., 2, 2] = 1.0
    rz[..., 0, 0], rz[..., 0, 1], rz[..., 1, 0], rz[..., 1, 1] = cg, -sg, sg, cg
    return rz @ ry @ rx


def vector_norm(v: np.ndarray) -> np.ndarray:
    """Euclidean length over the last axis of a stack of vectors.

    Each length is the square root of the vector's dot product, as
    np.linalg.norm computes it for a single vector, so a stack of lengths is
    bit-equal to one np.linalg.norm call per vector; an axis reduction or
    einsum sums in another order and can differ in the last bit.
    """
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def rotate_pose(pose3d: PoseSequence3D, r: RotationAugment) -> PoseSequence3D:
    """Rotate every keypoint of every frame about the origin."""
    rm = r.matrix()
    out = pose3d.copy()
    out.frames = pose3d.frames @ rm.T
    return out


def orthographic_project(pose3d: PoseSequence3D) -> PoseSequence2D:
    """Drop z. Output keeps mm units; confidence 1, masks clear.

    Use project_to_crop to land in normalized crop units.
    """
    if not np.all(np.isfinite(pose3d.frames)):
        raise InvalidInputError("non-finite 3D coordinates")
    return PoseSequence2D(pose3d.frames[:, :, :2].copy(),
                          actions=None if pose3d.actions is None else list(pose3d.actions))


def project_to_crop(pose3d: PoseSequence3D, scale_mm: float) -> PoseSequence2D:
    """Orthographic projection into [0,1] crop units, crop centered on the origin."""
    if scale_mm <= 0:
        raise InvalidInputError("scale_mm must be > 0")
    flat = orthographic_project(pose3d)
    out = PoseSequence2D(flat.frames / scale_mm + 0.5, scale_mm=scale_mm,
                         actions=flat.actions)
    return out


def procrustes_align(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Similarity-align a single K x 3 pose to gt: returns s R pred + t.

    Least-squares over proper rotations (det = +1), positive scale, translation.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape or pred.ndim != 2 or pred.shape[1] != 3:
        raise InvalidInputError(f"pose shapes must match and be K x 3, got {pred.shape} vs {gt.shape}")
    return procrustes_align_frames(pred[None], gt[None])[0]


def procrustes_align_frames(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """procrustes_align of every frame of T x K x 3 pred onto the same frame of gt.

    One stacked SVD fits all frames; each frame keeps its own rules: a gt
    frame with zero spread raises DegenerateInputError, a collapsed
    prediction lands on the gt centroid, and a non-positive scale falls
    back to 1.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape or pred.ndim != 3 or pred.shape[2] != 3:
        raise InvalidInputError(f"pose shapes must match and be T x K x 3, got {pred.shape} vs {gt.shape}")
    t_len = pred.shape[0]
    mu_p = pred.mean(axis=1)
    mu_g = gt.mean(axis=1)
    xp = pred - mu_p[:, None]
    xg = gt - mu_g[:, None]
    norm_g = np.sqrt((xg ** 2).reshape(t_len, -1).sum(axis=1))
    if np.any(norm_g < 1e-9):
        raise DegenerateInputError("ground-truth pose has zero spread")
    norm_p = np.sqrt((xp ** 2).reshape(t_len, -1).sum(axis=1))
    # collapsed prediction: best fit puts every point at the gt centroid
    collapsed = norm_p < 1e-9
    m = xp.transpose(0, 2, 1) @ xg  # 3x3 cross-covariances (unnormalized)
    u, s, vt = np.linalg.svd(m)
    v, ut = vt.transpose(0, 2, 1), u.transpose(0, 2, 1)
    d = np.ones((t_len, 3))
    d[:, 2] = np.sign(np.linalg.det(v @ ut))
    diag = np.zeros((t_len, 3, 3))
    diag[:, [0, 1, 2], [0, 1, 2]] = d
    rot = v @ diag @ ut
    # each frame's norm is squared as a Python float, i.e. by C pow(): that
    # differs from x * x in the last bit on about one value in a thousand,
    # and a one-frame fit has always squared a float64 scalar this way
    norm_p_sq = np.power(norm_p.astype(object), 2).astype(np.float64)
    scale = (s * d).sum(axis=1) / np.where(collapsed, 1.0, norm_p_sq)
    # reflection-dominated degenerate case; fall back to unscaled rotation
    scale = np.where(scale <= 0, 1.0, scale)[:, None, None]
    shift = mu_g - ((scale * rot) @ mu_p[:, :, None])[..., 0]
    aligned = scale * (rot @ pred.transpose(0, 2, 1)).transpose(0, 2, 1) + shift[:, None]
    return np.where(collapsed[:, None, None], mu_g[:, None], aligned)
