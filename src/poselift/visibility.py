"""Cylinder-man visibility under orthographic viewing.

The body is approximated by ten cylinders (head, torso, eight limb
segments). A keypoint P is tested against every cylinder whose projected
diametral cross-section rectangle contains the projection of P; each such
cylinder contributes an Iverson bracket [(P - P_i) . n > 0] with n the
rectangle normal pointing toward the camera (negative z). The hard label
is the product of brackets.

Camera convention: at z = -infinity looking toward +z, projection drops z,
so "in front" means smaller z. The rectangle plane contains the bone axis
and the in-image lateral direction w = unit(u x z_hat), which maximizes the
rectangle's projected area; its normal n = unit(u x w) has n_z <= 0 by
construction (n_z = -(u_x^2 + u_y^2) before normalization).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TopologyError
from .skeleton import PoseSequence3D, SkeletonTopology, vector_norm

_EPS_GEOM = 1e-9
CHUNK_FRAMES = 256      # frames labelled per pass: about 13.5 KB of tests per frame


@dataclass
class VisibilityReport:
    hard: np.ndarray        # K, True = visible


def _cylinder_arrays(frames: np.ndarray, topo: SkeletonTopology):
    """Cylinders of T x K x 3 frames as arrays over (T, C).

    Returns (tops T x C x 3, bottoms T x C x 3, radii T x C, degenerate T x C).
    """
    if frames.ndim != 3 or frames.shape[1:] != (topo.K, 3):
        raise TopologyError(f"pose frame shape {frames.shape[1:]} does not match K={topo.K}")
    if not topo.cylinders:
        raise TopologyError("topology defines no cylinders")
    neck, sh_l, sh_r = topo.torso
    torso_r = 0.5 * (vector_norm(frames[:, sh_l] - frames[:, neck])
                     + vector_norm(frames[:, sh_r] - frames[:, neck]))
    torso = np.array([spec.radius_mm is None for spec in topo.cylinders])
    fixed = np.array([0.0 if spec.radius_mm is None else spec.radius_mm
                      for spec in topo.cylinders])
    radii = np.where(torso, torso_r[:, None], fixed)
    tops = frames[:, [spec.top for spec in topo.cylinders]]
    bottoms = frames[:, [spec.bottom for spec in topo.cylinders]]
    degenerate = (vector_norm(bottoms - tops) < _EPS_GEOM) | (radii < _EPS_GEOM)
    return tops, bottoms, radii, degenerate


def _occlusion_tests(frames: np.ndarray, topo: SkeletonTopology):
    """Gate and plane tests of every keypoint against every cylinder.

    frames is T x K x 3. Returns (gated, dist), both T x K x C: gated is
    True where the keypoint projects inside the cylinder's rectangle (never
    for a keypoint that defines the cylinder), dist is the keypoint's signed
    distance in mm from the rectangle's plane, positive toward the camera.
    """
    tops, bottoms, radii, degenerate = _cylinder_arrays(frames, topo)
    u = bottoms - tops
    w = np.stack([u[..., 1], -u[..., 0], np.zeros(u.shape[:-1])], axis=-1)  # u x z_hat
    wnorm = np.linalg.norm(w, axis=-1)
    # edge-on axis (parallel to viewing direction) projects to a segment
    # and gates nothing; degenerate cylinders likewise
    valid = (wnorm > _EPS_GEOM) & ~degenerate
    w = w / np.where(wnorm > _EPS_GEOM, wnorm, 1.0)[..., None]
    n = np.cross(u, w)
    nnorm = np.linalg.norm(n, axis=-1)
    n = n / np.where(nnorm > _EPS_GEOM, nnorm, 1.0)[..., None]

    q2d = frames[:, :, None, :2] - tops[:, None, :, :2]       # T x K x C x 2
    e = u[:, None, :, :2]                                     # T x 1 x C x 2
    w2 = w[:, None, :, :2]
    det = e[..., 0] * w2[..., 1] - e[..., 1] * w2[..., 0]
    safe = np.where(np.abs(det) > _EPS_GEOM, det, 1.0)
    a = (q2d[..., 0] * w2[..., 1] - q2d[..., 1] * w2[..., 0]) / safe
    b = (e[..., 0] * q2d[..., 1] - e[..., 1] * q2d[..., 0]) / safe
    gated = ((np.abs(det) > _EPS_GEOM)
             & (a >= 0.0) & (a <= 1.0)
             & (np.abs(b) <= radii[:, None, :])
             & valid[:, None, :])
    # a keypoint is never occluded by a cylinder it defines
    cyl = np.arange(len(topo.cylinders))
    gated[:, [spec.top for spec in topo.cylinders], cyl] = False
    gated[:, [spec.bottom for spec in topo.cylinders], cyl] = False
    dist = np.einsum("tkcd,tcd->tkc", frames[:, :, None, :] - tops[:, None, :, :], n)
    return gated, dist


def sequence_visibility(pose_seq: PoseSequence3D, topo: SkeletonTopology) -> np.ndarray:
    """T x K boolean visibility (True = visible) over a sequence.

    Frames are labelled CHUNK_FRAMES at a time, so the T x K x C tests of
    a long sequence are never held at once; each frame's label depends on
    that frame alone.
    """
    frames = pose_seq.frames
    hard = np.empty(frames.shape[:2], dtype=bool)
    for start in range(0, len(frames), CHUNK_FRAMES):
        gated, dist = _occlusion_tests(frames[start: start + CHUNK_FRAMES], topo)
        np.all((dist > 0.0) | ~gated, axis=2, out=hard[start: start + CHUNK_FRAMES])
    return hard


def frame_visibility(frame: np.ndarray, topo: SkeletonTopology) -> VisibilityReport:
    """Hard visibility of every keypoint of one K x 3 frame: sequence_visibility at T = 1."""
    return VisibilityReport(sequence_visibility(PoseSequence3D(np.asarray(frame)[None]), topo)[0])
