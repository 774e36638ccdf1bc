"""Kinematic Chain Space descriptors.

B is the 3 x M bone matrix of a frame (column m = child - parent, mm).
Psi = B^T B is the spatial descriptor: diagonal = squared bone lengths,
off-diagonal (m, n) = |b_m||b_n| cos(angle between bones m and n).
Phi = Psi_{t+i} - Psi_t is the temporal descriptor over interval i.
Both are invariant to rotation and translation of the pose.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError, InvalidWindowError
from .skeleton import PoseSequence3D, SkeletonTopology


def bone_incidence(topo: SkeletonTopology) -> np.ndarray:
    """K x M matrix C with frame.T @ C = bone matrix (child minus parent)."""
    c = np.zeros((topo.K, topo.M))
    for m, (p, ch) in enumerate(topo.bones):
        c[ch, m] = 1.0
        c[p, m] = -1.0
    return c


def bone_matrix(frame: np.ndarray, topo: SkeletonTopology) -> np.ndarray:
    """3 x M bone vectors of one K x 3 frame."""
    frame = np.asarray(frame, dtype=np.float64)
    return frame.T @ bone_incidence(topo)


def kcs(frame: np.ndarray, topo: SkeletonTopology) -> np.ndarray:
    b = bone_matrix(frame, topo)
    return b.T @ b


def tkcs(frame_t: np.ndarray, frame_t_plus_i: np.ndarray, topo: SkeletonTopology) -> np.ndarray:
    return kcs(frame_t_plus_i, topo) - kcs(frame_t, topo)


def scratch(work, name: str, shape: tuple) -> np.ndarray:
    """np.empty(shape), or, given a `work` dict, a view of the buffer it keeps
    under `name` (grown when too small), so that repeated calls reuse memory."""
    if work is None:
        return np.empty(shape)
    size = math.prod(shape)
    buf = work.get(name)
    if buf is None or buf.size < size:
        buf = work[name] = np.empty(size)
    return buf[:size].reshape(shape)


def feature_rows(frames: np.ndarray, incidence: np.ndarray, interval: int,
                 iu: tuple = None, work: dict = None) -> tuple:
    """(bones, rows) of a T x K x 3 window: the T x 3 x M bone matrices and
    the T x F feature rows [upper(Psi_t) | upper(Phi_t) | coords], filled
    column block by column block into one array: a fresh one the caller
    owns, or the `work` buffer of that name (see scratch).

    Leading batch axes, (..., T, K, 3), carry through to both results.
    One routine for discriminator_features and the KCS energy model, so
    the features an energy is fitted on are the ones its loss scores.
    `iu` is np.triu_indices(M), for callers that keep it between calls.
    """
    k, m = incidence.shape
    if frames.ndim < 3 or frames.shape[-2:] != (k, 3):
        raise InvalidInputError(f"window must be T x {k} x 3 after any batch axes, "
                                f"got {frames.shape}")
    if interval < 1:
        raise InvalidWindowError(f"interval must be >= 1, got {interval}")
    t = frames.shape[-3]
    if t < interval + 1:
        raise InvalidWindowError(f"window length {t} < interval + 1 = {interval + 1}")
    if iu is None:
        iu = np.triu_indices(m)
    lead = frames.shape[:-2]
    bones = np.matmul(np.swapaxes(frames, -1, -2), incidence,
                      out=scratch(work, "bones", lead + (3, m)))          # ... x T x 3 x M
    psi = np.matmul(np.swapaxes(bones, -1, -2), bones,
                    out=scratch(work, "psi", lead + (m, m)))              # ... x T x M x M
    u = len(iu[0])
    rows = scratch(work, "rows", lead + (2 * u + 3 * k,))
    psi_flat, phi_flat = rows[..., :u], rows[..., u:2 * u]
    np.take(psi.reshape(psi.shape[:-2] + (m * m,)), iu[0] * m + iu[1], axis=-1,
            out=psi_flat)
    np.subtract(psi_flat[..., interval:, :], psi_flat[..., :t - interval, :],
                out=phi_flat[..., :t - interval, :])
    phi_flat[..., t - interval:, :] = 0.0
    rows[..., 2 * u:] = frames.reshape(frames.shape[:-2] + (-1,))
    return bones, rows


def discriminator_features(window: PoseSequence3D, topo: SkeletonTopology,
                           interval: int = 1) -> np.ndarray:
    """Per-frame [upper(Psi_t) | upper(Phi_t) | coords] feature rows.

    Phi is zero for the last `interval` frames (no future frame to diff
    against); coordinates are the raw 3K mm values of the frame.
    """
    return feature_rows(window.frames, bone_incidence(topo), interval)[1]
