"""Kinematic Chain Space descriptors.

B is the 3 x M bone matrix of a frame (column m = child - parent, mm).
Psi = B^T B is the spatial descriptor: diagonal = squared bone lengths,
off-diagonal (m, n) = |b_m||b_n| cos(angle between bones m and n).
Phi = Psi_{t+i} - Psi_t is the temporal descriptor over interval i.
Both are invariant to rotation and translation of the pose.
"""

from __future__ import annotations

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


def check_window(frames: np.ndarray, incidence: np.ndarray, interval: int) -> None:
    """Raise unless `frames` is (..., T, K, 3) with T > interval >= 1."""
    k = incidence.shape[0]
    if frames.ndim < 3 or frames.shape[-2:] != (k, 3):
        raise InvalidInputError(f"window must be T x {k} x 3 after any batch axes, "
                                f"got {frames.shape}")
    if interval < 1:
        raise InvalidWindowError(f"interval must be >= 1, got {interval}")
    t = frames.shape[-3]
    if t < interval + 1:
        raise InvalidWindowError(f"window length {t} < interval + 1 = {interval + 1}")


def feature_rows(frames: np.ndarray, incidence: np.ndarray, interval: int) -> tuple:
    """(bones, rows) of a T x K x 3 window: the T x 3 x M bone matrices and
    the T x F feature rows [upper(Psi_t) | upper(Phi_t) | coords], fresh
    arrays the caller owns.

    Leading batch axes, (..., T, K, 3), carry through to both results.
    One routine (fill_rows) for discriminator_features and the KCS energy
    model, so the features an energy is fitted on are the ones its loss
    scores.
    """
    check_window(frames, incidence, interval)
    k, m = incidence.shape
    iu = np.triu_indices(m)
    pick = iu[0] * m + iu[1]
    lead = frames.shape[:-2]
    bones, rows = np.empty(lead + (3, m)), np.empty(lead + (2 * len(pick) + 3 * k,))
    fill_rows(frames, incidence, interval, pick, bones, np.empty(lead + (m * m,)), rows,
              0, frames.shape[-3])
    return bones, rows


def _upper_psi(frames: np.ndarray, incidence: np.ndarray, pick: np.ndarray) -> np.ndarray:
    """upper(Psi) of each frame, fresh: the products fill_rows forms frame by frame."""
    bones = np.matmul(np.swapaxes(frames, -1, -2), incidence)
    psi = np.matmul(np.swapaxes(bones, -1, -2), bones)
    return np.take(psi.reshape(psi.shape[:-2] + (-1,)), pick, axis=-1, mode="clip")


def fill_rows(frames: np.ndarray, incidence: np.ndarray, interval: int, pick: np.ndarray,
              bones: np.ndarray, psi: np.ndarray, rows: np.ndarray, a: int, b: int) -> None:
    """Frames a..b-1 of feature_rows(frames, ...), written column block by
    column block into `bones` (..., T, 3, M) and `rows` (..., T, F); `psi`
    (..., T, M * M) is room for Psi, dead once its upper triangle is in rows.
    `pick` holds the flat M * M slots of that upper triangle, row by row.

    Phi of the last `interval` frames before b needs Psi of frames at or
    past b. Those are formed again here, by the same per-frame products, so
    the call reads and writes only frames a..b-1 of the buffers, and calls
    over disjoint frame ranges may run at once.
    """
    m = incidence.shape[1]
    t, i, u = frames.shape[-3], interval, len(pick)
    x = frames[..., a:b, :, :]
    bones_ab = np.matmul(np.swapaxes(x, -1, -2), incidence,
                         out=bones[..., a:b, :, :])                      # ... x n x 3 x M
    psi_ab = psi[..., a:b, :]
    np.matmul(np.swapaxes(bones_ab, -1, -2), bones_ab,
              out=psi_ab.reshape(psi_ab.shape[:-1] + (m, m)))            # ... x n x M x M
    psi_flat, phi_flat = rows[..., :u], rows[..., u:2 * u]
    # mode "clip" (every slot is in range) lets np.take write a C-contiguous `out`
    # directly; this `out` is a strided view of rows, so numpy fills a temporary
    # of the whole block and copies it back
    np.take(psi_ab, pick, axis=-1, mode="clip", out=psi_flat[..., a:b, :])
    end = min(b, t - i)               # frames a..end-1 have a Phi
    own = min(end, b - i)             # a..own-1 diff against Psi inside a..b-1
    if own > a:
        np.subtract(psi_flat[..., a + i:own + i, :], psi_flat[..., a:own, :],
                    out=phi_flat[..., a:own, :])
    lo = max(a, own)
    if end > lo:
        np.subtract(_upper_psi(frames[..., lo + i:end + i, :, :], incidence, pick),
                    psi_flat[..., lo:end, :], out=phi_flat[..., lo:end, :])
    phi_flat[..., max(a, t - i):b, :] = 0.0
    rows[..., a:b, 2 * u:] = x.reshape(x.shape[:-2] + (-1,))


def discriminator_features(window: PoseSequence3D, topo: SkeletonTopology,
                           interval: int = 1) -> np.ndarray:
    """Per-frame [upper(Psi_t) | upper(Phi_t) | coords] feature rows.

    Phi is zero for the last `interval` frames (no future frame to diff
    against); coordinates are the raw 3K mm values of the frame.
    """
    return feature_rows(window.frames, bone_incidence(topo), interval)[1]
