"""Training-time occlusion schemes and 2D detection noise.

Masked entries are represented in place as (coords = 0, conf = 0, mask =
True); frames are never dropped since the temporal model consumes
fixed-shape windows. The composed pipeline applies the schemes in the
fixed order point -> frame -> continuous-point -> continuous-frame ->
noise, and is the identity when every probability is zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidInputError
from .skeleton import CROP_PX, PoseSequence2D, SkeletonTopology

SHIFT_PX = 10.0                  # largest detector-noise shift, crop pixels


@dataclass(frozen=True)
class OcclusionConfig:
    p1: float = 0.2              # discrete point mask probability
    p2: float = 0.2              # discrete frame mask probability
    p3: float = 0.2              # continuous per-track mask probability
    l: int = 40                  # max contiguous mask length, frames
    frame_block_prob: float = 0.2  # gate for the continuous frame block in the pipeline
    shift_prob: float = 0.1
    swap_prob: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("p1", "p2", "p3", "frame_block_prob", "shift_prob", "swap_prob"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"{name}={v} outside [0,1]")
        if self.l < 2:
            raise ConfigError("l must be >= 2")
        if self.seed < 0:
            raise ConfigError(f"seed={self.seed} must be >= 0")


def _rng_for(cfg: OcclusionConfig, rng):
    return np.random.default_rng(cfg.seed) if rng is None else rng


def _apply_mask(seq: PoseSequence2D, mask: np.ndarray) -> PoseSequence2D:
    out = seq.copy()
    full = out.mask | mask
    out.frames[full] = 0.0
    out.confidence[full] = 0.0
    out.mask = full
    return out


def discrete_point_occlusion(seq: PoseSequence2D, cfg: OcclusionConfig,
                             rng=None) -> PoseSequence2D:
    """Each (frame, keypoint) masked independently with probability p1."""
    rng = _rng_for(cfg, rng)
    draw = rng.random((seq.T, seq.K)) < cfg.p1
    return _apply_mask(seq, draw)


def discrete_frame_occlusion(seq: PoseSequence2D, cfg: OcclusionConfig,
                             rng=None) -> PoseSequence2D:
    """Whole frames masked i.i.d. with probability p2."""
    rng = _rng_for(cfg, rng)
    rows = rng.random(seq.T) < cfg.p2
    return _apply_mask(seq, np.repeat(rows[:, None], seq.K, axis=1))


def continuous_point_occlusion(seq: PoseSequence2D, cfg: OcclusionConfig,
                               rng=None) -> PoseSequence2D:
    """Each keypoint track gets, with probability p3, one contiguous mask of
    uniform random length in [2, min(l, T)] at uniform random position."""
    if seq.T < 2:
        raise InvalidInputError("sequence shorter than 2 frames")
    rng = _rng_for(cfg, rng)
    mask = np.zeros((seq.T, seq.K), dtype=bool)
    lmax = min(cfg.l, seq.T)
    for k in range(seq.K):
        if rng.random() >= cfg.p3:
            continue
        length = int(rng.integers(2, lmax + 1))
        start = int(rng.integers(0, seq.T - length + 1))
        mask[start:start + length, k] = True
    return _apply_mask(seq, mask)


def continuous_frame_occlusion(seq: PoseSequence2D, cfg: OcclusionConfig,
                               rng=None, at_tail: bool = False) -> PoseSequence2D:
    """Mask exactly one contiguous block of whole frames.

    at_tail pins the block to the window end: no future observations, the
    pure forecasting (human dynamics) setting.
    """
    if seq.T < 2:
        raise InvalidInputError("sequence shorter than 2 frames")
    rng = _rng_for(cfg, rng)
    lmax = min(cfg.l, seq.T)
    length = int(rng.integers(2, lmax + 1))
    start = seq.T - length if at_tail else int(rng.integers(0, seq.T - length + 1))
    mask = np.zeros((seq.T, seq.K), dtype=bool)
    mask[start:start + length] = True
    return _apply_mask(seq, mask)


def noise_corruption(seq: PoseSequence2D, cfg: OcclusionConfig,
                     topo: SkeletonTopology = None, rng=None) -> PoseSequence2D:
    """Detector-style 2D noise on observed entries.

    Per frame, with swap_prob, one random left/right pair exchanges
    coordinates; per keypoint, with shift_prob, the coordinate moves by up
    to SHIFT_PX crop pixels (uniform direction, uniform radius). Confidence is
    unchanged; masked entries are skipped (nothing was detected there).
    """
    rng = _rng_for(cfg, rng)
    out = seq.copy()
    pairs = topo.left_right_pairs() if topo is not None else ()
    for t in range(out.T):
        if pairs and rng.random() < cfg.swap_prob:
            l, r = pairs[rng.integers(0, len(pairs))]
            if not (out.mask[t, l] or out.mask[t, r]):
                out.frames[t, [l, r]] = out.frames[t, [r, l]]
        shift_draw = rng.random(out.K) < cfg.shift_prob
        for k in np.where(shift_draw & ~out.mask[t])[0]:
            angle = rng.uniform(0.0, 2.0 * np.pi)
            radius = rng.uniform(0.0, SHIFT_PX) / CROP_PX
            out.frames[t, k] += radius * np.array([np.cos(angle), np.sin(angle)])
    return out


def apply_occlusions(seq: PoseSequence2D, cfg: OcclusionConfig,
                     topo: SkeletonTopology = None, rng=None) -> PoseSequence2D:
    """The full pipeline in fixed order; one RNG stream end to end.

    The continuous frame block fires with probability frame_block_prob;
    the block position draw is consumed either way to keep the stream
    aligned across configs.
    """
    rng = _rng_for(cfg, rng)
    out = discrete_point_occlusion(seq, cfg, rng)
    out = discrete_frame_occlusion(out, cfg, rng)
    out = continuous_point_occlusion(out, cfg, rng)
    gate = rng.random() < cfg.frame_block_prob
    blocked = continuous_frame_occlusion(out, cfg, rng)
    if gate:
        out = blocked
    out = noise_corruption(out, cfg, topo, rng)
    return out
