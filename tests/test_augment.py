import numpy as np
import pytest

from poselift.augment import (
    OcclusionConfig,
    apply_occlusions,
    continuous_frame_occlusion,
    continuous_point_occlusion,
    discrete_frame_occlusion,
    discrete_point_occlusion,
    noise_corruption,
)
from poselift.errors import ConfigError, InvalidInputError
from poselift.skeleton import PoseSequence2D


def make_seq(rng, t, k, masked_frac=0.0):
    frames = rng.random((t, k, 2))
    conf = rng.uniform(0.3, 1.0, size=(t, k))
    mask = rng.random((t, k)) < masked_frac
    frames[mask] = 0.0
    conf[mask] = 0.0
    return PoseSequence2D(frames, confidence=conf, mask=mask)


def test_config_validation():
    with pytest.raises(ConfigError):
        OcclusionConfig(p1=1.5)
    with pytest.raises(ConfigError):
        OcclusionConfig(l=1)


def test_point_occlusion_identity_at_zero(topo):
    rng = np.random.default_rng(0)
    seq = make_seq(rng, 20, topo.K)
    out = discrete_point_occlusion(seq, OcclusionConfig(p1=0.0))
    assert np.array_equal(out.frames, seq.frames)
    assert np.array_equal(out.mask, seq.mask)


def test_point_occlusion_all_at_one(topo):
    rng = np.random.default_rng(1)
    seq = make_seq(rng, 10, topo.K)
    out = discrete_point_occlusion(seq, OcclusionConfig(p1=1.0))
    assert out.mask.all()
    assert np.all(out.frames == 0.0) and np.all(out.confidence == 0.0)


def test_point_occlusion_rate(topo):
    rng = np.random.default_rng(2)
    seq = make_seq(rng, 1000, topo.K)  # 17k entries
    out = discrete_point_occlusion(seq, OcclusionConfig(p1=0.2), rng)
    rate = out.mask.mean()
    assert abs(rate - 0.2) < 0.02


def test_frame_occlusion_masks_whole_frames(topo):
    rng = np.random.default_rng(3)
    seq = make_seq(rng, 200, topo.K)
    out = discrete_frame_occlusion(seq, OcclusionConfig(p2=0.3), rng)
    per_frame = out.mask.sum(axis=1)
    assert set(np.unique(per_frame)) <= {0, topo.K}
    assert 0 < per_frame.sum()


def test_frame_occlusion_identity_at_zero(topo):
    rng = np.random.default_rng(4)
    seq = make_seq(rng, 30, topo.K)
    out = discrete_frame_occlusion(seq, OcclusionConfig(p2=0.0))
    assert not out.mask.any()


def test_continuous_point_run_length_bounds(topo):
    rng = np.random.default_rng(5)
    cfg = OcclusionConfig(p3=1.0, l=15)
    for _ in range(20):
        seq = make_seq(rng, 60, topo.K)
        out = continuous_point_occlusion(seq, cfg, rng)
        for k in range(topo.K):
            col = out.mask[:, k].astype(int)
            runs = np.diff(np.flatnonzero(np.diff(np.r_[0, col, 0])))[::2]
            assert len(runs) == 1
            assert 2 <= runs[0] <= 15


def test_continuous_point_short_sequence_error(topo):
    seq = PoseSequence2D(np.zeros((1, topo.K, 2)))
    with pytest.raises(InvalidInputError):
        continuous_point_occlusion(seq, OcclusionConfig())


def test_continuous_frame_single_block(topo):
    rng = np.random.default_rng(6)
    for _ in range(30):
        seq = make_seq(rng, 50, topo.K)
        out = continuous_frame_occlusion(seq, OcclusionConfig(l=12), rng)
        rows = out.mask.all(axis=1).astype(int)
        runs = np.diff(np.flatnonzero(np.diff(np.r_[0, rows, 0])))[::2]
        assert len(runs) == 1
        assert 2 <= runs[0] <= 12
        assert out.mask.sum() == runs[0] * topo.K


def test_continuous_frame_tail_placement(topo):
    rng = np.random.default_rng(7)
    seq = make_seq(rng, 40, topo.K)
    out = continuous_frame_occlusion(seq, OcclusionConfig(l=10), rng, at_tail=True)
    rows = out.mask.all(axis=1)
    length = rows.sum()
    assert rows[-length:].all() and not rows[:-length].any()


def test_swap_involution(topo):
    # applying the same pair swap twice restores the input
    rng = np.random.default_rng(8)
    seq = make_seq(rng, 5, topo.K)
    l, r = topo.left_right_pairs()[0]
    swapped = seq.copy()
    swapped.frames[:, [l, r]] = swapped.frames[:, [r, l]]
    back = swapped.copy()
    back.frames[:, [l, r]] = back.frames[:, [r, l]]
    assert np.array_equal(back.frames, seq.frames)


def test_noise_identity_at_zero(topo):
    rng = np.random.default_rng(9)
    seq = make_seq(rng, 20, topo.K)
    out = noise_corruption(seq, OcclusionConfig(shift_prob=0.0, swap_prob=0.0), topo)
    assert np.array_equal(out.frames, seq.frames)


def test_noise_shift_bounded_and_conf_unchanged(topo):
    rng = np.random.default_rng(10)
    seq = make_seq(rng, 50, topo.K)
    cfg = OcclusionConfig(shift_prob=1.0, swap_prob=0.0)
    out = noise_corruption(seq, cfg, topo, np.random.default_rng(0))
    deltas = np.linalg.norm(out.frames - seq.frames, axis=2)
    assert deltas.max() <= 10.0 / 256.0 + 1e-12
    assert np.array_equal(out.confidence, seq.confidence)


def test_noise_skips_masked_entries(topo):
    rng = np.random.default_rng(11)
    seq = make_seq(rng, 30, topo.K, masked_frac=0.4)
    cfg = OcclusionConfig(shift_prob=1.0, swap_prob=1.0)
    out = noise_corruption(seq, cfg, topo, np.random.default_rng(1))
    assert np.all(out.frames[out.mask] == 0.0)
    assert np.all(out.confidence[out.mask] == 0.0)


def test_pipeline_identity_at_zero_probs(topo):
    rng = np.random.default_rng(12)
    seq = make_seq(rng, 40, topo.K)
    cfg = OcclusionConfig(p1=0.0, p2=0.0, p3=0.0, frame_block_prob=0.0,
                          shift_prob=0.0, swap_prob=0.0)
    out = apply_occlusions(seq, cfg, topo)
    assert np.array_equal(out.frames, seq.frames)
    assert np.array_equal(out.confidence, seq.confidence)
    assert np.array_equal(out.mask, seq.mask)


def test_pipeline_reproducible(topo):
    rng = np.random.default_rng(13)
    seq = make_seq(rng, 64, topo.K)
    cfg = OcclusionConfig(seed=77)
    a = apply_occlusions(seq, cfg, topo)
    b = apply_occlusions(seq, cfg, topo)
    assert np.array_equal(a.frames, b.frames)
    assert np.array_equal(a.confidence, b.confidence)
    assert np.array_equal(a.mask, b.mask)


def test_pipeline_masked_representation(topo):
    rng = np.random.default_rng(14)
    seq = make_seq(rng, 64, topo.K)
    out = apply_occlusions(seq, OcclusionConfig(seed=5), topo)
    assert np.all(out.frames[out.mask] == 0.0)
    assert np.all(out.confidence[out.mask] == 0.0)
    assert out.mask.sum() > 0


def test_run_length_distribution_uniform(topo):
    # smaller-scale version of the acceptance chi-square check
    rng = np.random.default_rng(15)
    cfg = OcclusionConfig(p3=1.0, l=12)
    counts = np.zeros(11)  # lengths 2..12
    seq = make_seq(rng, 200, topo.K)
    for _ in range(100):
        out = continuous_point_occlusion(seq, cfg, rng)
        for k in range(topo.K):
            col = out.mask[:, k].astype(int)
            runs = np.diff(np.flatnonzero(np.diff(np.r_[0, col, 0])))[::2]
            counts[runs[0] - 2] += 1
    expected = counts.sum() / 11
    chi2 = ((counts - expected) ** 2 / expected).sum()
    # chi-square with 10 dof, 0.001 upper tail ~ 29.6
    assert chi2 < 29.6
