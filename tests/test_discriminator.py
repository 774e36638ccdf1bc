"""Discriminator and KCS energy model tests."""

import numpy as np
import pytest

from poselift.autodiff import Tensor
from poselift.discriminator import (DiscConfig, DiscriminatorModel,
                                    KcsEnergyModel, train_adversarial,
                                    window_features)
from poselift.errors import (ConfigError, InvalidInputError,
                             InvalidWindowError, TrainingDivergedError)
from poselift.kcs import bone_incidence, discriminator_features
from poselift.pose_io import default_topology
from poselift.skeleton import PoseSequence3D, RotationAugment
from poselift.synth import SyntheticMotionConfig, generate

TOPO = default_topology()
K = TOPO.K


def synth_window_set(n_sequences, frames, seed, window_len):
    cfg = SyntheticMotionConfig(n_sequences=n_sequences, frames=frames, seed=seed)
    windows = []
    for seq in generate(cfg, TOPO):
        f = seq.pose3d.frames
        for start in range(0, f.shape[0] - window_len + 1, window_len):
            windows.append(f[start: start + window_len])
    return windows


def noise_window_set(n, window_len, seed):
    rng = np.random.default_rng(seed)
    return [rng.normal(0.0, 300.0, size=(window_len, K, 3)) for _ in range(n)]


REAL = synth_window_set(8, 80, seed=7, window_len=16)
FAKE = noise_window_set(len(REAL), 16, seed=8)


def small_disc(seed=0, **overrides):
    kw = dict(n_keypoints=K, channels=8, layers=2, kernel=3, tkcs_interval=1)
    kw.update(overrides)
    return DiscriminatorModel(DiscConfig(**kw), TOPO, seed=seed)


# -------------------------------------------------------------- features


def test_window_features_match_reference_path():
    rng = np.random.default_rng(0)
    inc = bone_incidence(TOPO)
    for t, interval in [(2, 1), (5, 1), (9, 2), (12, 3)]:
        frames = rng.normal(0.0, 200.0, size=(t, K, 3))
        got = window_features(frames, inc, interval).data
        want = discriminator_features(PoseSequence3D(frames), TOPO, interval)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-9)


def test_window_features_gradient():
    rng = np.random.default_rng(1)
    inc = bone_incidence(TOPO)
    frames = rng.normal(0.0, 100.0, size=(4, K, 3))
    proj = rng.normal(size=window_features(frames, inc, 1).shape)

    def f(arr):
        return float(np.sum(window_features(arr, inc, 1).data * proj))

    x = Tensor(frames, requires_grad=True)
    (window_features(x, inc, 1) * Tensor(proj)).sum().backward()
    eps = 1e-4
    for _ in range(24):
        i, j, d = rng.integers(4), rng.integers(K), rng.integers(3)
        fp, fm = frames.copy(), frames.copy()
        fp[i, j, d] += eps
        fm[i, j, d] -= eps
        num = (f(fp) - f(fm)) / (2 * eps)
        assert num == pytest.approx(x.grad[i, j, d], rel=1e-5, abs=1e-6)


def test_window_features_rejects_bad_shapes():
    inc = bone_incidence(TOPO)
    with pytest.raises(InvalidInputError):
        window_features(np.zeros((4, K + 1, 3)), inc, 1)
    with pytest.raises(InvalidInputError):
        window_features(np.zeros((4, K, 2)), inc, 1)
    with pytest.raises(InvalidWindowError):
        window_features(np.zeros((2, K, 3)), inc, 2)
    with pytest.raises(InvalidWindowError):
        window_features(np.zeros((4, K, 3)), inc, 0)


def test_disc_config_validation():
    with pytest.raises(ConfigError):
        DiscConfig(kernel=2)
    with pytest.raises(ConfigError):
        DiscConfig(channels=0)
    with pytest.raises(ConfigError):
        DiscConfig(layers=0)
    with pytest.raises(ConfigError):
        DiscConfig(tkcs_interval=0)
    with pytest.raises(ConfigError):
        DiscConfig(n_keypoints=1)


# --------------------------------------------------------------- scoring


def test_untrained_score_is_half():
    disc = small_disc()
    disc.fit_scaler(REAL[:10])
    for w in (REAL[0], FAKE[0]):
        assert disc.score(w) == pytest.approx(0.5, abs=1e-15)


def test_untrained_gen_loss_is_log_two():
    disc = small_disc()
    assert disc.gen_loss(REAL[0]).item() == pytest.approx(np.log(2.0), rel=1e-12)


def test_score_bounds_and_clamp():
    disc = small_disc(seed=3)
    disc.fit_scaler(REAL[:10])
    rng = np.random.default_rng(3)
    disc._params["head.w"].data = rng.normal(0.0, 1.0, size=(8, 1))
    for bias, target in [(50.0, 1.0 - 1e-6), (-50.0, 1e-6)]:
        disc._params["head.b"].data = np.array([bias])
        s = disc.score(REAL[1])
        assert 0.0 < s < 1.0
        assert s == pytest.approx(target, rel=1e-9)
    disc._params["head.b"].data = np.array([-50.0])
    assert disc.gen_loss(REAL[1]).item() == pytest.approx(-np.log(1e-6), rel=1e-9)


def test_score_accepts_pose_sequence():
    disc = small_disc()
    assert disc.score(PoseSequence3D(REAL[0])) == pytest.approx(0.5)


def test_short_window_rejected():
    disc = small_disc(tkcs_interval=2)
    with pytest.raises(InvalidWindowError):
        disc.score(REAL[0][:2])
    assert np.isfinite(disc.score(REAL[0][:3]))


def test_gen_loss_gradient_vs_finite_difference():
    disc = small_disc(seed=5)
    disc.fit_scaler(REAL[:10])
    rng = np.random.default_rng(5)
    disc._params["head.w"].data = rng.normal(0.0, 0.5, size=(8, 1))
    frames = REAL[2].copy()
    x = Tensor(frames, requires_grad=True)
    disc.gen_loss(x).backward()
    eps = 2e-5
    gmax = np.abs(x.grad).max()
    assert gmax > 0
    checked = 0
    for _ in range(200):
        i, j, d = rng.integers(16), rng.integers(K), rng.integers(3)
        if abs(x.grad[i, j, d]) < 1e-6 * gmax:
            continue
        fp, fm = frames.copy(), frames.copy()
        fp[i, j, d] += eps
        fm[i, j, d] -= eps
        num = (disc.gen_loss(fp).item() - disc.gen_loss(fm).item()) / (2 * eps)
        assert num == pytest.approx(x.grad[i, j, d], rel=1e-4)
        checked += 1
        if checked >= 30:
            break
    assert checked >= 30


def test_kcs_feature_blocks_rotation_invariant():
    inc = bone_incidence(TOPO)
    r = RotationAugment.sample(np.random.default_rng(9)).matrix()
    frames = REAL[4]
    base = window_features(frames, inc, 1).data
    rot = window_features(frames @ r.T, inc, 1).data
    m = K - 1
    kcs_cols = m * (m + 1)
    np.testing.assert_allclose(rot[:, :kcs_cols], base[:, :kcs_cols],
                               rtol=1e-9, atol=1e-6)
    assert not np.allclose(rot[:, kcs_cols:], base[:, kcs_cols:])


# ---------------------------------------------------------------- scaler


def test_fit_scaler_standardizes_real_features():
    disc = small_disc()
    disc.fit_scaler(REAL)
    assert disc.scaler_fitted
    inc = bone_incidence(TOPO)
    rows = np.concatenate([window_features(w, inc, 1).data for w in REAL], axis=0)
    scaled = (rows - disc.scaler_mean) * disc.scaler_inv
    np.testing.assert_allclose(scaled.mean(axis=0), 0.0, atol=1e-9)
    std = rows.std(axis=0)
    floor = 1e-8 + 1e-3 * std.mean()
    live = std > floor
    assert live.any() and not live.all()
    np.testing.assert_allclose(scaled.std(axis=0)[live], 1.0, rtol=1e-9)
    # constant columns stay scaled below unit variance instead of exploding
    assert np.all(scaled.std(axis=0)[~live] < 1.0 + 1e-9)
    assert disc.scaler_inv.max() <= 1.0 / floor + 1e-9


def test_fit_scaler_matches_the_feature_graph():
    disc = small_disc(tkcs_interval=2)
    windows = REAL[:12] + [PoseSequence3D(REAL[12])]
    disc.fit_scaler(windows)
    rows = np.concatenate([window_features(w.frames if isinstance(w, PoseSequence3D) else w,
                                           disc.incidence, 2).data for w in windows], axis=0)
    std = rows.std(axis=0)
    floor = 1e-8 + 1e-3 * std.mean()
    np.testing.assert_allclose(disc.scaler_mean, rows.mean(axis=0), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(disc.scaler_inv, 1.0 / np.maximum(std, floor), rtol=1e-12)


def test_fit_scaler_requires_windows():
    with pytest.raises(InvalidInputError):
        small_disc().fit_scaler([])


# -------------------------------------------------------------- training


def test_adversarial_training_separates_real_from_noise():
    disc = small_disc(seed=11)
    history = train_adversarial(disc, FAKE[:30], REAL[:30], steps=300,
                                lr=0.05, batch_size=8, seed=11)
    assert len(history) == 300
    assert history[-1] < history[0]
    assert disc.scaler_fitted
    held_real = synth_window_set(2, 80, seed=21, window_len=16)
    held_fake = noise_window_set(len(held_real), 16, seed=22)
    hits = sum(disc.score(w) > 0.5 for w in held_real)
    hits += sum(disc.score(w) < 0.5 for w in held_fake)
    acc = hits / (len(held_real) + len(held_fake))
    assert acc >= 0.9


def test_training_fits_scaler_on_real_only():
    disc = small_disc(seed=12)
    train_adversarial(disc, FAKE[:5], REAL[:5], steps=1, seed=12)
    ref = small_disc(seed=12)
    ref.fit_scaler(REAL[:5])
    np.testing.assert_array_equal(disc.scaler_mean, ref.scaler_mean)
    np.testing.assert_array_equal(disc.scaler_inv, ref.scaler_inv)


def test_zero_steps_changes_nothing():
    disc = small_disc(seed=13)
    before = {k: v.copy() for k, v in disc.state_arrays().items()}
    history = train_adversarial(disc, FAKE[:4], REAL[:4], steps=0, seed=13)
    assert history == []
    after = disc.state_arrays()
    for k in before:
        if not k.startswith("scaler."):
            np.testing.assert_array_equal(before[k], after[k])


def test_training_requires_data():
    disc = small_disc()
    with pytest.raises(InvalidInputError):
        train_adversarial(disc, [], REAL[:2], steps=1)
    with pytest.raises(InvalidInputError):
        train_adversarial(disc, FAKE[:2], [], steps=1)
    with pytest.raises(ConfigError):
        train_adversarial(disc, FAKE[:2], REAL[:2], steps=-1)


def test_divergence_raises_with_checkpoint():
    disc = small_disc(seed=14)
    disc.fit_scaler(REAL[:4])
    disc._params["head.b"].data = np.array([np.nan])
    with pytest.raises(TrainingDivergedError) as exc:
        train_adversarial(disc, FAKE[:4], REAL[:4], steps=5, seed=14)
    assert "head.w" in exc.value.checkpoint


def test_label_flip_symmetry():
    # single-window sets keep the sampled batches identical, so swapping the
    # real/fake roles must exactly negate the logit trajectory
    x, y = REAL[0], FAKE[0]
    disc_a = small_disc(seed=15)
    disc_b = small_disc(seed=15)
    for d in (disc_a, disc_b):
        d.fit_scaler([x, y])
    train_adversarial(disc_a, [y], [x], steps=40, lr=0.05, seed=15)
    train_adversarial(disc_b, [x], [y], steps=40, lr=0.05, seed=15)
    for probe in (x, y, REAL[5]):
        assert disc_a.score(probe) == pytest.approx(1.0 - disc_b.score(probe),
                                                    rel=1e-12, abs=1e-12)


def test_checkpoint_roundtrip(tmp_path):
    disc = small_disc(seed=16)
    train_adversarial(disc, FAKE[:6], REAL[:6], steps=20, seed=16)
    path = tmp_path / "disc.npz"
    disc.save(path)
    loaded = DiscriminatorModel.load(path)
    assert loaded.scaler_fitted
    for w in (REAL[0], FAKE[0]):
        assert loaded.score(w) == pytest.approx(disc.score(w), rel=1e-15)


def test_checkpoint_kind_guard(tmp_path):
    path = tmp_path / "energy.npz"
    KcsEnergyModel.fit(REAL[:10], TOPO).save(path)
    with pytest.raises(InvalidInputError):
        DiscriminatorModel.load(path)


# ---------------------------------------------------------------- energy


def energy_model():
    return KcsEnergyModel.fit(REAL, TOPO, interval=1)


def test_energy_zero_at_corpus_mean():
    model = energy_model()
    assert model.energy_of_features(model.mean)[0] == 0.0


def test_energy_quadratic_along_rays():
    model = energy_model()
    rng = np.random.default_rng(30)
    d = rng.normal(size=model.mean.shape)
    e1 = model.energy_of_features(model.mean + d)[0]
    e2 = model.energy_of_features(model.mean + 2 * d)[0]
    e4 = model.energy_of_features(model.mean + 4 * d)[0]
    assert 0 < e1 < e2 < e4
    assert e2 == pytest.approx(4 * e1, rel=1e-9)
    assert e4 == pytest.approx(16 * e1, rel=1e-9)


def test_energy_corpus_order_invariant():
    rng = np.random.default_rng(31)
    perm = rng.permutation(len(REAL))
    a = KcsEnergyModel.fit(REAL, TOPO)
    b = KcsEnergyModel.fit([REAL[i] for i in perm], TOPO)
    np.testing.assert_allclose(a.mean, b.mean, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(a.precision, b.precision, rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(np.sort(a.fit_energies), np.sort(b.fit_energies),
                               rtol=1e-6)


def test_energy_flags_stretched_bones():
    model = energy_model()
    stretched = REAL[0] * 2.5
    assert model.energy(stretched) > model.reference_percentile(95.0)


def test_energy_matches_gen_loss():
    model = energy_model()
    w = REAL[7]
    assert model.energy(w) == pytest.approx(model.gen_loss(w).item(), rel=1e-12)


def test_energy_gen_loss_gradient():
    model = energy_model()
    rng = np.random.default_rng(32)
    frames = REAL[3].copy()
    x = Tensor(frames, requires_grad=True)
    model.gen_loss(x).backward()
    eps = 1e-2
    for _ in range(15):
        i, j, d = rng.integers(frames.shape[0]), rng.integers(K), rng.integers(3)
        fp, fm = frames.copy(), frames.copy()
        fp[i, j, d] += eps
        fm[i, j, d] -= eps
        num = (model.gen_loss(fp).item() - model.gen_loss(fm).item()) / (2 * eps)
        assert num == pytest.approx(x.grad[i, j, d], rel=1e-4, abs=1e-8)


def test_energy_precision_positive_definite():
    model = energy_model()
    np.linalg.cholesky(model.precision)


def test_energy_reference_percentile():
    model = energy_model()
    assert model.reference_percentile(50.0) == pytest.approx(
        np.percentile(model.fit_energies, 50.0))
    assert len(model.fit_energies) == len(REAL)


def test_energy_fit_validation():
    with pytest.raises(InvalidInputError):
        KcsEnergyModel.fit([], TOPO)
    with pytest.raises(ConfigError):
        KcsEnergyModel.fit(REAL[:4], TOPO, reg_scale=0.0)


def test_energy_checkpoint_roundtrip(tmp_path):
    model = energy_model()
    path = tmp_path / "energy.npz"
    model.save(path)
    loaded = KcsEnergyModel.load(path)
    assert loaded.interval == model.interval
    assert loaded.energy(REAL[2]) == pytest.approx(model.energy(REAL[2]), rel=1e-12)


def test_energy_kind_guard(tmp_path):
    path = tmp_path / "disc.npz"
    small_disc().save(path)
    with pytest.raises(InvalidInputError):
        KcsEnergyModel.load(path)
