"""KCS energy model tests, and the Tensor-graph feature rows its oracle uses."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import window_features
from poselift.autodiff import Tensor
from poselift.discriminator import KcsEnergyModel
from poselift.errors import ConfigError, InvalidInputError, InvalidWindowError
from poselift.kcs import bone_incidence, discriminator_features
from poselift.pose_io import default_topology, load_checkpoint, save_checkpoint
from poselift.skeleton import PoseSequence3D, RotationAugment
from poselift.synth import SyntheticMotionConfig, generate
from poselift.tcn import TcnConfig, TcnModel

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


REAL = synth_window_set(8, 80, seed=7, window_len=16)


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


# ---------------------------------------------------------------- energy


def energy_model():
    return KcsEnergyModel.fit(REAL, TOPO, interval=1)


def energy_of_features(model, rows):
    """Per-row Mahalanobis energy of feature rows under the model's statistics."""
    d = np.atleast_2d(np.asarray(rows, dtype=np.float64)) - model.mean
    return np.einsum("nf,fg,ng->n", d, model.precision, d)


def test_energy_zero_at_corpus_mean():
    model = energy_model()
    assert energy_of_features(model, model.mean)[0] == 0.0


def test_energy_quadratic_along_rays():
    model = energy_model()
    rng = np.random.default_rng(30)
    d = rng.normal(size=model.mean.shape)
    e1 = energy_of_features(model, model.mean + d)[0]
    e2 = energy_of_features(model, model.mean + 2 * d)[0]
    e4 = energy_of_features(model, model.mean + 4 * d)[0]
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


def test_score_accepts_pose_sequence():
    model = energy_model()
    assert model.energy(PoseSequence3D(REAL[5])) == model.energy(REAL[5])
    assert model.gen_loss(PoseSequence3D(REAL[5])).item() == model.energy(REAL[5])


def test_short_window_rejected():
    model = KcsEnergyModel.fit(REAL, TOPO, interval=2)
    with pytest.raises(InvalidWindowError):
        model.energy(REAL[0][:2])
    assert np.isfinite(model.energy(REAL[0][:3]))


def test_energy_matches_gen_loss():
    model = energy_model()
    w = REAL[7]
    assert model.energy(w) == pytest.approx(model.gen_loss(w).item(), rel=1e-12)
    # the mean over the window's feature rows of their energies
    rows = discriminator_features(PoseSequence3D(w), TOPO, model.interval)
    assert model.energy(w) == pytest.approx(energy_of_features(model, rows).mean(), rel=1e-12)


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


# finite, and small enough that the loader's symmetrization 0.5 * (P + P.T)
# of a symmetric P cannot overflow
ENTRIES = st.floats(-1e300, 1e300)


@st.composite
def energy_models(draw):
    k, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    f = m * (m + 1) + 3 * k
    upper = np.triu(draw(hnp.arrays(np.float64, (f, f), elements=ENTRIES)))
    return KcsEnergyModel(
        draw(hnp.arrays(np.float64, f, elements=ENTRIES)), upper + np.triu(upper, 1).T,
        draw(hnp.arrays(np.float64, (k, m), elements=ENTRIES)), draw(st.integers(1, 5)),
        draw(hnp.arrays(np.float64, draw(st.integers(0, 4)), elements=ENTRIES)))


@settings(max_examples=40)
@given(model=energy_models())
def test_energy_checkpoint_gives_back_every_array_and_the_interval_exactly(
        tmp_path_factory, model):
    path = tmp_path_factory.mktemp("energy") / "scorer.npz"
    model.save(path)
    loaded = KcsEnergyModel.load(path)
    assert loaded.interval == model.interval
    for name in ("mean", "precision", "incidence", "fit_energies"):
        got, want = getattr(loaded, name), getattr(model, name)
        assert got.dtype == np.float64 and got.shape == want.shape, name
        assert np.array_equal(got, want), name


def test_energy_checkpoint_with_arrays_the_model_does_not_take_is_an_error(tmp_path):
    energy_model().save(tmp_path / "energy.npz")
    arrays, meta = load_checkpoint(tmp_path / "energy.npz")
    save_checkpoint(tmp_path / "odd.npz", {**arrays, "stray": np.zeros(2), "extra": np.ones(1)},
                    meta)
    with pytest.raises(InvalidInputError, match=re.escape(
            f"{tmp_path / 'odd.npz'}: kcs-energy checkpoint has unexpected arrays: "
            "['extra', 'stray']")):
        KcsEnergyModel.load(tmp_path / "odd.npz")


def test_energy_kind_guard(tmp_path):
    path = tmp_path / "model.npz"
    TcnModel(TcnConfig(), seed=0).save(path)
    with pytest.raises(InvalidInputError):
        KcsEnergyModel.load(path)
