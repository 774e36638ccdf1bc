"""Closed-form loss terms against their per-op Tensor graphs.

KcsEnergyModel.gen_loss, iso.rep_loss and iso.smooth_loss are each one
graph node whose backward is written out in numpy; tests/oracles.py keeps
the same terms built from Tensor ops, and these tests hold the two equal in
value, in gradient, inside iso.refine and inside tcn.train. A batch of
windows passed to gen_loss at once equals the per-window calls summed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poselift.iso as iso
from poselift.autodiff import Tensor
from poselift.discriminator import KcsEnergyModel
from poselift.errors import InvalidWindowError
from poselift.iso import IsoConfig, compute_weights, fit_projection, refine
from poselift.pose_io import default_topology, save_checkpoint
from poselift.skeleton import (PoseSequence2D, PoseSequence3D, RotationAugment,
                               project_to_crop)
from poselift.synth import SyntheticMotionConfig, generate
from poselift.tcn import TcnConfig, TcnModel, TrainConfig, train

from oracles import (GraphEnergy, energy_gen_loss_graph, rep_loss_graph,
                     smooth_loss_graph)

TOPO = default_topology()
K = TOPO.K
SCALE_MM = 2000.0

_SEQS = generate(SyntheticMotionConfig(n_sequences=3, frames=60, seed=3), TOPO)
_CORPUS = [s.pose3d.frames[i: i + 16] for s in _SEQS for i in range(0, 45, 15)]
MODELS = {i: KcsEnergyModel.fit(_CORPUS, TOPO, interval=i) for i in (1, 2, 3)}

INPUTS = ("array", "pose", "slice", "twice")


def noisy_window(t, seed, noise_mm=20.0):
    rng = np.random.default_rng(seed)
    frames = np.concatenate([s.pose3d.frames for s in _SEQS])[:t]
    return frames + rng.normal(0.0, noise_mm, frames.shape)


def detections(gt, seed):
    """Projected detections, a fifth of them moved far and given low confidence."""
    rng = np.random.default_rng(seed)
    det = project_to_crop(PoseSequence3D(gt), SCALE_MM)
    bad = rng.random(det.frames.shape[:2]) < 0.2
    frames = det.frames + rng.normal(0.0, 1.0 / 256.0, det.frames.shape)
    frames = frames + bad[..., None] * rng.uniform(-0.2, 0.2, det.frames.shape)
    conf = np.where(bad, rng.uniform(0.05, 0.35, bad.shape),
                    rng.uniform(0.65, 0.98, bad.shape))
    mask = rng.random(bad.shape) < 0.05
    return PoseSequence2D(frames, np.where(mask, 0.0, conf), mask, SCALE_MM)


def assert_same_grad(got, want):
    if want is None:    # a one-frame smooth_loss is a constant
        assert got is None
        return
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10 * np.abs(want).max())


def compare(term, oracle, frames, how):
    """Value and input gradient of `term` vs `oracle` on one kind of input.

    array / pose: the term gets an ndarray or a PoseSequence3D, so only
    values compare. slice: the window is one entry of a rotated batch, as
    tcn.train passes it to the scorer. twice: two uses of one leaf.
    """
    if how in ("array", "pose"):
        arg = frames if how == "array" else PoseSequence3D(frames)
        assert term(arg).item() == pytest.approx(oracle(arg).item(), rel=1e-12, abs=0.0)
        return
    rots = np.stack([RotationAugment.sample(np.random.default_rng(s)).matrix().T
                     for s in range(3)])
    grads, values = [], []
    for fn in (term, oracle):
        if how == "slice":
            leaf = Tensor(np.stack([frames, frames[::-1], 1.1 * frames]),
                          requires_grad=True)
            rotated = leaf @ Tensor(rots[:, None])
            loss = fn(rotated[1]) + 0.5 * fn(rotated[2])
        else:
            leaf = Tensor(frames.copy(), requires_grad=True)
            loss = fn(leaf) + 0.5 * fn(leaf)
        loss.backward()
        values.append(loss.item())
        grads.append(leaf.grad)
    assert values[0] == pytest.approx(values[1], rel=1e-12, abs=0.0)
    assert_same_grad(*grads)


@pytest.mark.parametrize("interval", [1, 2, 3])
@pytest.mark.parametrize("extra", [0, 1, 5, 39])
@pytest.mark.parametrize("how", INPUTS)
def test_energy_matches_graph(interval, extra, how):
    t = min(interval + 1 + extra, 40)
    model = MODELS[interval]
    compare(model.gen_loss, lambda w: energy_gen_loss_graph(model, w),
            noisy_window(t, seed=100 * interval + t), how)


@pytest.mark.parametrize("interval", [1, 2, 3])
@pytest.mark.parametrize("extra", [0, 3])
def test_batched_energy_is_sum_of_window_energies(interval, extra):
    # rotated[1:] is a slice of a batch of rotated chains, as tcn.train passes it
    model = MODELS[interval]
    t = interval + 1 + extra
    chains = np.stack([noisy_window(t, seed=10 * interval + b) for b in range(4)])
    rots = np.stack([RotationAugment.sample(np.random.default_rng(s)).matrix().T
                     for s in range(4)])
    values, grads = [], []
    for batched in (True, False):
        leaf = Tensor(chains.copy(), requires_grad=True)
        rotated = leaf @ Tensor(rots[:, None])
        if batched:
            loss = model.gen_loss(rotated[1:])
        else:
            loss = sum((model.gen_loss(rotated[b]) for b in range(1, 4)), Tensor(0.0))
        loss.backward()
        values.append(loss.item())
        grads.append(leaf.grad)
    assert values[0] == pytest.approx(values[1], rel=1e-12, abs=0.0)
    assert not grads[1][0].any() and grads[1].any()
    assert_same_grad(*grads)
    # more than one leading axis sums over all of them
    grid = model.gen_loss(chains.reshape((2, 2) + chains.shape[1:])).item()
    assert grid == pytest.approx(sum(model.energy(c) for c in chains), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("interval", [1, 2, 3])
def test_batched_energy_rejects_short_windows(interval):
    chains = np.stack([noisy_window(interval, seed=b) for b in range(3)])
    with pytest.raises(InvalidWindowError):
        MODELS[interval].gen_loss(chains)


@pytest.mark.parametrize("t", [1, 2, 9, 40])
@pytest.mark.parametrize("how", INPUTS)
def test_rep_and_smooth_losses_match_graph(t, how):
    gt = noisy_window(t, seed=t, noise_mm=0.0)
    frames = gt + np.random.default_rng(t + 1).normal(0.0, 15.0, gt.shape)
    det = detections(gt, seed=t + 2)
    cfg = IsoConfig(weight_mode="soft", sigma=1.3)
    scale, trans = fit_projection(frames, det)
    weights = compute_weights(frames, det, cfg, scale, trans)
    compare(lambda x: iso.rep_loss(x, det, cfg, scale, trans, weights),
            lambda x: rep_loss_graph(x, det, cfg, scale, trans, weights), frames, how)
    compare(iso.smooth_loss, smooth_loss_graph, frames, how)


def test_rep_loss_fits_projection_and_weights_like_graph():
    gt = noisy_window(12, seed=5, noise_mm=0.0)
    frames = gt + np.random.default_rng(6).normal(0.0, 15.0, gt.shape)
    det = detections(gt, seed=7)
    cfg = IsoConfig(weight_mode="soft")
    compare(lambda x: iso.rep_loss(x, det, cfg), lambda x: rep_loss_graph(x, det, cfg),
            frames, "twice")


def test_each_term_adds_one_node():
    frames = noisy_window(10, seed=8)
    det = detections(noisy_window(10, seed=8, noise_mm=0.0), seed=9)
    cfg = IsoConfig(weight_mode="soft")
    x = Tensor(frames, requires_grad=True)
    for out in (MODELS[1].gen_loss(x), iso.rep_loss(x, det, cfg), iso.smooth_loss(x)):
        assert out.parents == (x,)


def test_precision_exactly_symmetric_after_fit_and_load(tmp_path):
    model = MODELS[2]
    assert np.array_equal(model.precision, model.precision.T)
    model.save(tmp_path / "e.npz")
    loaded = KcsEnergyModel.load(tmp_path / "e.npz")
    assert np.array_equal(loaded.precision, model.precision)
    # a checkpoint written with an asymmetric precision loads symmetrized
    skew = np.triu(np.full(model.precision.shape, 1e-9), 1)
    save_checkpoint(tmp_path / "skew.npz",
                    {"mean": model.mean, "precision": model.precision + skew,
                     "incidence": model.incidence, "fit_energies": model.fit_energies},
                    {"kind": "kcs-energy", "interval": model.interval})
    skewed = KcsEnergyModel.load(tmp_path / "skew.npz")
    assert np.array_equal(skewed.precision, skewed.precision.T)
    np.testing.assert_allclose(skewed.precision, model.precision, rtol=0.0, atol=1e-9)


def test_refine_matches_graph_terms(monkeypatch):
    gt = noisy_window(24, seed=10, noise_mm=0.0)
    init = PoseSequence3D(gt + np.random.default_rng(11).normal(0.0, 25.0, gt.shape))
    det = detections(gt, seed=12)
    cfg = IsoConfig(weight_mode="soft", iterations=120, lambda1=0.01, lambda2=0.05,
                    step_size=0.1)
    got, got_trace = refine(init, det, MODELS[1], cfg, gt3d=PoseSequence3D(gt))
    monkeypatch.setattr(iso, "rep_loss", rep_loss_graph)
    monkeypatch.setattr(iso, "smooth_loss", smooth_loss_graph)
    want, want_trace = refine(init, det, GraphEnergy(MODELS[1]), cfg,
                              gt3d=PoseSequence3D(gt))
    assert len(got_trace) == len(want_trace) == 120
    assert np.abs(got.frames - want.frames).max() <= 1e-9
    for g, w in zip(got_trace, want_trace):
        for key in g:
            assert g[key] == pytest.approx(w[key], rel=1e-9, abs=1e-9), key
    assert got_trace[-1]["mpjpe"] < got_trace[0]["mpjpe"]


def test_train_matches_graph_scorer(topo):
    data = generate(SyntheticMotionConfig(n_sequences=3, frames=60, seed=4,
                                          view_rotations=((0.0, 1.2, 0.0),)), topo)
    model_cfg = TcnConfig(n_keypoints=17, embed_dim=16, window_len=16, strides=(1, 2),
                          channels=16, kernel=3, branch_layers=2)
    tcfg = TrainConfig(lr=1e-6, momentum=0.9, steps_per_epoch=6, batch_size=4, seed=0,
                       lr_decay=0.5)
    models = [TcnModel(model_cfg, seed=32) for _ in range(2)]
    got = train(models[0], data, tcfg, epochs=2, scorer=MODELS[1])
    want = train(models[1], data, tcfg, epochs=2, scorer=GraphEnergy(MODELS[1]))
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        for key in g:
            assert g[key] == pytest.approx(w[key], rel=1e-9, abs=0.0), key
    assert all(h["loss_gen"] > 0 for h in got)
    a, b = models[0].state_arrays(), models[1].state_arrays()
    for name in a:
        assert np.abs(a[name] - b[name]).max() <= 1e-9, name


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), interval=st.integers(1, 3),
       extra=st.integers(0, 6), spread=st.floats(50.0, 500.0))
def test_energy_gradient_matches_central_differences(seed, interval, extra, spread):
    model = MODELS[interval]
    rng = np.random.default_rng(seed)
    frames = rng.normal(0.0, spread, (interval + 1 + extra, K, 3))
    direction = rng.normal(size=frames.shape)
    x = Tensor(frames, requires_grad=True)
    model.gen_loss(x).backward()
    eps = 1e-4 * spread
    fd = (model.gen_loss(frames + eps * direction).item()
          - model.gen_loss(frames - eps * direction).item()) / (2 * eps)
    assert fd == pytest.approx(np.sum(x.grad * direction), rel=1e-6)
