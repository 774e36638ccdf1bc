"""Closed-form loss terms against their per-op Tensor graphs.

The lifter's embedding and its loss_3d, loss_multiview, loss_2d (of one
sample and of a stack with one scale_mm per sample, as tcn.train calls it)
and total_loss, KcsEnergyModel.gen_loss, iso.rep_loss and iso.smooth_loss
are each one graph node whose backward is written out in numpy;
tests/oracles.py keeps the same terms built from Tensor ops, and these
tests hold the two equal in value, in gradient, inside tcn.train, and in
iso.refine against oracles.refine_graph descending on the per-op terms. A
batch of windows passed to gen_loss at once equals the per-window calls
summed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poselift.iso as iso
import poselift.tcn as tcn
from poselift.autodiff import Tensor
from poselift.discriminator import KcsEnergyModel
from poselift.errors import InvalidWindowError
from poselift.iso import IsoConfig, compute_weights, fit_projection, refine
from poselift.pose_io import default_topology, save_checkpoint
from poselift.skeleton import (PoseSequence2D, PoseSequence3D, RotationAugment,
                               project_to_crop)
from poselift.synth import SyntheticMotionConfig, generate
from poselift.tcn import (LossWeights, TcnConfig, TcnModel, TrainConfig, loss_2d, loss_3d,
                          loss_multiview, total_loss, train)

from oracles import (GraphEnergy, embed_frames_graph, energy_gen_loss_graph,
                     loss_2d_graph, loss_2d_sum_graph, loss_3d_graph, loss_multiview_graph,
                     refine_graph, rep_loss_graph, smooth_loss_graph, total_loss_graph)

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


def test_refine_matches_graph_terms():
    # the oracle descent with every term built op by op: per-op reprojection,
    # smoothness and energy graphs
    gt = noisy_window(24, seed=10, noise_mm=0.0)
    init = PoseSequence3D(gt + np.random.default_rng(11).normal(0.0, 25.0, gt.shape))
    det = detections(gt, seed=12)
    cfg = IsoConfig(weight_mode="soft", iterations=120, lambda1=0.01, lambda2=0.05,
                    step_size=0.1)
    got, got_trace = refine(init, det, MODELS[1], cfg, gt3d=PoseSequence3D(gt))
    want, want_trace = refine_graph(init, det, GraphEnergy(MODELS[1]), cfg, PoseSequence3D(gt),
                                    rep=rep_loss_graph, smooth=smooth_loss_graph)
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
                          channels=16, branch_layers=2)
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


@settings(max_examples=40)
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


# ------------------------------------------------------------ lifter losses


def compare_loss(term, oracle, args, leaves):
    """Value and gradients of term(*args) vs oracle(*args).

    The args at the indices in `leaves` become Tensor leaves; the rest are
    passed as they are. Returns the term's value and leaf gradients.
    """
    values, grads = [], []
    for fn in (term, oracle):
        call = [Tensor(np.array(a, dtype=np.float64), requires_grad=True) if i in leaves
                else a for i, a in enumerate(args)]
        loss = fn(*call)
        loss.backward()
        values.append(loss.item())
        grads.append([call[i].grad for i in leaves])
    assert values[0] == pytest.approx(values[1], rel=1e-12, abs=0.0)
    for got, want in zip(*grads):
        assert_same_grad(got, want)
    return values[0], grads[0]


def poses(seed, lead):
    return np.random.default_rng(seed).normal(0.0, 300.0, lead + (K, 3))


def targets_2d(seed, lead, masked):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.2, 0.8, lead + (K, 2))
    mask = rng.random(lead + (K,)) < masked
    coords[mask] = 0.0
    return coords, mask


def rotations(n):
    return np.stack([RotationAugment.sample(np.random.default_rng(s)).matrix()
                     for s in range(n)])


@pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
@pytest.mark.parametrize("leaves", [(0,), (0, 1), (1,)], ids=["pred", "both", "gt"])
def test_loss_3d_matches_graph(lead, leaves):
    # a Tensor second argument is multiview's pred2, which carries a gradient
    compare_loss(loss_3d, loss_3d_graph, (poses(1, lead), poses(2, lead)), leaves)


def test_loss_3d_broadcast_and_pose_inputs():
    # one target pose against a stack: its gradient sums over the stack
    compare_loss(loss_3d, loss_3d_graph, (poses(3, (4,)), poses(4, ())), (0, 1))
    pred, gt = poses(5, (6,)), poses(6, (6,))
    compare_loss(loss_3d, loss_3d_graph, (pred, PoseSequence3D(gt)), (0,))
    assert loss_3d(PoseSequence3D(pred), gt).item() == pytest.approx(
        loss_3d_graph(pred, gt).item(), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("stacked", [False, True], ids=["one", "per-sample"])
def test_loss_multiview_matches_graph(stacked):
    r = rotations(6)
    compare_loss(loss_multiview, loss_multiview_graph,
                 (poses(7, (6,)), poses(8, (6,)), r if stacked else r[0]), (0, 1))


def test_loss_multiview_of_selected_samples_matches_graph():
    # as tcn.train passes it: some rows of a batch, one rotation per row
    r = rotations(3)
    pick = [0, 2, 3]
    compare_loss(lambda a, b: loss_multiview(a[pick], b, r),
                 lambda a, b: loss_multiview_graph(a[pick], b, r),
                 (poses(9, (5,)), poses(10, (3,))), (0, 1))


@pytest.mark.parametrize("lead", [(), (4,)])
@pytest.mark.parametrize("masked", [0.0, 0.3, 1.0], ids=["open", "masked", "all-masked"])
def test_loss_2d_matches_graph(lead, masked):
    coords, mask = targets_2d(11, lead, masked)
    value, (grad,) = compare_loss(loss_2d, loss_2d_graph,
                                  (poses(12, lead), coords, mask, 1700.0), (0,))
    assert not grad[mask].any() and not grad[..., 2].any()
    assert (value == 0.0) == (masked == 1.0)


def test_loss_2d_pose_container_matches_graph():
    coords, mask = targets_2d(13, (5,), 0.3)
    det = PoseSequence2D(coords, np.where(mask, 0.0, 0.9), mask, SCALE_MM)
    compare_loss(lambda x: loss_2d(x, det), lambda x: loss_2d_graph(x, coords, mask, SCALE_MM),
                 (poses(14, (5,)),), (0,))


def test_loss_2d_sum_matches_graph_and_per_sample_loss_2d():
    coords, mask = targets_2d(15, (5,), 0.3)
    mask[1] = True                       # one fully masked sample
    scales = [1500.0, 1700.0, 2000.0, 2300.0, 2600.0]
    pred = poses(16, (5,))
    value, (grad,) = compare_loss(loss_2d, loss_2d_sum_graph,
                                  (pred, coords, mask, scales), (0,))
    assert not grad[1].any() and not grad[mask].any() and not grad[..., 2].any()
    assert np.abs(grad[0, :, :2]).max() > 0
    assert value == pytest.approx(sum(loss_2d(pred[i], coords[i], mask[i], scales[i]).item()
                                      for i in range(5)), rel=1e-12, abs=0.0)


def test_lifter_loss_values_equal_graph_bit_for_bit():
    # means are sum * (1 / n) as Tensor.mean takes them; np.mean's sum / n
    # differs in the last bit for some n, which moves training histories
    for n in range(1, 25):
        pred, gt = poses(100 + n, (n,)), poses(200 + n, (n,))
        coords, mask = targets_2d(300 + n, (n,), 0.3)
        r = rotations(n)
        scales = list(np.linspace(1500.0, 2500.0, n))
        for got, want in ((loss_3d(pred, gt), loss_3d_graph(pred, gt)),
                          (loss_multiview(pred, gt, r), loss_multiview_graph(pred, gt, r)),
                          (loss_2d(pred, coords, mask, scales),
                           loss_2d_sum_graph(pred, coords, mask, scales))):
            assert got.item() == want.item(), n


@pytest.mark.parametrize("leaves", [(0, 1, 2, 3), (0, 2), ()])
def test_total_loss_matches_graph(leaves):
    parts = tuple(np.random.default_rng(17).uniform(0.0, 100.0, 4))
    w = LossWeights(w1=0.3, w2=0.2, w3=0.05)
    compare_loss(lambda *a: total_loss(*a, w), lambda *a: total_loss_graph(*a, w),
                 parts, leaves)


def test_embed_frames_matches_graph():
    cfg = TcnConfig(n_keypoints=K, embed_dim=6, window_len=9, strides=(1, 2), channels=4,
                    branch_layers=1)
    model = TcnModel(cfg, seed=18)
    coords, mask = targets_2d(19, (11,), 0.2)
    conf = np.where(mask, 0.0, np.random.default_rng(20).uniform(0.3, 1.0, mask.shape))
    proj = np.random.default_rng(21).normal(size=(11, 6))
    outs, grads = [], []
    for embed in (model.embed_frames, lambda *a: embed_frames_graph(model, *a)):
        for p in model.parameters():
            p.grad = None
        out = embed(coords, conf, mask)
        (out * Tensor(proj)).sum().backward()
        outs.append(out.data)
        grads.append([model._params["embed.w"].grad, model._params["embed.b"].grad])
    assert np.array_equal(outs[0], outs[1])
    assert (outs[0] > 0).any() and (outs[0] <= 0).any()
    for got, want in zip(*grads):
        assert_same_grad(got, want)


def test_lifter_terms_add_one_node():
    model = TcnModel(TcnConfig(n_keypoints=K, embed_dim=6, window_len=9, strides=(1, 2),
                               channels=4, branch_layers=2), seed=22)
    coords, mask = targets_2d(23, (9,), 0.2)
    emb = model.embed_frames(coords, np.where(mask, 0.0, 0.8), mask)
    assert emb.parents == (model._params["embed.w"], model._params["embed.b"])
    out = model.forward(emb)
    branch_and_head = [p for name, p in model._params.items() if not name.startswith("embed.")]
    assert out.parents == (emb, *branch_and_head)
    a, b = Tensor(poses(24, (3,))), Tensor(poses(25, (3,)))
    assert loss_3d(a, poses(26, (3,))).parents == (a,)
    assert loss_multiview(a, b, rotations(3)).parents == (a, b)
    c, m = targets_2d(27, (3,), 0.2)
    assert loss_2d(a, c, m, [SCALE_MM] * 3).parents == (a,)
    assert loss_2d(a, c, m, SCALE_MM).parents == (a,)
    parts = [Tensor(1.0), Tensor(2.0), Tensor(3.0)]
    assert total_loss(parts[0], 0.5, *parts[1:]).parents == tuple(parts)


def test_train_matches_graph_losses(monkeypatch):
    # live multi-view, reprojection and realness terms, half the occluded
    # keypoints masked: the one-node losses train bit for bit as the graphs do
    data = generate(SyntheticMotionConfig(n_sequences=3, frames=60, seed=4,
                                          view_rotations=((0.0, 1.2, 0.0),),
                                          mask_occluded_prob=0.5), TOPO)
    model_cfg = TcnConfig(n_keypoints=17, embed_dim=16, window_len=16, strides=(1, 2),
                          channels=16, branch_layers=2)
    tcfg = TrainConfig(lr=1e-6, momentum=0.9, steps_per_epoch=6, batch_size=4, seed=0,
                       lr_decay=0.5, weights=LossWeights(w1=0.5, w2=2000.0, w3=0.01))
    models = [TcnModel(model_cfg, seed=32) for _ in range(2)]
    got = train(models[0], data, tcfg, epochs=2, scorer=MODELS[1])
    for name, graph in (("loss_3d", loss_3d_graph), ("loss_multiview", loss_multiview_graph),
                        ("loss_2d", loss_2d_sum_graph), ("total_loss", total_loss_graph)):
        monkeypatch.setattr(tcn, name, graph)
    want = train(models[1], data, tcfg, epochs=2, scorer=MODELS[1])
    assert got == want
    assert all(h[k] > 0 for h in got for k in ("loss_3d", "loss_mv", "loss_2d", "loss_gen"))
    a, b = models[0].state_arrays(), models[1].state_arrays()
    assert all(np.array_equal(a[name], b[name]) for name in a)
