import ctypes
import re
import threading
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poselift import parallel, synth, tcn
from poselift.autodiff import Tensor
from poselift.discriminator import KcsEnergyModel
from poselift.errors import (ConfigError, InvalidInputError, InvalidWindowError,
                             TrainingDivergedError)
from poselift.experiment import ExperimentConfig, real_windows
from poselift.skeleton import (PoseSequence2D, PoseSequence3D, project_to_crop,
                               rotation_matrix)
from poselift.tcn import (KERNEL, OUTPUT_SCALE_MM, LossWeights, TcnConfig, TcnModel,
                          TrainConfig, frame_inputs, loss_2d, loss_3d, loss_multiview,
                          total_loss, train)

from oracles import (forward_per_tap, predict_sequence_per_frame, train_per_window,
                     window_forward)


def tiny_config(**kw):
    base = dict(n_keypoints=4, embed_dim=8, window_len=10, strides=(1, 2),
                channels=6, branch_layers=2)
    base.update(kw)
    return TcnConfig(**base)


def random_window(cfg, rng, masked=0):
    t, k = cfg.window_len, cfg.n_keypoints
    coords = rng.uniform(0.2, 0.8, size=(t, k, 2))
    conf = rng.uniform(0.3, 1.0, size=(t, k))
    mask = np.zeros((t, k), dtype=bool)
    if masked:
        flat = rng.choice(t * k, size=masked, replace=False)
        mask[np.unravel_index(flat, (t, k))] = True
        coords[mask] = 0.0
        conf[mask] = 0.0
    return coords, conf, mask


def predict_window(model, coords, conf, mask):
    """The center-frame pose of one window of detections."""
    return model.forward(model.embed_frames(coords, conf, mask)).data


def param_count(model):
    return sum(p.data.size for p in model.parameters())


# ----------------------------------------------------------------- config


def test_default_config_is_the_pipelines_lifter():
    assert TcnConfig() == ExperimentConfig().tcn
    assert param_count(TcnModel(TcnConfig())) == 37_203
    # the wider configuration the TcnConfig docstring spells out
    wide = TcnConfig(embed_dim=512, window_len=64, strides=(1, 2, 3, 5, 7), channels=128,
                     branch_layers=3)
    assert param_count(TcnModel(wide)) == 1_544_499


@pytest.mark.parametrize("strides", [(), (2, 1), (0,), (1, 1), (1, 2, 2)])
def test_config_rejects_bad_strides(strides):
    with pytest.raises(ConfigError):
        tiny_config(strides=strides)


def test_config_rejects_bad_fields():
    with pytest.raises(ConfigError):
        tiny_config(window_len=8)  # receptive field of stride 2 is 9
    with pytest.raises(ConfigError):
        tiny_config(channels=0)


@pytest.mark.parametrize("field, value", [
    ("lr", -1e-6), ("momentum", 1.0), ("momentum", -0.1), ("steps_per_epoch", 0),
    ("gen_window", 1), ("snapshot_every", 0), ("batch_size", 0), ("lr_decay", 0.0)])
def test_train_config_rejects_bad_fields_when_built(field, value):
    with pytest.raises(ConfigError):
        TrainConfig(**{field: value})


def test_loss_weights_nonnegative():
    with pytest.raises(ConfigError):
        LossWeights(w1=-0.1)
    w = LossWeights()
    assert (w.w1, w.w2, w.w3) == (0.5, 0.1, 0.01)


# ------------------------------------------------------------- embedding


def test_frame_inputs_layout():
    # layout [x block | y block | conf | mask], coords recentered by -0.5
    coords = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    conf = np.array([[0.5, 0.25]])
    mask = np.array([[False, False]])
    m = frame_inputs(coords, conf, mask)
    assert np.array_equal(m, [[0.5, 2.5, 1.5, 3.5, 0.5, 0.25, 0.0, 0.0]])


def test_frame_inputs_zero_masked():
    coords = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    conf = np.array([[0.5, 0.25]])
    mask = np.array([[True, False]])
    m = frame_inputs(coords, conf, mask)
    assert np.array_equal(m, [[0.0, 2.5, 0.0, 3.5, 0.0, 0.25, 1.0, 0.0]])


@pytest.mark.parametrize("dim", [64, 128, 256, 512, 1024])
def test_embedding_dimension_table(dim):
    cfg = tiny_config(embed_dim=dim)
    model = TcnModel(cfg, seed=1)
    rng = np.random.default_rng(0)
    emb = model.embed_frames(*random_window(cfg, rng))
    assert emb.shape == (cfg.window_len, dim)


def test_embedding_all_zero_input_finite():
    cfg = tiny_config()
    model = TcnModel(cfg, seed=1)
    t, k = cfg.window_len, cfg.n_keypoints
    emb = model.embed_frames(np.zeros((t, k, 2)), np.zeros((t, k)),
                             np.zeros((t, k), dtype=bool))
    assert np.all(np.isfinite(emb.data))


def test_embedding_ignores_masked_coordinates():
    cfg = tiny_config()
    model = TcnModel(cfg, seed=1)
    rng = np.random.default_rng(2)
    coords, conf, mask = random_window(cfg, rng)
    mask[3, 1] = True
    a = model.embed_frames(coords, conf, mask).data
    coords2 = coords.copy()
    coords2[3, 1] = 99.0
    conf2 = conf.copy()
    conf2[3, 1] = 0.9
    b = model.embed_frames(coords2, conf2, mask).data
    assert np.array_equal(a, b)


def test_embedding_shape_mismatch_error():
    model = TcnModel(tiny_config(), seed=1)
    with pytest.raises(InvalidInputError):
        model.embed_frames(np.zeros((10, 5, 2)), np.zeros((10, 5)),
                           np.zeros((10, 5), dtype=bool))
    with pytest.raises(InvalidInputError):
        model.embed_frames(np.zeros((10, 4, 3)), np.zeros((10, 4)),
                           np.zeros((10, 4), dtype=bool))


def test_raw_mode_bypasses_embedding():
    cfg = tiny_config(use_embedding=False)
    model = TcnModel(cfg, seed=1)
    rng = np.random.default_rng(3)
    coords, conf, mask = random_window(cfg, rng)
    emb = model.embed_frames(coords, conf, mask)
    assert np.array_equal(emb.data, frame_inputs(coords, conf, mask))
    assert "embed.w" not in model.state_arrays()


# ---------------------------------------------------------------- forward


@pytest.mark.parametrize("strides", [(1,), (1, 2), (1, 2, 3), (1, 2, 3, 5),
                                     (1, 2, 3, 5, 7)])
def test_forward_shape_per_stride_set(strides):
    cfg = TcnConfig(n_keypoints=5, embed_dim=12, window_len=44, strides=strides,
                    channels=5, branch_layers=3)
    model = TcnModel(cfg, seed=0)
    rng = np.random.default_rng(4)
    out = model.forward(model.embed_frames(*random_window(cfg, rng)))
    assert out.shape == (5, 3)


def test_forward_wrong_window_length():
    cfg = tiny_config()
    model = TcnModel(cfg, seed=0)
    with pytest.raises(InvalidWindowError):
        model.forward(np.zeros((cfg.window_len + 1, cfg.embed_dim)))


def test_zero_head_gives_zero_pose():
    cfg = tiny_config()
    model = TcnModel(cfg, seed=5)
    rng = np.random.default_rng(5)
    out = predict_window(model, *random_window(cfg, rng))
    assert np.array_equal(out, np.zeros((4, 3)))


def _randomize_head(model, rng, scale=0.2):
    for name in ("head.w", "head.b"):
        p = model._params[name]
        p.data = rng.uniform(-scale, scale, size=p.data.shape)


def test_forward_conv_indexing_oracle():
    # single branch, single layer: reproduce the center column by hand
    cfg = TcnConfig(n_keypoints=2, embed_dim=3, window_len=4, strides=(1,),
                    channels=2, branch_layers=1)
    model = TcnModel(cfg, seed=6)
    rng = np.random.default_rng(6)
    _randomize_head(model, rng)
    x = rng.normal(size=(4, 3))
    w = [model._params[f"branch0.layer0.w{i}"].data for i in range(3)]
    b = model._params["branch0.layer0.b"].data
    col = np.tanh(b + x[1] @ w[0] + x[2] @ w[1] + x[3] @ w[2])
    want = (col @ model._params["head.w"].data
            + model._params["head.b"].data) * OUTPUT_SCALE_MM
    got = model.forward(x)
    assert np.allclose(got.data, want.reshape(2, 3), atol=1e-9)


def test_forward_center_receptive_field():
    # strides (1,2), 2 layers, kernel 3: center frame 8 sees frames 8 +/- 4
    cfg = TcnConfig(n_keypoints=3, embed_dim=6, window_len=16, strides=(1, 2),
                    channels=4, branch_layers=2)
    model = TcnModel(cfg, seed=7)
    rng = np.random.default_rng(7)
    _randomize_head(model, rng)
    coords, conf, mask = random_window(cfg, rng)
    base = predict_window(model, coords, conf, mask)

    outside = coords.copy()
    outside[0] += 0.3
    outside[15] -= 0.3
    assert np.array_equal(predict_window(model, outside, conf, mask), base)

    inside = coords.copy()
    inside[8] += 0.3
    assert not np.array_equal(predict_window(model, inside, conf, mask), base)


def test_forward_shifted_window_finite():
    cfg = tiny_config()
    model = TcnModel(cfg, seed=8)
    rng = np.random.default_rng(8)
    _randomize_head(model, rng)
    coords = rng.uniform(0.2, 0.8, size=(cfg.window_len + 1, 4, 2))
    conf = rng.uniform(0.3, 1.0, size=(cfg.window_len + 1, 4))
    mask = np.zeros((cfg.window_len + 1, 4), dtype=bool)
    a = predict_window(model, coords[:-1], conf[:-1], mask[:-1])
    b = predict_window(model, coords[1:], conf[1:], mask[1:])
    assert np.all(np.isfinite(a)) and np.all(np.isfinite(b))
    assert not np.array_equal(a, b)


def expected_param_count(cfg):
    n = 0
    if cfg.use_embedding:
        n += cfg.input_dim * cfg.embed_dim + cfg.embed_dim
    per_branch = 0
    c_in = cfg.branch_input_dim
    for _ in range(cfg.branch_layers):
        per_branch += KERNEL * c_in * cfg.channels + cfg.channels
        c_in = cfg.channels
    n += per_branch * len(cfg.strides)
    fused = len(cfg.strides) * cfg.channels
    return n + fused * cfg.n_keypoints * 3 + cfg.n_keypoints * 3


def test_param_count_formula():
    for cfg in [tiny_config(), tiny_config(use_embedding=False),
                TcnConfig(), tiny_config(strides=(1, 2, 3), window_len=14)]:
        assert param_count(TcnModel(cfg, seed=0)) == expected_param_count(cfg)


def test_param_count_branch_removal_delta():
    # all branches cost the same, and each owns a head slice of channels*K*3
    base = param_count(TcnModel(tiny_config(strides=(1, 2, 3), window_len=14), seed=0))
    cfg12 = tiny_config(strides=(1, 2), window_len=14)
    cfg13 = tiny_config(strides=(1, 3), window_len=14)
    one_branch = expected_param_count(cfg12) - expected_param_count(
        tiny_config(strides=(1,), window_len=14))
    assert base - param_count(TcnModel(cfg12, seed=0)) == one_branch
    assert base - param_count(TcnModel(cfg13, seed=0)) == one_branch


# ----------------------------------------------------------------- losses


def test_loss_3d_examples():
    rng = np.random.default_rng(9)
    gt = rng.normal(scale=100.0, size=(6, 4, 3))
    assert loss_3d(gt, gt).item() == 0.0

    off = gt.copy()
    off[2, 1, 0] += 10.0
    assert loss_3d(off, gt).item() == pytest.approx(100.0 / (6 * 4))

    pred = rng.normal(scale=100.0, size=(6, 4, 3))
    want = sum(((pred[t, k] - gt[t, k]) ** 2).sum() for t in range(6)
               for k in range(4)) / (6 * 4)
    assert loss_3d(pred, gt).item() == pytest.approx(want, rel=1e-12)


def test_loss_multiview_examples():
    rng = np.random.default_rng(10)
    p1 = rng.normal(scale=100.0, size=(3, 5, 3))
    r = rotation_matrix(0.3, -1.1, 0.5)
    assert loss_multiview(p1, p1 @ r.T, r).item() == pytest.approx(0.0, abs=1e-18)
    p2 = rng.normal(scale=100.0, size=(3, 5, 3))
    assert loss_multiview(p1, p2, np.eye(3)).item() == pytest.approx(
        loss_3d(p1, p2).item(), rel=1e-12)
    want = sum(((r @ p1[t, k] - p2[t, k]) ** 2).sum() for t in range(3)
               for k in range(5)) / 15
    assert loss_multiview(p1, p2, r).item() == pytest.approx(want, rel=1e-12)
    with pytest.raises(InvalidInputError):
        loss_multiview(p1, p2, np.eye(4))


def test_loss_2d_projection_of_pred_is_zero():
    rng = np.random.default_rng(11)
    frames = rng.normal(scale=200.0, size=(4, 5, 3))
    gt2d = project_to_crop(PoseSequence3D(frames), scale_mm=2000.0)
    assert loss_2d(frames, gt2d).item() == pytest.approx(0.0, abs=1e-24)


def test_loss_2d_fully_masked_zero_loss_zero_grad():
    rng = np.random.default_rng(12)
    pred = Tensor(rng.normal(scale=200.0, size=(3, 4, 3)))
    coords = np.zeros((3, 4, 2))
    mask = np.ones((3, 4), dtype=bool)
    loss = loss_2d(pred, coords, mask, 2000.0)
    assert loss.item() == 0.0
    loss.backward()
    assert np.array_equal(pred.grad, np.zeros_like(pred.data))


def test_loss_2d_masked_entries_zero_grad():
    rng = np.random.default_rng(13)
    pred = Tensor(rng.normal(scale=200.0, size=(2, 3, 3)))
    coords = rng.uniform(0.2, 0.8, size=(2, 3, 2))
    mask = np.zeros((2, 3), dtype=bool)
    mask[0, 1] = mask[1, 2] = True
    loss_2d(pred, coords, mask, 2000.0).backward()
    assert np.array_equal(pred.grad[0, 1], [0.0, 0.0, 0.0])
    assert np.array_equal(pred.grad[1, 2], [0.0, 0.0, 0.0])
    assert np.all(np.abs(pred.grad[0, 0][:2]) > 0)


def test_loss_2d_oracle_random():
    rng = np.random.default_rng(14)
    pred = rng.normal(scale=300.0, size=(4, 6, 3))
    coords = rng.uniform(size=(4, 6, 2))
    mask = rng.random((4, 6)) < 0.3
    scale = 1700.0
    want, n = 0.0, 0
    for t in range(4):
        for k in range(6):
            if mask[t, k]:
                continue
            p = pred[t, k, :2] / scale + 0.5
            want += ((p - coords[t, k]) ** 2).sum()
            n += 1
    assert loss_2d(pred, coords, mask, scale).item() == pytest.approx(
        want / n, rel=1e-12)


def test_total_loss_examples():
    assert total_loss(0.0, 0.0, 0.0, 0.0).item() == 0.0
    assert total_loss(1.0, 1.0, 1.0, 1.0).item() == pytest.approx(1.61)
    rng = np.random.default_rng(15)
    a, b, c, d = rng.uniform(size=4)
    w = LossWeights(w1=0.3, w2=0.2, w3=0.05)
    assert total_loss(a, b, c, d, w).item() == pytest.approx(
        a + 0.3 * b + 0.2 * c + 0.05 * d, rel=1e-12)


class QuadraticScorer:
    """Stand-in realness penalty: mean squared coordinate, differentiable.

    A B x T x K x 3 batch of windows gives the sum of its windows' values.
    """

    def gen_loss(self, window):
        sq = window * window
        if sq.ndim == 4:
            return sq.reshape(sq.shape[0], -1).mean(axis=1).sum()
        return sq.reshape(-1).mean()


def test_gradient_check_full_loss_stack():
    cfg = tiny_config()
    model = TcnModel(cfg, seed=16)
    rng = np.random.default_rng(16)
    _randomize_head(model, rng)
    coords, conf, mask = random_window(cfg, rng, masked=3)
    coords2, conf2, mask2 = random_window(cfg, rng, masked=2)
    gt = rng.normal(scale=100.0, size=(4, 3))
    gt2d = rng.uniform(size=(4, 2))
    gt2d_mask = np.array([False, True, False, False])
    r12 = rotation_matrix(0.2, 0.9, -0.4)
    scorer = QuadraticScorer()

    def compute():
        p1 = model.forward(model.embed_frames(coords, conf, mask))
        p2 = model.forward(model.embed_frames(coords2, conf2, mask2))
        return total_loss(loss_3d(p1, gt),
                          loss_multiview(p1, p2, r12),
                          loss_2d(p1, gt2d, gt2d_mask, 2000.0),
                          scorer.gen_loss(p1))

    loss = compute()
    for p in model.parameters():
        p.grad = None
    loss.backward()

    params = model.parameters()
    grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
    gmax = max(np.abs(g).max() for g in grads)
    live = [(i, j) for i, g in enumerate(grads)
            for j in np.flatnonzero(np.abs(g) > 1e-8 * gmax)]
    rng.shuffle(live)
    eps = 1e-5
    for i, j in live[:100]:
        p = params[i]
        keep = p.data.flat[j]
        p.data.flat[j] = keep + eps
        hi = compute().item()
        p.data.flat[j] = keep - eps
        lo = compute().item()
        p.data.flat[j] = keep
        fd = (hi - lo) / (2 * eps)
        a = grads[i].flat[j]
        assert abs(a - fd) / max(abs(a), abs(fd)) < 1e-4, (i, j, a, fd)


# --------------------------------------------------------------- training


def small_dataset(topo, frames=80, n_sequences=2, views=(), seed=0):
    cfg = synth.SyntheticMotionConfig(n_sequences=n_sequences, frames=frames,
                                      seed=seed, view_rotations=views,
                                      speed_multipliers=(1.0, 1.5))
    return synth.generate(cfg, topo)


def train_config(**kw):
    base = dict(lr=1e-6, momentum=0.9, steps_per_epoch=40, batch_size=4, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def desk_model_config(**kw):
    base = dict(n_keypoints=17, embed_dim=16, window_len=16, strides=(1, 2),
                channels=16, branch_layers=2)
    base.update(kw)
    return TcnConfig(**base)


def test_train_lr_zero_leaves_parameters(topo):
    model = TcnModel(desk_model_config(), seed=17)
    before = model.state_arrays()
    data = small_dataset(topo)
    history = train(model, data, train_config(lr=0.0, steps_per_epoch=5))
    after = model.state_arrays()
    assert all(np.array_equal(before[k], after[k]) for k in before)
    assert len(history) == 1


def test_train_reduces_3d_loss(topo):
    model = TcnModel(desk_model_config(), seed=18)
    data = small_dataset(topo, frames=120, n_sequences=3)
    # the untrained zero-init model predicts the zero pose everywhere
    step0 = np.mean([(s.views[0].pose3d.frames ** 2).sum(-1).mean() for s in data])
    history = train(model, data, train_config(steps_per_epoch=100, batch_size=8),
                    epochs=3)
    assert history[-1]["loss_3d"] < 0.5 * step0
    assert all(np.isfinite(h["loss"]) for h in history)


def test_train_multiview_term_active(topo):
    model = TcnModel(desk_model_config(), seed=19)
    data = small_dataset(topo, views=((0.0, 1.2, 0.0),))
    history = train(model, data, train_config(steps_per_epoch=10))
    assert history[0]["loss_mv"] > 0.0


def test_train_gen_term_uses_scorer(topo):
    model = TcnModel(desk_model_config(), seed=20)
    data = small_dataset(topo)
    history = train(model, data, train_config(steps_per_epoch=10),
                    scorer=QuadraticScorer())
    assert history[0]["loss_gen"] >= 0.0
    # zero-head start: first windows predict ~0, so the term stays small but real
    assert np.isfinite(history[0]["loss_gen"])


def test_train_2d_only_sequences(topo):
    model = TcnModel(desk_model_config(), seed=21)
    data = small_dataset(topo)
    views = [SimpleNamespace(rotation=v.rotation, det2d=v.det2d, pose3d=None)
             for v in data[0].views]
    history = train(model, [SimpleNamespace(views=views)], train_config(steps_per_epoch=8))
    assert history[0]["loss_3d"] == 0.0
    assert history[0]["loss_2d"] > 0.0


def test_train_reprojection_term_goes_through_loss_2d(topo, monkeypatch):
    # one loss_2d call per step, on the batch's stack with one scale per sample
    data = small_dataset(topo)
    models = [TcnModel(desk_model_config(), seed=21) for _ in range(2)]
    want = train(models[0], data, train_config(steps_per_epoch=3))
    calls = []

    def counted(pred, gt2d, mask=None, scale_mm=None):
        calls.append(len(scale_mm))
        return loss_2d(pred, gt2d, mask, scale_mm)

    monkeypatch.setattr(tcn, "loss_2d", counted)
    got = train(models[1], data, train_config(steps_per_epoch=3))
    assert calls == [4, 4, 4]
    assert got == want and want[0]["loss_2d"] > 0.0
    a, b = models[0].state_arrays(), models[1].state_arrays()
    assert all(np.array_equal(a[name], b[name]) for name in a)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_train_divergence_raises_with_checkpoint(topo):
    model = TcnModel(desk_model_config(), seed=22)
    data = small_dataset(topo)
    with pytest.raises(TrainingDivergedError) as err:
        train(model, data, train_config(lr=1e8, steps_per_epoch=400, batch_size=2))
    assert "head.w" in err.value.checkpoint


@pytest.mark.parametrize("scorer", [None, QuadraticScorer()], ids=["no-scorer", "scorer"])
def test_train_rejects_a_sequence_one_frame_short(topo, scorer):
    # a window needs window_len frames, plus gen_window - 1 with a scorer;
    # the other sequences being long enough does not let the short one pass
    cfg, tcfg = desk_model_config(), train_config()
    need = cfg.window_len + (tcfg.gen_window - 1 if scorer else 0)
    data = small_dataset(topo)
    data.insert(1, small_dataset(topo, frames=need - 1, n_sequences=1)[0])
    model = TcnModel(cfg, seed=23)
    before = model.state_arrays()
    named = f"^sequence 1 has {need - 1} frames, but a window needs {need} frames$"
    with pytest.raises(InvalidInputError, match=named):
        train(model, data, tcfg, scorer=scorer)
    assert all(np.array_equal(a, model.state_arrays()[k]) for k, a in before.items())
    data[1] = small_dataset(topo, frames=need, n_sequences=1)[0]
    assert len(train(model, data, replace(tcfg, steps_per_epoch=1), scorer=scorer)) == 1


def test_train_rejects_a_sequence_with_no_views(topo):
    data = small_dataset(topo) + [SimpleNamespace(views=[])]
    with pytest.raises(InvalidInputError,
                       match="^sequence 2 has no views, but a window needs 16 frames$"):
        train(TcnModel(desk_model_config(), seed=23), data, train_config())
    with pytest.raises(InvalidInputError, match="no sequence"):
        train(TcnModel(desk_model_config(), seed=23), [], train_config())


def assert_train_rejects_before_a_step(data, message):
    model = TcnModel(desk_model_config(), seed=23)
    before = model.state_arrays()
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        train(model, data, train_config())
    assert all(np.array_equal(a, model.state_arrays()[k]) for k, a in before.items())


def test_train_rejects_a_view_with_fewer_detections(topo):
    # every view of a sequence is checked, not views[0] alone
    data = small_dataset(topo, frames=40, views=((0.0, 1.2, 0.0),))
    view = data[1].views[1]
    det = view.det2d
    data[1].views[1] = replace(view, det2d=PoseSequence2D(
        det.frames[:20], det.confidence[:20], det.mask[:20], det.scale_mm))
    assert_train_rejects_before_a_step(
        data, "sequence 1 view 1 has 20 detection frames, but view 0 has 40")


def test_train_rejects_a_view_whose_pose3d_is_shorter_than_its_detections(topo):
    data = small_dataset(topo, frames=40, views=((0.0, 1.2, 0.0),))
    view = data[1].views[0]
    data[1].views[0] = replace(view, pose3d=PoseSequence3D(view.pose3d.frames[:10]))
    assert_train_rejects_before_a_step(
        data, "sequence 1 view 0 has 10 pose3d frames, but 40 detection frames")


def test_train_reproducible(topo):
    results = []
    for run in range(2):
        model = TcnModel(desk_model_config(), seed=24)
        data = small_dataset(topo)
        history = train(model, data, train_config(steps_per_epoch=15))
        results.append((model.state_arrays(), history))
    (s1, h1), (s2, h2) = results
    assert h1 == h2
    assert all(np.array_equal(s1[k], s2[k]) for k in s1)


def test_train_step_of_1000_samples(topo):
    # one step's loss sums 1000 samples: a graph far deeper than the
    # interpreter's recursion limit
    model = TcnModel(desk_model_config(embed_dim=4, channels=4), seed=25)
    history = train(model, small_dataset(topo),
                    train_config(steps_per_epoch=1, batch_size=1000))
    assert np.isfinite(history[0]["loss"])


def test_checkpoint_roundtrip(tmp_path, topo):
    model = TcnModel(desk_model_config(), seed=25)
    data = small_dataset(topo)
    train(model, data, train_config(steps_per_epoch=10))
    path = tmp_path / "model.npz"
    model.save(path)
    loaded = TcnModel.load(path)
    assert loaded.config == model.config
    rng = np.random.default_rng(25)
    coords, conf, mask = random_window(model.config, rng)
    assert np.array_equal(predict_window(loaded, coords, conf, mask),
                          predict_window(model, coords, conf, mask))


@st.composite
def tcn_configs(draw):
    strides = tuple(sorted(draw(st.sets(st.integers(1, 4), min_size=1, max_size=3))))
    branch_layers = draw(st.integers(1, 2))
    widest = 1 + branch_layers * (KERNEL - 1) * strides[-1]
    return TcnConfig(
        n_keypoints=draw(st.integers(1, 4)), embed_dim=draw(st.integers(1, 5)),
        window_len=widest + draw(st.integers(0, 3)), strides=strides,
        channels=draw(st.integers(1, 5)), branch_layers=branch_layers,
        use_embedding=draw(st.booleans()))


@settings(max_examples=40)
@given(cfg=tcn_configs(), seed=st.integers(0, 2 ** 32 - 1))
def test_checkpoint_gives_back_every_array_and_the_config_exactly(tmp_path_factory, cfg,
                                                                    seed):
    model = TcnModel(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    # every parameter random, the zero-initialised head included
    model.load_state({name: rng.normal(0.0, 10.0 ** rng.integers(-3, 4), a.shape)
                      for name, a in model.state_arrays().items()})
    path = tmp_path_factory.mktemp("tcn") / "model.npz"
    model.save(path)
    loaded = TcnModel.load(path)
    assert loaded.config == cfg
    want, got = model.state_arrays(), loaded.state_arrays()
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].dtype == np.float64
        assert np.array_equal(got[name], want[name]), name


def test_checkpoint_kind_guard(tmp_path):
    from poselift.pose_io import save_checkpoint
    path = tmp_path / "other.npz"
    save_checkpoint(path, {"a": np.zeros(3)}, {"kind": "scaler"})
    with pytest.raises(InvalidInputError):
        TcnModel.load(path)


def test_checkpoint_with_arrays_no_parameter_takes_is_an_error(tmp_path):
    from poselift.pose_io import load_checkpoint, save_checkpoint
    TcnModel(tiny_config(), seed=4).save(tmp_path / "model")
    arrays, meta = load_checkpoint(tmp_path / "model.npz")
    save_checkpoint(tmp_path / "odd", {**arrays, "stray": np.zeros(2),
                                       "branch9.layer0.w0": np.zeros((3, 3))}, meta)
    with pytest.raises(InvalidInputError, match=re.escape(
            f"{tmp_path / 'odd.npz'}: checkpoint has unexpected arrays: "
            "['branch9.layer0.w0', 'stray']")):
        TcnModel.load(tmp_path / "odd.npz")


def test_checkpoint_config_drops_retired_keys_and_rejects_unknown_ones(tmp_path):
    from poselift.pose_io import load_checkpoint, save_checkpoint
    model = TcnModel(tiny_config(), seed=4)
    _randomize_head(model, np.random.default_rng(4))
    model.save(tmp_path / "model")
    arrays, meta = load_checkpoint(tmp_path / "model.npz")
    # checkpoints written before these fields were retired still load: any
    # tkcs_interval, and the three lifter fields at the constants' values
    old = {**meta["config"], "tkcs_interval": 3, "kernel": 3, "activation": "tanh",
           "output_scale_mm": 200.0}
    save_checkpoint(tmp_path / "old", arrays, {**meta, "config": old})
    loaded = TcnModel.load(tmp_path / "old.npz")
    assert loaded.config == model.config
    det = PoseSequence2D(*random_window(model.config, np.random.default_rng(5)),
                         scale_mm=2000.0)
    want = model.predict_sequence(det).frames
    assert np.abs(want).max() > 1.0
    assert np.array_equal(loaded.predict_sequence(det).frames, want)
    for field, value in (("activation", "relu"), ("kernel", 5), ("output_scale_mm", 100.0)):
        save_checkpoint(tmp_path / "bad", arrays,
                        {**meta, "config": {**old, field: value}})
        with pytest.raises(InvalidInputError, match=f"checkpoint config .*: {field} = "):
            TcnModel.load(tmp_path / "bad.npz")
    for config in ({**meta["config"], "dilation": 2}, None):
        save_checkpoint(tmp_path / "bad", arrays, {**meta, "config": config})
        with pytest.raises(InvalidInputError, match="checkpoint config"):
            TcnModel.load(tmp_path / "bad.npz")


def test_predict_sequence_center_consistency(topo):
    cfg = desk_model_config()
    model = TcnModel(cfg, seed=26)
    rng = np.random.default_rng(26)
    data = small_dataset(topo, frames=cfg.window_len)
    train(model, small_dataset(topo), train_config(steps_per_epoch=10))
    det = data[0].views[0].det2d
    out = model.predict_sequence(det)
    assert out.frames.shape == (det.T, 17, 3)
    assert out.root_relative and np.all(np.isfinite(out.frames))
    center = cfg.window_len // 2
    direct = predict_window(model, det.frames, det.confidence, det.mask)
    assert np.allclose(out.frames[center], direct, atol=1e-12)


def test_predict_sequence_rejects_zero_frames():
    model = TcnModel(tiny_config(), seed=27)
    det = PoseSequence2D(np.zeros((0, 4, 2)), np.zeros((0, 4)), np.zeros((0, 4), dtype=bool),
                         scale_mm=2000.0)
    with pytest.raises(InvalidInputError, match="0 frames"):
        model.predict_sequence(det)


# ------------------------------------------- one pass vs. per-window oracles


@pytest.mark.parametrize("cfg", [
    TcnConfig(n_keypoints=3, embed_dim=5, window_len=9, strides=(1,), channels=4,
              branch_layers=2),
    TcnConfig(n_keypoints=3, embed_dim=5, window_len=14, strides=(1, 2, 3), channels=4,
              branch_layers=2),
    TcnConfig(n_keypoints=3, embed_dim=5, window_len=30, strides=(1, 2, 3, 5, 7),
              channels=4, branch_layers=1),
    TcnConfig(n_keypoints=3, embed_dim=5, window_len=31, strides=(1, 2, 3, 5, 7),
              channels=4, branch_layers=2),
    TcnConfig(n_keypoints=3, window_len=15, strides=(1, 2, 3), channels=4,
              branch_layers=2, use_embedding=False),
], ids=["s1-w9", "s123-w14", "s12357-w30-l1", "s12357-w31", "raw-w15"])
@pytest.mark.parametrize("frames", [1, 6, 40])
def test_predict_sequence_matches_per_window_oracle(cfg, frames):
    model = TcnModel(cfg, seed=30)
    rng = np.random.default_rng(30)
    _randomize_head(model, rng)
    coords = rng.uniform(0.2, 0.8, size=(frames, cfg.n_keypoints, 2))
    conf = rng.uniform(0.3, 1.0, size=(frames, cfg.n_keypoints))
    mask = rng.random((frames, cfg.n_keypoints)) < 0.2
    coords[mask] = 0.0
    conf[mask] = 0.0
    det = PoseSequence2D(coords, conf, mask, scale_mm=2000.0)
    got = model.predict_sequence(det).frames
    want = predict_sequence_per_frame(model, det)
    assert got.shape == want.shape == (frames, cfg.n_keypoints, 3)
    assert np.abs(want).max() > 1.0
    assert np.abs(got - want).max() < 1e-9


def test_forward_centers_with_batch_axes_matches_oracle():
    cfg = tiny_config(window_len=11, strides=(1, 2))
    model = TcnModel(cfg, seed=31)
    rng = np.random.default_rng(31)
    _randomize_head(model, rng)
    centers = 4
    emb = rng.normal(size=(2, 3, cfg.window_len + centers - 1, cfg.embed_dim))
    got = model.forward(emb, centers=centers)
    assert got.shape == (2, 3, centers, cfg.n_keypoints, 3)
    for i in range(2):
        for j in range(3):
            for c in range(centers):
                want = window_forward(model, emb[i, j, c: c + cfg.window_len])
                assert np.abs(got.data[i, j, c] - want).max() < 1e-9
    one = model.forward(emb[..., :cfg.window_len, :])
    assert one.shape == (2, 3, cfg.n_keypoints, 3)
    assert np.abs(one.data - got.data[:, :, 0]).max() < 1e-9


PER_TAP_CONFIGS = [
    TcnConfig(n_keypoints=3, embed_dim=5, window_len=9, strides=(1,), channels=4,
              branch_layers=2),
    TcnConfig(n_keypoints=3, embed_dim=5, window_len=30, strides=(1, 2, 3, 5, 7),
              channels=4, branch_layers=1),
    TcnConfig(n_keypoints=3, embed_dim=5, window_len=31, strides=(1, 2, 3, 5, 7),
              channels=4, branch_layers=2),
    TcnConfig(n_keypoints=3, window_len=15, strides=(1, 2, 3), channels=4,
              branch_layers=2, use_embedding=False),
]
PER_TAP_IDS = ["s1", "s12357-l1", "s12357", "raw-s123"]


def _forward_and_grads(forward, model, emb, proj, centers):
    """Output of forward(emb, centers) and the gradients of (out * proj).sum()
    w.r.t. emb and every parameter (None where nothing reaches it)."""
    x = Tensor(emb, requires_grad=True)
    for p in model.parameters():
        p.grad = None
    out = forward(x, centers)
    (out * Tensor(proj)).sum().backward()
    return out.data, [x.grad] + [p.grad for p in model.parameters()]


@pytest.mark.parametrize("cfg", PER_TAP_CONFIGS, ids=PER_TAP_IDS)
@pytest.mark.parametrize("lead, centers", [((), 1), ((3,), 1), ((2, 3), 4)])
def test_forward_matches_per_tap_graph(cfg, lead, centers):
    model = TcnModel(cfg, seed=33)
    rng = np.random.default_rng(33)
    _randomize_head(model, rng)
    emb = rng.normal(size=lead + (cfg.window_len + centers - 1, cfg.branch_input_dim))
    out_shape = lead + ((centers,) if centers > 1 else ()) + (cfg.n_keypoints, 3)
    proj = rng.normal(size=out_shape)
    got, got_grads = _forward_and_grads(model.forward, model, emb, proj, centers)
    want, want_grads = _forward_and_grads(
        lambda x, c: forward_per_tap(model, x, c), model, emb, proj, centers)
    assert got.shape == out_shape
    assert np.array_equal(got, want)
    for g, w in zip(got_grads, want_grads):
        if w is None:        # the embedding weights: forward starts after them
            assert g is None
            continue
        np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-9 * np.abs(w).max())
    assert np.abs(want_grads[0]).max() > 0


@pytest.mark.parametrize("cfg", PER_TAP_CONFIGS, ids=PER_TAP_IDS)
def test_forward_gradient_matches_central_differences(cfg):
    model = TcnModel(cfg, seed=34)
    rng = np.random.default_rng(34)
    _randomize_head(model, rng)
    centers = 3
    emb = rng.normal(size=(2, cfg.window_len + centers - 1, cfg.branch_input_dim))
    proj = rng.normal(size=(2, centers, cfg.n_keypoints, 3))
    _, grads = _forward_and_grads(model.forward, model, emb, proj, centers)
    leaves = [emb] + [p.data for p in model.parameters()]
    dirs = [rng.normal(size=a.shape) for a in leaves]
    want = sum(np.sum(g * d) for g, d in zip(grads, dirs) if g is not None)

    def loss(step):
        saved = [p.data for p in model.parameters()]
        for p, a, d in zip(model.parameters(), leaves[1:], dirs[1:]):
            p.data = a + step * d
        value = (model.forward(Tensor(emb + step * dirs[0]), centers)
                 * Tensor(proj)).sum().item()
        for p, a in zip(model.parameters(), saved):
            p.data = a
        return value

    eps = 1e-5
    assert (loss(eps) - loss(-eps)) / (2 * eps) == pytest.approx(want, rel=1e-6)


def _non_leaf_nodes(root):
    seen = {id(root)}
    todo = [root]
    count = 0
    while todo:
        node = todo.pop()
        count += bool(node.parents)
        for p in node.parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return count


def test_training_step_graph_stays_small(topo, monkeypatch):
    # 64-wide embedding, strides (1,2,3), 32 channels, two layers, batch 8,
    # two views and a KCS scorer. The non-leaf nodes of one step's backward
    # here: 210 with one node per conv tap and one scorer call per sample,
    # 91 with one node per conv layer and one scorer call per batch, and 21
    # with one node per embedding, per lifter forward and per loss term
    data = two_view_dataset(topo)
    model = TcnModel(TcnConfig(embed_dim=64, window_len=20, strides=(1, 2, 3),
                               channels=32, branch_layers=2), seed=35)
    counts = []
    backward = Tensor.backward

    def counting_backward(self):
        counts.append(_non_leaf_nodes(self))
        return backward(self)

    monkeypatch.setattr(Tensor, "backward", counting_backward)
    train(model, data, train_config(steps_per_epoch=1, batch_size=8),
          scorer=KcsEnergyModel.fit(real_windows(data, 8), topo))
    assert len(counts) == 1 and counts[0] <= 25


@pytest.mark.parametrize("rows, centers", [(10, 2), (12, 2), (10, 0), (9, 0), (11, -1),
                                           (10, 1.0)])
def test_forward_rejects_rows_not_matching_centers(rows, centers):
    cfg = tiny_config()
    model = TcnModel(cfg, seed=0)
    with pytest.raises(InvalidWindowError):
        model.forward(np.zeros((3, rows, cfg.embed_dim)), centers=centers)


def two_view_dataset(topo):
    return small_dataset(topo, frames=60, n_sequences=3, views=((0.0, 1.2, 0.0),))


def assert_train_matches_per_window(model_cfg, data, tcfg, epochs=1, scorer=None):
    models = [TcnModel(model_cfg, seed=32) for _ in range(2)]
    got = train(models[0], data, tcfg, epochs=epochs, scorer=scorer)
    want = train_per_window(models[1], data, tcfg, epochs=epochs, scorer=scorer)
    assert len(got) == len(want) == epochs
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        for key in g:
            assert g[key] == pytest.approx(w[key], rel=1e-9, abs=0.0), key
    a, b = models[0].state_arrays(), models[1].state_arrays()
    for name in a:
        assert np.abs(a[name] - b[name]).max() <= 1e-9, name
    return got


def test_train_matches_per_window_two_views_with_scorer(topo):
    data = two_view_dataset(topo)
    scorer = KcsEnergyModel.fit(real_windows(data, 8), topo)
    history = assert_train_matches_per_window(
        desk_model_config(), data,
        train_config(steps_per_epoch=6, lr_decay=0.5), epochs=2, scorer=scorer)
    assert all(h[k] > 0 for h in history for k in ("loss_3d", "loss_mv", "loss_gen"))


def test_train_matches_per_window_2d_only(topo):
    data = two_view_dataset(topo)
    seqs = [SimpleNamespace(views=[SimpleNamespace(rotation=v.rotation, det2d=v.det2d,
                                                   pose3d=None if i == 0 else v.pose3d)
                                   for v in s.views])
            for i, s in enumerate(data)]
    # the first sequence has no ground truth at all; the others do
    history = assert_train_matches_per_window(
        desk_model_config(), seqs, train_config(steps_per_epoch=8, lr=1e-5),
        scorer=QuadraticScorer())
    assert history[0]["loss_3d"] > 0 and history[0]["loss_mv"] > 0
    only_2d = assert_train_matches_per_window(
        desk_model_config(), seqs[:1], train_config(steps_per_epoch=4, lr=1e-5))
    assert only_2d[0]["loss_3d"] == only_2d[0]["loss_mv"] == 0.0


def test_train_matches_per_window_batch_of_one(topo):
    assert_train_matches_per_window(
        desk_model_config(window_len=15, strides=(1, 3), branch_layers=2),
        two_view_dataset(topo), train_config(steps_per_epoch=10, batch_size=1, lr=1e-5),
        scorer=QuadraticScorer())


# ------------------------------------------------------------ branch threads
#
# A forward whose embedding rows x branch_input_dim x channels reach
# tcn.BRANCH_THREAD_WORK runs its stride branches on parallel.run threads
# when BLAS computes on one thread, and so does its backward. The core count
# comes from parallel.cores, patched here; results must not depend on it.

# batch 8 x 23 rows (4 chain centers) x 256 x 128, and the 8 x 20 rows of the
# view-2 windows, are above the gate
WIDE = TcnConfig(embed_dim=256, window_len=20, strides=(1, 2, 3), channels=128,
                 branch_layers=2)


def counting_starts(monkeypatch):
    """The threading.Threads started from now on."""
    started, start = [], threading.Thread.start

    def counting(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return started


@pytest.fixture(scope="module")
def wide_inputs(topo):
    data = two_view_dataset(topo)
    long_det = small_dataset(topo, frames=480, n_sequences=1, seed=7)[0].views[0].det2d
    return data, KcsEnergyModel.fit(real_windows(data, 8), topo), long_det


def train_and_lift(model_cfg, inputs, steps, batch_size=8):
    """(parameters, history, predict_sequence frames) of a fresh model."""
    data, scorer, det = inputs
    model = TcnModel(model_cfg, seed=9)
    history = train(model, data, train_config(steps_per_epoch=steps, batch_size=batch_size),
                    scorer=scorer)
    return model.state_arrays(), history, model.predict_sequence(det).frames


def test_wide_model_trains_and_lifts_the_same_bits_on_any_core_count(
        one_blas_thread, fast_switches, monkeypatch, wide_inputs):
    # the training run and the 499-row lift each open one team, which
    # starts one thread per branch group but the caller's
    runs = []
    for cores in (1, 2, 3):
        monkeypatch.setattr(parallel, "cores", lambda: cores)
        started = counting_starts(monkeypatch)
        runs.append(train_and_lift(WIDE, wide_inputs, steps=3))
        assert len(started) == (cores - 1) * 2
    (params, history, frames), others = runs[0], runs[1:]
    for got_params, got_history, got_frames in others:
        assert got_history == history
        assert np.array_equal(got_frames, frames)
        for name in params:
            assert np.array_equal(got_params[name], params[name]), name


def test_branch_groups_deal_the_widest_branch_first(monkeypatch):
    # 128 rows x 256 x 128 is the gate exactly
    model = TcnModel(WIDE)
    monkeypatch.setattr(parallel, "blas_threads", lambda: 1)
    for cores, groups in [(1, [[0, 1, 2]]), (2, [[2], [1, 0]]), (3, [[2], [1], [0]]),
                          (8, [[2], [1], [0]])]:
        monkeypatch.setattr(parallel, "cores", lambda: cores)
        assert model.branch_groups(184, 4) == model.branch_groups(128, 1) == groups
        assert model.branch_groups(127, 1) == [[0, 1, 2]]


def test_readme_demo_and_wide_model_on_threaded_blas_start_no_thread(
        one_blas_thread, monkeypatch, topo, wide_inputs):
    from poselift.cli import load_config
    from poselift.pose_io import parse_config

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    demo = load_config(parse_config(
        re.search(r"cat > exp\.cfg <<'CFG'\n(.*?)\nCFG\n", readme, re.S).group(1)))
    monkeypatch.setattr(parallel, "cores", lambda: 3)
    started = counting_starts(monkeypatch)
    data = synth.generate(demo.train_synth, topo)
    model = TcnModel(demo.tcn, seed=demo.seed)
    train(model, data, replace(demo.train, steps_per_epoch=2),
          scorer=KcsEnergyModel.fit(real_windows(data, demo.scorer_window), topo))
    for seq in synth.generate(demo.eval_synth, topo):
        model.predict_sequence(seq.views[0].det2d)
    assert started == []

    set_threads = parallel._openblas("set_num_threads", None, (ctypes.c_int,))
    set_threads(2)          # the fixture puts BLAS back on its own count
    train_and_lift(WIDE, wide_inputs, steps=1)
    assert started == []


@pytest.mark.parametrize("cores", [2, 3])
@pytest.mark.parametrize("phase", ["forward", "backward"])
def test_a_failing_branch_group_raises_in_the_caller(one_blas_thread, fast_switches,
                                                     monkeypatch, wide_inputs, cores, phase):
    # every group but the caller's fails: on 2 cores the stride-2 branch
    # fails first in its group, on 3 it is the first of two failing groups
    name = f"_branch_{phase}"
    real = getattr(tcn, name)

    def failing(layers, weights_or_stride, *args):
        s = weights_or_stride if phase == "backward" else args[0]
        if s < 3:
            raise InvalidWindowError(f"{phase} of stride {s}")
        return real(layers, weights_or_stride, *args)

    monkeypatch.setattr(parallel, "cores", lambda: cores)
    monkeypatch.setattr(tcn, name, failing)
    before = threading.active_count()
    with pytest.raises(InvalidWindowError, match=f"^{phase} of stride 2$"):
        train_and_lift(WIDE, wide_inputs, steps=1)
    assert threading.active_count() == before


# --------------------------------------- chunked, record-free predict_sequence
#
# predict_sequence cuts a sequence into ceil(T / PREDICT_CHUNK) chunks as even
# as they can be cut and lifts each without recording. Each chunk must be the
# training path's lift of its centers bit for bit, and a sequence of one chunk
# the training forward over the whole sequence. Across cuts, a row's bits
# stay while every product takes OpenBLAS's packed kernel, with BLAS on one
# thread. Its small-matrix kernel (products of at most 10^6 multiply-adds)
# and the matrix-vector one of a one-row product may round a row by where
# the product's rows end, so the small models here agree with the one-pass
# lift to rounding only.


def random_detections(cfg, frames, rng):
    coords = rng.uniform(0.2, 0.8, size=(frames, cfg.n_keypoints, 2))
    conf = rng.uniform(0.3, 1.0, size=(frames, cfg.n_keypoints))
    mask = rng.random((frames, cfg.n_keypoints)) < 0.2
    coords[mask] = 0.0
    conf[mask] = 0.0
    return PoseSequence2D(coords, conf, mask, scale_mm=2000.0)


def training_lift(model, det, chunk):
    """The training path's lift of det's centers: per chunk of the even cut,
    one forward over the embed_frames of the edge-padded detections."""
    w, t = model.config.window_len, det.T
    pad = ((w // 2, w - w // 2 - 1), (0, 0))
    coords = np.pad(det.frames, pad + ((0, 0),), mode="edge")
    conf = np.pad(det.confidence, pad, mode="edge")
    mask = np.pad(det.mask, pad, mode="edge")
    n = -(-t // chunk)
    ends = [t * i // n for i in range(n + 1)]
    return np.concatenate([
        model.forward(model.embed_frames(coords[a:b + w - 1], conf[a:b + w - 1],
                                         mask[a:b + w - 1]), centers=b - a)
        .data.reshape(b - a, model.config.n_keypoints, 3)
        for a, b in zip(ends, ends[1:])])


CHUNK_CONFIGS = {
    "s12357-w31": (TcnConfig(n_keypoints=3, embed_dim=5, window_len=31,
                             strides=(1, 2, 3, 5, 7), channels=4, branch_layers=2), (1,)),
    "raw-w15": (TcnConfig(n_keypoints=3, window_len=15, strides=(1, 2, 3), channels=4,
                          branch_layers=2, use_embedding=False), (1,)),
    "wide": (WIDE, (1, 2, 3)),
}


@pytest.mark.parametrize("chunk", [1, 7, 48, tcn.PREDICT_CHUNK])
@pytest.mark.parametrize("name", CHUNK_CONFIGS)
def test_chunked_lift_is_the_training_forward(one_blas_thread, monkeypatch, name, chunk):
    cfg, core_counts = CHUNK_CONFIGS[name]
    model = TcnModel(cfg, seed=32)
    rng = np.random.default_rng(32)
    _randomize_head(model, rng)
    monkeypatch.setattr(tcn, "PREDICT_CHUNK", chunk)
    for frames in sorted({1, chunk - 1, chunk + 1, 2 * chunk + 7} - {0}):
        det = random_detections(cfg, frames, rng)
        want, whole = training_lift(model, det, chunk), training_lift(model, det, frames)
        assert np.abs(whole).max() > 1.0
        for cores in core_counts:
            monkeypatch.setattr(parallel, "cores", lambda: cores)
            got = model.predict_sequence(det).frames
            assert np.array_equal(got, want), (frames, cores)
        if frames <= chunk:
            assert np.array_equal(got, whole), frames
        else:
            assert np.abs(got - whole).max() <= 1e-12 * np.abs(whole).max(), frames


@pytest.mark.parametrize("cfg", [TcnConfig(), WIDE], ids=["pipeline", "wide"])
def test_long_lifts_keep_the_one_pass_bits(one_blas_thread, cfg):
    # chunks of at least PREDICT_CHUNK // 2 = 512 centers: every product of
    # these lifters takes OpenBLAS's packed kernel
    model = TcnModel(cfg, seed=33)
    rng = np.random.default_rng(33)
    _randomize_head(model, rng)
    for frames in (1025, 1031, 2 * tcn.PREDICT_CHUNK + 7):
        det = random_detections(cfg, frames, rng)
        assert np.array_equal(model.predict_sequence(det).frames,
                              training_lift(model, det, frames)), frames


def test_predict_sequence_cuts_even_chunks(monkeypatch):
    # 21 frames are three chunks of 7, 20 are 6, 7, 7 and 15 are three of 5
    model = TcnModel(tiny_config(), seed=34)
    monkeypatch.setattr(tcn, "PREDICT_CHUNK", 7)
    lifted, lift = [], TcnModel._lift

    def counting(self, r, centers):
        lifted.append(centers)
        return lift(self, r, centers)

    monkeypatch.setattr(TcnModel, "_lift", counting)
    for frames in (21, 20, 15, 7):
        model.predict_sequence(random_detections(model.config, frames,
                                                 np.random.default_rng(frames)))
    assert lifted == [7, 7, 7, 6, 7, 7, 5, 5, 5, 7]


@pytest.mark.parametrize("cfg", [TcnConfig(), WIDE], ids=["pipeline", "wide"])
def test_predict_sequence_records_nothing(one_blas_thread, monkeypatch, cfg):
    # the wide lift runs its branches on 2 threads
    monkeypatch.setattr(parallel, "cores", lambda: 2)
    model = TcnModel(cfg, seed=35)
    det = random_detections(cfg, 480, np.random.default_rng(35))
    made, init = [], Tensor.__init__

    def counting(self, *args, **kwargs):
        made.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting)
    model.predict_sequence(det)
    assert made == []
    predict_window(model, det.frames[:20], det.confidence[:20], det.mask[:20])
    assert len(made) == 2          # the training path's embedding and lifter nodes


def test_predict_sequence_memory_grows_with_its_input_and_output_only():
    # 4 and 8 chunks of the pipeline's lifter: the peak may grow by the frame
    # inputs (4K floats per frame) and the poses (3K), plus a fixed slack
    import tracemalloc

    model = TcnModel(TcnConfig(), seed=36)
    k = model.config.n_keypoints
    rng = np.random.default_rng(36)
    peaks = []
    for frames in (4 * tcn.PREDICT_CHUNK, 8 * tcn.PREDICT_CHUNK):
        det = random_detections(model.config, frames, rng)
        tracemalloc.start()
        try:
            model.predict_sequence(det)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    allowed = 4 * tcn.PREDICT_CHUNK * (4 * k + 3 * k) * 8
    slack = 64 << 10
    assert peaks[1] - peaks[0] <= allowed + slack, (peaks, allowed)
