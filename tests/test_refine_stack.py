"""refine and refine_many against the Tensor-graph refinement they replace.

iso.refine descends a stack of windows through one graph-free objective;
oracles.refine_graph is the same descent as one Tensor graph per iteration
and window. Every refined frame and every trace value must be bit for bit
the oracle's, whatever the weight mode, calibration, realness and
smoothness weights, window length, batch split or abort.
"""

import numpy as np
import pytest

import poselift.iso as iso
from poselift.autodiff import Tensor
from poselift.discriminator import KcsEnergyModel
from poselift.errors import InvalidWindowError
from poselift.iso import WEIGHT_MODES, CalibratedConfidence, IsoConfig, refine, refine_many
from poselift.pose_io import default_topology
from poselift.skeleton import PoseSequence2D, PoseSequence3D, project_to_crop
from poselift.synth import SyntheticMotionConfig, generate

from oracles import refine_graph

TOPO = default_topology()
SCALE_MM = 2000.0

_SEQS = generate(SyntheticMotionConfig(n_sequences=3, frames=60, seed=31), TOPO)
_CORPUS = [s.pose3d.frames[i: i + 16] for s in _SEQS for i in range(0, 45, 15)]
SCORERS = {i: KcsEnergyModel.fit(_CORPUS, TOPO, interval=i) for i in (1, 2)}
MOTION = np.concatenate([s.pose3d.frames for s in _SEQS])


def window(t, seed, scale_mm=SCALE_MM):
    """(noisy start, detections with outliers and masks, ground truth) of t frames."""
    rng = np.random.default_rng(seed)
    start = int(rng.integers(0, len(MOTION) - t + 1))
    gt = MOTION[start: start + t].copy()
    det = project_to_crop(PoseSequence3D(gt), scale_mm)
    bad = rng.random(det.frames.shape[:2]) < 0.2
    frames = det.frames + rng.normal(0.0, 1.0 / 256.0, det.frames.shape)
    frames = frames + bad[..., None] * rng.uniform(-0.2, 0.2, det.frames.shape)
    conf = np.where(bad, rng.uniform(0.05, 0.35, bad.shape), rng.uniform(0.65, 0.98, bad.shape))
    mask = rng.random(bad.shape) < 0.05
    det = PoseSequence2D(frames, np.where(mask, 0.0, conf), mask, scale_mm)
    init = PoseSequence3D(gt + rng.normal(0.0, 25.0, gt.shape))
    return init, det, PoseSequence3D(gt)


def assert_matches_oracle(got, init, det, scorer, cfg, gt=None):
    want_pose, want_trace = refine_graph(init, det, scorer, cfg, gt)
    pose, trace = got
    assert np.array_equal(pose.frames, want_pose.frames)
    assert trace == want_trace
    return trace


def cfg_of(**kw):
    base = dict(weight_mode="soft", sigma=1.0, lambda1=0.01, lambda2=0.05,
                iterations=60, step_size=0.5)
    return IsoConfig(**{**base, **kw})


@pytest.mark.parametrize("mode", WEIGHT_MODES)
@pytest.mark.parametrize("calibration", [None, CalibratedConfidence(3.0, -0.5)])
def test_refine_equals_graph_refine_in_every_weight_mode(mode, calibration):
    init, det, gt = window(30, seed=1)
    cfg = cfg_of(weight_mode=mode, calibration=calibration)
    trace = assert_matches_oracle(refine(init, det, SCORERS[1], cfg, gt), init, det,
                                  SCORERS[1], cfg, gt)
    assert len(trace) == 60 and trace[-1]["gen"] != trace[0]["gen"]


@pytest.mark.parametrize("scorer, kw", [
    (None, {}),
    (SCORERS[1], {"lambda1": 0.0}),
    (SCORERS[1], {"lambda2": 0.0}),
    (None, {"lambda1": 0.0, "lambda2": 0.0}),
    (SCORERS[1], {"iterations": 0}),
], ids=["no scorer", "lambda1 0", "lambda2 0", "rep only", "no iterations"])
def test_refine_equals_graph_refine_without_a_term(scorer, kw):
    init, det, gt = window(20, seed=2)
    cfg = cfg_of(**kw)
    trace = assert_matches_oracle(refine(init, det, scorer, cfg, gt), init, det, scorer, cfg, gt)
    assert len(trace) == cfg.iterations


@pytest.mark.parametrize("t, interval", [(1, None), (2, 1), (3, 2), (40, 2)])
def test_refine_equals_graph_refine_at_short_windows(t, interval):
    init, det, gt = window(t, seed=3 + t)
    scorer = None if interval is None else SCORERS[interval]
    cfg = cfg_of(iterations=30)
    assert_matches_oracle(refine(init, det, scorer, cfg, gt), init, det, scorer, cfg, gt)


def test_refine_too_short_for_the_scorer_fails_as_the_graph_does():
    init, det, _ = window(2, seed=5)
    cfg = cfg_of(iterations=3)
    for run in (refine, refine_graph):
        with pytest.raises(InvalidWindowError):
            run(init, det, SCORERS[2], cfg)


def test_refine_many_equals_graph_refine_when_one_window_aborts():
    # a 500 mm crop makes the first window's reprojection term 16 times
    # stiffer than the other two's, so a step of 50 diverges there and
    # nowhere else once the energy and smoothness terms are weak enough
    pairs = [window(24, seed=6, scale_mm=500.0), window(24, seed=7), window(24, seed=8)]
    cfg = cfg_of(weight_mode="constant", iterations=40, step_size=50.0, lambda1=1e-5,
                 lambda2=0.0)
    got = refine_many([p[0] for p in pairs], [p[1] for p in pairs], SCORERS[1], cfg,
                      gts=[p[2] for p in pairs])
    lengths = []
    for result, (init, det, gt) in zip(got, pairs):
        lengths.append(len(assert_matches_oracle(result, init, det, SCORERS[1], cfg, gt)))
    assert lengths[0] < 40 and lengths[1:] == [40, 40]


@pytest.mark.parametrize("stack_frames", [1024, 50])
def test_refine_many_keeps_input_order_across_lengths_and_stacks(monkeypatch, stack_frames):
    monkeypatch.setattr(iso, "STACK_FRAMES", stack_frames)
    pairs = [window(t, seed=10 + i) for i, t in enumerate((24, 31, 24, 24, 31))]
    cfg = cfg_of(iterations=30)
    got = refine_many([p[0] for p in pairs], [p[1] for p in pairs], SCORERS[1], cfg)
    for result, (init, det, _) in zip(got, pairs):
        assert_matches_oracle(result, init, det, SCORERS[1], cfg)


def test_lift_sized_refine_equals_graph_refine():
    # 480 frames and 25 iterations with the soft weights, the size and
    # settings of one refine call in the lift benchmark
    seq = generate(SyntheticMotionConfig(n_sequences=1, frames=480, seed=9), TOPO)[0]
    gt = seq.pose3d.frames
    rng = np.random.default_rng(10)
    init = PoseSequence3D(gt + rng.normal(0.0, 25.0, gt.shape))
    det = project_to_crop(PoseSequence3D(gt), SCALE_MM)
    det.frames += rng.normal(0.0, 1.0 / 256.0, det.frames.shape)
    cfg = cfg_of(iterations=25)
    assert_matches_oracle(refine(init, det, SCORERS[1], cfg, PoseSequence3D(gt)), init, det,
                          SCORERS[1], cfg, PoseSequence3D(gt))


def test_refine_builds_no_tensor(monkeypatch):
    made = []
    init = Tensor.__init__

    def counting(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting)
    pairs = [window(24, seed=20), window(24, seed=21)]
    refine(pairs[0][0], pairs[0][1], SCORERS[1], cfg_of(iterations=30))
    refine_many([p[0] for p in pairs], [p[1] for p in pairs], SCORERS[1], cfg_of(iterations=30),
                gts=[p[2] for p in pairs])
    assert made == []
    SCORERS[1].gen_loss(pairs[0][0])          # the counter does see a Tensor
    assert made
