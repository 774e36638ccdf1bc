"""refine and refine_many against the Tensor-graph refinement they replace.

iso.refine descends a stack of windows through one graph-free objective;
oracles.refine_graph is the same descent as one Tensor graph per iteration
and window. Every refined frame and every trace value must be bit for bit
the oracle's, whatever the weight mode, calibration, realness and
smoothness weights, window length, batch split, abort, number of threads
the stacks descend on, or number of frame ranges an energy evaluation
splits into.
"""

import functools
import sys
import threading

import numpy as np
import pytest

import poselift.discriminator as discriminator
import poselift.iso as iso
from poselift import parallel
from poselift.autodiff import Tensor
from poselift.discriminator import KcsEnergyModel
from poselift.errors import InvalidInputError, InvalidWindowError
from poselift.iso import (WEIGHT_MODES, CalibratedConfidence, IsoConfig, compute_weights,
                          fit_projection, refine, refine_many)
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


def window(t, seed, scale_mm=SCALE_MM, motion=MOTION):
    """(noisy start, detections with outliers and masks, ground truth) of t frames."""
    rng = np.random.default_rng(seed)
    start = int(rng.integers(0, len(motion) - t + 1))
    gt = motion[start: start + t].copy()
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


@pytest.mark.parametrize("t, scorer", [(1, None), (30, None), (180, None),
                                       (2, SCORERS[1]), (30, SCORERS[1]), (180, SCORERS[2])])
@pytest.mark.parametrize("mode", ["soft", "hard"])
def test_iso_loss_is_the_objective_refine_descends(t, scorer, mode):
    # refine's refit at iteration 0, redone by hand: at that fit the public
    # node's value is trace row 0's loss and its gradient is refine's first step
    init, det, _ = window(t, seed=50 + t)
    cfg = cfg_of(weight_mode=mode, iterations=1)
    scale, trans = fit_projection(init.frames, det)
    scale, trans = fit_projection(init.frames, det,
                                  compute_weights(init.frames, det, cfg, scale, trans))
    x = Tensor(init.frames.copy(), requires_grad=True)
    loss = iso.iso_loss(x, det, scorer, cfg, scale, trans)
    loss.backward()
    refined, trace = refine(init, det, scorer, cfg)
    assert loss.item() == trace[0]["loss"]
    assert refined.frames.tobytes() == (init.frames - cfg.step_size * x.grad).tobytes()


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


def test_refine_many_builds_each_result_from_its_stack_row(monkeypatch):
    # no input window is copied only to have its frames replaced; visibility
    # and actions are still the result's own copies
    pairs = [window(24, seed=22), window(24, seed=23), window(31, seed=24)]
    cfg = cfg_of(iterations=30)
    want = [refine_graph(init, det, SCORERS[1], cfg) for init, det, _ in pairs]
    rng = np.random.default_rng(25)
    poses = [PoseSequence3D(init.frames, rng.random(init.frames.shape[:2]) < 0.9, i != 1,
                            None if i == 2 else [f"a{i}"] * init.T)
             for i, (init, _, _) in enumerate(pairs)]

    def no_copy(self):
        raise AssertionError("refine_many copied an input window")

    monkeypatch.setattr(PoseSequence3D, "copy", no_copy)
    got = refine_many(poses, [p[1] for p in pairs], SCORERS[1], cfg)
    for (out, trace), (want_pose, want_trace), pose in zip(got, want, poses, strict=True):
        assert np.array_equal(out.frames, want_pose.frames) and trace == want_trace
        assert np.array_equal(out.visibility, pose.visibility)
        assert out.visibility is not pose.visibility
        assert out.root_relative == pose.root_relative and out.actions == pose.actions
        assert pose.actions is None or out.actions is not pose.actions


# ------------------------------------------------------------ threads
#
# refine_many deals each length's windows into at least as many stacks as
# there are cores and descends them on one thread per core. The core count
# comes from parallel.cores, patched here; results must not depend on it.

STACKED = [window(t, seed=40 + i) for i, t in enumerate((24, 31, 24, 24, 31))]
STACKED_CFG = cfg_of(iterations=30)


@functools.cache
def alone(i):
    init, det, gt = STACKED[i]
    return refine(init, det, SCORERS[1], STACKED_CFG, gt)


@functools.cache
def oracle(i):
    init, det, gt = STACKED[i]
    return refine_graph(init, det, SCORERS[1], STACKED_CFG, gt)


def refine_on(monkeypatch, cores, pairs, scorer, cfg):
    """refine_many with `cores` cores: (results, the threads that ran a stack)."""
    monkeypatch.setattr(parallel, "cores", lambda: cores)
    ran, run = [], iso._Stack.run

    def recording(self):
        ran.append(threading.get_ident())
        return run(self)

    monkeypatch.setattr(iso._Stack, "run", recording)
    before = threading.active_count()
    got = refine_many([p[0] for p in pairs], [p[1] for p in pairs], scorer, cfg,
                      gts=[p[2] for p in pairs])
    assert threading.active_count() == before
    return got, set(ran)


def assert_each_alone(got, picks):
    for (pose, trace), i in zip(got, picks, strict=True):
        for want_pose, want_trace in (alone(i), oracle(i)):
            assert np.array_equal(pose.frames, want_pose.frames)
            assert trace == want_trace


@pytest.mark.parametrize("cores", [1, 2, 3, 8])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_refine_many_on_threads_equals_each_window_alone(monkeypatch, cores, n):
    got, threads = refine_on(monkeypatch, cores, STACKED[:n], SCORERS[1], STACKED_CFG)
    assert_each_alone(got, range(n))
    if cores == 1 or n == 1:
        assert threads == {threading.get_ident()}
    else:
        assert threading.get_ident() in threads and len(threads) == min(cores, n)


def test_refine_many_of_no_windows_starts_no_thread(monkeypatch):
    assert refine_on(monkeypatch, 2, [], SCORERS[1], STACKED_CFG) == ([], set())


@pytest.mark.parametrize("cores", [2, 3, 8])
def test_refine_many_on_threads_splits_a_length_past_the_stack_cap(monkeypatch, cores):
    # a 50-frame cap holds two 24-frame windows or one 31-frame window, so
    # there are more stacks than two or three threads; the threads switch
    # as often as the interpreter allows
    monkeypatch.setattr(iso, "STACK_FRAMES", 50)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got, threads = refine_on(monkeypatch, cores, STACKED, SCORERS[1], STACKED_CFG)
    finally:
        sys.setswitchinterval(interval)
    assert_each_alone(got, range(5))
    assert len(threads) == min(cores, 5)


@pytest.mark.parametrize("cores", [2, 3])
def test_refine_many_on_threads_when_a_worker_window_aborts(monkeypatch, cores):
    # the diverging window of the abort test above, last: a worker's stack
    # holds it, the calling thread's does not
    pairs = [window(24, seed=7), window(24, seed=8), window(24, seed=6, scale_mm=500.0)]
    cfg = cfg_of(weight_mode="constant", iterations=40, step_size=50.0, lambda1=1e-5,
                 lambda2=0.0)
    got, threads = refine_on(monkeypatch, cores, pairs, SCORERS[1], cfg)
    assert len(threads) == cores
    lengths = []
    for (pose, trace), (init, det, gt) in zip(got, pairs):
        want_pose, want_trace = refine(init, det, SCORERS[1], cfg, gt)
        assert np.array_equal(pose.frames, want_pose.frames) and trace == want_trace
        lengths.append(len(assert_matches_oracle((pose, trace), init, det, SCORERS[1], cfg, gt)))
    assert lengths[:2] == [40, 40] and lengths[2] < 40


@pytest.mark.parametrize("cores", [2, 3])
def test_refine_many_on_threads_raises_the_first_failing_stack(monkeypatch, cores):
    # the 2- and 1-frame windows are too short for an interval-2 scorer; the
    # 2-frame stack comes first, so its error is the one the serial path raises
    pairs = [window(24, seed=50), window(2, seed=51), window(1, seed=52)]
    cfg = cfg_of(iterations=3)
    raised = []
    for n in (1, cores):
        with pytest.raises(InvalidWindowError) as err:
            refine_on(monkeypatch, n, pairs, SCORERS[2], cfg)
        raised.append(str(err.value))
    assert raised[0] == raised[1] == "window length 2 < interval + 1 = 3"


def test_workspace_holds_every_kernel_buffer(one_blas_thread):
    scorer = SCORERS[1]
    # a full stack; then a long window unsplit, in two parts and unsplit
    # again, which keep all they write in the same buffers
    for lead, stack, parts in (
            ((3, 24), np.stack([STACKED[i][0].frames for i in (0, 2, 3)]), (1,)),
            ((1, 480), LONG[0][0].frames[None], (1, 2, 1))):
        work = scorer.workspace(lead)
        held = dict(work)
        want = scorer.energies_and_grad(stack, 0.1)
        for p in parts:
            got = scorer.energies_and_grad(stack, 0.1, work, p)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert work.keys() == held.keys()
        assert all(work[name] is held[name] for name in held)


def test_a_workspace_of_another_shape_is_refused():
    scorer = SCORERS[1]
    stack = np.stack([STACKED[i][0].frames for i in (0, 2, 3)])       # 3 x 24 x K x 3
    # one window fewer, then a longer T, whose buffers would take every out=
    for lead in ((2, 24), (3, 25)):
        with pytest.raises(InvalidInputError, match=rf"workspace buffer 'bones' is "
                           rf"\({lead[0]}, {lead[1]}, 3, \d+\), but a \(3, 24, 17, 3\) "
                           rf"stack needs \(3, 24, 3, \d+\)"):
            scorer.energies_and_grad(stack, 0.1, scorer.workspace(lead))
    with pytest.raises(InvalidInputError, match="workspace buffer 'bones' is missing"):
        scorer.energies_and_grad(stack, 0.1, {})


# ------------------------------------------------------------ split kernel
#
# With BLAS on one thread per product, the cores the stacks leave idle split
# each stack's energy evaluation into frame ranges (at least
# iso.PART_FRAMES stacked frames each) on a team of threads that each stack
# starts once for its descent. The core count must still not show in any bit.

LONG_MOTION = np.concatenate([s.pose3d.frames for s in generate(
    SyntheticMotionConfig(n_sequences=2, frames=480, seed=32), TOPO)])
LONG = [window(480, seed=60 + i, motion=LONG_MOTION) for i in range(2)]
LONG_CFG = cfg_of(iterations=30)


@functools.cache
def long_oracle(i):
    init, det, gt = LONG[i]
    return refine_graph(init, det, SCORERS[1], LONG_CFG, gt)


def energy_parts(monkeypatch):
    """The `parts` of every energies_and_grad call, and the threads started."""
    parts, started = [], []
    call, start = KcsEnergyModel.energies_and_grad, threading.Thread.start

    def recording(self, frames, weight, work=None, parts_=1):
        parts.append(parts_)
        return call(self, frames, weight, work, parts_)

    def counting(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(KcsEnergyModel, "energies_and_grad", recording)
    monkeypatch.setattr(threading.Thread, "start", counting)
    return parts, started


@pytest.mark.parametrize("n, cores", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (2, 4)])
def test_long_windows_on_split_kernels_equal_graph_refine(one_blas_thread, fast_switches,
                                                          monkeypatch, cores, n):
    parts, started = energy_parts(monkeypatch)
    got, threads = refine_on(monkeypatch, cores, LONG[:n], SCORERS[1], LONG_CFG)
    for (pose, trace), i in zip(got, range(n), strict=True):
        want_pose, want_trace = long_oracle(i)
        assert np.array_equal(pose.frames, want_pose.frames) and trace == want_trace
    # one window takes every core; two take one stack thread each, and on 4
    # cores each stack splits over the two cores that are its share
    split = cores // len(threads)
    assert set(parts) == {split} and len(threads) == min(cores, n)
    # each stack's team starts split - 1 workers for its whole descent, not
    # per evaluation, beside the stack threads' own
    assert len(parts) == len(threads) * LONG_CFG.iterations
    assert len(started) == len(threads) - 1 + len(threads) * (split - 1)


@pytest.mark.parametrize("cores", [2, 3])
def test_a_split_window_that_aborts_equals_graph_refine(one_blas_thread, fast_switches,
                                                         monkeypatch, cores):
    # the diverging settings of the abort tests above on one long window: it
    # leaves its split stack mid-descent, and so the stack's team ends early
    init, det, gt = window(480, seed=63, scale_mm=500.0, motion=LONG_MOTION)
    cfg = cfg_of(weight_mode="constant", iterations=40, step_size=50.0, lambda1=1e-5,
                 lambda2=0.0)
    parts, started = energy_parts(monkeypatch)
    (got,), _ = refine_on(monkeypatch, cores, [(init, det, gt)], SCORERS[1], cfg)
    trace = assert_matches_oracle(got, init, det, SCORERS[1], cfg, gt)
    assert 1 < len(trace) < 40 and set(parts) == {cores} and len(started) == cores - 1


@pytest.mark.parametrize("cores", [2, 3])
def test_a_short_window_starts_no_thread(one_blas_thread, monkeypatch, cores):
    parts, started = energy_parts(monkeypatch)
    refine_on(monkeypatch, cores, [window(96, seed=62, motion=LONG_MOTION)], SCORERS[1],
              cfg_of(iterations=3))
    assert set(parts) == {1} and started == []


@pytest.mark.parametrize("cores, first_cut", [(2, 240), (3, 144)])
def test_a_failing_energy_part_raises_in_the_caller(one_blas_thread, monkeypatch, cores,
                                                    first_cut):
    # every part after the first fails: the first failure in frame order is raised
    fill = discriminator.fill_rows

    def failing(frames, incidence, interval, pick, bones, psi, rows, a, b):
        if a > 0:
            raise InvalidWindowError(f"part from frame {a}")
        fill(frames, incidence, interval, pick, bones, psi, rows, a, b)

    monkeypatch.setattr(discriminator, "fill_rows", failing)
    before = threading.active_count()
    with pytest.raises(InvalidWindowError, match=f"part from frame {first_cut}$"):
        refine_on(monkeypatch, cores, LONG[:1], SCORERS[1], LONG_CFG)
    assert threading.active_count() == before
