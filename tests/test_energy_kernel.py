"""The KCS energy kernel against its closed form written step by step.

kcs.feature_rows fills one buffer, KcsEnergyModel.gen_loss centres and
multiplies it in place, and its backward gathers g + g^T from the upper
triangle and takes the incidence product as one 2-D matmul. Each of these
must leave every value and gradient bit for bit what the fresh-array
closed form in oracles.py computes, and so must the kernel split into
frame ranges on threads.
"""

import numpy as np
import pytest

import poselift.discriminator as discriminator
from poselift.autodiff import Tensor
from poselift.discriminator import CUT_FRAMES, KcsEnergyModel
from poselift.iso import IsoConfig, refine
from poselift.kcs import feature_rows
from poselift.pose_io import default_topology
from poselift.skeleton import PoseSequence3D, RotationAugment, project_to_crop
from poselift.synth import SyntheticMotionConfig, generate

from oracles import ClosedFormEnergy, energy_gen_loss_closed_form, feature_rows_concat

TOPO = default_topology()
K = TOPO.K
_SEQS = generate(SyntheticMotionConfig(n_sequences=3, frames=60, seed=5), TOPO)
_CORPUS = [s.pose3d.frames[i: i + 16] for s in _SEQS for i in range(0, 45, 15)]
MODELS = {i: KcsEnergyModel.fit(_CORPUS, TOPO, interval=i) for i in (1, 2, 3)}
U = 136                 # upper-triangle slots of the 16 bones
LEADS = {"window": (), "batch": (4,), "grid": (2, 3)}


def windows(lead, t, seed):
    """Motion frames plus 30 mm noise, shaped lead + (t, K, 3)."""
    rng = np.random.default_rng(seed)
    motion = np.concatenate([s.pose3d.frames for s in _SEQS])
    n = int(np.prod(lead, dtype=int))
    starts = rng.integers(0, len(motion) - 1, n)
    frames = np.stack([np.resize(np.roll(motion, -s, axis=0), (t, K, 3)) for s in starts])
    return (frames + rng.normal(0.0, 30.0, frames.shape)).reshape(lead + (t, K, 3))


def value_and_grad(fn, frames, how):
    """(value, input gradient) of fn on a leaf, or on a slice of a rotated batch."""
    if how == "leaf":
        leaf = Tensor(frames.copy(), requires_grad=True)
        loss = fn(leaf)
    else:
        rots = np.stack([RotationAugment.sample(np.random.default_rng(s)).matrix().T
                         for s in range(3)])
        leaf = Tensor(np.stack([frames, 1.1 * frames, frames[..., ::-1, :, :]]),
                      requires_grad=True)
        rotated = leaf @ Tensor(rots.reshape((3,) + (1,) * (frames.ndim - 2) + (3, 3)))
        loss = fn(rotated[1]) + 0.5 * fn(rotated[2])
    loss.backward()
    return loss.item(), leaf.grad


@pytest.mark.parametrize("interval", [1, 2, 3])
@pytest.mark.parametrize("t", ["interval + 1", 40, 480])
@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("how", ["leaf", "rotated slice"])
def test_energy_equals_closed_form_bit_for_bit(interval, t, lead, how):
    t = interval + 1 if t == "interval + 1" else t
    model = MODELS[interval]
    frames = windows(LEADS[lead], t, seed=1000 * interval + t)
    got = value_and_grad(model.gen_loss, frames, how)
    want = value_and_grad(lambda w: energy_gen_loss_closed_form(model, w), frames, how)
    assert got[0] == want[0]
    assert got[1].any() and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("interval", [1, 2, 3])
@pytest.mark.parametrize("lead", LEADS)
def test_feature_rows_equal_concatenated_rows(interval, lead):
    frames = windows(LEADS[lead], 40, seed=interval)
    rotated = (frames[..., ::-1, :, :] @ RotationAugment.sample(
        np.random.default_rng(interval)).matrix().T)
    for window in (frames, rotated, np.swapaxes(np.swapaxes(frames, -1, -3).copy(), -1, -3)):
        bones, rows = feature_rows(window, MODELS[interval].incidence, interval)
        want_bones, want_rows = feature_rows_concat(window, MODELS[interval].incidence,
                                                    interval)
        assert np.array_equal(bones, want_bones)
        assert rows.shape == want_rows.shape and np.array_equal(rows, want_rows)
        assert not rows[..., -interval:, U:2 * U].any()      # Phi of the last frames


def test_lift_sized_refine_equals_closed_form_scorer_run():
    # 480 frames and 25 iterations with the soft weights, the size and
    # settings of one refine call in the lift benchmark
    seq = generate(SyntheticMotionConfig(n_sequences=1, frames=480, seed=9), TOPO)[0]
    gt = seq.pose3d.frames
    rng = np.random.default_rng(10)
    init = PoseSequence3D(gt + rng.normal(0.0, 25.0, gt.shape))
    det = project_to_crop(PoseSequence3D(gt), 2000.0)
    det.frames += rng.normal(0.0, 1.0 / 256.0, det.frames.shape)
    cfg = IsoConfig(weight_mode="soft", sigma=1.0, lambda1=0.01, lambda2=0.05,
                    iterations=25, step_size=0.5)
    got, got_trace = refine(init, det, MODELS[1], cfg, gt3d=PoseSequence3D(gt))
    want, want_trace = refine(init, det, ClosedFormEnergy(MODELS[1]), cfg,
                              gt3d=PoseSequence3D(gt))
    assert np.array_equal(got.frames, want.frames)
    assert len(got_trace) == 25 and got_trace == want_trace
    assert got_trace[-1]["gen"] != got_trace[0]["gen"]


# ------------------------------------------------------------ split kernel
#
# energies_and_grad(..., parts) cuts the frames into ranges at multiples of
# CUT_FRAMES and runs them on threads in two rounds. With BLAS on one thread
# per product every energy and gradient bit must be the one-part kernel's.

SPLITS = {"480": ((), 480, 1), "433": ((), 433, 1), "two stacked": ((2,), 433, 1),
          "interval 2": ((), 480, 2), "two stacked, interval 2": ((2,), 480, 2),
          "cut 2 frames before T, interval 2": ((), 50, 2),
          "cut 2 frames before T, interval 3": ((), 50, 3)}


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("case", SPLITS)
def test_split_kernel_equals_one_part_bit_for_bit(one_blas_thread, fast_switches, monkeypatch,
                                                  case, parts):
    lead, t, interval = SPLITS[case]
    model = MODELS[interval]
    frames = windows(lead, t, seed=t + interval)
    one = model.energies_and_grad(frames, 0.3)
    closed = ClosedFormEnergy(model).energies_and_grad(frames, 0.3)
    assert all(np.array_equal(a, b) for a, b in zip(one, closed))
    rounds, run = [], discriminator.run

    def recording(jobs, threads):
        rounds.append([job.args for job in jobs])
        return run(jobs, threads)

    monkeypatch.setattr(discriminator, "run", recording)
    for work in (None, model.workspace(lead + (t,))):
        got = model.energies_and_grad(frames, 0.3, work, parts)
        assert np.array_equal(got[0], one[0]) and np.array_equal(got[1], one[1])
    spans = rounds[0]
    assert rounds == [spans] * 4 and len(spans) == (2 if t == 50 else parts)
    assert spans[0][0] == 0 and spans[-1][1] == t
    assert all(b == c and b % CUT_FRAMES == 0 for (_, b), (c, _) in zip(spans, spans[1:]))
