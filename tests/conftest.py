import ctypes
import sys
import threading

import numpy as np
import pytest
from hypothesis import settings

from poselift import parallel
from poselift.pose_io import default_topology

# every property test: no per-example deadline (the suite shares its machine),
# the same examples on every run, and no example database left behind
settings.register_profile("poselift", deadline=None, derandomize=True, database=None)
settings.load_profile("poselift")


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Every test ends with the threads it started joined: a thread running
    after it that did not run before it fails the test."""
    before = set(threading.enumerate())
    yield
    left = [thread for thread in threading.enumerate() if thread not in before]
    assert left == [], f"threads still running after the test: {left}"


@pytest.fixture(scope="session")
def topo():
    return default_topology()


@pytest.fixture
def one_blas_thread():
    """numpy's BLAS on one thread per product for the test, as the benchmark
    runs it: only then do cut products keep their bits, and only then does
    iso.refine_many split an energy evaluation across cores."""
    if parallel._openblas("set_num_threads", None, (ctypes.c_int,)) is None:
        pytest.skip("numpy's BLAS thread count cannot be set here")
    with parallel.one_blas_thread():
        yield


@pytest.fixture
def fast_switches():
    """Threads switch as often as the interpreter allows, so that a race
    between threads shows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


def random_cloud_pose(rng, topo, spread=300.0):
    """Arbitrary point-cloud pose (no anthropometry), root at origin."""
    frame = rng.normal(0.0, spread, size=(topo.K, 3))
    frame[topo.root_index] = 0.0
    return frame


def rest_pose(topo):
    """Canonical upright pose facing the camera, built from rest offsets."""
    from poselift.synth import REST_OFFSETS

    frame = np.zeros((topo.K, 3))
    for p, c in topo.bones:
        frame[c] = frame[p] + np.array(REST_OFFSETS[topo.keypoint_names[c]])
    return frame


def plausible_pose_bank(topo, n_poses, seed=0):
    """Frames pooled from synthetic motion, varied yaw and articulation."""
    from poselift.synth import SyntheticMotionConfig, generate

    per_seq = 200
    n_seq = (n_poses + per_seq - 1) // per_seq
    cfg = SyntheticMotionConfig(n_sequences=n_seq, frames=per_seq, seed=seed,
                                speed_multipliers=(1.0, 2.0))
    seqs = generate(cfg, topo)
    frames = np.concatenate([s.pose3d.frames for s in seqs], axis=0)
    return frames[:n_poses]
