"""A refine stack keeps its shape when a window aborts.

An aborted window stays in its stack, frozen at its best-so-far frames, so
the descent makes no array of a window's frames or more once it has
started, on the calling thread and on a worker. The numpy blocks of that
size that are alive as each objective evaluation starts must be the ones
alive as the first starts. The evaluations take turns, so that no snapshot
sees a temporary of another thread's evaluation.
"""

import threading
import tracemalloc

import numpy as np
import pytest

import poselift.iso as iso
from poselift import parallel
from poselift.iso import refine_many

from test_refine_stack import SCORERS, cfg_of, window

NUMPY_BLOCKS = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)


@pytest.mark.parametrize("cores", [1, 2])
def test_an_aborted_window_makes_no_array_after_the_descent_starts(monkeypatch, cores):
    # windows 0 and 3 diverge (the abort tests' 500 mm crop and step of 50);
    # on 2 cores they sit in two stacks of three, the calling thread's and a worker's
    diverging = window(24, seed=6, scale_mm=500.0)
    pairs = [diverging, window(24, seed=7), window(24, seed=8),
             diverging, window(24, seed=9), window(24, seed=10)]
    cfg = cfg_of(weight_mode="constant", iterations=40, step_size=50.0, lambda1=1e-5,
                 lambda2=0.0)
    least = pairs[0][0].frames.nbytes
    monkeypatch.setattr(parallel, "cores", lambda: cores)
    alive, threads, turn, call = [], set(), threading.Lock(), iso._Objective.__call__

    def watched(self, x, scale, trans):
        with turn:
            threads.add(threading.get_ident())
            snapshot = tracemalloc.take_snapshot().filter_traces([NUMPY_BLOCKS])
            alive.append(sorted((trace.size, str(trace.traceback)) for trace in snapshot.traces
                                if trace.size >= least))
            return call(self, x, scale, trans)

    monkeypatch.setattr(iso._Objective, "__call__", watched)
    tracemalloc.start()
    try:
        got = refine_many([p[0] for p in pairs], [p[1] for p in pairs], SCORERS[1], cfg,
                          gts=[p[2] for p in pairs])
    finally:
        tracemalloc.stop()
    lengths = [len(trace) for _, trace in got]
    assert lengths[0] == lengths[3] < 40 and lengths[1:3] == lengths[4:] == [40, 40]
    assert len(threads) == cores and len(alive) == 40 * cores and alive[0]
    assert all(blocks == alive[0] for blocks in alive)
