"""Independent jobs on the process's cores, on plain threads.

numpy releases the GIL inside its array loops and BLAS calls, so jobs that
spend their time there run in parallel on threads. There are three users:
the stacks of iso.refine_many, the frame parts of one KCS-energy
evaluation, and the stride-branch groups of a wide TcnModel.forward, its
backward and each predict_sequence chunk. A job writes only into buffers
made before the threads start, or into arrays that no other job touches,
and the caller combines the results in a fixed order, so the results are
bit for bit the serial ones.

run hands the jobs to a team: worker threads that wait for work between
calls. A caller that runs many calls in a row opens one team for all of
them, as one split ISO descent does for its energy evaluations, tcn.train
for its steps and predict_sequence for its chunks, and the team's workers
live until that block ends; any other call of run starts a team of its own
and joins it before it returns, so no thread outlives the block or call
that started it.

Cutting one matrix product into row blocks keeps its bits only while BLAS
computes every product on one thread: a threaded BLAS splits each product
among its own threads by the product's size, and its edge kernels then fall
on other rows and columns. blas_threads tells the callers that cut products
whether that holds, and one_blas_thread makes it hold for a block.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import queue
import threading
from pathlib import Path

import numpy as np


def cores() -> int:
    """The cores this process may run on: the most threads a caller uses."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                # no affinity call on this platform
        return os.cpu_count() or 1


_local = threading.local()      # .team: the team open on this thread and free, if any


class _Team:
    """Workers waiting on a queue each for a task, each handing back a token
    on `done` when it has run one."""

    def __init__(self, workers: int):
        self.tasks = [queue.SimpleQueue() for _ in range(workers)]
        self.done = queue.SimpleQueue()


def _serve(tasks, done):
    while (task := tasks.get()) is not None:
        task()                            # run's tasks keep their own failures
        done.put(None)


@contextlib.contextmanager
def team(threads: int):
    """A team of `threads` threads counting the calling one: its threads - 1
    workers start here, serve every run called on this thread inside the
    block, and are all joined when the block ends, errors included. Blocks
    nest; fewer than two threads open no team and start no thread."""
    if threads < 2:
        yield
        return
    crew, outer, workers = _Team(threads - 1), getattr(_local, "team", None), []
    try:
        for tasks in crew.tasks:
            workers.append(threading.Thread(target=_serve, args=(tasks, crew.done)))
            workers[-1].start()
        _local.team = crew
        yield
    finally:
        _local.team = outer
        for tasks in crew.tasks:
            tasks.put(None)
        for worker in workers:
            worker.join()


def run(jobs: list, threads: int) -> list:
    """Each job's result, in job order, on `threads` threads counting the
    calling one: thread j runs jobs j, j + threads, ... and stops at its
    first failure. The other threads are workers of the team open on this
    thread, or of one opened for the call. The first failure in job order
    is raised once every thread has stopped, so no job outlives the call."""
    threads = max(1, min(threads, len(jobs)))
    crew = getattr(_local, "team", None)
    if threads > 1 and (crew is None or len(crew.tasks) < threads - 1):
        with team(threads):
            return run(jobs, threads)
    results, errors = [None] * len(jobs), [None] * len(jobs)

    def work(j):
        for s in range(j, len(jobs), threads):
            try:
                results[s] = jobs[s]()
            except BaseException as err:  # re-raised by the caller below
                errors[s] = err
                return

    helpers = crew.tasks[:threads - 1] if threads > 1 else []
    _local.team = None                    # a run inside a job here opens its own team
    for j, tasks in enumerate(helpers, 1):
        tasks.put(functools.partial(work, j))
    try:
        work(0)
    finally:
        for _ in helpers:
            crew.done.get()
    _local.team = crew
    for err in errors:
        if err is not None:
            raise err
    return results


@functools.cache
def _openblas(name: str, restype, argtypes: tuple):
    """The function `name` (say "get_num_threads") of the OpenBLAS that numpy's
    wheel bundles and has loaded, typed, or None: another BLAS, or no such
    library."""
    noload = getattr(os, "RTLD_NOLOAD", None)
    if noload is None:
        return None
    root = Path(np.__file__).parent
    for lib in sorted([*root.parent.glob("numpy.libs/*openblas*"),
                       *root.glob(".dylibs/*openblas*")]):
        try:
            handle = ctypes.CDLL(str(lib), mode=noload)    # only a library already loaded
        except OSError:
            continue
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = restype, list(argtypes)
                return fn
    return None


def blas_threads() -> int:
    """The threads numpy's BLAS runs one product on, or 0 where that cannot
    be read."""
    get = _openblas("get_num_threads", ctypes.c_int, ())
    return 0 if get is None else get()


_pins = [0, 0]                    # open one_blas_thread blocks; the count before the first
_pins_lock = threading.Lock()


@contextlib.contextmanager
def one_blas_thread():
    """numpy's BLAS on one thread per product inside the block, back on its
    previous count when the last open block ends, errors included: blocks
    may nest and overlap across threads, as the count is the process's.
    Where it cannot be set (another BLAS), the block runs as without."""
    set_threads = _openblas("set_num_threads", None, (ctypes.c_int,)) or (lambda count: None)
    with _pins_lock:
        if _pins[0] == 0:
            _pins[1] = blas_threads()
            set_threads(1)
        _pins[0] += 1
    try:
        yield
    finally:
        with _pins_lock:
            _pins[0] -= 1
            if _pins[0] == 0:
                set_threads(_pins[1])
