"""Independent jobs on the process's cores, on plain threads.

numpy releases the GIL inside its array loops and BLAS calls, so jobs that
spend their time there run in parallel on threads. There are three users:
the stacks of iso.refine_many, the frame parts of one KCS-energy
evaluation, and the stride-branch groups of a wide TcnModel.forward and its
backward. A job writes only into buffers made before the threads start, or
into arrays that no other job touches, and the caller combines the results
in a fixed order, so the results are bit for bit the serial ones.

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
import threading
from pathlib import Path

import numpy as np


def cores() -> int:
    """The cores this process may run on: the most threads a caller uses."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                # no affinity call on this platform
        return os.cpu_count() or 1


def run(jobs: list, threads: int) -> list:
    """Each job's result, in job order, on `threads` threads counting the
    calling one: thread j runs jobs j, j + threads, ... and stops at its
    first failure. Every thread is joined before the first failure in job
    order is raised, so no job outlives the call."""
    threads = max(1, min(threads, len(jobs)))
    results, errors = [None] * len(jobs), [None] * len(jobs)

    def work(j):
        for s in range(j, len(jobs), threads):
            try:
                results[s] = jobs[s]()
            except Exception as err:      # re-raised by the caller below
                errors[s] = err
                return

    workers = [threading.Thread(target=work, args=(j,)) for j in range(1, threads)]
    for worker in workers:
        worker.start()
    try:
        work(0)
    finally:
        for worker in workers:
            worker.join()
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
