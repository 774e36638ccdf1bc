"""Run one poselift benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload pipeline --seed 0 --seconds 30 --trace 0

The workloads (pipeline, train-wide, lift) live in workloads.py. A run
times three fresh interpreters importing poselift and sets the workload up
three times (setup_s is the median import plus the median set-up). Then it
repeats the workload's timed unit, each followed by its side calls (the
timed calls that feed the metrics the unit cannot time), until the next one
would overrun --seconds, checks every output, and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every time in the result is a reference time (refclock.py): the wall time
of a call scaled by the calibration loops run around it, because the shared
machines this runs on change speed by up to 1.7x for seconds to minutes at
a time. wall_s is the mean timed unit, and the three
throughputs pool all of the run's calls: total work over total time. The
raw wall times and every calibration go to standard error.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json and no
poselift function is wrapped. With --trace 1 they are the per-layer ones:
the set-ups, the check and the timed units (not their side calls) of the
second half of the run go through the span wrappers of tracing.py (spans
hold raw wall times), and trace.overhead_s is the median traced unit minus
the median untraced unit of the first half, both in reference time.
--smoke shrinks every size so that the benchmark's own tests finish in
seconds.

The line before the result records the environment. BLAS is pinned to one
thread: on a 2-core machine one thread ran 15 train-wide steps faster and
steadier than two.
"""

import os

# must happen before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPS = 3
WORKLOAD_NAMES = ("pipeline", "train-wide", "lift")
IMPORT_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); from poselift import "
                "augment, discriminator, experiment, iso, metrics, pose_io, synth, tcn")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    return ap.parse_args(argv)


def blas_threads(np):
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": blas_threads(np)}


def import_timing(clock):
    """Time of a fresh interpreter importing what the workloads use."""
    return clock.call(subprocess.run, [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                      check=True)[1]


def median(values):
    return statistics.median(values) if values else float("nan")


def measure(args, clock, wl_module, tracing_module):
    rec = wl_module.Record(clock)
    sizes = wl_module.SMOKE if args.smoke else wl_module.FULL
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"poselift-{args.workload}-", dir=build))
    wl = wl_module.WORKLOADS[args.workload](sizes, args.seed, workdir, rec)
    tracer = tracing_module.Tracer() if args.trace else None
    setups, walls, traced_walls = [], [], []
    try:
        if tracer:
            tracer.install()
        digests = set()
        for _ in range(SETUP_REPS):
            gc.collect()
            digest, timing = clock.call(wl.setup)
            digests.add(digest)
            setups.append(timing)
        rec.expect(len(digests) == 1, 1, "set-up repeats built different inputs")

        if tracer:
            tracer.uninstall()
            tracer.phase = "timed"
        start = perf_counter()
        spent = []      # whole units, checks included, to predict the next one
        traced = False
        while True:
            if tracer and not traced and walls and perf_counter() - start >= args.seconds / 2:
                tracer.install()    # the first half of the units ran untraced
                traced = True
            gc.collect()    # no unit inherits the cyclic garbage of the last one
            t = perf_counter()
            timing = wl.unit()
            if traced:
                tracer.uninstall()
            wl.side()
            if traced:
                tracer.install()
            spent.append(perf_counter() - t)
            (traced_walls if traced else walls).append(timing)
            elapsed = perf_counter() - start
            if elapsed + median(spent) > args.seconds and (traced or not tracer):
                break
        if tracer:
            tracer.phase = "check"
        wl.check()
    except Exception as e:  # report the run as failed instead of crashing
        rec.expect(False, 1, f"{type(e).__name__}: {e}")
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    return rec, tracer, setups, walls, traced_walls


def end_to_end(rec, imports, setups, walls):
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref = rec.clock.ref_s
    return {
        "setup_s": (median([ref(t) for t in imports]) + median([ref(t) for t in setups]), "s"),
        "wall_s": (sum(ref(t) for t in walls) / len(walls) if walls else float("nan"), "s"),
        "train_samples_per_s": (rec.throughput("train"), "1/s"),
        "infer_frames_per_s": (rec.throughput("infer"), "1/s"),
        "refine_frame_iters_per_s": (rec.throughput("refine"), "1/s"),
        "train_loss": (rec.quality.get("train_loss", float("nan")), "mm2"),
        "raw_mpjpe_mm": (rec.quality.get("raw_mpjpe_mm", float("nan")), "mm"),
        "refined_mpjpe_mm": (rec.quality.get("refined_mpjpe_mm", float("nan")), "mm"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "poselift" / "__init__.py").is_file():
        print(f"poselift sources not found under {SRC}", file=sys.stderr)
        return 2
    from refclock import RefClock

    clock = RefClock()
    imports = [import_timing(clock) for _ in range(SETUP_REPS)]
    sys.path.insert(0, str(SRC))
    import poselift
    import tracing
    import workloads

    if Path(poselift.__file__).resolve().parent != SRC / "poselift":
        print(f"imported poselift from {poselift.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print(json.dumps({"env": environment()}), flush=True)

    rec, tracer, setups, walls, traced_walls = measure(args, clock, workloads, tracing)
    if tracer:
        reps = {"setup": SETUP_REPS, "timed": len(traced_walls), "check": 1}
        metrics = tracer.layer_metrics(reps, median([clock.ref_s(t) for t in walls]),
                                       [clock.ref_s(t) for t in traced_walls])
    else:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in end_to_end(rec, imports, setups, walls).items()}
    for name, m in metrics.items():
        if m["value"] != m["value"]:     # NaN: the run never measured it
            rec.expect(False, 1, f"{name} was not measured")
            m["value"] = 0.0
    # every sample behind the metrics as [raw s, reference s, start, end] and
    # every calibration as [end, s]
    print(json.dumps({"samples": {"import": imports, "setup": setups, "wall": walls,
                                  "traced_wall": traced_walls, **rec.work,
                                  "calibration": list(zip(clock.stamps, clock.calibrations))}},
                     default=lambda t: [t.raw_s, clock.ref_s(t), t.start, t.end]), file=sys.stderr)
    for problem in rec.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = max(rec.attempted, 1)
    correct = rec.failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": min(rec.failed, attempted), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
