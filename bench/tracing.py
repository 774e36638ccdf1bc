"""Per-layer spans for the traced benchmark run, recorded from outside poselift.

The tracer replaces public functions of the poselift modules with wrappers
that record a span (name, start, end, parent span, benchmark phase) around
each call. A function imported by name into another module is replaced in
every module namespace that holds it, so calls made through that name go
through the wrapper too. Spans stay in memory; `layer_metrics` reduces them
once, at the end of the run. Nothing here runs unless the benchmark is
started with `--trace 1`.
"""

from __future__ import annotations

import inspect
import os
import statistics
import sys
from time import perf_counter

PHASES = ("setup", "timed", "check")

# (module, attribute or Class.method, span name). Loss functions share one
# span name so that loss_multiview's inner loss_3d nests instead of adding.
TARGETS = (
    ("poselift.experiment", "run_experiment", "experiment.run_experiment"),
    ("poselift.synth", "generate", "synth.generate"),
    ("poselift.visibility", "sequence_visibility", "visibility.sequence_visibility"),
    ("poselift.augment", "apply_occlusions", "augment.apply_occlusions"),
    ("poselift.kcs", "discriminator_features", "kcs.discriminator_features"),
    ("poselift.discriminator", "KcsEnergyModel.fit", "discriminator.fit"),
    ("poselift.discriminator", "KcsEnergyModel.gen_loss", "discriminator.gen_loss"),
    ("poselift.tcn", "train", "tcn.train"),
    ("poselift.tcn", "TcnModel.embed_frames", "tcn.embed_frames"),
    ("poselift.tcn", "TcnModel.forward", "tcn.forward"),
    ("poselift.tcn", "TcnModel.predict_sequence", "tcn.predict_sequence"),
    ("poselift.tcn", "loss_3d", "tcn.loss"),
    ("poselift.tcn", "loss_multiview", "tcn.loss"),
    ("poselift.tcn", "loss_2d", "tcn.loss"),
    ("poselift.tcn", "total_loss", "tcn.loss"),
    ("poselift.autodiff", "Tensor.backward", "autodiff.backward"),
    ("poselift.autodiff", "SGD.step", "autodiff.sgd_step"),
    ("poselift.iso", "refine", "iso.refine"),
    ("poselift.iso", "fit_projection", "iso.fit_projection"),
    ("poselift.iso", "compute_weights", "iso.compute_weights"),
    ("poselift.iso", "rep_loss", "iso.rep_loss"),
    ("poselift.iso", "smooth_loss", "iso.smooth_loss"),
    ("poselift.metrics", "evaluate", "metrics.evaluate"),
    ("poselift.pose_io", "write_pose3d", "pose_io.write"),
    ("poselift.pose_io", "write_pose2d", "pose_io.write"),
    ("poselift.pose_io", "save_checkpoint", "pose_io.write"),
)


def _graph_size(root) -> int:
    """Distinct nodes reachable from a Tensor, walked without recursion."""
    seen = {id(root)}
    todo = [root]
    while todo:
        for p in todo.pop().parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


def _bytes_written(path) -> int:
    # np.savez appends .npz to names that lack it
    for candidate in (str(path), str(path) + ".npz"):
        if os.path.isfile(candidate):
            return os.path.getsize(candidate)
    return 0


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _frames_in(window) -> int:
    shape = getattr(window, "shape", None)
    if shape is None:
        shape = getattr(window, "frames").shape
    return int(shape[0])


def _train_samples(fn, args, kwargs, out) -> int:
    a = _bound(fn, args, kwargs)
    return a["epochs"] * a["cfg"].steps_per_epoch * a["cfg"].batch_size


def _refine_iterations(fn, args, kwargs, out) -> tuple:
    return len(out[1]), _bound(fn, args, kwargs)["cfg"].iterations


# what a span records beside its times, computed once the call returned
EXTRAS = {
    "tcn.train": _train_samples,
    "tcn.embed_frames": lambda fn, args, kwargs, out: int(out.shape[0]),
    "iso.refine": _refine_iterations,
    "discriminator.gen_loss": lambda fn, args, kwargs, out: _frames_in(args[1]),
    "pose_io.write": lambda fn, args, kwargs, out: _bytes_written(args[0]),
}


class Tracer:
    """Installs span wrappers, records spans, and reduces them to metrics."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, phase, extra]
        self._stack = []
        self.phase = "setup"
        self._patches = []   # (namespace, attribute, original value)

    # ------------------------------------------------------------ recording

    def _open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.phase, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        extra = EXTRAS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if name == "autodiff.backward":
                walk = tracer._open("trace.graph_walk")
                try:
                    nodes = _graph_size(args[0])
                finally:
                    tracer._close(walk)
            rec = tracer._open(name)
            if name == "autodiff.backward":
                rec[5] = nodes
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if extra is not None:
                rec[5] = extra(fn, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        modules = {n: m for n, m in sys.modules.items()
                   if n == "poselift" or n.startswith("poselift.")}
        for mod_name, attr, name in TARGETS:
            owner = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            # replace every name bound to this function, e.g. experiment.refine
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # ------------------------------------------------------------ reduction

    def layer_metrics(self, reps: dict, untraced_wall: float,
                      traced_walls: list) -> dict:
        """Per-layer metrics for one pass of the workload.

        A pass is one set-up, one timed unit and the closing check: each
        time or count is summed per phase, divided by how often that phase
        ran traced, and the phases are added. Ratios use raw totals.
        """
        spans = self.spans
        # graph walks are tracing cost: take them out of every enclosing span
        dur = [s[2] - s[1] for s in spans]
        for i, s in enumerate(spans):
            if s[0] == "trace.graph_walk":
                p = s[3]
                while p >= 0:
                    dur[p] -= dur[i]
                    p = spans[p][3]
        children = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0 and s[0] != "trace.graph_walk":
                children[s[3]] += dur[i]

        def ancestors(i):
            p = spans[i][3]
            while p >= 0:
                yield spans[p][0]
                p = spans[p][3]

        def use(i):
            for a in ancestors(i):
                if a == "tcn.train":
                    return "train"
                if a == "iso.refine":
                    return "refine"
            return None

        def select(name, under=None, top=False):
            for i, s in enumerate(spans):
                # a call that raised has no extra; the run is failed anyway
                if s[0] != name or (s[5] is None and name in EXTRAS):
                    continue
                if under is not None and use(i) != under:
                    continue
                if top and name in ancestors(i):
                    continue
                yield i

        def per_pass(values):
            total = dict.fromkeys(PHASES, 0.0)
            for phase, v in values:
                total[phase] += v
            return sum(total[p] / reps[p] for p in PHASES if reps.get(p))

        def seconds(name, under=None, top=False):
            return per_pass((spans[i][4], dur[i]) for i in select(name, under, top))

        def self_seconds(name):
            return per_pass((spans[i][4], dur[i] - children[i]) for i in select(name))

        def calls(name, under=None):
            return per_pass((spans[i][4], 1) for i in select(name, under))

        def extra_sum(name, under=None, pick=lambda e: e):
            return per_pass((spans[i][4], pick(spans[i][5])) for i in select(name, under))

        def ratio(num, den):
            return num / den if den else 0.0

        samples = sum(spans[i][5] for i in select("tcn.train"))
        back = {u: [spans[i][5] for i in select("autodiff.backward", u)]
                for u in ("train", "refine")}
        iso_runs = [spans[i][5] for i in select("iso.refine")]
        overhead = statistics.median(traced_walls) - untraced_wall if traced_walls else 0.0

        m = {
            "tcn.forward_calls_per_sample": (ratio(
                sum(1 for _ in select("tcn.forward", "train")), samples), "count"),
            "tcn.embed_rows_per_sample": (ratio(
                sum(spans[i][5] for i in select("tcn.embed_frames", "train")),
                samples), "count"),
            "tcn.forward_s": (seconds("tcn.forward", "train"), "s"),
            "tcn.embed_frames_s": (seconds("tcn.embed_frames", "train"), "s"),
            "tcn.loss_s": (seconds("tcn.loss", "train", top=True), "s"),
            "tcn.train_s": (seconds("tcn.train"), "s"),
            "tcn.predict_sequence_s": (seconds("tcn.predict_sequence"), "s"),
            "autodiff.backward.train_s": (seconds("autodiff.backward", "train"), "s"),
            "autodiff.backward.refine_s": (seconds("autodiff.backward", "refine"), "s"),
            "autodiff.backward_calls": (calls("autodiff.backward"), "count"),
            "autodiff.nodes_per_backward.train": (
                ratio(sum(back["train"]), len(back["train"])), "count"),
            "autodiff.nodes_per_backward.refine": (
                ratio(sum(back["refine"]), len(back["refine"])), "count"),
            "autodiff.sgd_step_s": (seconds("autodiff.sgd_step"), "s"),
            "discriminator.gen_loss_s": (seconds("discriminator.gen_loss"), "s"),
            "discriminator.gen_loss_calls": (calls("discriminator.gen_loss"), "count"),
            "discriminator.gen_loss_frames": (extra_sum("discriminator.gen_loss"), "count"),
            "discriminator.fit_s": (seconds("discriminator.fit"), "s"),
            "kcs.discriminator_features_s": (seconds("kcs.discriminator_features"), "s"),
            "iso.refine_s": (seconds("iso.refine"), "s"),
            "iso.self_s": (self_seconds("iso.refine"), "s"),
            "iso.iterations": (extra_sum("iso.refine", pick=lambda e: e[0]), "count"),
            "iso.iterations_per_configured": (ratio(
                sum(r[0] for r in iso_runs), sum(r[1] for r in iso_runs)), "ratio"),
            "iso.fit_projection_s": (seconds("iso.fit_projection"), "s"),
            "iso.compute_weights_s": (seconds("iso.compute_weights"), "s"),
            "iso.rep_loss_s": (seconds("iso.rep_loss"), "s"),
            "iso.smooth_loss_s": (seconds("iso.smooth_loss"), "s"),
            "synth.generate_s": (seconds("synth.generate"), "s"),
            "visibility.sequence_visibility_s": (
                seconds("visibility.sequence_visibility"), "s"),
            "augment.apply_occlusions_s": (seconds("augment.apply_occlusions"), "s"),
            "augment.apply_occlusions_calls": (calls("augment.apply_occlusions"), "count"),
            "experiment.self_s": (self_seconds("experiment.run_experiment"), "s"),
            "pose_io.write_s": (seconds("pose_io.write"), "s"),
            "pose_io.bytes_written": (extra_sum("pose_io.write"), "B"),
            "metrics.evaluate_s": (seconds("metrics.evaluate"), "s"),
            "trace.overhead_s": (overhead, "s"),
        }
        return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}
