"""The poselift benchmark workloads: inputs, set-up, timed unit and checks.

Each workload drives the poselift Python API (never the CLI) in one process.
Its inputs come only from the workload seed; the program's own seeds (model
initialisation, window sampling) are fixed configuration. Every workload is
a closed loop: the next call starts only when the previous one returned.

pipeline    run_experiment on the ablation ladder's "+iso" rung: all six
            stages plus file writes and the sha256 manifest. After each
            unit, outside wall_s, the saved checkpoint lifts the eval
            detections again (that checks it, and times the infer rate),
            and a short side training call times the train rate.
train-wide  tcn.train alone on the wide model of the README demo, so matmul
            cost rather than Python overhead bounds a step. Between units,
            outside wall_s, the model lifts and refines a small held-out set.
lift        predict_sequence over long held-out occluded sequences, then
            iso.refine on a fixed subset. The model is trained in set-up;
            a short side training call after each unit times the train
            rate beside the set-up's training.

Every end-to-end metric comes from every workload: lift's training figures
come from its set-up and its side training calls, and train-wide's lifting
and refinement figures from the side calls between its units. Each call into poselift is timed by the run's
RefClock, so each sample holds its raw and its reference time.

Every configuration is spelled out here, not taken from poselift defaults
or from ladder_rungs(), so that a later change to those cannot change a
workload silently.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
import numpy as np

from poselift import (augment, discriminator, experiment, iso, metrics, pose_io,
                      synth, tcn)
from refclock import RefClock, Timing

# ------------------------------------------------------------------ sizes


@dataclass(frozen=True)
class Sizes:
    train_seqs: int          # synthetic training sequences (two views each)
    train_frames: int
    pipeline_steps: int      # steps of the one pipeline epoch
    pipeline_eval: tuple     # (sequences, frames) scored by run_experiment
    pipeline_relifts: int    # timed re-lifts of those by the saved checkpoint, per unit
    iso_iters: int           # ISO iterations in pipeline and train-wide
    wide_steps: int          # steps of one train-wide unit
    wide_eval: tuple         # (sequences, frames) lifted after each unit
    wide_refine: int         # of those, how many are refined
    lift_setup_steps: int    # training steps of the lift set-up
    lift_eval: tuple         # (sequences, frames) lifted per lift unit
    lift_refine: int         # of those, how many are refined per unit
    lift_iso_iters: int
    retrain_steps: int       # steps of the side training call after a pipeline or lift unit


FULL = Sizes(train_seqs=4, train_frames=120,
             pipeline_steps=20, pipeline_eval=(3, 96), pipeline_relifts=4,
             iso_iters=120,
             wide_steps=2, wide_eval=(3, 96), wide_refine=3,
             lift_setup_steps=20, lift_eval=(8, 480), lift_refine=4,
             lift_iso_iters=25, retrain_steps=8)

# tiny sizes for the benchmark's own tests: every code path, in seconds
SMOKE = Sizes(train_seqs=2, train_frames=40,
              pipeline_steps=2, pipeline_eval=(1, 30), pipeline_relifts=1,
              iso_iters=3,
              wide_steps=1, wide_eval=(1, 30), wide_refine=1,
              lift_setup_steps=2, lift_eval=(2, 40), lift_refine=1,
              lift_iso_iters=3, retrain_steps=1)

# ------------------------------------------------------------------ configs

SMALL_TCN = tcn.TcnConfig(embed_dim=64, window_len=20, strides=(1, 2, 3),
                          channels=32, branch_layers=2)
# the model the README demo trains (TcnConfig defaults other than window and
# strides), 940,851 parameters
WIDE_TCN = tcn.TcnConfig(embed_dim=512, window_len=20, strides=(1, 2, 3),
                         channels=128, branch_layers=3)
WEIGHTS = tcn.LossWeights(w1=0.5, w2=0.0, w3=0.01)
TRAIN_OCCLUSION = augment.OcclusionConfig(p1=0.05, p2=0.10, p3=0.06, l=8,
                                          frame_block_prob=0.6, shift_prob=0.0,
                                          swap_prob=0.0)
PROGRAM_SEED = 0
BATCH = 8
SCORER_WINDOW = 16
SCORER_REG = 1e-3


def iso_config(iterations: int) -> iso.IsoConfig:
    return iso.IsoConfig(weight_mode="soft", sigma=1.0, lambda1=0.01, lambda2=0.05,
                         iterations=iterations, step_size=0.5)


def train_config(steps: int) -> tcn.TrainConfig:
    return tcn.TrainConfig(lr=1e-6, momentum=0.9, steps_per_epoch=steps, batch_size=BATCH,
                           seed=PROGRAM_SEED, weights=WEIGHTS, gen_window=4,
                           lr_decay=1.0, snapshot_every=25)


class InputSeeds:
    """Independent seeds for each generated input, all drawn from one seed."""

    def __init__(self, seed: int):
        s = np.random.SeedSequence(seed).generate_state(4)
        self.train, self.eval, self.eval_occlusion, self.train_occlusion = (
            int(v) for v in s)


def train_synth(sizes: Sizes, seeds: InputSeeds) -> synth.SyntheticMotionConfig:
    return synth.SyntheticMotionConfig(
        n_sequences=sizes.train_seqs, frames=sizes.train_frames, seed=seeds.train,
        speed_multipliers=(1.0, 1.6), view_rotations=((0.0, math.pi / 2, 0.0),),
        mask_occluded_prob=0.0)


def eval_synth(shape: tuple, seeds: InputSeeds) -> synth.SyntheticMotionConfig:
    n, frames = shape
    return synth.SyntheticMotionConfig(n_sequences=n, frames=frames, seed=seeds.eval,
                                       speed_multipliers=(1.0, 1.6),
                                       mask_occluded_prob=0.9)


def eval_occlusion(seeds: InputSeeds) -> augment.OcclusionConfig:
    return augment.OcclusionConfig(p1=0.04, p2=0.15, p3=0.08, l=8, frame_block_prob=1.0,
                                   shift_prob=0.0, swap_prob=0.0,
                                   seed=seeds.eval_occlusion)


# ------------------------------------------------------------------ recording


class Record:
    """Work samples, quality values and operation counts of one run."""

    def __init__(self, clock: RefClock):
        self.clock = clock
        self.work = {"train": [], "infer": [], "refine": []}   # (amount, Timing)
        self.quality = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def rate(self, kind: str, work: float, timing: Timing) -> None:
        self.work[kind].append((work, timing))

    def throughput(self, kind: str) -> float:
        """Work per reference second pooled over the run: total work over total time."""
        samples = self.work[kind]
        if not samples:
            return float("nan")
        return sum(w for w, _ in samples) / sum(self.clock.ref_s(t) for _, t in samples)

    def attempt(self, ops: int) -> None:
        self.attempted += ops

    def expect(self, ok: bool, ops: int, what: str) -> None:
        """A failed check fails the `ops` operations it covers."""
        if not ok:
            self.failed += ops
            self.problems.append(what)

    def same_quality(self, name: str, value: float, ops: int) -> None:
        """Quality must repeat exactly within a run: same inputs, same arithmetic."""
        self.expect(math.isfinite(value), ops, f"{name} is not finite")
        first = self.quality.setdefault(name, value)
        self.expect(value == first, ops, f"{name} changed within the run: {first!r} -> {value!r}")


def _finite(arr) -> bool:
    return bool(np.all(np.isfinite(arr)))


def check_history(rec: Record, history: list, steps: int) -> None:
    for epoch in history:
        rec.expect(all(math.isfinite(v) for k, v in epoch.items() if k != "epoch"),
                   steps, f"non-finite loss in epoch {epoch.get('epoch')}")


def check_trace(rec: Record, trace: list, iterations: int, frames: np.ndarray) -> None:
    """The ISO trace runs as configured, or its last row shows why it stopped."""
    if len(trace) != iterations:
        last = trace[-1]["loss"] if trace else float("nan")
        aborted = bool(trace) and (not math.isfinite(last) or last > 10.0 * trace[0]["loss"])
        rec.expect(aborted, 1, f"ISO ran {len(trace)} of {iterations} iterations "
                               "without recording an abort")
    rec.expect(_finite(frames), 1, "refined poses are not finite")


def pooled_mpjpe(preds: list, gts: list, topo) -> float:
    """MPJPE over all frames of preds, each scored against its own gts entry."""
    pred = np.concatenate([p.frames for p in preds])
    gt = np.concatenate([g.frames for g in gts[:len(preds)]])
    return metrics.evaluate(pred, gt, topo).mpjpe_mm


def kcs_scorer(sequences: list, topo) -> discriminator.KcsEnergyModel:
    """The energy scorer fitted as run_experiment's scorer stage fits it."""
    w = SCORER_WINDOW
    windows = [s.pose3d.frames[j: j + w] for s in sequences
               for j in range(0, s.pose3d.T - w + 1, w)]
    return discriminator.KcsEnergyModel.fit(windows, topo, interval=1,
                                            reg_scale=SCORER_REG)


def training_set(sequences: list, seeds: InputSeeds, topo) -> list:
    """Clean sequences plus one occluded copy of each, as run_experiment trains."""
    rng = np.random.default_rng(seeds.train_occlusion)
    copies = []
    for s in sequences:
        views = [synth.ViewData(v.rotation, v.pose3d,
                                augment.apply_occlusions(v.det2d, TRAIN_OCCLUSION, topo, rng),
                                v.visible) for v in s.views]
        copies.append(synth.SyntheticSequence(s.pose3d, views, s.action))
    return list(sequences) + copies


def held_out(shape: tuple, seeds: InputSeeds, topo) -> list:
    """(ground truth, occluded detections) pairs of view 0."""
    rng = np.random.default_rng(seeds.eval_occlusion)
    occ = eval_occlusion(seeds)
    return [(s.views[0].pose3d, augment.apply_occlusions(s.views[0].det2d, occ, topo, rng))
            for s in synth.generate(eval_synth(shape, seeds), topo)]


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _dataset_arrays(sequences: list):
    for s in sequences:
        for v in s.views:
            yield from (v.pose3d.frames, v.det2d.frames, v.det2d.mask)


# ------------------------------------------------------------------ workloads


class Workload:
    """One workload: repeatable set-up, a timed unit, an optional check."""

    name = ""

    def __init__(self, sizes: Sizes, seed: int, workdir: Path, rec: Record):
        self.sizes = sizes
        self.seeds = InputSeeds(seed)
        self.workdir = workdir
        self.rec = rec
        self.topo = None

    def setup(self) -> str:
        """Build the inputs; returns a digest that every repeat must match."""
        raise NotImplementedError

    def unit(self) -> Timing:
        """Run one timed unit and check it; returns the time of its timed calls."""
        raise NotImplementedError

    def side(self) -> None:
        """Timed calls after a unit that feed the metrics the unit cannot time.

        Not part of wall_s, and never traced: the per-layer figures of a
        traced run describe the workload alone.
        """

    def check(self) -> None:
        """Work after the timed section that checks what it produced."""


class Pipeline(Workload):
    name = "pipeline"
    STAGE_COUNT = len(experiment.STAGES)

    def setup(self) -> str:
        s = self.sizes
        self.topo = pose_io.default_topology()
        self.config = dict(
            seed=PROGRAM_SEED, epochs=1,
            train_synth=train_synth(s, self.seeds),
            eval_synth=eval_synth(s.pipeline_eval, self.seeds),
            tcn=SMALL_TCN, train=train_config(s.pipeline_steps),
            occlusion=TRAIN_OCCLUSION, aug_copies=1,
            eval_occlusion=eval_occlusion(self.seeds),
            iso=iso_config(s.iso_iters), data_dir=None,
            scorer_window=SCORER_WINDOW, scorer_interval=1, scorer_reg=SCORER_REG)
        # the detections run_experiment lifts: its synth stage draws them alike
        self.eval_dets = [d for _, d in held_out(s.pipeline_eval, self.seeds, self.topo)]
        seqs = synth.generate(self.config["train_synth"], self.topo)
        self.scorer = kcs_scorer(seqs, self.topo)
        self.train_set = training_set(seqs, self.seeds, self.topo)
        self.units = 0
        return repr(self.config) + digest(*(d.frames for d in self.eval_dets),
                                          *_dataset_arrays(self.train_set))

    def unit(self) -> Timing:
        s, rec = self.sizes, self.rec
        out = self.workdir / f"unit{self.units}"
        self.units += 1
        cfg = experiment.ExperimentConfig(out_dir=str(out), **self.config)
        n_eval = s.pipeline_eval[0]
        steps = cfg.epochs * s.pipeline_steps
        rec.attempt(self.STAGE_COUNT + steps + 2 * n_eval)
        manifest, wall = rec.clock.call(experiment.run_experiment, cfg, self.topo)
        self._check(out, cfg, manifest, steps, wall)
        self.out = out
        return wall

    def side(self) -> None:
        self._relift(self.out)
        side_training(self.rec, self.train_set, self.scorer, self.sizes.retrain_steps)
        shutil.rmtree(self.out)

    def _check(self, out: Path, cfg, manifest: dict, steps: int, wall: Timing) -> None:
        rec, n_eval = self.rec, self.sizes.pipeline_eval[0]
        for stage in experiment.STAGES:
            rec.expect(manifest["stages"].get(stage) == "ok", 1, f"stage {stage} not ok")
        on_disk = {str(p.relative_to(out)) for p in out.rglob("*")
                   if p.is_file() and p.name != "manifest.json"}
        listed = manifest["files"]
        rec.expect(on_disk == set(listed), 1,
                   f"manifest lists {sorted(set(listed) ^ on_disk)} wrongly")
        rec.expect(all(hashlib.sha256((out / n).read_bytes()).hexdigest() == d
                       for n, d in listed.items() if n in on_disk), 1,
                   "manifest digest does not match its file")

        history = json.loads((out / "history.json").read_text())
        check_history(rec, history, cfg.train.steps_per_epoch)
        report = json.loads((out / "report.json").read_text())
        frame_iters = 0
        for i in range(n_eval):
            raw = pose_io.read_pose3d(out / f"eval{i:02d}_raw.pose3d", self.topo)
            rec.expect(_finite(raw.frames), 1, f"raw lift {i} not finite")
            refined = pose_io.read_pose3d(out / f"eval{i:02d}_iso.pose3d", self.topo)
            trace = json.loads((out / f"eval{i:02d}_trace.json").read_text())
            check_trace(rec, trace, cfg.iso.iterations, refined.frames)
            frame_iters += raw.T * len(trace)
        rec.same_quality("train_loss", history[-1]["loss"], steps)
        rec.same_quality("raw_mpjpe_mm", report["raw"]["mpjpe_mm"], n_eval)
        rec.same_quality("refined_mpjpe_mm", report["refined"]["mpjpe_mm"], n_eval)

        # the refine span runs from the infer stage's last file to the refine
        # stage's last file, so that nothing inside the program is wrapped in
        # the untraced run; the calibrations around the whole call scale it.
        # The train stage is timed by side_training instead: its span would
        # hold one sample per unit, where that call is calibrated on its own.
        last = f"eval{n_eval - 1:02d}"
        raw = ((out / f"{last}_trace.json").stat().st_mtime_ns
               - (out / f"{last}_raw.pose3d").stat().st_mtime_ns) * 1e-9
        rec.rate("refine", frame_iters, Timing(raw, wall.start, wall.end))

    def _relift(self, out: Path) -> None:
        """Lift the eval detections again with the saved checkpoint, timed.

        The infer stage is too short to time from file mtimes, so the
        infer rate comes from these calls: the same model, inputs and code.
        Each lift must write the very file the infer stage wrote.
        """
        rec = self.rec
        rec.attempt(len(self.eval_dets))
        model = tcn.TcnModel.load(str(out / "model.ckpt.npz"))
        for i, det in enumerate(self.eval_dets):
            for _ in range(self.sizes.pipeline_relifts):
                pred, timing = rec.clock.call(model.predict_sequence, det)
                rec.rate("infer", det.T, timing)
            again = out / f"eval{i:02d}_relift.pose3d"
            pose_io.write_pose3d(again, pred, self.topo)
            rec.expect(again.read_bytes() == (out / f"eval{i:02d}_raw.pose3d").read_bytes(), 1,
                       f"checkpoint re-lifts eval {i} differently")



class TrainWide(Workload):
    name = "train-wide"

    def setup(self) -> str:
        s = self.sizes
        self.topo = pose_io.default_topology()
        seqs = synth.generate(train_synth(s, self.seeds), self.topo)
        self.scorer = kcs_scorer(seqs, self.topo)
        self.train_set = training_set(seqs, self.seeds, self.topo)
        self.eval_pairs = held_out(s.wide_eval, self.seeds, self.topo)
        self.model = None
        return digest(*_dataset_arrays(self.train_set), self.scorer.precision,
                      *(d.frames for _, d in self.eval_pairs))

    def unit(self) -> Timing:
        s, rec = self.sizes, self.rec
        model = tcn.TcnModel(WIDE_TCN, seed=PROGRAM_SEED)
        rec.attempt(s.wide_steps)
        history, wall = rec.clock.call(tcn.train, model, self.train_set,
                                       train_config(s.wide_steps), epochs=1, scorer=self.scorer)
        rec.rate("train", s.wide_steps * BATCH, wall)
        check_history(rec, history, s.wide_steps)
        rec.same_quality("train_loss", history[-1]["loss"], s.wide_steps)
        self.model = model
        return wall

    def side(self) -> None:
        # the trained model lifts and refines the held-out set after every
        # unit: that checks it, and spreads the infer and refine samples
        # over the whole run instead of one short window
        s = self.sizes
        self.preds = lift_refine_score(self.rec, self.model, self.scorer, self.eval_pairs,
                                       s.wide_refine, s.iso_iters, self.topo)

    def check(self) -> None:
        """Round-trip the last trained wide model through a checkpoint."""
        path = self.workdir / "wide.ckpt"
        self.rec.attempt(1)
        self.model.save(path)
        again = tcn.TcnModel.load(str(path) + ".npz").predict_sequence(self.eval_pairs[0][1])
        self.rec.expect(np.array_equal(again.frames, self.preds[0].frames), 1,
                        "reloaded checkpoint predicts differently")


class Lift(Workload):
    name = "lift"

    def setup(self) -> str:
        s, rec = self.sizes, self.rec
        self.topo = pose_io.default_topology()
        seqs = synth.generate(train_synth(s, self.seeds), self.topo)
        self.scorer = kcs_scorer(seqs, self.topo)
        self.train_set = training_set(seqs, self.seeds, self.topo)
        self.model = tcn.TcnModel(SMALL_TCN, seed=PROGRAM_SEED)
        steps = s.lift_setup_steps
        rec.attempt(steps)
        history, timing = rec.clock.call(tcn.train, self.model, self.train_set,
                                         train_config(steps), epochs=1, scorer=self.scorer)
        rec.rate("train", steps * BATCH, timing)
        check_history(rec, history, steps)
        rec.same_quality("train_loss", history[-1]["loss"], steps)
        self.eval_pairs = held_out(s.lift_eval, self.seeds, self.topo)
        params = self.model.state_arrays()
        return digest(*(params[k] for k in sorted(params)),
                      *(d.frames for _, d in self.eval_pairs))

    def unit(self) -> Timing:
        s, rec = self.sizes, self.rec
        calls = len(rec.work["infer"]), len(rec.work["refine"])
        lift_refine_score(rec, self.model, self.scorer, self.eval_pairs,
                          s.lift_refine, s.lift_iso_iters, self.topo)
        timed = [t for _, t in rec.work["infer"][calls[0]:] + rec.work["refine"][calls[1]:]]
        return Timing(sum(t.raw_s for t in timed), timed[0].start, timed[-1].end)

    def side(self) -> None:
        side_training(self.rec, self.train_set, self.scorer, self.sizes.retrain_steps)


def side_training(rec: Record, train_set: list, scorer, steps: int) -> None:
    """A short training call of the small model's configuration, timed.

    A fresh model with the loss mix, scorer and batch that pipeline's train
    stage and lift's set-up use, on clean sequences plus occluded copies. It
    feeds train_samples_per_s on workloads whose own training is one long
    call per unit (pipeline) or happens in set-up only (lift).
    """
    rec.attempt(steps)
    model = tcn.TcnModel(SMALL_TCN, seed=PROGRAM_SEED)
    history, timing = rec.clock.call(tcn.train, model, train_set, train_config(steps),
                                     epochs=1, scorer=scorer)
    rec.rate("train", steps * BATCH, timing)
    check_history(rec, history, steps)
    rec.same_quality("side_training_loss", history[-1]["loss"], steps)


def lift_refine_score(rec: Record, model, scorer, pairs: list, n_refine: int,
                      iterations: int, topo) -> list:
    """predict_sequence on every pair, then iso.refine on the first n_refine.

    Every call is timed on its own; checks and scoring run outside the
    timed calls. Returns the raw lifts.
    """
    cfg = iso_config(iterations)
    rec.attempt(len(pairs) + n_refine)
    preds = []
    for _, det in pairs:
        pred, timing = rec.clock.call(model.predict_sequence, det)
        rec.rate("infer", det.T, timing)
        rec.expect(pred.frames.shape == (det.T, det.K, 3) and _finite(pred.frames), 1,
                   "lifted poses are not finite")
        preds.append(pred)
    refined = []
    for pred, (_, det) in zip(preds[:n_refine], pairs):
        (pose, trace), timing = rec.clock.call(iso.refine, pred, det, scorer, cfg)
        rec.rate("refine", det.T * len(trace), timing)
        check_trace(rec, trace, iterations, pose.frames)
        refined.append(pose)
    gts = [g for g, _ in pairs]
    rec.same_quality("raw_mpjpe_mm", pooled_mpjpe(preds, gts, topo), len(preds))
    rec.same_quality("refined_mpjpe_mm", pooled_mpjpe(refined, gts, topo), n_refine)
    return preds


WORKLOADS = {w.name: w for w in (Pipeline, TrainWide, Lift)}
