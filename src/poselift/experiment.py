"""End-to-end pipeline: synthesize, train, lift, refine, evaluate, manifest."""

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .augment import OcclusionConfig, apply_occlusions
from .discriminator import KcsEnergyModel
from .errors import ConfigError, InvalidInputError
from .iso import IsoConfig, refine_many
from .metrics import evaluate, mpjpe
from .parallel import one_blas_thread
from .pose_io import (default_topology, read_pose2d, read_pose3d, write_json, write_pose2d,
                      write_pose3d)
from .skeleton import PoseSequence3D
from .synth import SyntheticMotionConfig, SyntheticSequence, ViewData, generate
from .tcn import LossWeights, TcnConfig, TcnModel, TrainConfig, train

STAGES = ("synth", "scorer", "train", "infer", "refine", "eval")


@dataclass(frozen=True)
class ExperimentConfig:
    out_dir: str = "out"
    seed: int = 0
    epochs: int = 6
    # every section is frozen, so one default instance can serve every config
    train_synth: SyntheticMotionConfig = SyntheticMotionConfig(
        n_sequences=4, frames=120, seed=1000, speed_multipliers=(1.0, 1.6),
        view_rotations=((0.0, 1.5707963267948966, 0.0),), mask_occluded_prob=0.0)
    eval_synth: SyntheticMotionConfig = SyntheticMotionConfig(
        n_sequences=3, frames=96, seed=2000, speed_multipliers=(1.0, 1.6),
        mask_occluded_prob=0.9)
    tcn: TcnConfig = TcnConfig()
    train: TrainConfig = TrainConfig()
    occlusion: Optional[OcclusionConfig] = None   # None = train on raw detections
    aug_copies: int = 1                           # occluded copies added per sequence
    eval_occlusion: Optional[OcclusionConfig] = None  # extra corruption of eval detections
    iso: Optional[IsoConfig] = None               # None = report raw lifts only
    data_dir: Optional[str] = None                # read eval pairs instead of synthesizing
    scorer_window: int = 16
    scorer_interval: int = 1
    scorer_reg: float = 1e-3

    def __post_init__(self):
        if not self.out_dir:
            raise ConfigError("out_dir must be set")
        if self.seed < 0:
            raise ConfigError(f"seed={self.seed} must be >= 0")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.aug_copies < 1:
            raise ConfigError("aug_copies must be >= 1")
        if self.scorer_interval < 1:
            raise ConfigError("scorer_interval must be >= 1")
        if self.scorer_window < self.scorer_interval + 1:
            raise ConfigError("scorer_window must exceed scorer_interval")
        if self.scorer_reg <= 0:
            raise ConfigError("scorer_reg must be > 0")
        if self.data_dir is not None and not Path(self.data_dir).is_dir():
            raise ConfigError(f"data_dir {self.data_dir!r} does not exist")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _occluded_copy(seq: SyntheticSequence, occ: OcclusionConfig, topo, rng) -> SyntheticSequence:
    views = [ViewData(v.rotation, v.pose3d, apply_occlusions(v.det2d, occ, topo, rng),
                      v.visible) for v in seq.views]
    return SyntheticSequence(seq.pose3d, views, seq.action)


def _read_eval_pairs(data_dir: Path, topo) -> list:
    for det_path in sorted(data_dir.glob("*_det.pose2d")):
        if not det_path.with_name(det_path.name.replace("_det.pose2d", "_gt.pose3d")).exists():
            raise InvalidInputError(f"no ground truth for {det_path.name}")
    pairs = []
    for gt_path in sorted(data_dir.glob("*_gt.pose3d")):
        det_path = gt_path.with_name(gt_path.name.replace("_gt.pose3d", "_det.pose2d"))
        if not det_path.exists():
            raise InvalidInputError(f"no detections for {gt_path.name}")
        gt, det = read_pose3d(gt_path, topo), read_pose2d(det_path, topo)
        if gt.T != det.T:
            raise InvalidInputError(f"{gt_path.name} has {gt.T} frames but {det_path.name} "
                                    f"has {det.T}")
        pairs.append((gt, det))
    if not pairs:
        raise InvalidInputError(f"no *_gt.pose3d files under {data_dir}")
    return pairs


def real_windows(seqs: list, window: int) -> list:
    """Non-overlapping `window`-frame slices of each sequence's canonical motion."""
    windows = []
    for seq in seqs:
        frames = seq.pose3d.frames
        windows.extend(frames[j: j + window]
                       for j in range(0, frames.shape[0] - window + 1, window))
    return windows


def fit_scorer(cfg: ExperimentConfig, train_seqs: list, topo, out: Path) -> KcsEnergyModel:
    """The scorer stage: the KCS energy prior of the training motion, saved as scorer.ckpt."""
    windows = real_windows(train_seqs, cfg.scorer_window)
    if not windows:
        raise ConfigError(f"scorer_window = {cfg.scorer_window} exceeds every training sequence's "
                          f"length (longest {max(s.pose3d.T for s in train_seqs)} frames)")
    scorer = KcsEnergyModel.fit(windows, topo,
                                interval=cfg.scorer_interval, reg_scale=cfg.scorer_reg)
    scorer.save(out / "scorer.ckpt")
    return scorer


def train_lifter(cfg: ExperimentConfig, train_seqs: list, topo, out: Path,
                 scorer=None) -> tuple:
    """The train stage: (model, per-epoch history); writes model.ckpt and history.json.

    The lifter is `cfg.tcn` with `topo`'s keypoint count. With `cfg.occlusion`
    set, occluded copies join the clean sequences. The scorer's realness term
    is used only when `cfg.train.weights.w3 > 0`; its chains of
    `train.gen_window` frames must then outlast `scorer_interval`.
    """
    scorer = scorer if cfg.train.weights.w3 > 0 else None
    if cfg.epochs > 0 and scorer is not None and cfg.train.gen_window <= cfg.scorer_interval:
        raise ConfigError(f"train.gen_window = {cfg.train.gen_window} must exceed "
                          f"scorer_interval = {cfg.scorer_interval} while train.w3 > 0")
    model = TcnModel(replace(cfg.tcn, n_keypoints=topo.K), seed=cfg.seed)
    history = []
    if cfg.epochs > 0:
        seqs = list(train_seqs)
        if cfg.occlusion is not None:
            # keep the clean originals and add independently drawn
            # occluded copies, so masks vary across the epoch stream
            rng = np.random.default_rng(cfg.seed + 7919)
            seqs += [_occluded_copy(s, cfg.occlusion, topo, rng)
                     for _ in range(cfg.aug_copies) for s in train_seqs]
        history = train(model, seqs, replace(cfg.train, seed=cfg.seed),
                        epochs=cfg.epochs,
                        scorer=scorer)
        write_json(out / "history.json", history)
    model.save(out / "model.ckpt")
    return model, history


@one_blas_thread()
def run_experiment(cfg: ExperimentConfig, topo=None) -> dict:
    """All stages in order; writes artifacts + manifest.json under cfg.out_dir.

    Every produced file lands in the manifest with its content digest. A stage
    failure still writes the manifest, with the failure recorded, before the
    exception propagates. BLAS runs on one thread, so any core count gives these bytes.
    """
    if topo is None:
        topo = default_topology()
    cfg = replace(cfg, tcn=replace(cfg.tcn, n_keypoints=topo.K))    # as train_lifter builds it
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config_echo = asdict(cfg)
    config_echo["out_dir"] = "."       # keep manifests path-independent
    manifest = {"config": config_echo, "stages": {}, "failure": None, "files": {}}
    state = {}

    def stage_synth():
        state["train_seqs"] = generate(cfg.train_synth, topo)
        if cfg.data_dir is not None:
            pairs = _read_eval_pairs(Path(cfg.data_dir), topo)
        else:
            eval_seqs = generate(cfg.eval_synth, topo)
            pairs = [(s.views[0].pose3d, s.views[0].det2d) for s in eval_seqs]
        if cfg.eval_occlusion is not None:
            # corrupt held-out detections identically across runs: the eval
            # stream depends only on the eval occlusion seed, never cfg.seed
            rng = np.random.default_rng(cfg.eval_occlusion.seed)
            pairs = [(gt, apply_occlusions(det, cfg.eval_occlusion, topo, rng))
                     for gt, det in pairs]
        state["eval_pairs"] = pairs
        for i, (gt, det) in enumerate(pairs):
            write_pose3d(out / f"eval{i:02d}_gt.pose3d", gt, topo)
            write_pose2d(out / f"eval{i:02d}_det.pose2d", det, topo)
        return "ok"

    def stage_scorer():
        if cfg.train.weights.w3 <= 0 and not (cfg.iso is not None and cfg.iso.lambda1 > 0):
            return "skipped (no realness term in training or refinement)"
        state["scorer"] = fit_scorer(cfg, state["train_seqs"], topo, out)
        return "ok"

    def stage_train():
        state["model"], _ = train_lifter(cfg, state["train_seqs"], topo, out,
                                         state.get("scorer"))
        return "ok"

    def stage_infer():
        preds = []
        for i, (gt, det) in enumerate(state["eval_pairs"]):
            pred = state["model"].predict_sequence(det)
            write_pose3d(out / f"eval{i:02d}_raw.pose3d", pred, topo)
            preds.append(pred)
        state["raw_preds"] = preds
        return "ok"

    def stage_refine():
        if cfg.iso is None:
            return "skipped (no refinement configured)"
        scorer = state.get("scorer") if cfg.iso.lambda1 > 0 else None
        gts, dets = zip(*state["eval_pairs"])
        refined = refine_many(state["raw_preds"], dets, scorer, cfg.iso, gts=gts)
        for i, (pose, trace) in enumerate(refined):
            write_pose3d(out / f"eval{i:02d}_iso.pose3d", pose, topo)
            write_json(out / f"eval{i:02d}_trace.json", trace)
        state["refined_preds"] = [pose for pose, _ in refined]
        return "ok"

    def stage_eval():
        gts = [gt for gt, _ in state["eval_pairs"]]
        pooled_gt = PoseSequence3D(
            np.concatenate([g.frames for g in gts]),
            actions=sum((g.actions if g.actions is not None else ["?"] * g.T
                         for g in gts), []))

        def pooled_report(preds):
            return evaluate(np.concatenate([p.frames for p in preds]), pooled_gt, topo)

        final = state.get("refined_preds", state["raw_preds"])
        raw_rep = pooled_report(state["raw_preds"])
        report = {"raw": raw_rep.as_dict(), "refined": None,
                  "final_mpjpe_mm": raw_rep.mpjpe_mm}
        text = ["raw lifts", raw_rep.format_text()]
        if "refined_preds" in state:
            iso_rep = pooled_report(state["refined_preds"])
            report["refined"] = iso_rep.as_dict()
            report["final_mpjpe_mm"] = iso_rep.mpjpe_mm
            text += ["", "refined lifts", iso_rep.format_text()]
        report["per_sequence_mpjpe_mm"] = [
            mpjpe(p, g) for p, g in zip(final, gts)]
        write_json(out / "report.json", report)
        (out / "report.txt").write_text("\n".join(text) + "\n")
        return "ok"

    runners = {"synth": stage_synth, "scorer": stage_scorer, "train": stage_train,
               "infer": stage_infer, "refine": stage_refine, "eval": stage_eval}
    try:
        for name in STAGES:
            manifest["stages"][name] = runners[name]()
    except Exception as e:
        manifest["failure"] = {"stage": name, "error": f"{type(e).__name__}: {e}"}
        _write_manifest(out, manifest)
        raise
    _write_manifest(out, manifest)
    return manifest


def _write_manifest(out: Path, manifest: dict) -> None:
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            files[str(path.relative_to(out))] = _sha256(path)
    manifest["files"] = files
    write_json(out / "manifest.json", manifest)


# ------------------------------------------------------------------ ladder
#
# One rung per added component; every rung trains on the same synthetic data
# and is scored on the same held-out detections, so rows differ only in the
# component under test.


def ladder_train_occlusion() -> OcclusionConfig:
    # frequent fully-masked frames and short whole-frame blocks; runs stay
    # well inside the model window so masked frames remain bridgeable
    return OcclusionConfig(p1=0.05, p2=0.10, p3=0.06, l=8,
                           frame_block_prob=0.6, shift_prob=0.0, swap_prob=0.0)


def ladder_eval_occlusion() -> OcclusionConfig:
    return OcclusionConfig(p1=0.04, p2=0.15, p3=0.08, l=8,
                           frame_block_prob=1.0, shift_prob=0.0,
                           swap_prob=0.0, seed=97)


def ladder_rungs() -> list:
    rungs = []

    def rung(name, strides=(1,), use_embedding=False, w1=0.0, w3=0.0,
             occlusion=False, iso=False):
        rungs.append({
            "name": name,
            "tcn": TcnConfig(strides=strides, use_embedding=use_embedding),
            "weights": LossWeights(w1=w1, w2=0.0, w3=w3),
            "occlusion": ladder_train_occlusion() if occlusion else None,
            "iso": IsoConfig(lambda1=0.01) if iso else None,
        })

    rung("base")
    rung("+embedding", use_embedding=True)
    rung("+multi-stride", use_embedding=True, strides=(1, 2, 3))
    rung("+multi-view", use_embedding=True, strides=(1, 2, 3), w1=0.5)
    rung("+tkcs", use_embedding=True, strides=(1, 2, 3), w1=0.5, w3=0.01)
    rung("+occlusion-aug", use_embedding=True, strides=(1, 2, 3), w1=0.5, w3=0.01,
         occlusion=True)
    rung("+iso", use_embedding=True, strides=(1, 2, 3), w1=0.5, w3=0.01,
         occlusion=True, iso=True)
    return rungs


def ladder_experiment(out_dir, seeds=(0, 1, 2), epochs=6,
                      train_cfg: TrainConfig = TrainConfig(), topo=None) -> dict:
    """Train every rung at each seed; returns the mean/sem table, writes it too."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for rung in ladder_rungs():
        per_seed = []
        for seed in seeds:
            cfg = ExperimentConfig(
                out_dir=str(out / rung["name"].replace("+", "plus-") / f"seed{seed}"),
                seed=seed, epochs=epochs,
                tcn=rung["tcn"],
                train=replace(train_cfg, weights=rung["weights"], seed=seed),
                occlusion=rung["occlusion"],
                eval_occlusion=ladder_eval_occlusion(),
                iso=rung["iso"])
            run_experiment(cfg, topo)
            report = json.loads((Path(cfg.out_dir) / "report.json").read_text())
            per_seed.append(report["final_mpjpe_mm"])
        mean = float(np.mean(per_seed))
        sem = float(np.std(per_seed, ddof=1) / np.sqrt(len(per_seed))) \
            if len(per_seed) > 1 else 0.0
        rows.append({"name": rung["name"], "per_seed": per_seed,
                     "mean_mpjpe_mm": mean, "sem_mm": sem})
    table = {"seeds": list(seeds), "rows": rows}
    write_json(out / "ladder.json", table)
    lines = [f"{'config':<16} {'mean_mpjpe':>11} {'sem':>7}  per-seed"]
    for r in rows:
        per = " ".join(f"{v:.2f}" for v in r["per_seed"])
        lines.append(f"{r['name']:<16} {r['mean_mpjpe_mm']:>11.2f} {r['sem_mm']:>7.2f}  {per}")
    (out / "ladder.txt").write_text("\n".join(lines) + "\n")
    return table
