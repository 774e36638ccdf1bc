"""Batch command line: every stage of the pipeline as a subcommand.

All subcommands take --config (flat `key = value` file), --seed (overrides the
config seed), and --out (output directory). Config keys sit on top of
`ExperimentConfig()`'s defaults; a subcommand's own input keys (file paths and
the like) are listed beside it in COMMANDS. Exit code 0 on success; any error,
an unknown config key included, prints a one-line diagnostic to stderr and
exits with code 2.
"""

import argparse
import json
import re
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .augment import OcclusionConfig, apply_occlusions
from .discriminator import KcsEnergyModel
from .errors import ConfigError, PoseliftError
from .experiment import ExperimentConfig, fit_scorer, run_experiment, train_lifter
from .iso import IsoConfig, refine
from .kcs import discriminator_features
from .metrics import evaluate
from .parallel import one_blas_thread
from .pose_io import (default_topology, parse_value, read_config, read_pose2d, read_pose3d,
                      read_topology, write_json, write_pose2d, write_pose3d)
from .synth import generate
from .tcn import TcnModel
from .visibility import sequence_visibility

# key prefixes of the config sections not spelled by their field path
_PREFIX = {("train_synth",): "synth.", ("occlusion",): "occ.",
           ("train", "weights"): "train.", ("iso", "calibration"): "iso.cal_"}
# fields a key would not reach: --out sets out_dir, the topology the lifter's keypoint
# count, and the pipeline seeds training and its occlusion draws from the run seed
_NOT_KEYS = {("out_dir",), ("train", "seed"), ("occlusion", "seed"), ("tcn", "n_keypoints")}


def _section(typ):
    """The config dataclass a field of type `typ` (or Optional[it]) holds, else None."""
    return next((t for t in (typ, *get_args(typ))
                 if isinstance(t, type) and is_dataclass(t)), None)


def _keys(cls, path=(), prefix="") -> dict:
    """{key: (field path, field type)} for every plain field under config class `cls`."""
    hints = get_type_hints(cls)
    keys = {}
    for f in fields(cls):
        here = path + (f.name,)
        sub = _section(hints[f.name])
        if sub is not None:
            keys.update(_keys(sub, here, _PREFIX.get(here, f"{prefix}{f.name}.")))
        elif here not in _NOT_KEYS:
            keys[prefix + f.name] = (here, hints[f.name])
    return keys


def _overlay(cls, base, updates: dict, path=(), prefix=""):
    """`base` (None: `cls()`) with {field path: value} applied, section by section.

    A section that rejects its values on construction raises ConfigError
    with its key prefix: `occ.p1=2.0 outside [0,1]`, or `synth.*: ...` when
    the message does not start with one of the section's field names.
    """
    base = cls() if base is None else base
    hints = get_type_hints(cls)
    changes = {}
    for name in dict.fromkeys(p[0] for p in updates):
        rest = {p[1:]: v for p, v in updates.items() if p[0] == name}
        here = path + (name,)
        changes[name] = rest[()] if () in rest else _overlay(
            _section(hints[name]), getattr(base, name), rest, here,
            _PREFIX.get(here, f"{prefix}{name}."))
    try:
        return replace(base, **changes)
    except ConfigError as e:
        if not prefix:
            raise
        head = re.match(r"\w+", str(e))
        named = head is not None and head.group() in {f.name for f in fields(cls)}
        raise ConfigError(f"{prefix}{e}" if named else f"{prefix}*: {e}") from None


def load_config(cfg: dict) -> ExperimentConfig:
    """`ExperimentConfig()` with the `key = value` entries of `cfg` on top.

    Each value is cast by its field type. An Optional section (e.g. `occ.*`, `iso.*`) is built from its class
    defaults only when one of its keys is present. Unknown keys and
    malformed values raise ConfigError naming the key.
    """
    keys = _keys(ExperimentConfig)
    updates = {}
    for key, text in cfg.items():
        if key not in keys:
            raise ConfigError(f"unknown config key {key!r}")
        path, typ = keys[key]
        updates[path] = parse_value(key, text, typ)
    return _overlay(ExperimentConfig, None, updates)


def _require(cfg: dict, key: str) -> str:
    if key not in cfg:
        raise PoseliftError(f"config key {key!r} is required")
    return cfg[key]


# ------------------------------------------------------------- subcommands
#
# Each takes the experiment config, the subcommand's own keys, the output
# directory and the topology.


def cmd_synth_gen(exp, own, out: Path, topo) -> None:
    # the run seed seeds the data
    seqs = generate(replace(exp.train_synth, seed=exp.seed), topo)
    for i, seq in enumerate(seqs):
        for v, view in enumerate(seq.views):
            write_pose3d(out / f"seq{i:02d}_v{v}_gt.pose3d", view.pose3d, topo)
            write_pose2d(out / f"seq{i:02d}_v{v}_det.pose2d", view.det2d, topo)
            np.savetxt(out / f"seq{i:02d}_v{v}_vis.txt",
                       view.visible.astype(int), fmt="%d")
    print(f"wrote {len(seqs)} sequences under {out}")


def cmd_visibility(exp, own, out: Path, topo) -> None:
    pose = read_pose3d(_require(own, "pose3d"), topo)
    vis = sequence_visibility(pose, topo)
    np.savetxt(out / "visibility.txt", vis.astype(int), fmt="%d")
    print(f"visible fraction {vis.mean():.4f}; wrote {out / 'visibility.txt'}")


def cmd_augment(exp, own, out: Path, topo) -> None:
    det = read_pose2d(_require(own, "pose2d"), topo)
    # the run seed seeds the masks
    occ = replace(exp.occlusion or OcclusionConfig(), seed=exp.seed)
    aug = apply_occlusions(det, occ, topo)
    write_pose2d(out / "augmented.pose2d", aug, topo)
    print(f"masked fraction {aug.mask.mean():.4f}; wrote {out / 'augmented.pose2d'}")


def cmd_features(exp, own, out: Path, topo) -> None:
    pose = read_pose3d(_require(own, "pose3d"), topo)
    feats = discriminator_features(pose, topo, exp.scorer_interval)
    np.savetxt(out / "features.txt", feats, fmt="%.9g")
    print(f"wrote {feats.shape[0]} x {feats.shape[1]} features to {out / 'features.txt'}")


def cmd_train(exp, own, out: Path, topo) -> None:
    seqs = generate(exp.train_synth, topo)
    scorer = fit_scorer(exp, seqs, topo, out) if exp.train.weights.w3 > 0 else None
    _, history = train_lifter(exp, seqs, topo, out, scorer)
    loss = f"final loss {history[-1]['loss']:.3f}; " if history else ""
    print(f"{loss}wrote {out / 'model.ckpt'}.npz")


def cmd_infer(exp, own, out: Path, topo) -> None:
    model = TcnModel.load(_require(own, "model"))
    det = read_pose2d(_require(own, "det2d"), topo)
    pred = model.predict_sequence(det)
    write_pose3d(out / "pred.pose3d", pred, topo)
    print(f"lifted {pred.T} frames; wrote {out / 'pred.pose3d'}")


def cmd_iso_refine(exp, own, out: Path, topo) -> None:
    iso_cfg = exp.iso or IsoConfig()
    if iso_cfg.lambda1 > 0 and "scorer" not in own:
        raise ConfigError(f"iso.lambda1 = {iso_cfg.lambda1} weighs a realness term, "
                          "which needs a `scorer` key (or set iso.lambda1 = 0)")
    pose = read_pose3d(_require(own, "pose3d"), topo)
    det = read_pose2d(_require(own, "det2d"), topo)
    gt = read_pose3d(own["gt3d"], topo) if "gt3d" in own else None
    scorer = KcsEnergyModel.load(own["scorer"]) if "scorer" in own else None
    refined, trace = refine(pose, det, scorer, iso_cfg, gt3d=gt)
    write_pose3d(out / "refined.pose3d", refined, topo)
    write_json(out / "trace.json", trace)
    last = trace[-1] if trace else {}
    tail = f", final mpjpe {last['mpjpe']:.2f} mm" if "mpjpe" in last else ""
    print(f"refined {refined.T} frames over {len(trace)} iterations{tail}; "
          f"wrote {out / 'refined.pose3d'}")


def cmd_eval(exp, own, out: Path, topo) -> None:
    gt = read_pose3d(_require(own, "gt3d"), topo)
    pred = read_pose3d(_require(own, "pred3d"), topo)
    report = evaluate(pred, gt, topo)
    (out / "report.txt").write_text(report.format_text() + "\n")
    write_json(out / "report.json", report.as_dict())
    print(report.format_text())


def cmd_run_experiment(exp, own, out: Path, topo) -> None:
    manifest = run_experiment(exp, topo)
    report = json.loads((out / "report.json").read_text())
    print(f"stages: {', '.join(f'{k}={v}' for k, v in manifest['stages'].items())}")
    print(f"final mpjpe {report['final_mpjpe_mm']:.2f} mm; manifest at "
          f"{out / 'manifest.json'}")


# subcommand -> (entry point, its own keys beside `topology`)
COMMANDS = {
    "synth-gen": (cmd_synth_gen, ()),
    "visibility": (cmd_visibility, ("pose3d",)),
    "augment": (cmd_augment, ("pose2d",)),
    "features": (cmd_features, ("pose3d",)),
    "train": (cmd_train, ()),
    "infer": (cmd_infer, ("model", "det2d")),
    "iso-refine": (cmd_iso_refine, ("pose3d", "det2d", "gt3d", "scorer")),
    "eval": (cmd_eval, ("gt3d", "pred3d")),
    "run-experiment": (cmd_run_experiment, ()),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="poselift",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key = value file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default="out")
    args = parser.parse_args(argv)
    command, own_keys = COMMANDS[args.command]
    own_keys += ("topology",)
    try:
        cfg = read_config(args.config) if args.config else {}
        own = {k: cfg.pop(k) for k in list(cfg) if k in own_keys}
        exp = load_config(cfg)
        topo = read_topology(own["topology"]) if "topology" in own else default_topology()
        exp = replace(exp, out_dir=args.out, seed=exp.seed if args.seed is None else args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with one_blas_thread():        # the same results on any core count
            command(exp, own, out, topo)
        return 0
    except (PoseliftError, OSError, KeyError, ValueError) as e:
        print(f"poselift {args.command}: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
