"""File formats: topology, pose tables, JSON artifacts, key=value configs, npz checkpoints.

Pose tables are plain CSV with a header. 3D:
    frame,keypoint,x,y,z,conf,mask[,action]
2D drops the z column. Coordinates are mm (3D) or normalized crop units (2D).
Header comment lines (before the CSV header) carry container metadata:
    # scale_mm = 2000
    # root_relative = 1
"""

from __future__ import annotations

import importlib.resources
import json
import zipfile
from typing import Union, get_args, get_origin

import numpy as np

from .errors import ConfigError, InvalidInputError, TopologyError
from .skeleton import CylinderSpec, PoseSequence2D, PoseSequence3D, SkeletonTopology

CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------- topology

def parse_topology(text: str) -> SkeletonTopology:
    names = []
    bones = []
    radii = []
    cylinders = []
    head = None
    torso = None

    def idx(name):
        try:
            return names.index(name)
        except ValueError:
            raise TopologyError(f"unknown keypoint {name!r} in topology file") from None

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "keypoint" and len(parts) == 2:
                names.append(parts[1])
            elif kind == "bone" and len(parts) == 4:
                bones.append((idx(parts[1]), idx(parts[2])))
                radii.append(float(parts[3]))
            elif kind == "head" and len(parts) == 3:
                head = (idx(parts[1]), idx(parts[2]))
            elif kind == "torso" and len(parts) == 6:
                torso = tuple(idx(p) for p in parts[1:])
            elif kind == "cylinder" and len(parts) == 5:
                r = None if parts[4] == "torso" else float(parts[4])
                cylinders.append(CylinderSpec(parts[1], idx(parts[2]), idx(parts[3]), r))
            else:
                raise TopologyError(f"unrecognized topology line: {raw!r}")
        except ValueError as exc:
            raise TopologyError(f"line {lineno}: {exc}") from None
    if head is None or torso is None:
        raise TopologyError("topology file must define head and torso lines")
    return SkeletonTopology(tuple(names), tuple(bones), np.array(radii),
                            head, torso, tuple(cylinders))


def read_topology(path) -> SkeletonTopology:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_topology(fh.read())


def default_topology() -> SkeletonTopology:
    text = importlib.resources.files("poselift.data").joinpath("h36m17.topo").read_text()
    return parse_topology(text)


# ---------------------------------------------------------------- pose tables

def _split_meta(lines):
    """({key: value} of the comment lines, [(line number, text)] of the rest)."""
    meta = {}
    body = []
    for lineno, line in enumerate(lines, 1):
        s = line.strip()
        if not s:
            continue
        if s.startswith("#"):
            s = s[1:].strip()
            if "=" in s:
                key, val = s.split("=", 1)
                meta[key.strip()] = val.strip()
            continue
        body.append((lineno, s))
    return meta, body


_MASK = {"0": False, "false": False, "False": False, "1": True, "true": True, "True": True}


def _read_table(path, want_z, topo: SkeletonTopology):
    """(meta, coords, conf, mask, actions) of a pose table file.

    The header is the base columns, optionally followed by `action`, at
    least one row follows it, and every row has one parseable field per
    column; InvalidInputError names the file (and line) that breaks this.
    """
    with open(path, "r", encoding="utf-8") as fh:
        meta, body = _split_meta(fh.readlines())
    base = ["frame", "keypoint", "x", "y"] + (["z"] if want_z else []) + ["conf", "mask"]
    lineno, text = body[0] if body else (1, "")
    header = text.split(",")
    if header not in (base, base + ["action"]):
        raise InvalidInputError(f"{path}:{lineno}: pose header {text!r} is not "
                                f"{','.join(base)}[,action]")
    if len(body) == 1:
        raise InvalidInputError(f"{path}: pose table has a header but no rows")
    dim = 3 if want_z else 2
    records = {}
    actions = {}
    for lineno, row in body[1:]:
        parts = row.split(",")
        if len(parts) != len(header):
            raise InvalidInputError(f"{path}:{lineno}: {len(parts)} fields, header has {len(header)}")
        try:
            f = int(parts[0])
            coords = [float(v) for v in parts[2:2 + dim]]
            conf = float(parts[2 + dim])
            mask = _MASK[parts[3 + dim].strip()]
        except ValueError as e:
            raise InvalidInputError(f"{path}:{lineno}: {e}") from None
        except KeyError:
            raise InvalidInputError(f"{path}:{lineno}: mask {parts[3 + dim]!r} is not one of "
                                    + "/".join(_MASK)) from None
        try:
            k = topo.index(parts[1])
        except TopologyError as e:
            raise TopologyError(f"{path}:{lineno}: {e}") from None
        if (f, k) in records:
            raise InvalidInputError(f"{path}:{lineno}: duplicate record frame={f} keypoint={parts[1]}")
        records[(f, k)] = (coords, conf, mask)
        if len(header) > len(base):
            actions[f] = parts[4 + dim]
    frames_present = sorted({f for f, _ in records})
    if frames_present != list(range(len(frames_present))):
        raise InvalidInputError(f"{path}: frame indices must be contiguous from 0")
    t, k = len(frames_present), topo.K
    coords = np.zeros((t, k, dim))
    conf = np.zeros((t, k))
    mask = np.zeros((t, k), dtype=bool)
    for f in range(t):
        for j in range(k):
            if (f, j) not in records:
                raise InvalidInputError(f"{path}: missing record frame={f} "
                                        f"keypoint={topo.keypoint_names[j]}")
            c, cf, m = records[(f, j)]
            coords[f, j] = c
            conf[f, j] = cf
            mask[f, j] = m
    action_list = [actions.get(f, "") for f in range(t)] if actions else None
    return meta, coords, conf, mask, action_list


def read_pose3d(path, topo: SkeletonTopology) -> PoseSequence3D:
    meta, coords, conf, mask, actions = _read_table(path, True, topo)
    vis = ~mask if mask.any() else None
    root_rel = meta.get("root_relative", "1") not in ("0", "false", "False")
    return PoseSequence3D(coords, visibility=vis, root_relative=root_rel, actions=actions)


def _check_actions(actions) -> None:
    """An action cannot hold a comma or line break, nor end in whitespace the reader strips."""
    for a in set(actions or ()):
        if any(c in a for c in ",\n\r") or a != a.rstrip():
            raise InvalidInputError(f"action {a!r} contains a comma or line break or ends "
                                    "in whitespace, which a pose table cannot hold")


def write_pose3d(path, pose: PoseSequence3D, topo: SkeletonTopology) -> None:
    _check_actions(pose.actions)
    lines = [f"# root_relative = {1 if pose.root_relative else 0}"]
    cols = "frame,keypoint,x,y,z,conf,mask"
    if pose.actions is not None:
        cols += ",action"
    lines.append(cols)
    vis = pose.visibility
    for f in range(pose.T):
        for j, name in enumerate(topo.keypoint_names):
            x, y, z = pose.frames[f, j]
            masked = 0 if vis is None else int(not vis[f, j])
            row = f"{f},{name},{x:.9g},{y:.9g},{z:.9g},1,{masked}"
            if pose.actions is not None:
                row += f",{pose.actions[f]}"
            lines.append(row)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_pose2d(path, topo: SkeletonTopology) -> PoseSequence2D:
    meta, coords, conf, mask, actions = _read_table(path, False, topo)
    scale = float(meta["scale_mm"]) if "scale_mm" in meta else None
    return PoseSequence2D(coords, confidence=conf, mask=mask, scale_mm=scale, actions=actions)


def write_pose2d(path, pose: PoseSequence2D, topo: SkeletonTopology) -> None:
    _check_actions(pose.actions)
    lines = []
    if pose.scale_mm is not None:
        lines.append(f"# scale_mm = {pose.scale_mm:.9g}")
    cols = "frame,keypoint,x,y,conf,mask"
    if pose.actions is not None:
        cols += ",action"
    lines.append(cols)
    for f in range(pose.T):
        for j, name in enumerate(topo.keypoint_names):
            x, y = pose.frames[f, j]
            row = f"{f},{name},{x:.9g},{y:.9g},{pose.confidence[f, j]:.9g},{int(pose.mask[f, j])}"
            if pose.actions is not None:
                row += f",{pose.actions[f]}"
            lines.append(row)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, obj) -> None:
    """`obj` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=1) + "\n")


# ---------------------------------------------------------------- configs

def parse_config(text: str) -> dict:
    """Flat `key = value` lines, '#' comments. Values stay strings."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def read_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


_TRUE = ("1", "true", "True", "yes")
_FALSE = ("0", "false", "False", "no")


def _parse(text: str, typ, seps: str):
    if get_origin(typ) is Union:        # Optional[X]: the value is an X
        typ = next(a for a in get_args(typ) if a is not type(None))
    if get_origin(typ) is tuple:        # "a,b,c"; inner tuples "x:y:z"
        parts = [p.strip() for p in text.split(seps[0])] if text.strip() else []
        args = get_args(typ)
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(parts)
        if len(args) != len(parts):
            raise ValueError(f"expected {len(args)} values")
        return tuple(_parse(p, t, seps[1:]) for p, t in zip(parts, args))
    if typ is bool:
        if text not in _TRUE + _FALSE:
            raise ValueError("expected one of " + "/".join(_TRUE + _FALSE))
        return text in _TRUE
    if typ not in (int, float, str):
        raise ValueError(f"unsupported type {typ!r}")
    return typ(text)


def parse_value(key: str, text: str, typ):
    """Config text as a value of type `typ`; ConfigError naming `key` if malformed."""
    try:
        return _parse(text, typ, ",:")
    except ValueError as e:
        raise ConfigError(f"config key {key} = {text!r}: {e}") from None


# ---------------------------------------------------------------- checkpoints

def save_checkpoint(path, arrays: dict, meta: dict) -> None:
    """Single npz: version, JSON meta, flat float64 arrays."""
    payload = {"__version__": np.array(CHECKPOINT_VERSION),
               "__meta__": np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)}
    for name, arr in arrays.items():
        if name.startswith("__"):
            raise InvalidInputError(f"reserved array name {name!r}")
        payload[name] = np.asarray(arr, dtype=np.float64)
    np.savez(path, **payload)


def load_checkpoint(path):
    """(arrays, meta) of a save_checkpoint npz.

    Any other file, such as a text file, a damaged zip or an npz without
    __version__ and __meta__, raises InvalidInputError naming the path.
    """
    def not_a_checkpoint(why):
        return InvalidInputError(f"{path} is not a poselift checkpoint: {why}")

    try:
        data = np.load(path)
    except zipfile.BadZipFile as e:
        raise not_a_checkpoint(f"damaged npz archive ({e})") from None
    except (ValueError, EOFError):     # numpy found no npy or npz header
        raise not_a_checkpoint("not an npz archive") from None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise not_a_checkpoint("a single npy array, not an npz archive")
    with data:
        missing = sorted({"__version__", "__meta__"} - set(data.files))
        if missing:
            raise not_a_checkpoint(f"no {' or '.join(missing)} entry")
        try:
            version = int(data["__version__"])
            meta = json.loads(bytes(data["__meta__"]).decode())
        except (ValueError, TypeError) as e:
            raise not_a_checkpoint(e) from None
        if version != CHECKPOINT_VERSION:
            raise InvalidInputError(f"{path}: unsupported checkpoint version {version}")
        if not isinstance(meta, dict):
            raise not_a_checkpoint("__meta__ is not a JSON object")
        arrays = {k: data[k].copy() for k in data.files if not k.startswith("__")}
    return arrays, meta
