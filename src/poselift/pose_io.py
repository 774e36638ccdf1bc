"""File formats: topology, pose tables, JSON artifacts, key=value configs, npz checkpoints.

A topology file has four line kinds, '#' starting a comment:
    keypoint <name>                           order defines the index
    bone <parent> <child>                     kinematic tree edge
    torso <neck> <shoulder_l> <shoulder_r>    keypoints of the torso-rule radius
    cylinder <name> <top> <bottom> <radius_mm|torso>
Pose tables are plain CSV with a header. 3D:
    frame,keypoint,x,y,z,conf,mask[,action]
2D drops the z column. Coordinates are mm (3D) or normalized crop units (2D).
Header comment lines (before the CSV header) carry container metadata, one
key per dimension: a 2D table's
    # scale_mm = 2000
and a 3D table's
    # root_relative = 1
Any other `# key = value` comment is an error; a comment with no `=` is free text.
"""

from __future__ import annotations

import importlib.resources
import json
import math
import zipfile
from typing import Union, get_args, get_origin

import numpy as np

from .errors import ConfigError, InvalidInputError, TopologyError
from .skeleton import CylinderSpec, PoseSequence2D, PoseSequence3D, SkeletonTopology

CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------- topology

def parse_topology(text: str) -> SkeletonTopology:
    """The topology that a text of the module docstring's four line kinds describes.

    A keypoint line precedes every line that names it, and the torso line
    comes once. TopologyError names the line that breaks this or is of no
    such form; for a line of the old form (a bone radius, a head line, a
    torso line with hips) it gives the line to write instead.
    """
    names, bones, cylinders = [], [], []
    torso = torso_line = None

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
        try:        # a TopologyError is a ValueError, so every error gets its line
            if kind == "keypoint" and len(parts) == 2:
                names.append(parts[1])
            elif kind == "bone" and len(parts) == 3:
                bones.append((idx(parts[1]), idx(parts[2])))
            elif kind == "torso" and len(parts) == 4:
                if torso is not None:
                    raise TopologyError(f"repeated torso line; the first is line {torso_line}")
                torso, torso_line = tuple(idx(p) for p in parts[1:]), lineno
            elif kind == "cylinder" and len(parts) == 5:
                r = None if parts[4] == "torso" else float(parts[4])
                cylinders.append(CylinderSpec(parts[1], idx(parts[2]), idx(parts[3]), r))
            elif kind == "head" or (kind, len(parts)) in (("bone", 4), ("torso", 6)):
                new = "no head line" if kind == "head" else repr(
                    " ".join(parts[:3 if kind == "bone" else 4]))
                raise TopologyError(f"{line!r} is in the old topology form, which held bone "
                                    f"radii, a head line and the torso's hips; write {new} "
                                    "instead")
            else:
                raise TopologyError(f"unrecognized topology line: {raw!r}")
        except ValueError as exc:
            raise TopologyError(f"line {lineno}: {exc}") from None
    if torso is None:
        raise TopologyError("topology file must define a torso line")
    return SkeletonTopology(tuple(names), tuple(bones), torso, tuple(cylinders))


def read_topology(path) -> SkeletonTopology:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_topology(fh.read())


def default_topology() -> SkeletonTopology:
    text = importlib.resources.files("poselift.data").joinpath("h36m17.topo").read_text()
    return parse_topology(text)


# ---------------------------------------------------------------- pose tables

def _lines(path):
    """(line number, text) of each line of a file that is not blank, stripped."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if s := line.strip():
                yield lineno, s


_MASK = {"0": False, "false": False, "False": False, "1": True, "true": True, "True": True}


def _columns(dim: int) -> list:
    """The header of a `dim`-D pose table, which an `action` column may follow."""
    return ["frame", "keypoint", "x", "y", "z"][:2 + dim] + ["conf", "mask"]


_META_KEY = {2: "scale_mm", 3: "root_relative"}    # the one comment key of each dimension


def _meta_value(path, lineno: int, key: str, text: str, dim: int):
    """The value of a `dim`-D pose table's `# key = value` comment: a 2D
    table's `scale_mm` holds a finite number > 0, a 3D table's
    `root_relative` one of the mask column's spellings, and no other key is
    known."""
    if key != _META_KEY[dim]:
        raise InvalidInputError(f"{path}:{lineno}: unknown comment key {key!r}; a {dim}D "
                                f"pose table knows only {_META_KEY[dim]}")
    if dim == 3:
        if text not in _MASK:
            raise InvalidInputError(f"{path}:{lineno}: root_relative = {text} is not one of "
                                    + "/".join(_MASK))
        return _MASK[text]
    try:
        scale = float(text)
    except ValueError:
        scale = math.nan
    if not (math.isfinite(scale) and scale > 0):
        raise InvalidInputError(f"{path}:{lineno}: scale_mm = {text} is not a finite "
                                "number > 0")
    return scale


def _number_fault(columns: list, vals: list) -> str:
    """Why a row's coordinates and confidence (last of `vals`) cannot load."""
    for name, v in zip(columns, vals):
        if not math.isfinite(v):
            return f"{name} = {v} is not finite"
    return f"conf = {vals[-1]} is outside [0, 1]"


def _read_table(path, dim: int, topo: SkeletonTopology):
    """(meta, coords, conf, mask, actions) of a `dim`-D pose table file.

    The header is the base columns, optionally followed by `action`, at
    least one row follows it, every row has one parseable field per column,
    finite coordinates and a confidence in [0, 1] (exactly 0 on a masked 2D
    row), every `# key = value` comment is, in a 2D table, a `scale_mm`
    holding a finite number > 0 or, in a 3D table, a `root_relative` spelled
    as the mask column spells a boolean, and no comment key comes twice; a
    comment with no `=` is free text. InvalidInputError names the file (and
    line) that breaks this.

    A complete table of n rows holds frames 0 .. n/K - 1, so each row goes
    straight to slot frame * K + keypoint of arrays sized n. A row whose
    slot lies outside them is a stray, which only a table with a frame gap
    or a missing record has.
    """
    meta, line_of, n = {}, {}, -1     # n counts the rows after the header
    for lineno, s in _lines(path):
        if not s.startswith("#"):
            n += 1
        elif "=" in s:
            key, val = (p.strip() for p in s[1:].split("=", 1))
            if key in line_of:
                raise InvalidInputError(f"{path}:{lineno}: repeated '# {key}' comment; the "
                                        f"first is line {line_of[key]}")
            line_of[key] = lineno
            meta[key] = _meta_value(path, lineno, key, val, dim)
    base, rows = _columns(dim), _lines(path)
    lineno, text = next(((i, s) for i, s in rows if not s.startswith("#")), (1, ""))
    header = text.split(",")
    if header not in (base, base + ["action"]):
        raise InvalidInputError(f"{path}:{lineno}: pose header {text!r} is not "
                                f"{','.join(base)}[,action]")
    if n == 0:
        raise InvalidInputError(f"{path}: pose table has a header but no rows")
    k_all = topo.K
    values = np.empty((n, dim + 1))                 # coordinates, then conf
    mask = np.empty(n, dtype=bool)
    seen = np.zeros(n, dtype=bool)
    strays = set()
    keypoint = {name: k for k, name in enumerate(topo.keypoint_names)}
    actions = [""] * -(-n // k_all) if len(header) > len(base) else None    # per frame
    for lineno, row in rows:
        if row.startswith("#"):
            continue
        parts = row.split(",")
        if len(parts) != len(header):
            raise InvalidInputError(f"{path}:{lineno}: {len(parts)} fields, header has {len(header)}")
        try:
            f = int(parts[0])
            vals = list(map(float, parts[2:3 + dim]))
            masked = _MASK[parts[3 + dim].strip()]
        except ValueError as e:
            raise InvalidInputError(f"{path}:{lineno}: {e}") from None
        except KeyError:
            raise InvalidInputError(f"{path}:{lineno}: mask {parts[3 + dim]!r} is not one of "
                                    + "/".join(_MASK)) from None
        if not (all(map(math.isfinite, vals)) and 0.0 <= vals[dim] <= 1.0):
            raise InvalidInputError(f"{path}:{lineno}: {_number_fault(header[2:], vals)}")
        if masked and dim == 2 and vals[dim] != 0.0:    # 3D tables write hidden as conf 1
            raise InvalidInputError(f"{path}:{lineno}: masked entry has conf = {vals[dim]}, "
                                    "not 0")
        if parts[1] not in keypoint:
            raise TopologyError(f"{path}:{lineno}: unknown keypoint {parts[1]!r}")
        slot = f * k_all + keypoint[parts[1]]
        inside = 0 <= slot < n
        if seen[slot] if inside else slot in strays:
            raise InvalidInputError(f"{path}:{lineno}: duplicate record frame={f} keypoint={parts[1]}")
        if not inside:
            strays.add(slot)
            continue
        seen[slot] = True
        values[slot] = vals
        mask[slot] = masked
        if actions is not None:
            actions[f] = parts[4 + dim]
    if strays:
        present = {s // k_all for s in strays}.union((np.flatnonzero(seen) // k_all).tolist())
        if present != set(range(len(present))):
            raise InvalidInputError(f"{path}: frame indices must be contiguous from 0")
    if strays or n % k_all:
        first = int(np.argmin(seen)) if strays else n
        raise InvalidInputError(f"{path}: missing record frame={first // k_all} "
                                f"keypoint={topo.keypoint_names[first % k_all]}")
    shape = (n // k_all, k_all)
    return (meta, values[:, :dim].reshape(shape + (dim,)).copy(),
            values[:, dim].reshape(shape).copy(), mask.reshape(shape), actions)


def _write_table(path, meta: list, coords, conf, mask, actions, topo: SkeletonTopology) -> None:
    """The `meta` comment lines, the header and one row per frame and keypoint; an
    action cannot hold a comma or line break, nor end in whitespace the reader strips."""
    for a in set(actions or ()):
        if any(c in a for c in ",\n\r") or a != a.rstrip():
            raise InvalidInputError(f"action {a!r} contains a comma or line break or ends "
                                    "in whitespace, which a pose table cannot hold")
    dim = coords.shape[-1]
    header = ",".join(_columns(dim)) + ("" if actions is None else ",action")
    row = "%d,%s" + ",%.9g" * (dim + 1) + ",%d" + ("" if actions is None else ",%s")
    cols = np.concatenate([coords, conf[..., None], mask[..., None]], axis=-1).tolist()
    lines = meta + [header]
    for f, frame in enumerate(cols):
        tail = () if actions is None else (actions[f],)
        lines.extend([row % (f, name, *v, *tail)
                      for name, v in zip(topo.keypoint_names, frame, strict=True)])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_pose3d(path, topo: SkeletonTopology) -> PoseSequence3D:
    meta, coords, conf, mask, actions = _read_table(path, 3, topo)
    vis = ~mask if mask.any() else None
    return PoseSequence3D(coords, visibility=vis, root_relative=meta.get("root_relative", True),
                          actions=actions)


def write_pose3d(path, pose: PoseSequence3D, topo: SkeletonTopology) -> None:
    hidden = np.zeros(pose.frames.shape[:2], bool) if pose.visibility is None else ~pose.visibility
    _write_table(path, [f"# root_relative = {1 if pose.root_relative else 0}"], pose.frames,
                 np.ones(hidden.shape), hidden, pose.actions, topo)


def read_pose2d(path, topo: SkeletonTopology) -> PoseSequence2D:
    meta, coords, conf, mask, actions = _read_table(path, 2, topo)
    return PoseSequence2D(coords, confidence=conf, mask=mask, scale_mm=meta.get("scale_mm"),
                          actions=actions)


def write_pose2d(path, pose: PoseSequence2D, topo: SkeletonTopology) -> None:
    meta = [] if pose.scale_mm is None else [f"# scale_mm = {pose.scale_mm:.9g}"]
    _write_table(path, meta, pose.frames, pose.confidence, pose.mask, pose.actions, topo)


def write_json(path, obj) -> None:
    """`obj` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=1) + "\n")


# ---------------------------------------------------------------- configs

def parse_config(text: str) -> dict:
    """Flat `key = value` lines, '#' comments. Values stay strings; a key set
    twice is a ConfigError."""
    out, line_of = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, val = (p.strip() for p in line.split("=", 1))
        if key in line_of:
            raise ConfigError(f"line {lineno}: config key {key} is set again; the first "
                              f"is line {line_of[key]}")
        line_of[key], out[key] = lineno, val
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
    value = typ(text)
    if typ is float and not math.isfinite(value):
        raise ValueError(f"{text.strip()} is not a finite number")
    return value


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
