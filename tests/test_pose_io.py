import re
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from poselift.errors import ConfigError, InvalidInputError, TopologyError
from poselift.pose_io import (
    default_topology,
    load_checkpoint,
    parse_config,
    parse_topology,
    parse_value,
    read_pose2d,
    read_pose3d,
    save_checkpoint,
    write_pose2d,
    write_pose3d,
)
from poselift.skeleton import PoseSequence2D, PoseSequence3D

K = default_topology().K


def test_pose3d_roundtrip(tmp_path, topo):
    rng = np.random.default_rng(0)
    frames = rng.normal(0, 300, size=(5, topo.K, 3))
    frames[:, topo.root_index] = 0.0
    vis = rng.random((5, topo.K)) > 0.3
    pose = PoseSequence3D(frames, visibility=vis, actions=["walk"] * 5)
    path = tmp_path / "p.csv"
    write_pose3d(path, pose, topo)
    back = read_pose3d(path, topo)
    assert np.allclose(back.frames, frames, atol=1e-6)
    assert np.array_equal(back.visibility, vis)
    assert back.root_relative
    assert back.actions == ["walk"] * 5


def test_pose2d_roundtrip(tmp_path, topo):
    rng = np.random.default_rng(1)
    frames = rng.random((4, topo.K, 2))
    conf = rng.random((4, topo.K))
    mask = rng.random((4, topo.K)) < 0.2
    frames[mask] = 0.0
    conf[mask] = 0.0
    pose = PoseSequence2D(frames, confidence=conf, mask=mask, scale_mm=2000.0)
    path = tmp_path / "d.csv"
    write_pose2d(path, pose, topo)
    back = read_pose2d(path, topo)
    assert np.allclose(back.frames, frames, atol=1e-6)
    assert np.allclose(back.confidence, conf, atol=1e-6)
    assert np.array_equal(back.mask, mask)
    assert back.scale_mm == 2000.0


# `%.9g` keeps nine significant digits, so a written number is off by at most
# half a unit in the ninth digit, 5e-9 relative; reading the decimal back
# rounds once more, by at most 2**-53 relative (normal floats)
WRITTEN_RTOL = 5e-9 + 2.0 ** -52
FLOATS = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=False)
CONFIDENCES = st.floats(0.0, 1.0, allow_subnormal=False)
# what a pose table can hold: no comma, line break or trailing whitespace
ACTIONS = st.text(st.characters(exclude_categories=("Cs",), exclude_characters=",\n\r"),
                  max_size=6).filter(lambda a: a == a.rstrip())


def actions_for(t):
    return st.none() | st.lists(ACTIONS, min_size=t, max_size=t)


@st.composite
def poses3d(draw):
    t = draw(st.integers(1, 3))
    return PoseSequence3D(draw(hnp.arrays(np.float64, (t, K, 3), elements=FLOATS)),
                          visibility=draw(st.none() | hnp.arrays(bool, (t, K))),
                          root_relative=draw(st.booleans()), actions=draw(actions_for(t)))


@st.composite
def poses2d(draw):
    t = draw(st.integers(1, 3))
    mask = draw(hnp.arrays(bool, (t, K)))
    conf = draw(hnp.arrays(np.float64, (t, K), elements=CONFIDENCES))
    conf[mask] = 0.0
    scale = draw(st.none() | st.floats(min_value=1e-3, max_value=1e9))
    return PoseSequence2D(draw(hnp.arrays(np.float64, (t, K, 2), elements=FLOATS)),
                          confidence=conf, mask=mask, scale_mm=scale,
                          actions=draw(actions_for(t)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(pose=poses3d())
def test_pose3d_round_trips_within_the_written_precision(tmp_path_factory, topo, pose):
    path = tmp_path_factory.mktemp("pose3d") / "p.pose3d"
    write_pose3d(path, pose, topo)
    back = read_pose3d(path, topo)
    np.testing.assert_allclose(back.frames, pose.frames, rtol=WRITTEN_RTOL, atol=0.0)
    # the table stores hidden keypoints; with none hidden it reads back as no mask
    if pose.visibility is None or pose.visibility.all():
        assert back.visibility is None
    else:
        assert np.array_equal(back.visibility, pose.visibility)
    assert back.root_relative == pose.root_relative
    assert back.actions == pose.actions


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(pose=poses2d())
def test_pose2d_round_trips_within_the_written_precision(tmp_path_factory, topo, pose):
    path = tmp_path_factory.mktemp("pose2d") / "p.pose2d"
    write_pose2d(path, pose, topo)
    back = read_pose2d(path, topo)
    np.testing.assert_allclose(back.frames, pose.frames, rtol=WRITTEN_RTOL, atol=0.0)
    np.testing.assert_allclose(back.confidence, pose.confidence, rtol=WRITTEN_RTOL, atol=0.0)
    assert np.array_equal(back.mask, pose.mask)
    if pose.scale_mm is None:
        assert back.scale_mm is None
    else:
        assert back.scale_mm == pytest.approx(pose.scale_mm, rel=WRITTEN_RTOL, abs=0.0)
    assert back.actions == pose.actions


def test_read_pose_missing_record(tmp_path, topo):
    path = tmp_path / "bad.csv"
    path.write_text("frame,keypoint,x,y,z,conf,mask\n0,pelvis,0,0,0,1,0\n")
    with pytest.raises(InvalidInputError,
                       match=re.escape(f"{path}: missing record frame=0 keypoint=")):
        read_pose3d(path, topo)


def test_read_pose_unknown_keypoint(tmp_path, topo):
    path = tmp_path / "bad.csv"
    path.write_text("frame,keypoint,x,y,z,conf,mask\n0,knuckle,0,0,0,1,0\n")
    with pytest.raises(TopologyError, match=re.escape(f"{path}:2: unknown keypoint 'knuckle'")):
        read_pose3d(path, topo)


@pytest.mark.parametrize("text, named", [
    ("", ":1: pose header '' is not"),
    ("# scale_mm = 2000\n0,pelvis,0,0,0,1,0\n", ":2: pose header '0,pelvis"),
    ("frame,keypoint,x,y,z,conf,mask,extra\n", ":1: pose header"),
    ("# scale_mm = 2000\nframe,keypoint,x,y,z,conf,mask\n", ": pose table has a header but no rows"),
    ("frame,keypoint,x,y,z,conf,mask\n0,pelvis,0,0,0,1\n", ":2: 6 fields, header has 7"),
    ("frame,keypoint,x,y,z,conf,mask\n0,pelvis,0,0,0,1,0,run\n", ":2: 8 fields, header has 7"),
    ("frame,keypoint,x,y,z,conf,mask\n\n0,pelvis,0,0,0,1,2\n", ":3: mask '2' is not one of"),
    ("frame,keypoint,x,y,z,conf,mask\n0,pelvis,abc,0,0,1,0\n", ":2: could not convert"),
    ("frame,keypoint,x,y,z,conf,mask\n1,pelvis,0,0,0,1,0\n",
     ": frame indices must be contiguous from 0"),
])
def test_read_pose_rejects_malformed_tables_naming_the_line(tmp_path, topo, text, named):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(InvalidInputError, match=re.escape(f"{path}{named}")):
        read_pose3d(path, topo)


def test_topology_parse_errors():
    with pytest.raises(TopologyError):
        parse_topology("keypoint a\nbone a b 50\nhead a a\ntorso a a a a a\n")
    with pytest.raises(TopologyError):
        parse_topology("keypoint pelvis\nwhatnot pelvis\n")
    with pytest.raises(TopologyError):
        parse_topology("keypoint pelvis\nkeypoint a\nbone pelvis a 50\n")  # no head/torso


def test_config_parse():
    cfg = parse_config("# comment\ntcn.embed_dim = 64\niso.sigma=1.5\nocc.strides = 1,2,3\nflag = true\n")
    assert parse_value("tcn.embed_dim", cfg["tcn.embed_dim"], int) == 64
    assert parse_value("iso.sigma", cfg["iso.sigma"], float) == 1.5
    assert parse_value("occ.strides", cfg["occ.strides"], tuple[int, ...]) == (1, 2, 3)
    assert parse_value("flag", cfg["flag"], bool) is True


def test_config_errors():
    with pytest.raises(ConfigError):
        parse_config("just a line\n")
    cfg = parse_config("x = notanint\n")
    with pytest.raises(ConfigError):
        parse_value("x", cfg["x"], int)


def test_parse_value_by_type():
    assert parse_value("k", "0.5:1:2,3:4:5", tuple[tuple[float, float, float], ...]) == (
        (0.5, 1.0, 2.0), (3.0, 4.0, 5.0))
    assert parse_value("k", "", tuple[float, ...]) == ()
    assert parse_value("k", "no", bool) is False
    assert parse_value("k", "runs", Optional[str]) == "runs"
    for text, typ in (("1.5,2", tuple[int, ...]), ("flase", bool), ("0.1", tuple[float, float]),
                      ("1,,2", tuple[int, ...]), ("2.0", int)):
        with pytest.raises(ConfigError, match="config key k "):
            parse_value("k", text, typ)


def test_checkpoint_roundtrip(tmp_path):
    arrays = {"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(3)}
    meta = {"kind": "tcn", "embed_dim": 8, "strides": [1, 2]}
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, arrays, meta)
    back_arrays, back_meta = load_checkpoint(path)
    assert back_meta == meta
    assert set(back_arrays) == {"w", "b"}
    assert np.array_equal(back_arrays["w"], arrays["w"])


def test_checkpoint_reserved_name(tmp_path):
    with pytest.raises(InvalidInputError):
        save_checkpoint(tmp_path / "x.npz", {"__meta__": np.zeros(1)}, {})


def test_load_checkpoint_rejects_files_that_are_not_checkpoints(tmp_path):
    (tmp_path / "exp.cfg").write_text("model = exp.cfg\n")
    (tmp_path / "cut.npz").write_bytes(b"PK\x03\x04 cut short")
    (tmp_path / "empty.npz").write_bytes(b"")
    np.save(tmp_path / "one.npy", np.zeros(3))
    np.savez(tmp_path / "bare.npz", w=np.zeros(3))
    np.savez(tmp_path / "no_meta.npz", __version__=np.array(1), w=np.zeros(3))
    np.savez(tmp_path / "no_version.npz", __meta__=np.frombuffer(b"{}", dtype=np.uint8))
    np.savez(tmp_path / "list_meta.npz", __version__=np.array(1),
             __meta__=np.frombuffer(b"[1]", dtype=np.uint8))
    for name in ("exp.cfg", "cut.npz", "empty.npz", "one.npy", "bare.npz", "no_meta.npz",
                 "no_version.npz", "list_meta.npz"):
        path = tmp_path / name
        with pytest.raises(InvalidInputError, match="is not a poselift checkpoint") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)


@pytest.mark.parametrize("action", ["walk,fast", "walk\nfast", "walk\r", ",", "walk ", "walk\t"])
def test_write_pose_rejects_actions_that_break_the_table(tmp_path, topo, action):
    actions = ["walk", action]
    pose3 = PoseSequence3D(np.zeros((2, topo.K, 3)), actions=actions)
    pose2 = PoseSequence2D(np.zeros((2, topo.K, 2)), actions=actions)
    for write, pose, path in ((write_pose3d, pose3, tmp_path / "a.pose3d"),
                              (write_pose2d, pose2, tmp_path / "a.pose2d")):
        with pytest.raises(InvalidInputError, match="comma or line break"):
            write(path, pose, topo)
        assert not path.exists()
