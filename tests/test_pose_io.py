import importlib.resources
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
from poselift.skeleton import CylinderSpec, PoseSequence2D, PoseSequence3D

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


@settings(max_examples=60)
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


@settings(max_examples=60)
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
    ("# root_relative = 1\n0,pelvis,0,0,0,1,0\n", ":2: pose header '0,pelvis"),
    ("frame,keypoint,x,y,z,conf,mask,extra\n", ":1: pose header"),
    ("# root_relative = 1\nframe,keypoint,x,y,z,conf,mask\n",
     ": pose table has a header but no rows"),
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


# the 2D reader checks the same way, on two columns fewer
@pytest.mark.parametrize("text, named", [
    ("", ":1: pose header '' is not frame,keypoint,x,y,conf,mask[,action]"),
    ("frame,keypoint,x,y,z,conf,mask\n0,pelvis,0,0,0,1,0\n", ":1: pose header"),
    ("# scale_mm = 2000\nframe,keypoint,x,y,conf,mask\n", ": pose table has a header but no rows"),
    ("frame,keypoint,x,y,conf,mask\n0,pelvis,0,0,1\n", ":2: 5 fields, header has 6"),
    ("frame,keypoint,x,y,conf,mask,action\n0,pelvis,0,0,1,0\n", ":2: 6 fields, header has 7"),
    ("frame,keypoint,x,y,conf,mask\n\n0,pelvis,0,0,1,yes\n", ":3: mask 'yes' is not one of"),
    ("frame,keypoint,x,y,conf,mask\n0,pelvis,0,0,high,0\n", ":2: could not convert"),
    ("frame,keypoint,x,y,conf,mask\nfirst,pelvis,0,0,1,0\n", ":2: invalid literal for int()"),
    ("frame,keypoint,x,y,conf,mask\n-1,pelvis,0,0,1,0\n",
     ": frame indices must be contiguous from 0"),
    ("frame,keypoint,x,y,conf,mask\n0,pelvis,0,0,1,0\n", ": missing record frame=0 keypoint=hip_r"),
])
def test_read_pose2d_rejects_malformed_tables_naming_the_line(tmp_path, topo, text, named):
    path = tmp_path / "bad.pose2d"
    path.write_text(text)
    with pytest.raises(InvalidInputError, match=re.escape(f"{path}{named}")):
        read_pose2d(path, topo)


def table_rows(dim, frames, keypoints):
    """Rows of a well-formed `dim`-D table body, zero coordinates, nothing masked."""
    return "".join(f"{f},{name}" + ",0" * dim + ",1,0\n" for f in frames for name in keypoints)


@pytest.mark.parametrize("read, dim", [(read_pose3d, 3), (read_pose2d, 2)])
def test_read_pose_names_record_faults(tmp_path, topo, read, dim):
    header = "frame,keypoint,x,y" + (",z" if dim == 3 else "") + ",conf,mask\n"
    names = topo.keypoint_names
    path = tmp_path / "bad.pose"
    for body, named, err in (
            (table_rows(dim, [0, 0], names[:1]) + table_rows(dim, [0], names[1:]),
             ":3: duplicate record frame=0 keypoint=pelvis", InvalidInputError),
            (table_rows(dim, [0, 1], names) + table_rows(dim, [1], names[3:4]),
             f":{2 + 2 * len(names)}: duplicate record frame=1 keypoint={names[3]}",
             InvalidInputError),
            (table_rows(dim, [0, 2], names), ": frame indices must be contiguous from 0",
             InvalidInputError),
            # a duplicate is named before the gap it lies beyond
            (table_rows(dim, [0], names) + table_rows(dim, [2, 2], names[:1]),
             f":{3 + len(names)}: duplicate record frame=2 keypoint=pelvis", InvalidInputError),
            (table_rows(dim, [1], names), ": frame indices must be contiguous from 0",
             InvalidInputError),
            (table_rows(dim, [0], names[1:]) + table_rows(dim, [1], names),
             ": missing record frame=0 keypoint=pelvis", InvalidInputError),
            (table_rows(dim, [0, 1], names[:-1]) + table_rows(dim, [2], names),
             f": missing record frame=0 keypoint={names[-1]}", InvalidInputError),
            (table_rows(dim, [0], names) + table_rows(dim, [1], names[:-1]),
             f": missing record frame=1 keypoint={names[-1]}", InvalidInputError),
            (table_rows(dim, [0], names[:5]) + table_rows(dim, [0], ["knuckle"]),
             ":7: unknown keypoint 'knuckle'", TopologyError)):
        path.write_text(header + body)
        with pytest.raises(err, match=re.escape(f"{path}{named}")):
            read(path, topo)


@pytest.mark.parametrize("read, dim", [(read_pose3d, 3), (read_pose2d, 2)])
@pytest.mark.parametrize("field, text, named", [
    (0, "nan", "x = nan is not finite"),
    (1, "-inf", "y = -inf is not finite"),
    (-1, "inf", "conf = inf is not finite"),
    (-1, "NaN", "conf = nan is not finite"),
    (-1, "1.5", "conf = 1.5 is outside [0, 1]"),
    (-1, "-0.25", "conf = -0.25 is outside [0, 1]"),
])
def test_read_pose_rejects_non_finite_numbers_and_confidences_outside_0_1(
        tmp_path, topo, read, dim, field, text, named):
    header = "frame,keypoint,x,y" + (",z" if dim == 3 else "") + ",conf,mask\n"
    rows = table_rows(dim, [0, 1], topo.keypoint_names).splitlines(keepends=True)
    cells = rows[20].split(",")                     # frame 1, keypoint 3: line 22
    cells[2 + field if field >= 0 else 2 + dim] = text
    rows[20] = ",".join(cells)
    path = tmp_path / "bad.pose"
    path.write_text(header + "".join(rows))
    with pytest.raises(InvalidInputError, match=re.escape(f"{path}:22: {named}")):
        read(path, topo)


def test_read_pose2d_rejects_a_masked_row_with_confidence_naming_the_line(tmp_path, topo):
    # 2D only: a 3D table writes its hidden keypoints as conf 1, mask 1
    rows = table_rows(2, [0, 1], topo.keypoint_names).splitlines(keepends=True)
    rows[20] = rows[20].replace(",1,0\n", ",0.5,1\n")   # frame 1, keypoint 3: line 22
    path = tmp_path / "bad.pose2d"
    path.write_text("frame,keypoint,x,y,conf,mask\n" + "".join(rows))
    with pytest.raises(InvalidInputError, match=re.escape(
            f"{path}:22: masked entry has conf = 0.5, not 0")):
        read_pose2d(path, topo)
    rows3d = table_rows(3, [0, 1], topo.keypoint_names).splitlines(keepends=True)
    rows3d[20] = rows3d[20].replace(",1,0\n", ",0.5,1\n")
    path.write_text("frame,keypoint,x,y,z,conf,mask\n" + "".join(rows3d))
    assert read_pose3d(path, topo).visibility.sum() == 2 * len(topo.keypoint_names) - 1


@pytest.mark.parametrize("scale", ["abc", "nan", "inf", "1e400", "0", "-5", ""])
def test_read_pose2d_rejects_a_scale_that_is_not_a_finite_positive_number(
        tmp_path, topo, scale):
    path = tmp_path / "bad.pose"
    path.write_text("# a free-text note\n# scale_mm = " + scale + "\n"
                    + "frame,keypoint,x,y,conf,mask\n" + table_rows(2, [0], topo.keypoint_names))
    with pytest.raises(InvalidInputError, match=re.escape(
            f"{path}:2: scale_mm = {scale} is not a finite number > 0")):
        read_pose2d(path, topo)


def test_read_pose2d_keeps_a_positive_scale_and_the_confidence_bounds(tmp_path, topo):
    path = tmp_path / "ok.pose2d"
    rows = table_rows(2, [0], topo.keypoint_names).replace(",1,0\n", ",0,0\n", 1)
    path.write_text("# scale_mm = 1e-3\nframe,keypoint,x,y,conf,mask\n" + rows)
    pose = read_pose2d(path, topo)
    assert pose.scale_mm == 1e-3
    assert pose.confidence[0, 0] == 0.0 and pose.confidence[0, 1:].min() == 1.0


# a three-keypoint skeleton keeps the golden tables short
TINY = parse_topology("keypoint pelvis\nkeypoint neck\nkeypoint head_top\n"
                      "bone pelvis neck\nbone neck head_top\ntorso neck pelvis pelvis\n")


def test_write_pose3d_golden_bytes(tmp_path):
    frames = [[[0.0, 0.0, 0.0], [0.1, -1234.5678, 1 / 3], [1e-10, 123456789012.0, -0.0]],
              [[2.5, -3.0, 4.0], [100.0, 200.0, 300.0], [-7.25, 1e21, 0.000123]]]
    pose = PoseSequence3D(frames, visibility=[[True, False, True], [True, True, False]],
                          root_relative=False, actions=["walk", "sit down"])
    path = tmp_path / "p.pose3d"
    write_pose3d(path, pose, TINY)
    assert path.read_bytes() == (
        b"# root_relative = 0\n"
        b"frame,keypoint,x,y,z,conf,mask,action\n"
        b"0,pelvis,0,0,0,1,0,walk\n"
        b"0,neck,0.1,-1234.5678,0.333333333,1,1,walk\n"
        b"0,head_top,1e-10,1.23456789e+11,-0,1,0,walk\n"
        b"1,pelvis,2.5,-3,4,1,0,sit down\n"
        b"1,neck,100,200,300,1,0,sit down\n"
        b"1,head_top,-7.25,1e+21,0.000123,1,1,sit down\n")


def test_write_pose2d_golden_bytes(tmp_path):
    frames = [[[0.5, 0.25], [0.0, 0.0], [1 / 7, 0.999999999999]],
              [[0.0, 0.0], [1e-5, -0.125], [2.0, 0.3]]]
    mask = [[False, True, False], [True, False, False]]
    conf = [[0.9, 0.0, 1.0], [0.0, 0.123456789123, 2 / 3]]
    pose = PoseSequence2D(frames, confidence=conf, mask=mask, scale_mm=1234.56789)
    path = tmp_path / "d.pose2d"
    write_pose2d(path, pose, TINY)
    assert path.read_bytes() == (
        b"# scale_mm = 1234.56789\n"
        b"frame,keypoint,x,y,conf,mask\n"
        b"0,pelvis,0.5,0.25,0.9,0\n"
        b"0,neck,0,0,0,1\n"
        b"0,head_top,0.142857143,1,1,0\n"
        b"1,pelvis,0,0,0,1\n"
        b"1,neck,1e-05,-0.125,0.123456789,0\n"
        b"1,head_top,2,0.3,0.666666667,0\n")


def test_topology_parse_errors():
    with pytest.raises(TopologyError):
        parse_topology("keypoint a\nbone a b\ntorso a a a\n")
    with pytest.raises(TopologyError):
        parse_topology("keypoint pelvis\nwhatnot pelvis\n")
    with pytest.raises(TopologyError):
        parse_topology("keypoint pelvis\nkeypoint a\nbone pelvis a\n")  # no torso


DEFAULT_TOPO_TEXT = importlib.resources.files("poselift.data").joinpath("h36m17.topo").read_text()


def test_topology_with_a_repeated_torso_line_is_an_error():
    # the default topology's torso line sits at line 44
    text = DEFAULT_TOPO_TEXT.rstrip("\n") + "\ntorso pelvis hip_l hip_r\n"
    last = len(text.splitlines())
    with pytest.raises(TopologyError, match=re.escape(
            f"line {last}: repeated torso line; the first is line 44")):
        parse_topology(text)


OLD_FORM = "is in the old topology form, which held bone radii, a head line and the torso's hips"


@pytest.mark.parametrize("line, new_form, lineno", [
    ("bone neck nose 100", "bone neck nose", 35),
    ("torso neck shoulder_l shoulder_r hip_l hip_r", "torso neck shoulder_l shoulder_r", 44),
])
def test_topology_line_of_the_old_form_names_its_line_and_new_form(line, new_form, lineno):
    # the default topology with one of its lines written in the old form
    text = DEFAULT_TOPO_TEXT.replace(new_form + "\n", line + "\n")
    with pytest.raises(TopologyError, match=re.escape(
            f"line {lineno}: {line!r} {OLD_FORM}; write {new_form!r} instead")):
        parse_topology(text)


def test_topology_head_line_is_an_error_naming_its_line():
    torso = "torso neck shoulder_l shoulder_r\n"          # line 44
    text = DEFAULT_TOPO_TEXT.replace(torso, torso + "head head_top neck\n")
    with pytest.raises(TopologyError, match=re.escape(
            f"line 45: 'head head_top neck' {OLD_FORM}; write no head line instead")):
        parse_topology(text)


def test_default_topology_keeps_its_keypoints_bones_and_cylinders():
    topo = default_topology()
    assert topo.keypoint_names == (
        "pelvis", "hip_r", "knee_r", "ankle_r", "hip_l", "knee_l", "ankle_l", "spine", "neck",
        "nose", "head_top", "shoulder_l", "elbow_l", "wrist_l", "shoulder_r", "elbow_r",
        "wrist_r")
    assert topo.bones == ((0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (0, 7), (7, 8),
                          (8, 9), (9, 10), (8, 11), (11, 12), (12, 13), (8, 14), (14, 15),
                          (15, 16))
    assert topo.bone_order == (0, 3, 6, 1, 4, 7, 2, 5, 8, 10, 13, 9, 11, 14, 12, 15)
    assert topo.torso == (8, 11, 14)        # neck, shoulder_l, shoulder_r
    assert topo.cylinders == (
        CylinderSpec("head", 10, 8, 100.0), CylinderSpec("torso", 8, 0, None),
        CylinderSpec("upper_arm_l", 11, 12, 50.0), CylinderSpec("lower_arm_l", 12, 13, 50.0),
        CylinderSpec("upper_arm_r", 14, 15, 50.0), CylinderSpec("lower_arm_r", 15, 16, 50.0),
        CylinderSpec("thigh_l", 4, 5, 50.0), CylinderSpec("shin_l", 5, 6, 50.0),
        CylinderSpec("thigh_r", 1, 2, 50.0), CylinderSpec("shin_r", 2, 3, 50.0))


def test_config_with_a_repeated_key_is_an_error():
    with pytest.raises(ConfigError, match=re.escape(
            "line 3: config key seed is set again; the first is line 1")):
        parse_config("seed = 1\n# comment\nseed = 2\n")
    with pytest.raises(ConfigError, match="line 2: config key iso.sigma is set again"):
        parse_config("iso.sigma = 1\n iso.sigma=1   # same value, still twice\n")


@pytest.mark.parametrize("read, dim, key", [(read_pose3d, 3, "root_relative"),
                                            (read_pose2d, 2, "scale_mm")])
def test_read_pose_rejects_a_repeated_comment_key(tmp_path, topo, read, dim, key):
    header = "frame,keypoint,x,y" + (",z" if dim == 3 else "") + ",conf,mask\n"
    path = tmp_path / "twice.pose"
    value = {"scale_mm": ("2000", "1000"), "root_relative": ("1", "0")}[key]
    path.write_text(f"# {key} = {value[0]}\n# a free-text note\n# {key} = {value[1]}\n" + header
                    + table_rows(dim, [0], topo.keypoint_names))
    with pytest.raises(InvalidInputError, match=re.escape(
            f"{path}:3: repeated '# {key}' comment; the first is line 1")):
        read(path, topo)


@pytest.mark.parametrize("read, dim, line, named", [
    (read_pose3d, 3, "# scalemm = 2000", ":2: unknown comment key 'scalemm'"),
    (read_pose2d, 2, "# scalemm = 2000", ":2: unknown comment key 'scalemm'"),
    (read_pose3d, 3, "# note = kept", ":2: unknown comment key 'note'"),
    (read_pose2d, 2, "# note = kept", ":2: unknown comment key 'note'"),
    (read_pose3d, 3, "# root_relative = no",
     ":2: root_relative = no is not one of 0/false/False/1/true/True"),
    (read_pose3d, 3, "# root_relative = ", ":2: root_relative =  is not one of"),
    (read_pose3d, 3, "# root_relative = TRUE", ":2: root_relative = TRUE is not one of"),
])
def test_read_pose_rejects_an_unknown_comment_key_or_value(tmp_path, topo, read, dim, line,
                                                            named):
    header = "frame,keypoint,x,y" + (",z" if dim == 3 else "") + ",conf,mask\n"
    path = tmp_path / "odd.pose"
    path.write_text("# a free-text comment, no key\n" + line + "\n" + header
                    + table_rows(dim, [0], topo.keypoint_names))
    with pytest.raises(InvalidInputError, match=re.escape(f"{path}{named}")):
        read(path, topo)


@pytest.mark.parametrize("read, dim, line, known", [
    (read_pose2d, 2, "# root_relative = 0", "scale_mm"),
    (read_pose3d, 3, "# scale_mm = 2000", "root_relative"),
])
def test_read_pose_rejects_the_comment_key_of_the_other_dimension(tmp_path, topo, read, dim,
                                                                  line, known):
    # a 2D table holds no root flag and a 3D table no crop scale: neither loads
    header = "frame,keypoint,x,y" + (",z" if dim == 3 else "") + ",conf,mask\n"
    path = tmp_path / "other.pose"
    path.write_text("# a free-text comment, no key\n" + line + "\n" + header
                    + table_rows(dim, [0], topo.keypoint_names))
    key = line.split()[1]
    with pytest.raises(InvalidInputError, match=re.escape(
            f"{path}:2: unknown comment key {key!r}; a {dim}D pose table knows only {known}")):
        read(path, topo)


@pytest.mark.parametrize("text, want", [("0", False), ("false", False), ("False", False),
                                        ("1", True), ("true", True), ("True", True)])
def test_root_relative_takes_the_table_boolean_spellings(tmp_path, topo, text, want):
    path = tmp_path / "pose.pose3d"
    path.write_text(f"# root_relative = {text}\nframe,keypoint,x,y,z,conf,mask\n"
                    + table_rows(3, [0], topo.keypoint_names))
    assert read_pose3d(path, topo).root_relative is want


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
                      ("1,,2", tuple[int, ...]), ("2.0", int), ("nan", float), ("-inf", float),
                      ("1e999", float), ("0.5,nan", tuple[float, ...]),
                      ("1:2:inf", tuple[tuple[float, float, float], ...]),
                      ("NaN", Optional[float])):
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
