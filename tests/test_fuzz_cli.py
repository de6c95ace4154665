"""Mutated input files end in a located error or a clean run, never a traceback.

Each test starts from a tiny valid file, applies one to three mutations
(fields dropped, duplicated or added; values replaced by non-numeric,
non-finite, negative, huge or '%'; lines dropped or duplicated; an unknown
section or key; a [DEFAULT] section; a non-UTF-8 byte; an empty file) and
runs the CLI command that reads it. The command must exit 0, or exit 1 or 2
with a message naming the file. Examples are derandomised, so every run
checks the same cases.
"""

import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackcascade.cli import main

META = """\
[sequence]
sequence_id = fz
frame_count = 3
frame_w = 400
frame_h = 200
frame_rate = 10
"""

DETECTIONS = """\
# frame class score x1 y1 x2 y2
0 car 0.6 95 45 205 155
0 car 0.9 100 50 200 150
1 car 0.9 110 50 210 150
1 pedestrian 0.8 300 60 330 140
2 car 0.7 120 50 220 150
"""

LABELS = """\
0 1 Car 0 0 -10 100 50 200 150 -1 -1 -1 -1000 -1000 -1000 -10
1 1 Car 0.1 1 -10 110 50 210 150 -1 -1 -1 -1000 -1000 -1000 -10
2 1 Car 0 0 -10 120 50 220 150 -1 -1 -1 -1000 -1000 -1000 -10
1 2 Pedestrian 0 0 -10 300 60 330 140 -1 -1 -1 -1000 -1000 -1000 -10
1 -1 DontCare -1 -1 -10 0 0 40 30 -1 -1 -1 -1000 -1000 -1000 -10
"""

SCENARIO = """\
[scenario]
name = fz
frames = 3
frame_w = 400
frame_h = 200
seed = 1
frame_rate = 10

[object.a]
class = car
entry = 0
exit = 2
box = 100 50 200 150
velocity = 10 0 1

[source.proposal]
miss_prob = 0.1
fp_per_frame = 1
jitter = 2
score_mean = 0.6
score_sigma = 0.1
fp_score_mean = 0.4
fp_score_sigma = 0.1
"""

CONFIG = """\
[pipeline]
classes = car, pedestrian
c_thresh = 0.3
t_thresh = 0.5
margin = 25
nms_iou = 0.5

[tracker]
decay_eta = 0.7
min_width = 10
confidence_cap = 3

[cost]
alpha = 0.001
b = 0.005

[eval]
beta = 0.8
ap_recall_points = 11
difficulties = moderate, mine

[match_iou]
car = 0.7

[difficulty.mine]
min_size = 10
max_occlusion = 1
"""

# Integers stay small: a huge frame count or recall-point count asks for a
# correspondingly huge (valid) job. "1e308" is huge for floats and not an int.
VALUES = ["x", "nan", "inf", "-inf", "-1", "0", "-1e308", "1e308", "1e-308", "%"]


@st.composite
def mutated(draw, text: str) -> bytes:
    lines = [line.split(" ") for line in text.splitlines()]
    spot = st.integers(0, 10**6)
    bad_byte_at = None
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(
            ["drop_field", "dup_field", "extra_field", "value", "value", "value",
             "drop_line", "dup_line", "unknown_section", "default_section", "unknown_key",
             "not_utf8", "empty"]
        ))
        if op == "empty":
            return b""
        if op == "unknown_section":
            lines += [[], ["[bogus]"], ["key", "=", "1"]]
            continue
        if not lines:
            continue
        i = draw(spot) % len(lines)
        line = lines[i]
        if not line:  # a blank line, or one whose fields were all dropped
            line.append(draw(st.sampled_from(VALUES)))
        j = draw(spot) % len(line)
        if op == "drop_field":
            del line[j]
        elif op == "dup_field":
            line.insert(j, line[j])
        elif op == "extra_field":
            line.append(draw(st.sampled_from(VALUES)))
        elif op == "value":
            line[j] = draw(st.sampled_from(VALUES))
        elif op == "drop_line":
            del lines[i]
        elif op == "dup_line":
            lines.insert(i, list(line))
        elif op == "unknown_key":
            lines.insert(i + 1, ["bogus", "=", "1"])
        elif op == "default_section":  # the lines up to the next section header join it
            lines[i:i] = [["[DEFAULT]"], ["bogus", "=", "1"]]
        else:
            bad_byte_at = draw(spot)
    data = "".join(" ".join(line) + "\n" for line in lines).encode("utf-8")
    if bad_byte_at is not None:
        k = bad_byte_at % (len(data) + 1)
        data = data[:k] + b"\xff" + data[k:]
    return data


def _sequence(root: Path, name: str = "", data: bytes = b"") -> Path:
    """A valid sequence directory whose file `name`, if given, holds `data`."""
    seq = root / "seq"
    seq.mkdir()
    texts = {"meta.cfg": META, "proposal.txt": DETECTIONS, "refine.txt": DETECTIONS,
             "labels.txt": LABELS}
    for file, text in texts.items():
        # Written once: rewriting a file just written can wait for a disk flush.
        (seq / file).write_bytes(data if file == name else text.encode())
    return seq


def _check(argv: list[str], spoiled: Path) -> None:
    """Run the CLI; a failure must be exit 1 or 2 and name the spoiled file."""
    err = StringIO()
    try:
        with redirect_stdout(StringIO()), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2), (code, err.getvalue())
    if code:
        assert str(spoiled) in err.getvalue(), err.getvalue()


FUZZ = settings(max_examples=40, derandomize=True, deadline=None, database=None)


@pytest.mark.parametrize("name", ["meta.cfg", "refine.txt", "proposal.txt"])
@FUZZ
@given(data=st.data())
def test_run_inputs(name, data):
    text = {"meta.cfg": META}.get(name, DETECTIONS)
    with tempfile.TemporaryDirectory() as tmp:
        seq = _sequence(Path(tmp), name, data.draw(mutated(text)))
        _check(["run", "--sequence", str(seq), "--mode", "catdet",
                "--out", f"{tmp}/out", "--set", "cost.alpha=0.001", "--set", "cost.b=0.005"],
               seq / name)


@pytest.mark.parametrize("name", ["labels.txt", "refine.txt"])
@FUZZ
@given(data=st.data())
def test_eval_inputs(name, data):
    text = LABELS if name == "labels.txt" else DETECTIONS
    with tempfile.TemporaryDirectory() as tmp:
        seq = _sequence(Path(tmp), name, data.draw(mutated(text)))
        _check(["eval", "--gt", str(seq / "labels.txt"), "--det", str(seq / "refine.txt"),
                "--set", "eval.difficulties=all, hard", "--out", f"{tmp}/ev"], seq / name)


@FUZZ
@given(scenario=mutated(SCENARIO))
def test_scenario(scenario):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.cfg"
        path.write_bytes(scenario)
        _check(["gen-synthetic", "--scenario", str(path), "--out", f"{tmp}/g"], path)


@FUZZ
@given(config=mutated(CONFIG))
def test_config(config):
    with tempfile.TemporaryDirectory() as tmp:
        seq = _sequence(Path(tmp))
        path = Path(tmp) / "c.cfg"
        path.write_bytes(config)
        _check(["run", "--sequence", str(seq), "--config", str(path), "--out", f"{tmp}/o"], path)
        _check(["eval", "--gt", str(seq / "labels.txt"), "--det", str(seq / "refine.txt"),
                "--config", str(path)], path)
