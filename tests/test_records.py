"""The hot records are slotted dataclasses that behave as the frozen dataclasses they replaced.

`BoundingBox`, `Detection`, `GtEntry`, `DetLabel` and `TrackState` are
`@dataclass(slots=True, unsafe_hash=True)`; `BoundingBox` and `Detection`
keep hand-written constructors (`init=False`).  None is frozen, so
immutability is a convention: no code assigns to a field after construction,
which the AST scan below checks.  Their `==`, `hash` and `repr` are generated,
and equal the frozen dataclasses' (compared against `make_dataclass` copies);
no class in the package writes them by hand.  Every constructor check keeps
its message.
"""

import ast
import dataclasses
import math
from pathlib import Path

import pytest

import trackcascade
from trackcascade.cascade import PipelineConfig
from trackcascade.geometry import BoundingBox, Detection, RegionMask
from trackcascade.metrics import DetLabel, DifficultyFilter, GtEntry
from trackcascade.tracker import TrackerConfig, TrackState

SRC = Path(trackcascade.__file__).parent

FIELDS = {
    "BoundingBox": ("x1", "y1", "x2", "y2"),
    "Detection": ("box", "class_id", "score", "frame_index"),
    "GtEntry": ("frame_index", "box", "truncated", "occluded"),
    "DetLabel": ("score", "is_tp", "track_id", "frame_index"),
    "TrackState": ("position", "motion", "aspect", "confidence", "class_id", "track_id"),
}
RECORDS = {cls.__name__: cls for cls in (BoundingBox, Detection, GtEntry, DetLabel, TrackState)}
# The frozen dataclasses these records were: same names, fields and order.
FROZEN = {name: dataclasses.make_dataclass(name, fields, frozen=True)
          for name, fields in FIELDS.items()}


def test_records_are_slotted_with_the_old_fields():
    for name, cls in RECORDS.items():
        assert cls.__slots__ == FIELDS[name], name
        sample = SAMPLES[name][0]
        assert not hasattr(sample, "__dict__"), name
        assert dataclasses.is_dataclass(cls), name


def hand_written_dunders(tree: ast.AST) -> list[str]:
    """`Class.name` of each `__eq__`, `__hash__` or `__repr__` a class body defines or assigns."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, ast.Assign):
                names = [t.id for t in item.targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [f"{node.name}.{name}" for name in names
                      if name in ("__eq__", "__hash__", "__repr__")]
    return found


def test_no_class_hand_writes_eq_hash_or_repr():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [f"{path.name}: {name}" for name in hand_written_dunders(tree)]
    assert found == []


def test_the_dunder_scan_sees_definitions():
    code = (
        "class A:\n"
        "    def __eq__(self, other):\n"
        "        return True\n"
        "    def __init__(self):\n"
        "        pass\n"
        "def f():\n"
        "    class B:\n"
        "        def __repr__(self):\n"
        "            return ''\n"
        "        async def __hash__(self):\n"
        "            return 0\n"
        "        __eq__ = object.__eq__\n"
        "class C:\n"
        "    __hash__ = None\n"
        "    width = 3\n"
        "def __hash__(x):\n"
        "    return 0\n"
    )
    assert sorted(hand_written_dunders(ast.parse(code))) == [
        "A.__eq__", "B.__eq__", "B.__hash__", "B.__repr__", "C.__hash__"]


def field_stores(tree: ast.AST, fields: set[str]):
    """(line, code) of each assignment to an attribute named in `fields`, and of each
    `setattr`/`object.__setattr__` naming one, outside a record's __init__/__post_init__."""

    class Scan(ast.NodeVisitor):
        def __init__(self):
            self.where: list[str] = []  # enclosing class and function names
            self.found = []

        def visit_ClassDef(self, node):
            self.where.append(node.name)
            self.generic_visit(node)
            self.where.pop()

        def visit_FunctionDef(self, node):
            self.where.append(node.name)
            self.generic_visit(node)
            self.where.pop()

        def allowed(self) -> bool:
            return (len(self.where) >= 2 and self.where[-2] in RECORDS
                    and self.where[-1] in ("__init__", "__post_init__"))

        def store(self, node, target):
            for t in ast.walk(target):
                stored = isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)
                if stored and t.attr in fields and not self.allowed():
                    self.found.append((node.lineno, ast.unparse(node)))

        def visit_Assign(self, node):
            for target in node.targets:
                self.store(node, target)
            self.generic_visit(node)

        def visit_AugAssign(self, node):
            self.store(node, node.target)
            self.generic_visit(node)

        def visit_AnnAssign(self, node):
            if node.value is not None:
                self.store(node, node.target)
            self.generic_visit(node)

        def visit_Call(self, node):
            func = ast.unparse(node.func)
            if func in ("setattr", "object.__setattr__") and len(node.args) >= 2:
                name = node.args[1]
                if not (isinstance(name, ast.Constant) and name.value not in fields):
                    if not self.allowed():
                        self.found.append((node.lineno, ast.unparse(node)))
            self.generic_visit(node)

    scan = Scan()
    scan.visit(tree)
    return scan.found


def test_no_code_assigns_to_a_record_field_after_construction():
    fields = {f for names in FIELDS.values() for f in names}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for line, code in field_stores(ast.parse(path.read_text()), fields):
            found.append(f"{path.name}:{line}: {code}")
    assert found == []


def test_the_scan_sees_assignments():
    code = (
        "class BoundingBox:\n"
        "    def __init__(self, x1):\n"
        "        self.x1 = x1\n"
        "    def grow(self):\n"
        "        self.x1 -= 1\n"
        "def f(det, box):\n"
        "    det.box = box\n"
        "    det.score: float = 1.0\n"
        "    a, det.frame_index = 1, 2\n"
        "    object.__setattr__(det, 'score', 0.5)\n"
        "    setattr(det, name, 0.5)\n"
        "    det.other = 3\n"
        "    seen[det.score] = det.box\n"
    )
    found = [line for line, _ in field_stores(ast.parse(code), {"x1", "box", "score",
                                                                "frame_index"})]
    assert found == [5, 7, 8, 9, 10, 11]


BOX = BoundingBox(1.0, 2.0, 3.5, 4.0)
SAMPLES = {  # two or more records of each class; the first two differ
    "BoundingBox": [BOX, BoundingBox(-0.0, 0.0, 1e308, 2.5), BoundingBox(0.0, 0.0, 1e308, 2.5),
                    BoundingBox(1.0, 2.0, 3.5, 4.0)],
    "Detection": [Detection(BOX, 0, 0.5, 3), Detection(BOX, 1, 0.5, 3),
                  Detection(BoundingBox(1.0, 2.0, 3.5, 4.0), 0, 0.5, 3)],
    "GtEntry": [GtEntry(0, BOX), GtEntry(0, BOX, 0.25, 2), GtEntry(0, BOX, 0.0, 0)],
    "DetLabel": [DetLabel(0.9, True, 4, 2), DetLabel(0.9, False, None, 2),
                 DetLabel(0.9, True, 4, 2)],
    "TrackState": [TrackState((1.0, 2.0, 3.0), (0.0, 0.0, 0.0), 0.5, 1, 0, 1),
                   TrackState((1.0, 2.0, 3.0), (0.0, 0.0, 0.0), 0.5, 2, 0, 1),
                   TrackState((1.0, 2.0, 3.0), (-0.0, 0.0, 0.0), 0.5, 1, 0, 1)],
}


def frozen(record):
    """The frozen-dataclass twin of a record, nested boxes included."""
    if type(record) not in RECORDS.values():
        return record
    name = type(record).__name__
    return FROZEN[name](*(frozen(getattr(record, f)) for f in FIELDS[name]))


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_eq_hash_and_repr_are_the_frozen_dataclasses(name):
    samples = SAMPLES[name]
    assert samples[0] != samples[1]
    for a in samples:
        assert repr(a) == repr(frozen(a))
        assert hash(a) == hash(frozen(a))
        assert (a == (1, 2)) is (frozen(a) == (1, 2)) is False
        for b in samples:
            assert (a == b) == (frozen(a) == frozen(b)), (a, b)
            assert (a != b) == (frozen(a) != frozen(b)), (a, b)
    assert len(set(samples)) == len({frozen(s) for s in samples})


def test_box_corners_become_floats():
    box = BoundingBox(1, 0, 3, True)
    assert [type(v) for v in (box.x1, box.y1, box.x2, box.y2)] == [float] * 4
    assert repr(box) == "BoundingBox(x1=1.0, y1=0.0, x2=3.0, y2=1.0)"
    assert type(Detection(box, 0, 1, 0).score) is float
    assert type(GtEntry(0, box, 1).truncated) is float


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: BoundingBox(3, 0, 1, 1), "invalid box corners: (3.0, 0.0, 1.0, 1.0)"),
        (lambda: BoundingBox(0, 5.5, 1, 1), "invalid box corners: (0.0, 5.5, 1.0, 1.0)"),
        (lambda: BoundingBox(0, 0, math.nan, 1), "invalid box corners: (0.0, 0.0, nan, 1.0)"),
        (lambda: BoundingBox("x", 0, 1, 1), "could not convert string to float: 'x'"),
        (lambda: Detection(BOX, 0, 1.5, 0), "score 1.5 outside [0, 1]"),
        (lambda: Detection(BOX, 0, math.nan, 0), "score nan outside [0, 1]"),
        (lambda: Detection(BOX, 0, 0.5, -1), "negative frame index -1"),
        (lambda: Detection(BOX, 0, -1, -1), "score -1.0 outside [0, 1]"),
        (lambda: GtEntry(-2, BOX), "negative frame index -2"),
        (lambda: GtEntry(0, BOX, "x"), "could not convert string to float: 'x'"),
        (lambda: TrackState((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 1.0, 1, 0, 1),
         "track width and aspect must be positive"),
        (lambda: TrackState((0.0, 0.0, 1.0), (0.0, 0.0, 0.0), 0.0, 1, 0, 1),
         "track width and aspect must be positive"),
        (lambda: TrackState((0.0, 0.0, 1.0), (0.0, 0.0, 0.0), 1.0, -1, 0, 1),
         "confidence must be >= 0"),
        # The knobs these records are built under refuse NaN like a negative value.
        (lambda: PipelineConfig(margin=math.nan), "margin must be >= 0"),
        (lambda: PipelineConfig(t_thresh=math.nan), "t_thresh must be >= 0"),
        (lambda: DifficultyFilter("x", min_size=math.nan), "min_size must be >= 0"),
        (lambda: RegionMask.from_boxes([BOX], 10.0, 10.0, math.nan), "margin must be >= 0"),
        (lambda: RegionMask.from_boxes([BOX], math.nan, 10.0), "frame dimensions must be positive"),
        (lambda: RegionMask(10.0, math.nan, ()), "frame dimensions must be positive"),
        (lambda: DifficultyFilter("x", max_occlusion=math.nan), "max_occlusion must be >= 0"),
        (lambda: DifficultyFilter("x", max_occlusion=-1), "max_occlusion must be >= 0"),
        (lambda: TrackerConfig(confidence_cap=-1), "confidence_cap must be >= 0"),
        (lambda: TrackerConfig(confidence_cap=math.nan), "confidence_cap must be >= 0"),
    ],
)
def test_constructor_checks_keep_their_messages(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
