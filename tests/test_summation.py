"""One summation rule: every float sum in the package is `left_sum`, 3.11's left-to-right fold.

CPython 3.12 changed the builtin `sum` of floats to compensated summation
(gh-100425).  `work.txt`, AP and mD print full `repr` floats, so a package
sum that followed the interpreter would write other bytes on 3.12.  The scan
below finds every use of the builtin `sum` under `src/trackcascade`; only
sums of ints, which every version adds exactly, may stay.  `sum_312` in
conftest.py models 3.12's builtin, and the pinned-digest tests and the AP
oracle are also run with it in place of the builtin.
"""

import ast
import math
from pathlib import Path

import pytest

import trackcascade
from trackcascade.geometry import left_sum

from conftest import sum_312

SRC = Path(trackcascade.__file__).parent

# Each remaining builtin sum adds ints by construction.
INTEGER_SUMS = [
    "costmodel.py: total_work: sum(r.merged_region_count for r in reports)",
    "metrics.py: ClassEvalData.sweep: sum(t.length for t in self.tracks)",
]


def scoped(node: ast.AST, scope: str = "<module>"):
    """(enclosing `Class.function` name, node) of every node under `node`."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from scoped(child, child.name if scope == "<module>" else f"{scope}.{child.name}")
        else:
            yield from scoped(child, scope)


def builtin_sums(source: str) -> list[str]:
    """`scope: code` of each use of the builtin `sum`: a call, or the name passed as a value."""
    tree = ast.parse(source)
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []
    for scope, node in scoped(tree):
        if (isinstance(node, ast.Name) and node.id == "sum") or (
            isinstance(node, ast.Attribute) and node.attr == "sum"
            and isinstance(node.value, ast.Name) and node.value.id == "builtins"
        ):
            found.append(f"{scope}: {ast.get_source_segment(source, calls.get(id(node), node))}")
    return found


def test_only_integer_sums_use_the_builtin():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [f"{path.name}: {use}" for use in builtin_sums(path.read_text())]
    assert found == INTEGER_SUMS


def test_the_sum_scan_sees_every_use():
    code = (
        "import builtins\n"
        "total = sum(xs)\n"
        "class A:\n"
        "    def f(self, rows):\n"
        "        return list(map(sum, rows)) + [builtins.sum(rows, 0.0)]\n"
        "def g(xs):\n"
        "    def h():\n"
        "        return sum(x * 2 for x in xs)\n"
        "    return left_sum(xs) + xs.sum() + math.fsum(xs)\n"
    )
    assert builtin_sums(code) == [
        "<module>: sum(xs)",
        "A.f: sum",
        "A.f: builtins.sum(rows, 0.0)",
        "g.h: sum(x * 2 for x in xs)",
    ]


@pytest.mark.parametrize("values, folded", [
    ([0.1] * 10, 0.9999999999999999),  # 3.12's builtin gives 1.0
    ([1e16, 1.0, -1e16], 0.0),  # 3.12's builtin gives 1.0
    ([-0.0], 0.0),
    ([], 0.0),
])
def test_left_sum_folds_from_zero(values, folded):
    assert repr(left_sum(iter(values))) == repr(folded)


def test_the_312_model_compensates_where_the_fold_rounds():
    assert left_sum([0.1] * 10) == 0.9999999999999999
    assert sum_312([0.1] * 10) == 1.0
    assert sum_312([1e16, 1.0, -1e16]) == 1.0 and left_sum([1e16, 1.0, -1e16]) == 0.0
    # Ints stay exact ints, and what is neither int nor float is added with +.
    assert sum_312([2**70, 1]) == 2**70 + 1
    assert sum_312([[1], [2]], []) == [1, 2]
    assert math.isinf(sum_312([1e308, 1e308]))
    assert repr(sum_312([-0.0], -0.0)) == "-0.0"
