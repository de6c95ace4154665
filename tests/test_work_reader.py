"""`parse_work_total`'s column pass gives what the row-by-row reader gives.

Each example starts from a work.txt that `run` wrote (single, cascaded,
catdet, or catdet with the timing model, on tests/data/benchmark_scenario.cfg)
and applies one fault.  Both readers must return the same totals and frame
count, or raise the same message at the same file and line; the column pass
alone must either refuse the file (ValueError) or return that same result.
Each fault is its own run, so that every rule is reached.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackcascade import DataError
from trackcascade.ingest import read_text
from trackcascade.runio import _check_work_rows, _work_total_by_column, parse_work_total

from conftest import WORK_MODES

NON_FINITE = ["inf", "-inf", "nan", "NaN", "Infinity", "1e309", "-1e309"]
BAD_NUMBERS = ["x", "1..0", "", "0x1p3", "1,5", "--1"]
# Whitespace that str.split splits on but that is not a line break of the file.
SPACES = ["\t", "  ", "\x0b", "\x0c", "\x1c", "\xa0", "\u2003"]


def outcome(parse, path: Path):
    """The reader's (totals, frame count) as repr, so float signs count, or its error."""
    try:
        return repr(parse(path))
    except DataError as exc:
        return ("DataError", str(exc), exc.path, exc.line)


def column_pass(path: Path):
    try:
        return repr(_work_total_by_column(read_text(path, "file")))
    except ValueError:
        return None


@st.composite
def faulty_work(draw, text: str, fault: str | None) -> str:
    """`text` with one `fault`; rows are lists of tokens, row 0 the header."""
    rows = [line.split(" ") for line in text.splitlines()]
    data = range(1, len(rows))
    i = draw(st.sampled_from(data))  # a frame row or the totals row
    row = rows[i]
    newline = "\n"
    if fault == "inf_total":  # an overflowing proposal + refine equals an inf total
        big = draw(st.sampled_from(["1e308", "1.7976931348623157e308"]))
        row[1:4] = [big, big, draw(st.sampled_from(["inf", "Infinity"]))]
    elif fault == "non_finite":
        row[draw(st.sampled_from([1, 2, 3, 4, 5, 11]))] = draw(st.sampled_from(NON_FINITE))
    elif fault == "bad_number":
        row[draw(st.sampled_from([1, 2, 3, 4, 5, 10, 11]))] = draw(st.sampled_from(BAD_NUMBERS))
    elif fault == "total_off":  # total_ops one step from proposal_ops + refine_ops
        total = float(row[3])
        row[3] = repr(total + draw(st.sampled_from([1.0, -1.0, total * 1e-15 or 1e-300])))
    elif fault == "slash":  # "/" beside numbers in an optional column, or a number beside "/"
        column = draw(st.sampled_from([4, 5, 11]))
        row[column] = "2.5" if row[column] == "/" else "/"
    elif fault == "merged":
        rows[-1][10] = draw(st.sampled_from(["/", "1.5", "x", "-1", "007", "1_0"]))
    elif fault == "ragged":  # one row gives the next its last field
        i = draw(st.sampled_from(data[:-1]))
        rows[i + 1].insert(0, rows[i].pop())
    elif fault == "count":
        if draw(st.booleans()):
            row.pop(draw(st.integers(0, len(row) - 1)))
        else:
            row.insert(draw(st.integers(0, len(row))), "0")
    elif fault == "frame":
        if row[0] == "total":
            row[0] = draw(st.sampled_from(["Total", "TOTAL", "0"]))
        else:
            frame = int(row[0])
            row[0] = draw(st.sampled_from(
                [f"0{frame}", f"+{frame}", f"{frame}.0", str(frame + 1), str(frame - 1), "total"]
            ))
    elif fault == "order":
        kind = draw(st.sampled_from(["swap", "drop", "repeat", "total_first", "no_total"]))
        if kind == "swap" and len(rows) > 3:
            j = draw(st.sampled_from(data))
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "drop" or kind == "swap":
            del rows[i]
        elif kind == "repeat":
            rows.insert(draw(st.integers(1, len(rows))), list(row))
        elif kind == "total_first":
            rows.insert(1, rows.pop())
        else:
            rows.pop()
    elif fault == "comment":
        note = draw(st.sampled_from(["#", "# note", "# a b c d e f g h i j k", "#x"]))
        where = draw(st.sampled_from(["line", "after_row", "in_field", "first"]))
        if where == "line":
            rows.insert(draw(st.integers(1, len(rows))), [note])
        elif where == "after_row":
            row.append(note)
        elif where == "in_field":  # a field cut short: fewer fields before the "#"
            column = draw(st.integers(1, 11))
            row[column] += note.replace(" ", "")
        else:
            rows.insert(0, [note])
    elif fault == "header":
        kind = draw(st.sampled_from(["none", "late", "spaced", "bare"]))
        header = rows.pop(0)
        if kind == "late":
            rows.insert(draw(st.integers(1, len(rows))), header)
        elif kind == "spaced":
            rows.insert(0, [" " + header[0], *header[1:]])
        elif kind == "bare":  # the 12 column names without the "#"
            rows.insert(0, header[1:])
    elif fault == "spacing":  # other whitespace between fields, blank lines, other newlines
        row[draw(st.integers(0, 10))] += draw(st.sampled_from(SPACES))
        rows.insert(draw(st.integers(1, len(rows))), [draw(st.sampled_from(["", " ", "\t"]))])
        newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return "".join(" ".join(r) + newline for r in rows)


FAULTS = ["inf_total", "non_finite", "bad_number", "total_off", "slash", "merged", "ragged",
          "count", "frame", "order", "comment", "header", "spacing"]


@pytest.mark.parametrize("fault", [None, *FAULTS])
@settings(derandomize=True, max_examples=24, deadline=None, database=None)
@given(data=st.data(), mode=st.sampled_from(list(WORK_MODES)))
def test_column_pass_equals_row_reader(scenario_runs, fault, data, mode):
    text = (scenario_runs[mode] / "work.txt").read_text()
    if fault is not None:
        text = data.draw(faulty_work(text, fault))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "work.txt"
        path.write_bytes(text.encode())
        reference = outcome(_check_work_rows, path)
        assert outcome(parse_work_total, path) == reference
        fast = column_pass(path)
    assert fast in (None, reference)
    if fault is None:
        assert fast == reference  # a file as `run` writes it takes the column pass
