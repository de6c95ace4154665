"""Rectangular linear sum assignment by shortest augmenting paths.

A pure-Python port of the algorithm scipy's `linear_sum_assignment` uses
(Crouse, "On implementing 2D rectangular assignment algorithms", IEEE TAES
52(4), 2016), keeping its tie-breaking: a tall matrix is transposed, the
remaining columns are scanned in reverse initial order, and among columns of
equal path cost an unassigned one is preferred. On the same finite matrix it
returns the same pairs as scipy. The tracker solves matrices of at most a few
dozen entries a side, and only for a class and frame whose best partners
collide on both sides: when each track's (or each detection's) best relevant
IoU is strict and no two share a partner, no assignment totals more than the
sum of those maxima and only those pairs reach it, so `tracker.associate`
takes them without a solve. For the matrices left, this port saves the import
of scipy and numpy, which costs more than all the solving.
"""

from __future__ import annotations

import math
from typing import Sequence

_INF = math.inf


def linear_sum_assignment(cost: Sequence[Sequence[float]]) -> tuple[list[int], list[int]]:
    """Minimum-cost assignment of a finite n x m matrix given as rows.

    Returns (rows, cols): min(n, m) pairs, rows ascending, as scipy does.
    """
    nr = len(cost)
    nc = len(cost[0]) if nr else 0
    if nr == 0 or nc == 0:
        return [], []
    transpose = nc < nr
    if transpose:
        cost = [list(col) for col in zip(*cost)]
        nr, nc = nc, nr

    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur_row in range(nr):
        # Dijkstra-like search for the cheapest path from cur_row to a free column.
        shortest = [_INF] * nc
        in_rows = [cur_row]  # SR: rows reached, cur_row first
        in_cols = []  # SC: columns settled
        remaining = list(range(nc - 1, -1, -1))
        min_val = 0.0
        i = cur_row
        while True:
            index = -1
            lowest = _INF
            row = cost[i]
            ui = u[i]
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                else:
                    r = shortest[j]
                if r < lowest or (r == lowest and row4col[j] == -1):
                    lowest = r
                    index = it
            min_val = lowest
            if min_val == _INF:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            in_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] == -1:
                sink = j
                break
            i = row4col[j]
            in_rows.append(i)

        # Dual updates.
        u[cur_row] += min_val
        for i in in_rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in in_cols:
            v[j] -= min_val - shortest[j]

        # Augment along the path back to cur_row.
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break

    if transpose:
        cols = sorted(range(nr), key=col4row.__getitem__)
        return [col4row[c] for c in cols], cols
    return list(range(nr)), col4row
