"""Exact feasibility for systems of linear inequalities, in integers.

A system is a list of rows ``(coeffs, bound)`` meaning
``coeffs . x <= bound`` over ``num_vars`` nonnegative rational
variables; every coefficient and bound is an int, and anything else,
a Fraction or a bool included, raises `TypeError`: scale a rational row
by the common multiple of its own denominators first, which changes no
sign the rule below reads.  ``feasible_point`` either returns one
exact solution ``x >= 0`` or proves there is none.  The solution comes
back in integers too, as ``(values, divisor)`` meaning ``x[k] =
values[k] / divisor``, with ``divisor >= 1`` and the pair in lowest
terms, so one point has one spelling.  There is no objective, so the
decision runs the least-index criss-cross rule
(Terlaky 1985; Fukuda and Terlaky, Math. Programming 79, 1997) straight
from the slack basis: no artificial columns and no ratio test.  Of the
rows with a negative right hand side, the one whose basic variable has
the least index leaves; of the columns with a negative entry in that
row, the one whose variable has the least index enters.  Each is
found by one scan over the rows or the columns that keeps the least
index seen so far.  Variables are numbered ``x`` first, then one slack
per row.  With a zero objective every basis is dual feasible, so this
is Bland's rule on the dual simplex, and the least-index argument
shows it never returns to a basis: it terminates.  Rows are taken as
given.  An all-zero row needs no special case: its slack stays basic,
so with a bound >= 0 it never pivots, and with a negative bound no
pivot repairs it and the walk ends on a stuck row.

The tableau is condensed, as in the dictionaries of Avis's ``lrs``: row
``i`` holds only the ``num_vars`` nonbasic columns and the right hand
side, each column labelled with its variable, and the basic columns,
a multiple of the identity, are left implicit.  It holds only integers:
row ``i`` starts as ``[A_i | b_i]`` with slack ``i`` basic.  Pivots are
fraction-free (Edmonds, Bareiss): the true
tableau is ``T / D`` for one divisor ``D > 0``, starting at 1.  A pivot
on row ``r`` and column ``c`` with element ``-q < 0`` updates every
other row to ``(q T_i + T_i[c] T_r) // D``, negates the pivot row and
sets ``D = q``; the division is exact because each entry stays a minor
of the starting integer matrix.  The leaving variable then takes column
``c``, where each other row keeps its old entry ``T_i[c]`` and the pivot
row gets ``-D``, the old divisor: the entries the full tableau would
have in the leaving variable's column.  When ``q == D``, as in most
pivots on rows of 0, 1 and -1, the update is ``T_i + T_i[c] T_r // D``
and changes only the pivot row's nonzero columns.

Both answers are certified.  `satisfies` checks a returned point in
integers over its divisor: ``values >= 0``, ``divisor > 0`` and
``coeffs . values <= bound * divisor`` for every row.  When the
leaving row has no negative entry, it reads "basic variable plus a
nonnegative combination of the others equals a negative number", and
its slack entries, a row of the basis inverse, are Farkas multipliers
``y >= 0`` with ``y A >= 0`` and ``y b < 0``: the entries of its
nonbasic slack columns, ``D`` at its own basic variable if that is a
slack, and 0 at every other basic slack.  `refutes` checks them before
None is returned, and a caller that passes a list as ``farkas`` gets
them in it, one per row, to keep or re-check.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Optional, Sequence

__all__ = ["feasible_point", "refutes", "satisfies"]


def satisfies(rows: Sequence, point: tuple) -> bool:
    """Exact check that the point ``(values, divisor)`` is nonnegative
    and meets every row, each as long as the values."""
    values, divisor = point
    if divisor <= 0 or any(v < 0 for v in values):
        return False
    return all(
        len(coeffs) == len(values) and sum(map(mul, coeffs, values)) <= bound * divisor
        for coeffs, bound in rows
    )


def refutes(rows: Sequence, y: Sequence) -> bool:
    """Exact check that multipliers ``y`` prove the rows infeasible.

    Farkas: with ``y >= 0``, ``sum_i y_i coeffs_i >= 0`` on every
    variable and ``sum_i y_i bound_i < 0``, any point ``x >= 0``
    satisfying every row would give ``0 <= sum_i y_i bound_i < 0``.
    No sign depends on the scale of ``y``, so it is read as given.
    """
    if len(y) != len(rows) or any(v < 0 for v in y):
        return False
    combined = [0] * max((len(coeffs) for coeffs, _ in rows), default=0)
    total = 0
    for v, (coeffs, bound) in zip(y, rows):
        if v:
            for k, c in enumerate(coeffs):
                combined[k] += v * c
            total += v * bound
    return total < 0 and all(c >= 0 for c in combined)


def feasible_point(
    rows: Sequence, num_vars: int, farkas: Optional[list] = None
) -> Optional[tuple[list[int], int]]:
    """One exact solution ``x >= 0`` of ``coeffs . x <= bound`` rows as
    ``(values, divisor)`` in lowest terms, or None.  The returned point
    is deterministic for a given system.  On None, a list passed as
    ``farkas`` is filled with the checked multipliers ``y`` that refute
    the rows; on a point it is left as it was."""
    if type(num_vars) is not int:
        raise TypeError(f"num_vars must be an int, got {num_vars!r}")
    if num_vars < 0:
        raise ValueError(f"num_vars must be nonnegative, got {num_vars}")
    # columns: the nonbasic variables cols[j], then the right hand side;
    # basis[i] is row i's basic variable, and every slack starts basic
    tableau = []
    for coeffs, bound in rows:
        if len(coeffs) != num_vars:
            raise ValueError(f"row has {len(coeffs)} coefficients, expected {num_vars}")
        t = [*coeffs, bound]
        for v in t:
            if type(v) is not int:
                raise TypeError(f"coefficients and bounds must be ints, got {v!r}")
        tableau.append(t)
    cols = list(range(num_vars))
    basis = list(range(num_vars, num_vars + len(rows)))
    divisor = 1
    # no variable has this index: a least-index scan starts from it
    past_last = num_vars + len(rows)
    while True:
        leaving, least = None, past_last
        for i, t in enumerate(tableau):
            if t[-1] < 0 and basis[i] < least:
                leaving, least = i, basis[i]
        if leaving is None:
            break
        pivot_row = tableau[leaving]
        # zip stops at the last variable column, before the bound
        entering, least = None, past_last
        for j, (a, var) in enumerate(zip(pivot_row, cols)):
            if a < 0 and var < least:
                entering, least = j, var
        if entering is None:
            # the stuck row: its slack entries are Farkas multipliers,
            # D at its own basic slack and 0 at every other basic one
            y = [0] * len(rows)
            for j, var in enumerate(cols):
                if var >= num_vars:
                    y[var - num_vars] = pivot_row[j]
            if basis[leaving] >= num_vars:
                y[basis[leaving] - num_vars] = divisor
            if not refutes(rows, y):
                raise RuntimeError("Farkas multipliers fail to refute the rows; the tableau is corrupt")
            if farkas is not None:
                farkas[:] = y
            return None
        # the leaving variable takes the entering one's column, where
        # every other row keeps its entry f and the pivot row gets -D
        q = -pivot_row[entering]
        if q == divisor:
            nonzero = [(j, b) for j, b in enumerate(pivot_row) if b and j != entering]
            for i, t in enumerate(tableau):
                f = t[entering]
                if f and i != leaving:
                    for j, b in nonzero:
                        t[j] += f * b // divisor
        else:
            for i, t in enumerate(tableau):
                if i != leaving:
                    f = t[entering]
                    t = tableau[i] = [(q * a + f * b) // divisor for a, b in zip(t, pivot_row)]
                    t[entering] = f
        tableau[leaving] = [-b for b in pivot_row]
        tableau[leaving][entering] = -divisor
        divisor = q
        cols[entering], basis[leaving] = basis[leaving], cols[entering]

    values = [0] * num_vars
    for t, b in zip(tableau, basis):
        if b < num_vars:
            values[b] = t[-1]
    g = gcd(divisor, *values)
    point = [v // g for v in values], divisor // g
    if not satisfies(rows, point):
        raise RuntimeError("criss-cross solution fails its own rows; the tableau is corrupt")
    return point
