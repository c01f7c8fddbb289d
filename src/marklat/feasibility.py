"""Exact feasibility for systems of linear inequalities, in integers.

A system is a list of rows ``(coeffs, bound)`` meaning
``coeffs . x <= bound`` over ``num_vars`` nonnegative rational
variables; every coefficient and bound is an int or a Fraction, and
anything else raises `TypeError`.  ``feasible_point`` either returns one
exact solution ``x >= 0`` or proves there is none.  There is no
objective, so the decision runs the least-index criss-cross rule
(Terlaky 1985; Fukuda and Terlaky, Math. Programming 79, 1997) straight
from the slack basis: no artificial columns and no ratio test.  Of the
rows with a negative right hand side, the one whose basic variable has
the least column index leaves; the least column with a negative entry
in that row enters.  With a zero objective every basis is dual
feasible, so this is Bland's rule on the dual simplex, and the
least-index argument shows it never returns to a basis: it terminates.
Rows are taken as given.  An all-zero row needs no special case: its
slack stays basic, so with a bound >= 0 it never pivots, and with a
negative bound no pivot repairs it and the walk ends on a stuck row.

The tableau holds only integers.  One common multiple ``L`` of every
denominator clears the fractions: row ``i`` starts as
``[A_i L | e_i | b_i L]``.  That rescales whole columns by positive
factors, so no sign the rule reads changes.  Pivots are fraction-free
(Edmonds, Bareiss): the true tableau is ``T / D`` for one divisor
``D > 0``, starting at 1.  A pivot on row ``r`` and column ``c`` with
element ``-q < 0`` updates every other row to ``(q T_i + T_i[c] T_r) // D``,
negates the pivot row and sets ``D = q``; the division is exact because
each entry stays a minor of the starting integer matrix.  When
``q == D``, as in most pivots on rows of 0, 1 and -1, the update is
``T_i + T_i[c] T_r // D`` and changes only the pivot row's nonzero
columns.

Both answers are certified.  A returned point is checked against every
row and for signs with `satisfies`.  When the leaving row has no
negative entry, it reads "basic variable plus a nonnegative combination
of the others equals a negative number", and its slack entries, a row
of the basis inverse, are Farkas multipliers ``y >= 0`` with
``y A >= 0`` and ``y b < 0``; `refutes` checks them before None is
returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

__all__ = ["feasible_point", "refutes", "satisfies"]


def _exact(value):
    """Ints stay ints; every other number becomes an exact Fraction."""
    return value if type(value) is int else Fraction(value)


def satisfies(rows: Sequence, point: Sequence) -> bool:
    """Exact check that the point is nonnegative and meets every row."""
    point = [_exact(v) for v in point]
    if any(v < 0 for v in point):
        return False
    scale = lcm(*{v.denominator for v in point})
    ints = [v.numerator * (scale // v.denominator) for v in point]
    return all(
        sum(_exact(c) * v for c, v in zip(coeffs, ints)) <= _exact(bound) * scale
        for coeffs, bound in rows
    )


def refutes(rows: Sequence, y: Sequence) -> bool:
    """Exact check that multipliers ``y`` prove the rows infeasible.

    Farkas: with ``y >= 0``, ``sum_i y_i coeffs_i >= 0`` on every
    variable and ``sum_i y_i bound_i < 0``, any point ``x >= 0``
    satisfying every row would give ``0 <= sum_i y_i bound_i < 0``.
    """
    y = [_exact(v) for v in y]
    if len(y) != len(rows) or any(v < 0 for v in y):
        return False
    combined = [0] * max((len(coeffs) for coeffs, _ in rows), default=0)
    total = 0
    for v, (coeffs, bound) in zip(y, rows):
        if v:
            for k, c in enumerate(coeffs):
                combined[k] += v * _exact(c)
            total += v * _exact(bound)
    return total < 0 and all(c >= 0 for c in combined)


def feasible_point(rows: Sequence, num_vars: int) -> Optional[list]:
    """One exact solution ``x >= 0`` of ``coeffs . x <= bound`` rows, or
    None.  The returned point is deterministic for a given system."""
    if num_vars < 0:
        raise ValueError(f"num_vars must be nonnegative, got {num_vars}")
    denominators = set()
    for coeffs, bound in rows:
        if len(coeffs) != num_vars:
            raise ValueError(f"row has {len(coeffs)} coefficients, expected {num_vars}")
        for v in (*coeffs, bound):
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"coefficients and bounds must be ints or Fractions, got {v!r}")
            denominators.add(v.denominator)
    scale = lcm(*denominators)

    m = len(rows)
    # columns: x (num_vars), slacks (m), rhs; every slack starts basic
    width = num_vars + m
    tableau = []
    for i, (coeffs, bound) in enumerate(rows):
        t = [v.numerator * (scale // v.denominator) for v in (*coeffs, bound)]
        t[num_vars:num_vars] = [0] * m
        t[num_vars + i] = 1
        tableau.append(t)
    basis = list(range(num_vars, width))
    divisor = 1
    while True:
        negative = (i for i, t in enumerate(tableau) if t[-1] < 0)
        leaving = min(negative, key=basis.__getitem__, default=None)
        if leaving is None:
            break
        pivot_row = tableau[leaving]
        entering = next((j for j in range(width) if pivot_row[j] < 0), None)
        if entering is None:
            # the stuck row: its slack entries are Farkas multipliers
            if not refutes(rows, pivot_row[num_vars:width]):
                raise RuntimeError("Farkas multipliers fail to refute the rows; the tableau is corrupt")
            return None
        q = -pivot_row[entering]
        if q == divisor:
            nonzero = [(j, b) for j, b in enumerate(pivot_row) if b]
            for i, t in enumerate(tableau):
                f = t[entering]
                if f and i != leaving:
                    for j, b in nonzero:
                        t[j] += f * b // divisor
        else:
            for i, t in enumerate(tableau):
                if i != leaving:
                    f = t[entering]
                    tableau[i] = [(q * a + f * b) // divisor for a, b in zip(t, pivot_row)]
        tableau[leaving] = [-b for b in pivot_row]
        divisor = q
        basis[leaving] = entering

    values = [0] * width
    for t, b in zip(tableau, basis):
        values[b] = t[-1]
    solution = [Fraction(v, divisor) for v in values[:num_vars]]
    if not satisfies(rows, solution):
        raise RuntimeError("criss-cross solution fails its own rows; the tableau is corrupt")
    return solution
