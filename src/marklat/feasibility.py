"""Exact feasibility for systems of linear inequalities, in integers.

A system is a list of rows ``(coeffs, bound)`` meaning
``coeffs . x <= bound`` over ``num_vars`` nonnegative rational
variables; every coefficient and bound is an int or a Fraction, and
anything else raises `TypeError`.  ``feasible_point`` either returns one
exact solution ``x >= 0`` or proves there is none.  The decision runs a
phase-one simplex with one column per variable: slacks turn the rows
into equations, and artificial variables patch the rows whose right
hand side starts negative.  Bland's smallest-index rule makes the walk
deterministic and immune to cycling, so the search always terminates.
Rows are taken as given.  An all-zero row needs no special case: with a
bound >= 0 its slack stays basic and never pivots, and with a negative
bound its artificial stays positive and is certified like any other.

The tableau holds only integers.  One common multiple ``L`` of every
denominator in the system clears the fractions: structural entries and
right hand sides are multiplied by ``L`` while slack and artificial
entries stay 1.  That rescales whole columns by positive factors, so
every sign and every ratio the simplex reads is unchanged, and so is
its walk.  (Scaling row by row would not do: the phase-one sums that
pick the entering column add entries of different rows.)  Pivots are
fraction-free (Edmonds, Bareiss): the true tableau is ``T / D`` for one
divisor ``D > 0``, the last pivot element, starting at 1.  A pivot on
row ``r`` and column ``c`` with element ``p`` updates every other row to
``(T_i p - T_i[c] T_r) // D``; the division is exact because each entry
stays a minor of the starting integer matrix.  When ``p == D``, as in
most pivots on rows of 0, 1 and -1, the update is
``T_i - T_i[c] T_r // D`` and changes only the pivot row's nonzero
columns.  The phase-one sums are kept as one more row of the tableau
and pivoted with it.

Both answers are certified.  A returned point is checked against every
row and for signs with `satisfies`.  When phase one stops with an
artificial still positive, the phase-one sums on the slack columns give
Farkas multipliers ``y >= 0`` with ``y A >= 0`` and ``y b < 0``;
`refutes` checks them before None is returned.
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
    # columns: x (num_vars), slacks (m), artificials, rhs
    slack0 = num_vars
    art0 = slack0 + m
    num_art = sum(1 for _, bound in rows if bound < 0)
    tableau = []
    basis = []
    art = art0
    for i, (coeffs, bound) in enumerate(rows):
        sign = -1 if bound < 0 else 1
        t = [sign * v.numerator * (scale // v.denominator) for v in coeffs]
        t += [0] * (m + num_art)
        t.append(sign * bound.numerator * (scale // bound.denominator))
        t[slack0 + i] = sign
        if sign < 0:
            t[art] = 1
            basis.append(art)
            art += 1
        else:
            basis.append(slack0 + i)
        tableau.append(t)

    # the phase-one row: entry j is D times the sum of T[i][j] over the
    # rows whose basic variable is artificial, less D on the artificial
    # columns (their unit cost).  A structural or slack column with a
    # positive entry improves the artificial total.  Basic columns are
    # unit vectors pinned outside the artificial rows, so they are never
    # candidates and need no exclusion
    objective = [0] * (art0 + num_art + 1)
    for t, b in zip(tableau, basis):
        if b >= art0:
            objective = [o + v for o, v in zip(objective, t)]
            objective[b] -= 1
    tableau.append(objective)
    divisor = 1
    while True:
        entering = next((j for j in range(art0) if objective[j] > 0), None)
        if entering is None:
            break
        leaving = None
        for i in range(m):
            t = tableau[i]
            coef = t[entering]
            if coef > 0:
                # compare ratios t[-1] / coef by cross-multiplication
                if leaving is None:
                    leaving, num, den = i, t[-1], coef
                    continue
                lhs, rhs = t[-1] * den, num * coef
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving, num, den = i, t[-1], coef
        if leaving is None:
            raise RuntimeError("phase-one objective unbounded; the tableau is corrupt")
        pivot_row = tableau[leaving]
        p = pivot_row[entering]
        if p == divisor:
            nonzero = [(j, b) for j, b in enumerate(pivot_row) if b]
            for i, t in enumerate(tableau):
                f = t[entering]
                if f and i != leaving:
                    for j, b in nonzero:
                        t[j] -= f * b // divisor
        else:
            for i, t in enumerate(tableau):
                if i != leaving:
                    f = t[entering]
                    tableau[i] = [(a * p - f * b) // divisor for a, b in zip(t, pivot_row)]
        divisor = p
        basis[leaving] = entering
        objective = tableau[m]

    if objective[-1]:
        # the optimum keeps some artificial positive: the phase-one entries
        # are <= 0 on every slack and structural column, so minus the
        # slack entries are Farkas multipliers of the rows
        if not refutes(rows, [-v for v in objective[slack0:art0]]):
            raise RuntimeError("Farkas multipliers fail to refute the rows; the tableau is corrupt")
        return None
    values = [0] * (art0 + num_art)
    for t, b in zip(tableau, basis):
        values[b] = t[-1]
    solution = [Fraction(v, divisor) for v in values[:num_vars]]
    if not satisfies(rows, solution):
        raise RuntimeError("simplex solution fails its own rows; the tableau is corrupt")
    return solution
