"""Exact rational feasibility for systems of linear inequalities.

A system is a list of rows ``(coeffs, bound)`` meaning
``coeffs . x <= bound`` over ``num_vars`` free rational variables.
``feasible_point`` either returns one exact solution or proves there is
none.  The decision runs a phase-one simplex over `fractions.Fraction`:
free variables are split into nonnegative pairs, slacks turn the rows
into equations, and artificial variables patch the rows whose right
hand side starts negative.  Bland's smallest-index rule makes the walk
deterministic and immune to cycling, so the search always terminates.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

__all__ = ["feasible_point", "satisfies"]


def satisfies(rows: Sequence, point: Sequence) -> bool:
    """Exact check of every row at the given point."""
    return all(
        sum(Fraction(c) * Fraction(v) for c, v in zip(coeffs, point)) <= bound
        for coeffs, bound in rows
    )


def feasible_point(rows: Sequence, num_vars: int) -> Optional[list]:
    """One exact solution of ``coeffs . x <= bound`` rows, or None.

    Variables are unrestricted in sign; coefficients and bounds may be
    ints or Fractions.  The returned point is deterministic for a given
    system.
    """
    if num_vars < 0:
        raise ValueError(f"num_vars must be nonnegative, got {num_vars}")
    cleaned = []
    for coeffs, bound in rows:
        if len(coeffs) != num_vars:
            raise ValueError(f"row has {len(coeffs)} coefficients, expected {num_vars}")
        coeffs = [Fraction(c) for c in coeffs]
        bound = Fraction(bound)
        if not any(coeffs):
            if bound < 0:
                return None
            continue
        cleaned.append((coeffs, bound))
    if not cleaned:
        return [Fraction(0)] * num_vars

    m = len(cleaned)
    # columns: x+ (num_vars), x- (num_vars), slacks (m), artificials (appended)
    slack0 = 2 * num_vars
    art0 = slack0 + m
    tableau = []
    basis = []
    artificial = []
    for i, (coeffs, bound) in enumerate(cleaned):
        row = coeffs + [-c for c in coeffs] + [Fraction(0)] * m + [bound]
        row[slack0 + i] = Fraction(1)
        if bound < 0:
            row = [-v for v in row]
        tableau.append(row)
        if row[slack0 + i] == 1:
            basis.append(slack0 + i)
        else:
            basis.append(None)  # patched with an artificial below
    for i in range(m):
        if basis[i] is None:
            col = art0 + len(artificial)
            artificial.append(col)
            for k, row in enumerate(tableau):
                row.insert(len(row) - 1, Fraction(1 if k == i else 0))
            basis[i] = col

    num_cols = art0 + len(artificial)
    art_set = set(artificial)

    while True:
        art_rows = [i for i in range(m) if basis[i] in art_set]
        if not art_rows:
            break
        # reduced cost of a structural or slack column j is
        # -(sum of T[i][j] over rows whose basic variable is artificial);
        # entering improves the artificial total when that sum is positive.
        # basic columns are unit vectors pinned outside the artificial rows,
        # so they are never candidates and need no exclusion
        entering = None
        for j in range(art0):
            if sum(tableau[i][j] for i in art_rows) > 0:
                entering = j
                break
        if entering is None:
            if any(tableau[i][-1] for i in art_rows):
                return None  # optimum keeps some artificial positive
            break
        leaving = None
        best = None
        for i in range(m):
            coef = tableau[i][entering]
            if coef > 0:
                ratio = tableau[i][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving is None:
            raise RuntimeError("phase-one objective unbounded; the tableau is corrupt")
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering

    point = [Fraction(0)] * num_cols
    for i in range(m):
        point[basis[i]] = tableau[i][-1]
    solution = [point[k] - point[num_vars + k] for k in range(num_vars)]
    if not satisfies(rows, solution):
        raise RuntimeError("simplex solution fails its own rows; the tableau is corrupt")
    return solution


def _pivot(tableau, row, col):
    pivot_row = tableau[row]
    coef = pivot_row[col]
    tableau[row] = [v / coef for v in pivot_row]
    pivot_row = tableau[row]
    for i, other in enumerate(tableau):
        if i != row and other[col]:
            factor = other[col]
            tableau[i] = [a - factor * b for a, b in zip(other, pivot_row)]
