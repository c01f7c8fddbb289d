"""Rank counting for the word lattices.

``s(n, r, k)`` is the number of words of rank k in L(n, r).  Three
independent routes are provided:

* ``s_recursive``: the peeling recursion that removes the separating
  mark, from L(0, 0) up: L(n, r) is two shifted copies of L(n-1, r);
* ``s_convolution``: the Cauchy product coming from the cartesian
  factorization L(n, r) = L(r, r) x L(n-r, 0);
* ``s_bruteforce``: a direct census of all 2^n subsets.

All three agree; the CSV emitter records them side by side.  The first
two build a lattice's whole rank vector, even to read one k of it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache

from .core import _mask_ranks, _total_rank
from .errors import DomainError, ResourceLimitError

__all__ = [
    "RankPolynomial",
    "s_recursive",
    "s_convolution",
    "s_bruteforce",
    "rank_polynomial",
    "check_symmetry",
    "census_rows",
    "check_census_n_max",
    "write_census_csv",
]

BRUTE_FORCE_MAX_N = 20


def total_rank(n: int, r: int) -> int:
    """Rank of the top word of L(n, r), checked as LatticeParams checks
    (n, r) but without building one."""
    if type(n) is not int or type(r) is not int or not 0 <= r <= n:
        raise DomainError(f"need ints 0 <= r <= n, got n={n!r}, r={r!r}")
    return _total_rank(n, r)


def _check_args(n: int, r: int, k: int):
    top = total_rank(n, r)
    if type(k) is not int or not 0 <= k <= top:
        raise DomainError(f"need an int rank k in 0..{top} for L({n}, {r}), got k={k!r}")


# a census row reads three vectors: its lattice's and its two factors'
@lru_cache(maxsize=3)
def _peeled(n: int, r: int) -> tuple:
    """``s(n, r, k)`` at index k.  Peeling neg(n - r) off L(n, r) leaves
    L(n-1, r) and a copy n - r ranks up, down to L(r, r), which peels as
    its conjugate L(r, 0): so start from [1] and add a copy shifted by
    1..r, then by 1..n-r."""
    counts = [1]
    for shift in (*range(1, r + 1), *range(1, n - r + 1)):
        pad = [0] * shift
        counts = [a + b for a, b in zip(counts + pad, pad + counts)]
    return tuple(counts)


def s_recursive(n: int, r: int, k: int) -> int:
    """Count via the peeling recursion on the separating mark."""
    _check_args(n, r, k)
    return _peeled(n, r)[k]


def s_convolution(n: int, r: int, k: int) -> int:
    """Count via the Cauchy product of the two one-sided factors."""
    _check_args(n, r, k)
    left, right = _peeled(r, r), _peeled(n - r, n - r)
    lo, hi = max(0, k + 1 - len(right)), min(k + 1, len(left))
    return sum(left[i] * right[k - i] for i in range(lo, hi))


@lru_cache(maxsize=None)
def _census(n: int, r: int) -> tuple:
    counts = [0] * (_total_rank(n, r) + 1)
    for rk in _mask_ranks(n, r):
        counts[rk] += 1
    return tuple(counts)


def s_bruteforce(n: int, r: int, k: int) -> int:
    """Count by listing the rank of every subset from its marks.

    The list holds all 2^n ranks at once: 8 MB at BRUTE_FORCE_MAX_N = 20.
    """
    _check_args(n, r, k)
    if n > BRUTE_FORCE_MAX_N:
        raise ResourceLimitError(
            f"brute-force census is capped at n <= {BRUTE_FORCE_MAX_N}, got n={n}"
        )
    return _census(n, r)[k]


@dataclass(frozen=True)
class RankPolynomial:
    """Coefficient list of the rank generating polynomial of L(n, r)."""

    n: int
    r: int
    coefficients: tuple

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


def rank_polynomial(n: int, r: int) -> RankPolynomial:
    total_rank(n, r)  # the argument check
    return RankPolynomial(n, r, _peeled(n, r))


def check_symmetry(n: int, r: int) -> bool:
    """True when the rank polynomial is palindromic."""
    coeffs = rank_polynomial(n, r).coefficients
    return coeffs == coeffs[::-1]


def check_census_n_max(n_max: int) -> None:
    """Raise unless n_max is an int with 0 <= n_max <= BRUTE_FORCE_MAX_N,
    the census range."""
    if type(n_max) is not int or n_max < 0:
        raise DomainError(f"n_max must be an int >= 0, got {n_max!r}")
    if n_max > BRUTE_FORCE_MAX_N:
        raise ResourceLimitError(f"the census is capped at n <= {BRUTE_FORCE_MAX_N}, got {n_max}")


def census_rows(n_max: int):
    """Yield one row per (n, r, k) with all three counts and their
    agreement flag, for 0 <= n <= n_max."""
    check_census_n_max(n_max)
    for n in range(n_max + 1):
        for r in range(n + 1):
            for k in range(_total_rank(n, r) + 1):
                a = s_recursive(n, r, k)
                b = s_convolution(n, r, k)
                c = s_bruteforce(n, r, k)
                yield {
                    "n": n,
                    "r": r,
                    "k": k,
                    "s_recursive": a,
                    "s_convolution": b,
                    "s_bruteforce": c,
                    "agree": a == b == c,
                }


CSV_FIELDS = ["n", "r", "k", "s_recursive", "s_convolution", "s_bruteforce", "agree"]


def write_census_csv(fileobj, n_max: int):
    """Write the triple-checked census as CSV with a fixed header."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for row in census_rows(n_max):
        row["agree"] = "true" if row["agree"] else "false"
        writer.writerow([row[k] for k in CSV_FIELDS])
