"""Independent reference for the benchmark's input generation and checks.

Nothing here imports marklat.  A word of L(n, r) is its bit mask over the
nonzero marks (bit i-1 holds pos(i), bit r+j-1 holds neg(j)); two words
compare position by position through the symbol chain
neg(n-r) < ... < neg(1) < zero < pos(1) < ... < pos(r).
"""

from __future__ import annotations

from fractions import Fraction


def canonical_values(n: int, r: int, mask: int) -> tuple:
    """Symbol heights of the canonical string: positive marks strictly
    decreasing then zeros, a bar, zeros then negative marks."""
    pos = [i for i in range(r, 0, -1) if mask >> (i - 1) & 1]
    neg = [-j for j in range(1, n - r + 1) if mask >> (r + j - 1) & 1]
    return tuple(pos) + (0,) * (n - len(pos) - len(neg)) + tuple(neg)


def word_string(n: int, r: int, mask: int) -> str:
    vals = canonical_values(n, r, mask)
    lsep = "," if r >= 10 else ""
    rsep = "," if n - r >= 10 else ""
    return lsep.join(str(v) for v in vals[:r]) + "|" + rsep.join(str(-v) for v in vals[r:])


class Lattice:
    """The order of L(n, r) as up/down closure bit sets over word masks."""

    def __init__(self, n: int, r: int):
        self.n, self.r = n, r
        count = 1 << n
        vals = [canonical_values(n, r, m) for m in range(count)]
        self.up = [0] * count
        self.down = [0] * count
        for i in range(count):
            for k in range(count):
                if all(a <= b for a, b in zip(vals[i], vals[k])):
                    self.up[i] |= 1 << k
                    self.down[k] |= 1 << i
        self.strings = [word_string(n, r, m) for m in range(count)]

    def boundary_size(self, p_masks: int) -> int:
        """How many words are minimal in the P-region or maximal outside
        it: the rows an LP over the boundary of the labeling needs."""
        count = 0
        for i in range(1 << self.n):
            if p_masks >> i & 1:
                count += not (self.down[i] ^ 1 << i) & p_masks
            else:
                count += not (self.up[i] ^ 1 << i) & ~p_masks
        return count

    def weighted_labelings(self) -> list:
        """Every weighted labeling, as the bit set of its P-words: an
        up-set holding the zero word and the full word, not the word on
        neg(1) alone, and never N on both a word and its complement."""
        n, r = self.n, self.r
        full = (1 << n) - 1
        count = 1 << n
        up, down = self.up, self.down

        def set_p(pos, neg, i):
            pos |= up[i]
            return None if pos & neg else (pos, neg)

        def set_n(pos, neg, i):
            fresh = down[i] & ~neg
            neg |= down[i]
            for k in range(count):
                if fresh >> k & 1:
                    pos |= up[full ^ k]
            return None if pos & neg else (pos, neg)

        out = []
        start = set_p(0, 0, 0)
        start = start and set_n(*start, 1 << r)
        stack = [start and set_p(*start, full)]
        while stack:
            state = stack.pop()
            if state is None:
                continue
            pos, neg = state
            decided = pos | neg
            i = next((k for k in range(count) if not decided >> k & 1), None)
            if i is None:
                out.append(pos)
                continue
            stack.append(set_n(pos, neg, i))
            stack.append(set_p(pos, neg, i))
        return out


def witness_error(lat: Lattice, p_masks: int, pos_values, neg_values):
    """Why the valuation fails to witness the labeling, or None when it
    is an admissible weight valuation inducing exactly that labeling.
    Sums are exact."""
    n, r = lat.n, lat.r
    pv = [Fraction(v) for v in pos_values]
    nv = [Fraction(v) for v in neg_values]
    if len(pv) != r or len(nv) != n - r:
        return "wrong number of values"
    if r and pv[0] < 0:
        return "pos(1) < 0"
    if any(pv[k] < pv[k - 1] for k in range(1, r)):
        return "positive chain broken"
    if n - r and nv[0] >= 0:
        return "neg(1) >= 0"
    if any(nv[k] > nv[k - 1] for k in range(1, n - r)):
        return "negative chain broken"
    by_bit = pv + nv
    if sum(by_bit) < 0:
        return "total < 0"
    for m in range(1 << n):
        total = sum((by_bit[b] for b in range(n) if m >> b & 1), Fraction(0))
        if (total >= 0) != bool(p_masks >> m & 1):
            return f"sum of {lat.strings[m]} is {total}, against its label"
    return None


def highs_infeasible(lat: Lattice, p_masks: int) -> bool:
    """True when scipy's HiGHS LP finds no weight valuation inducing the
    labeling.  Strict inequalities are scaled to <= -1, which loses
    nothing because the system is homogeneous."""
    from scipy.optimize import linprog

    n, r = lat.n, lat.r
    rows, rhs = [], []

    def row(coeffs, bound):
        rows.append(coeffs)
        rhs.append(bound)

    def unit(*pairs):
        e = [0] * n
        for k, v in pairs:
            e[k] = v
        return e

    if r:
        row(unit((0, -1)), 0)
    for k in range(r - 1):
        row(unit((k, 1), (k + 1, -1)), 0)
    if n - r:
        row(unit((r, 1)), -1)
    for j in range(n - r - 1):
        row(unit((r + j + 1, 1), (r + j, -1)), 0)
    row([-1] * n, 0)
    for m in range(1 << n):
        bits = [(b, 1) for b in range(n) if m >> b & 1]
        if p_masks >> m & 1:
            row(unit(*((b, -1) for b, _ in bits)), 0)
        else:
            row(unit(*bits), -1)
    res = linprog([0] * n, A_ub=rows, b_ub=rhs, bounds=[(None, None)] * n, method="highs")
    return res.status == 2
