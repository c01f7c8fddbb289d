"""Shared oracles for the test suite.

Everything here is computed independently of the library's own lattice
machinery wherever that is meaningful: words come straight from bit
masks, covers from a no-intermediate check over the full order matrix,
ranks from breadth-first search over those covers.  Only Word.values is
trusted (it is itself pinned against hand examples in test_core).
"""

import json
from fractions import Fraction
from itertools import groupby
from math import lcm

from marklat.core import Word
from marklat.hasse import diagram_to_json

SEED = 1729

# valuation files the JSON reader rejects: a syntax error, bytes that
# are not UTF-8, an integer past the int-digit limit, and nesting past
# the recursion limit
MALFORMED_JSON = {
    "broken.json": b"{not json",
    "latin1.json": b'{"n": 1, "r": 1, "tilde": ["\xe9"], "bar": []}',
    "digits.json": b'{"n": 1, "r": 1, "tilde": [' + b"9" * 5000 + b'], "bar": []}',
    "nested.json": b"[" * 200_000,
}


def all_words(params):
    """Every word of the lattice, one per subset mask, mask order."""
    return [Word(params, m) for m in range(1 << params.n)]


def leq_table(params):
    """up[i] and down[i] as integer bitsets over mask-indexed words.

    Bit k of up[i] says word k lies above word i (reflexively).
    """
    words = all_words(params)
    count = len(words)
    vals = [w.values for w in words]
    up = [0] * count
    down = [0] * count
    for i in range(count):
        vi = vals[i]
        for k in range(count):
            vk = vals[k]
            if all(a <= b for a, b in zip(vi, vk)):
                up[i] |= 1 << k
                down[k] |= 1 << i
    return words, up, down


def brute_cover_pairs(params):
    """All cover pairs (lower, upper) by the definition: strictly below
    with no third word strictly between."""
    words, up, down = leq_table(params)
    pairs = set()
    for i, wi in enumerate(words):
        for k, wk in enumerate(words):
            if i != k and up[i] >> k & 1:
                between = up[i] & down[k]
                if between == (1 << i) | (1 << k):
                    pairs.add((wi, wk))
    return pairs


def bfs_ranks(params):
    """Rank of every word as shortest cover-chain distance from the bottom."""
    words, up, down = leq_table(params)
    covers = brute_cover_pairs(params)
    index = {w: i for i, w in enumerate(words)}
    outgoing = {i: [] for i in range(len(words))}
    for lo, hi in covers:
        outgoing[index[lo]].append(index[hi])
    # the bottom is below everything, i.e. its up-set is the whole lattice
    bottom = max(range(len(words)), key=lambda i: up[i].bit_count())
    dist = {bottom: 0}
    frontier = [bottom]
    while frontier:
        nxt = []
        for i in frontier:
            for k in outgoing[i]:
                if k not in dist:
                    dist[k] = dist[i] + 1
                    nxt.append(k)
        frontier = nxt
    return {words[i]: d for i, d in dist.items()}


def sorted_levels(params, left_right):
    """Every word mask by one sort with tuple keys, grouped into rank
    levels: rank, then positive side descending, then negative side
    ascending (out-in) or by the count and then the ascending list of
    negative marks (``left_right``)."""
    r, m = params.r, params.num_neg
    ranks = [w.rank for w in all_words(params)]
    if left_right:
        neg_key = [(s.bit_count(), [j for j in range(m) if s >> j & 1]) for s in range(1 << m)]
    else:
        neg_key = range(1 << m)
    low = (1 << r) - 1
    masks = sorted(range(1 << params.n), key=lambda x: (ranks[x], -(x & low), neg_key[x >> r]))
    return [list(level) for _, level in groupby(masks, ranks.__getitem__)]


def oracle_dot(diagram):
    """The DOT text of a Hasse diagram, built as one list of lines and
    joined: the rendering the line-by-line writer must reproduce."""
    ids = {w: f'"{w}"' for w in diagram.words()}
    lines = [
        "digraph lattice {",
        "  rankdir=BT;",
        "  node [shape=box];",
    ]
    for level in diagram.levels:
        row = [ids[w] for w in level]
        if len(row) == 1:
            lines.append(f"  {{ rank=same; {row[0]}; }}")
        else:
            lines.append(f"  {{ rank=same; {' -> '.join(row)} [style=invis]; }}")
    for lo, hi in diagram.edges:
        lines.append(f"  {ids[lo]} -> {ids[hi]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def oracle_json(diagram):
    """The JSON text of a Hasse diagram as the standard encoder writes
    its dict form, with a final newline."""
    return json.dumps(diagram_to_json(diagram), indent=2, sort_keys=True) + "\n"


def poly_mul(a, b):
    """Coefficient-list product, lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def ordered_child_vals(params, vals, left_right):
    """Children of a word as tuples of symbol heights: bump each
    generating index one chain step, positive side in ascending position,
    negative side descending (out-in) or ascending (``left_right``)."""
    r, n = params.r, params.n
    out = []
    for k in range(r):
        v = vals[k]
        if v < r and (k == 0 or vals[k - 1] >= v + 2):
            out.append(vals[:k] + (v + 1,) + vals[k + 1 :])
    neg = []
    for k in range(r, n):
        v = vals[k]
        if v < 0 and (k == r or vals[k - 1] > v + 1 or (vals[k - 1] == 0 and v == -1)):
            neg.append(vals[:k] + (v + 1,) + vals[k + 1 :])
    if not left_right:
        neg.reverse()
    return out + neg


def bit_loop_child_masks(params, mask, left_right):
    """Masks of the upper covers of the word ``mask``, by scanning its
    bits: positive trades in descending v, then the pos(1) insertion,
    then the negative moves, descending j (out-in) or ascending
    (``left_right``)."""
    r = params.r
    # trade pos(v) for an absent pos(v+1)
    out = [mask ^ 3 << (v - 1) for v in range(r - 1, 0, -1) if mask >> (v - 1) & 3 == 1]
    if r and not mask & 1:
        out.append(mask | 1)
    # drop neg(1); trade neg(j) for an absent neg(j-1), at bits k = r+j-2, k+1
    neg = [mask ^ 1 << r] if mask >> r & 1 else []
    neg += [mask ^ 3 << k for k in range(r, params.n - 1) if mask >> k & 3 == 2]
    if not left_right:
        neg.reverse()
    return out + neg


def tuple_levels_and_edges(params, left_right):
    """Level-by-level generation on height tuples from the bottom word,
    keeping each child's first occurrence: (levels, edges)."""
    bottom = (0,) * params.r + tuple(range(-1, -params.num_neg - 1, -1))
    levels = [[bottom]]
    edges = []
    for _ in range(params.total_rank):
        nxt = []
        seen = set()
        for vals in levels[-1]:
            for child in ordered_child_vals(params, vals, left_right):
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
                edges.append((vals, child))
        levels.append(nxt)
    return levels, edges


def scan_walk_masks(params, up, down, decision):
    """P-region masks of the weighted labelings in the order of a walk
    that scans for the next undecided word and forces the complement of
    every newly N word into P one bit at a time."""
    full = (1 << params.n) - 1
    count = full + 1

    def set_p(pos, neg, i):
        pos |= up[i]
        return None if pos & neg else (pos, neg)

    def set_n(pos, neg, i):
        new_n = down[i] & ~neg
        neg |= down[i]
        while new_n:
            b = new_n & -new_n
            pos |= up[(b.bit_length() - 1) ^ full]
            new_n ^= b
        return None if pos & neg else (pos, neg)

    state = set_p(0, 0, 0)
    if state is not None:
        state = set_n(*state, 1 << params.r)
    if state is not None:
        state = set_p(*state, full)
    if state is None:
        return []
    out = []
    stack = [(*state, 0)]
    while stack:
        pos, neg, at = stack.pop()
        decided = pos | neg
        while at < count and decided >> decision[at] & 1:
            at += 1
        if at == count:
            out.append(pos)
            continue
        i = decision[at]
        for st in (set_p(pos, neg, i), set_n(pos, neg, i)):
            if st is not None:
                stack.append((*st, at + 1))
    return out


def boundary_rows(params, up, down, pos):
    """The LP rows ``is_representable`` poses for the labeling ``pos``,
    by a scan over every word: None when the labeling is not an up-set
    (some P word has an N word above it), else one row per minimal P
    word (no other P word below; the zero word skipped) and then one per
    maximal N word (no other N word above), each in ascending mask
    order.  With the weight flag no LP runs unless the full word is P.
    ``up`` and ``down`` are closure masks as `leq_table` returns them."""
    n, r = params.n, params.r
    if any(up[m] & ~pos for m in range(1 << n) if pos >> m & 1):
        return None
    low = (1 << r) - 1

    def word_row(m, sign):
        # chain-increment coefficients: the count of the word's marks at
        # or beyond each increment, negated on the negative side
        e = [((m & low) >> k).bit_count() for k in range(r)]
        e += [-(m >> k).bit_count() for k in range(r, n)]
        return tuple(sign * c for c in e)

    minimal_p = [m for m in range(1, 1 << n) if down[m] & pos == 1 << m]
    maximal_n = [m for m in range(1 << n) if up[m] & ~pos == 1 << m]
    rows = [(word_row(m, -1), -(m >> r).bit_count()) for m in minimal_p]
    rows += [(word_row(m, 1), (m >> r).bit_count() - 1) for m in maximal_n]
    return rows


def full_tableau_point(rows, num_vars):
    """The least-index criss-cross decision on the full tableau
    ``[A L | e_i | b L]``, with a column for every slack: ``(point,
    None)`` for a feasible system, ``(None, y)`` with the stuck row's
    slack entries as Farkas multipliers otherwise.  Pivots are
    fraction-free over one divisor, as in the library."""
    scale = lcm(*{v.denominator for coeffs, bound in rows for v in (*coeffs, bound)})
    m = len(rows)
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
        negative = [i for i, t in enumerate(tableau) if t[-1] < 0]
        if not negative:
            break
        leaving = min(negative, key=basis.__getitem__)
        pivot_row = tableau[leaving]
        entering = next((j for j in range(width) if pivot_row[j] < 0), None)
        if entering is None:
            return None, pivot_row[num_vars:width]
        q = -pivot_row[entering]
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
    return [Fraction(v, divisor) for v in values[:num_vars]], None
