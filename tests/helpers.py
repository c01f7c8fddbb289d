"""Shared oracles for the test suite.

Everything here is computed independently of the library's own lattice
machinery wherever that is meaningful: words come straight from bit
masks, covers from a no-intermediate check over the full order matrix,
ranks from breadth-first search over those covers.  Only Word.values is
trusted (it is itself pinned against hand examples in test_core).
"""

from marklat.core import Word

SEED = 1729


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
