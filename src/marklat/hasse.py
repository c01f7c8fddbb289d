"""Cover structure and level-by-level generation of the word lattices.

A position of a word is a *generating index* when raising its symbol one
step up the chain yields another canonical word; that bump is exactly a
cover step.  Generating indexes on the positive side are emitted in
ascending position order; on the negative side the two child orders
differ:

* ``OUT_IN`` (the default): negative generating indexes from the last
  position inward, i.e. descending position.
* ``LEFT_RIGHT``: negative generating indexes in ascending position.

The whole lattice is generated level by level from the bottom word:
each level is the concatenation of the ordered children of the previous
level, scanned left to right keeping the first occurrence of each word.
The parent-child pairs recorded along the way are exactly the cover
pairs of the lattice.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .core import LatticeParams, Word
from .errors import DomainError

__all__ = [
    "GenOrder",
    "HasseDiagram",
    "LatticeSplit",
    "generating_indexes",
    "children",
    "build",
    "split_parts",
    "to_dot",
    "diagram_to_json",
]


class GenOrder(enum.Enum):
    """Child emission order used by :func:`children` and :func:`build`."""

    OUT_IN = "outin"
    LEFT_RIGHT = "leftright"


def generating_indexes(w: Word) -> tuple:
    """1-based positions whose symbol can be bumped one chain step while
    keeping the word canonical.  Returns (positive side, negative side),
    each in ascending position order."""
    vals = w.values
    r = w.params.r
    n = w.params.n
    pos = []
    for k in range(r):
        v = vals[k]
        if v < r and (k == 0 or vals[k - 1] >= v + 2):
            pos.append(k + 1)
    neg = []
    for k in range(r, n):
        v = vals[k]
        if v < 0 and (k == r or vals[k - 1] > v + 1 or (vals[k - 1] == 0 and v == -1)):
            neg.append(k + 1)
    return tuple(pos), tuple(neg)


def _ordered_child_vals(params: LatticeParams, vals: tuple, order: GenOrder) -> list:
    r = params.r
    n = params.n
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
    if order is GenOrder.OUT_IN:
        neg.reverse()
    out.extend(neg)
    return out


def children(w: Word, order: GenOrder = GenOrder.OUT_IN) -> list:
    """The upper covers of ``w`` in the requested emission order."""
    return [
        Word._from_vals(w.params, v)
        for v in _ordered_child_vals(w.params, w.values, GenOrder(order))
    ]


@dataclass(frozen=True)
class HasseDiagram:
    """Immutable result of :func:`build`: rank levels in generation order
    plus the cover pairs in emission order."""

    params: LatticeParams
    order: GenOrder
    levels: tuple
    edges: tuple

    def words(self):
        for level in self.levels:
            yield from level

    @property
    def edge_set(self) -> frozenset:
        return frozenset(self.edges)


@lru_cache(maxsize=64)
def _build_cached(params: LatticeParams, order: GenOrder) -> HasseDiagram:
    bottom_vals = (0,) * params.r + tuple(range(-1, -params.num_neg - 1, -1))
    bottom = Word._from_vals(params, bottom_vals)
    levels = [(bottom,)]
    edges = []
    current = [bottom]
    total = 1
    for _ in range(params.total_rank):
        nxt = []
        seen = {}
        for w in current:
            for child_vals in _ordered_child_vals(params, w.values, order):
                cw = seen.get(child_vals)
                if cw is None:
                    cw = Word._from_vals(params, child_vals)
                    seen[child_vals] = cw
                    nxt.append(cw)
                edges.append((w, cw))
        levels.append(tuple(nxt))
        total += len(nxt)
        current = nxt
    if total != 1 << params.n:
        raise RuntimeError(
            f"generation produced {total} words for {params}, expected {1 << params.n}"
        )
    return HasseDiagram(params, order, tuple(levels), tuple(edges))


def build(params: LatticeParams, order: GenOrder = GenOrder.OUT_IN) -> HasseDiagram:
    """Generate the full diagram of L(n, r) bottom-up.  Results are cached
    per (params, order) and must not be mutated."""
    return _build_cached(params, GenOrder(order))


class LatticeSplit(NamedTuple):
    """Split of L(n, r) into two halves, each order-isomorphic to
    L(n-1, r); the upper half is the lower one translated up by
    ``shift`` ranks."""

    lower: frozenset
    upper: frozenset
    shift: int


def split_parts(params: LatticeParams) -> LatticeSplit:
    """Halve L(n, r) by presence of the separating mark.

    For r < n the separating mark is neg(n-r), the last possible symbol
    of the string: words containing it form the lower half (it drags the
    word down), the rest form the upper half.  For r = n the split is
    carried over through the conjugation isomorphism, which turns the
    separating mark into pos(n).  Both halves are order-isomorphic to
    L(n-1, r) and the upper half's minimum has rank ``shift``.
    """
    n, r = params.n, params.r
    if n == 0:
        raise DomainError("the one-word lattice L(0, 0) has no split")
    bit = 1 << (n - 1)  # neg(n - r), or pos(n) under r = n
    lower_has_bit = r < n
    lower, upper = [], []
    for m in range(1 << n):
        if bool(m & bit) == lower_has_bit:
            lower.append(Word(params, m))
        else:
            upper.append(Word(params, m))
    shift = min(w.rank for w in upper)
    return LatticeSplit(frozenset(lower), frozenset(upper), shift)


def to_dot(diagram: HasseDiagram) -> str:
    """Render the diagram as deterministic Graphviz source.

    Nodes keep their canonical string forms as quoted identifiers, each
    rank level is pinned with a same-rank group, and invisible edges
    preserve the left-to-right generation order inside a level.
    """
    lines = [
        "digraph lattice {",
        "  rankdir=BT;",
        "  node [shape=box];",
    ]
    for level in diagram.levels:
        ids = [f'"{w}"' for w in level]
        if len(ids) == 1:
            lines.append(f"  {{ rank=same; {ids[0]}; }}")
        else:
            lines.append(f"  {{ rank=same; {' -> '.join(ids)} [style=invis]; }}")
    for lo, hi in diagram.edges:
        lines.append(f'  "{lo}" -> "{hi}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def diagram_to_json(diagram: HasseDiagram) -> dict:
    """JSON-ready dict: params, order, levels and edges as string forms."""
    return {
        "params": {"n": diagram.params.n, "r": diagram.params.r},
        "order": diagram.order.value,
        "levels": [[str(w) for w in level] for level in diagram.levels],
        "edges": [[str(lo), str(hi)] for lo, hi in diagram.edges],
    }
