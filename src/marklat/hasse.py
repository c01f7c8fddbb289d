"""Cover structure and Hasse diagrams of the word lattices.

A position of a word is a *generating index* when raising its symbol one
step up the chain yields another canonical word; that bump is exactly a
cover step.  On the subset of marks a word encodes, a bump trades pos(v)
for an absent pos(v+1) (v < r), adds pos(1) when r >= 1 and pos(1) is
absent, drops neg(1), or trades neg(j) for an absent neg(j-1).
Children list the positive trades in descending v, then the pos(1)
insertion, then the negative moves: in descending j (from the last
string position inward) under ``OUT_IN``, the default, and in
ascending j under ``LEFT_RIGHT``.

A diagram lists its words in the canonical order of :mod:`marklat.core`,
grouped into rank levels, and its cover pairs as ``(word, child)`` for
each word in that order and each of its children in child order.

The diagram is exported as Graphviz DOT or as JSON.  Both writers send
their document to an open text file line by line, from one table of
quoted word names, and never hold it whole (at n = 14 a DOT file is
3-5 MB).  ``to_dot`` returns the DOT text and ``diagram_to_json`` the
JSON document as a dict.
"""

from __future__ import annotations

import io
from bisect import bisect
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

from .core import GenOrder, LatticeParams, Word, _canonical_levels, delta
from .errors import DomainError

__all__ = [
    "GenOrder",
    "HasseDiagram",
    "LatticeSplit",
    "generating_indexes",
    "children",
    "build",
    "split_parts",
    "write_dot",
    "write_json",
    "to_dot",
    "diagram_to_json",
]


def generating_indexes(w: Word) -> tuple:
    """1-based positions whose symbol can be bumped one chain step while
    keeping the word canonical.  Returns (positive side, negative side),
    each in ascending position order.  Each upper cover differs from the
    word in exactly the one position its bump raises."""
    params = w.params
    moved = sorted(
        delta(w, Word(params, m)).support[0]
        for m in _child_masks(params, w.mask, GenOrder.OUT_IN)
    )
    cut = bisect(moved, params.r)
    return tuple(moved[:cut]), tuple(moved[cut:])


def _child_masks(params: LatticeParams, mask: int, order: GenOrder) -> list:
    """Subset masks of the upper covers of the word ``mask``, in child order."""
    r = params.r
    # trade pos(v) for an absent pos(v+1)
    out = [mask ^ 3 << (v - 1) for v in range(r - 1, 0, -1) if mask >> (v - 1) & 3 == 1]
    if r and not mask & 1:
        out.append(mask | 1)
    # drop neg(1); trade neg(j) for an absent neg(j-1), at bits k = r+j-2, k+1
    neg = [mask ^ 1 << r] if mask >> r & 1 else []
    neg += [mask ^ 3 << k for k in range(r, params.n - 1) if mask >> k & 3 == 2]
    if order is GenOrder.OUT_IN:
        neg.reverse()
    return out + neg


def children(w: Word, order: GenOrder = GenOrder.OUT_IN) -> list:
    """The upper covers of ``w`` in the requested emission order."""
    return [Word(w.params, m) for m in _child_masks(w.params, w.mask, GenOrder(order))]


@dataclass(frozen=True)
class HasseDiagram:
    """Immutable result of :func:`build`: rank levels in canonical order
    plus the cover pairs in emission order."""

    params: LatticeParams
    order: GenOrder
    levels: tuple
    edges: tuple

    def words(self):
        """Every word, level by level."""
        return chain.from_iterable(self.levels)

    @property
    def edge_set(self) -> frozenset:
        return frozenset(self.edges)


@lru_cache(maxsize=64)
def _build_cached(params: LatticeParams, order: GenOrder) -> HasseDiagram:
    mask_levels = _canonical_levels(params, order)
    words = {m: Word(params, m) for m in chain.from_iterable(mask_levels)}
    levels = tuple(tuple(map(words.get, level)) for level in mask_levels)
    edges = tuple((w, words[c]) for m, w in words.items() for c in _child_masks(params, m, order))
    return HasseDiagram(params, order, levels, edges)


def build(params: LatticeParams, order: GenOrder = GenOrder.OUT_IN) -> HasseDiagram:
    """The diagram of L(n, r), cached per (params, order); do not mutate it."""
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


@lru_cache(maxsize=16)
def _quoted_names(params: LatticeParams) -> tuple:
    """Each word's canonical string in double quotes, indexed by word
    mask.  The string holds only digits, bars and commas, so the quoted
    text is at once its DOT identifier and its JSON string."""
    return tuple(f'"{Word(params, m)}"' for m in range(1 << params.n))


def write_dot(diagram: HasseDiagram, fh) -> None:
    """Write the diagram to the text file ``fh`` as deterministic Graphviz
    source, one line at a time.

    Nodes keep their canonical string forms as quoted identifiers, each
    rank level is pinned with a same-rank group, and invisible edges
    preserve the left-to-right canonical order inside a level.
    """
    names = _quoted_names(diagram.params)
    fh.write("digraph lattice {\n  rankdir=BT;\n  node [shape=box];\n")
    for level in diagram.levels:
        row = [names[w.mask] for w in level]
        if len(row) == 1:
            fh.write(f"  {{ rank=same; {row[0]}; }}\n")
        else:
            fh.write(f"  {{ rank=same; {' -> '.join(row)} [style=invis]; }}\n")
    fh.writelines(f"  {names[lo.mask]} -> {names[hi.mask]};\n" for lo, hi in diagram.edges)
    fh.write("}\n")


def to_dot(diagram: HasseDiagram) -> str:
    """The text :func:`write_dot` writes."""
    out = io.StringIO()
    write_dot(diagram, out)
    return out.getvalue()


def _json_rows(rows):
    """The text of a list of string lists, each row given as its items
    already joined, laid out as ``json.dumps(..., indent=2)`` lays out
    the value of a top-level key."""
    sep = "[\n    [\n      "
    for row in rows:
        yield sep + row
        sep = "\n    ],\n    [\n      "
    # json.dumps writes an empty list as []
    yield "\n    ]\n  ]" if sep[0] == "\n" else "[]"


def write_json(diagram: HasseDiagram, fh) -> None:
    """Write ``json.dumps(diagram_to_json(diagram), indent=2,
    sort_keys=True)`` and a newline to the text file ``fh``, one line
    at a time."""
    names = _quoted_names(diagram.params)
    item = ",\n      "
    fh.write('{\n  "edges": ')
    fh.writelines(
        _json_rows(f"{names[lo.mask]}{item}{names[hi.mask]}" for lo, hi in diagram.edges)
    )
    fh.write(',\n  "levels": ')
    fh.writelines(
        _json_rows(item.join([names[w.mask] for w in level]) for level in diagram.levels)
    )
    n, r = diagram.params.n, diagram.params.r
    fh.write(
        f',\n  "order": "{diagram.order.value}",\n'
        f'  "params": {{\n    "n": {n},\n    "r": {r}\n  }}\n}}\n'
    )


def diagram_to_json(diagram: HasseDiagram) -> dict:
    """JSON-ready dict: params, order, levels and edges as string forms."""
    names = {w: str(w) for w in diagram.words()}
    return {
        "params": {"n": diagram.params.n, "r": diagram.params.r},
        "order": diagram.order.value,
        "levels": [[names[w] for w in level] for level in diagram.levels],
        "edges": [[names[lo], names[hi]] for lo, hi in diagram.edges],
    }
