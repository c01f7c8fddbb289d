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

The moves split at the bar: the positive trades and the pos(1)
insertion depend only on the positive side ``mask & (2^r - 1)``, the
negative moves only on ``mask >> r``.  ``_move_tables`` lists them once
per lattice and order, as XOR deltas in child order, one table per
half; every cover in this module is read from it.

A diagram holds word masks only: the rank levels of
:mod:`marklat.core`, in canonical order.  Its cover pairs are
``(word, child)`` for each word in that order and each of its children
in child order.  ``cover_moves`` yields each word with the XOR deltas
of its covers, read once from the move tables; ``cover_masks`` flattens
it into mask pairs.  The ``Word`` views ``levels`` and ``edges`` are
built the first time they are read.

The diagram is exported as Graphviz DOT or as JSON.  Both writers read
``cover_moves``, never a ``Word``, and send their document to an open
text file one word's covers at a time, joined from one table of quoted
word names.  Neither holds more than one word's cover lines or one
rank level's names (at n = 14 a DOT file is 3-5 MB).  ``to_dot``
returns the DOT text and ``diagram_to_json`` the JSON document as a
dict.
"""

from __future__ import annotations

import io
from bisect import bisect
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from typing import NamedTuple

from .core import (
    GenOrder,
    LatticeParams,
    Word,
    _canonical_levels,
    _check_params,
    _check_word,
    _side_texts,
    delta,
)
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
    _check_word(w)
    params = w.params
    moved = sorted(
        delta(w, Word(params, m)).support[0]
        for m in _child_masks(params, w.mask, GenOrder.OUT_IN)
    )
    cut = bisect(moved, params.r)
    return tuple(moved[:cut]), tuple(moved[cut:])


@lru_cache(maxsize=64)
def _move_tables(params: LatticeParams, order: GenOrder) -> tuple:
    """The upper covers of every word as XOR deltas on its mask, in child
    order: ``pos[mask & (2^r - 1)] + neg[mask >> r]``."""
    r, m = params.r, params.num_neg
    pos = []
    for s in range(1 << r):
        # trade pos(v) for an absent pos(v+1); add an absent pos(1)
        moves = [3 << (v - 1) for v in range(r - 1, 0, -1) if s >> (v - 1) & 3 == 1]
        pos.append(tuple(moves + [1] if r and not s & 1 else moves))
    neg = []
    for s in range(1 << m):
        # drop neg(1); trade neg(j) for an absent neg(j-1), at side bits j-2, j-1
        moves = [1 << r] if s & 1 else []
        moves += [3 << (r + k) for k in range(m - 1) if s >> k & 3 == 2]
        if order is GenOrder.OUT_IN:
            moves.reverse()
        neg.append(tuple(moves))
    return tuple(pos), tuple(neg)


def _child_masks(params: LatticeParams, mask: int, order: GenOrder) -> list:
    """Subset masks of the upper covers of the word ``mask``, in child order."""
    pos, neg = _move_tables(params, order)
    r = params.r
    return [mask ^ d for d in pos[mask & ((1 << r) - 1)] + neg[mask >> r]]


def _gen_order(order) -> GenOrder:
    """``order`` as a GenOrder, given as one or as its value."""
    try:
        return GenOrder(order)
    except ValueError:
        choices = ", ".join(o.value for o in GenOrder)
        raise DomainError(f"unknown order {order!r}, choose one of {choices}") from None


def children(w: Word, order: GenOrder = GenOrder.OUT_IN) -> list:
    """The upper covers of ``w`` in the requested emission order."""
    _check_word(w)
    return [Word(w.params, m) for m in _child_masks(w.params, w.mask, _gen_order(order))]


@dataclass(frozen=True)
class HasseDiagram:
    """Immutable result of :func:`build`: the word masks of each rank
    level in canonical order.  ``levels`` and ``edges`` are their
    ``Word`` views, built on first read."""

    params: LatticeParams
    order: GenOrder
    mask_levels: tuple

    def cover_moves(self):
        """Each word's mask ``lo`` with the XOR deltas of its upper covers
        in child order, ``(lo, moves)``, word by word in canonical order."""
        pos, neg = _move_tables(self.params, self.order)
        r = self.params.r
        low = (1 << r) - 1
        return ((lo, pos[lo & low] + neg[lo >> r]) for lo in chain.from_iterable(self.mask_levels))

    def cover_masks(self):
        """The cover pairs as ``(lo, hi)`` masks, in the order of ``edges``."""
        return ((lo, lo ^ d) for lo, moves in self.cover_moves() for d in moves)

    @cached_property
    def levels(self) -> tuple:
        """The words of each rank level, in canonical order."""
        params = self.params
        return tuple(tuple(Word(params, m) for m in level) for level in self.mask_levels)

    @cached_property
    def edges(self) -> tuple:
        """The cover pairs as ``(word, child)``, in emission order."""
        words = {w.mask: w for w in self.words()}
        return tuple((words[lo], words[hi]) for lo, hi in self.cover_masks())

    def words(self):
        """Every word, level by level."""
        return chain.from_iterable(self.levels)

    @property
    def edge_set(self) -> frozenset:
        return frozenset(self.edges)


@lru_cache(maxsize=64)
def _build_cached(params: LatticeParams, order: GenOrder) -> HasseDiagram:
    return HasseDiagram(params, order, _canonical_levels(params, order))


def build(params: LatticeParams, order: GenOrder = GenOrder.OUT_IN) -> HasseDiagram:
    """The diagram of L(n, r), cached per (params, order); do not mutate it."""
    _check_params(params)
    return _build_cached(params, _gen_order(order))


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
    _check_params(params)
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
    mask, built from the texts of its two sides.  The string holds only
    digits, bars and commas, so the quoted text is at once its DOT
    identifier and its JSON string."""
    pos, neg = _side_texts(params)
    return tuple(f'"{p}{t}"' for t in neg for p in pos)


def _cover_blocks(diagram: HasseDiagram, names: tuple, lead: str, mid: str, sep: str, end: str):
    """One text per word that has covers: a row ``lead + lo + mid + hi``
    per cover in child order, rows joined by ``sep``, then ``end``."""
    for lo, moves in diagram.cover_moves():
        if moves:
            head = f"{lead}{names[lo]}{mid}"
            yield head + f"{sep}{head}".join([names[lo ^ d] for d in moves]) + end


def _check_diagram(diagram) -> None:
    """A domain error unless diagram is a HasseDiagram."""
    if not isinstance(diagram, HasseDiagram):
        raise DomainError(f"need a HasseDiagram, got {type(diagram).__name__}")


def write_dot(diagram: HasseDiagram, fh) -> None:
    """Write the diagram to the text file ``fh`` as deterministic Graphviz
    source: a line per rank level, then one write per word that holds
    all of its cover lines.

    Nodes keep their canonical string forms as quoted identifiers, each
    rank level is pinned with a same-rank group, and invisible edges
    preserve the left-to-right canonical order inside a level.
    """
    _check_diagram(diagram)
    names = _quoted_names(diagram.params)
    fh.write("digraph lattice {\n  rankdir=BT;\n  node [shape=box];\n")
    for level in diagram.mask_levels:
        row = [names[m] for m in level]
        if len(row) == 1:
            fh.write(f"  {{ rank=same; {row[0]}; }}\n")
        else:
            fh.write(f"  {{ rank=same; {' -> '.join(row)} [style=invis]; }}\n")
    fh.writelines(_cover_blocks(diagram, names, "  ", " -> ", ";\n", ";\n"))
    fh.write("}\n")


def to_dot(diagram: HasseDiagram) -> str:
    """The text :func:`write_dot` writes."""
    out = io.StringIO()
    write_dot(diagram, out)
    return out.getvalue()


# between two rows of a list of string lists, laid out as by
# ``json.dumps(..., indent=2)`` under a top-level key
_ROW_SEP = "\n    ],\n    [\n      "


def _json_rows(blocks):
    """The text of a list of string lists laid out as ``json.dumps(...,
    indent=2)`` lays out the value of a top-level key.  Each block holds
    one or more rows, each given as its items already joined, and rows
    within a block are already joined by ``_ROW_SEP``."""
    sep = "[\n    [\n      "
    for block in blocks:
        yield sep + block
        sep = _ROW_SEP
    # json.dumps writes an empty list as []
    yield "\n    ]\n  ]" if sep[0] == "\n" else "[]"


def write_json(diagram: HasseDiagram, fh) -> None:
    """Write ``json.dumps(diagram_to_json(diagram), indent=2,
    sort_keys=True)`` and a newline to the text file ``fh``: one write
    per word that holds all of its edge rows, then one per rank level."""
    _check_diagram(diagram)
    names = _quoted_names(diagram.params)
    item = ",\n      "
    fh.write('{\n  "edges": ')
    fh.writelines(_json_rows(_cover_blocks(diagram, names, "", item, _ROW_SEP, "")))
    fh.write(',\n  "levels": ')
    fh.writelines(
        _json_rows(item.join([names[m] for m in level]) for level in diagram.mask_levels)
    )
    n, r = diagram.params.n, diagram.params.r
    fh.write(
        f',\n  "order": "{diagram.order.value}",\n'
        f'  "params": {{\n    "n": {n},\n    "r": {r}\n  }}\n}}\n'
    )


def diagram_to_json(diagram: HasseDiagram) -> dict:
    """JSON-ready dict: params, order, levels and edges as string forms."""
    _check_diagram(diagram)
    names = {w: str(w) for w in diagram.words()}
    return {
        "params": {"n": diagram.params.n, "r": diagram.params.r},
        "order": diagram.order.value,
        "levels": [[names[w] for w in level] for level in diagram.levels],
        "edges": [[names[lo], names[hi]] for lo, hi in diagram.edges],
    }
