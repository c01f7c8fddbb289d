"""Core model of the signed-mark word lattices.

The lattice ``L(n, r)`` is built over an alphabet of ``n + 1`` totally
ordered symbols: ``r`` positive marks, one zero mark and ``n - r``
negative marks,

    neg(n-r) < ... < neg(1) < zero < pos(1) < ... < pos(r).

Its elements ("words") are in bijection with the subsets of the ``n``
nonzero marks.  A subset is laid out as a canonical string: the chosen
positive marks as strictly decreasing digits padded right with zeros,
a separator bar, then zeros followed by the chosen negative marks as
strictly increasing digits.  In ``L(7, 4)`` the subset
``{pos(4), pos(3), pos(1), neg(2), neg(3)}`` renders as ``4310|023``.

Words compare position by position through the symbol chain, which
makes ``L(n, r)`` a distributive lattice graded by the rank function
implemented here.  Words are stored as bit masks over the nonzero
marks, so every stored word is canonical by construction; string forms
are rendered on demand and parsed with full validation.

Bit layout of ``Word.mask``: bit ``i - 1`` holds pos(i) for
``1 <= i <= r``, bit ``r + j - 1`` holds neg(j) for ``1 <= j <= n - r``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterable

from .errors import DomainError, ValidationError

__all__ = [
    "LatticeParams",
    "Symbol",
    "ZERO",
    "Word",
    "DeltaVector",
    "word_from_subset",
    "parse_word",
    "leq",
    "meet",
    "join",
    "bool_union",
    "bool_intersect",
    "complement",
    "delta",
    "is_cover",
    "rank",
    "transpose",
    "iso_to_conjugate",
    "cartesian_split",
    "cartesian_merge",
    "nonzero_count",
    "enumerate_words",
    "enumerate_d_slice",
]


@dataclass(frozen=True)
class LatticeParams:
    """Parameters (n, r) of a lattice: n nonzero marks, r of them positive."""

    n: int
    r: int

    def __post_init__(self):
        if type(self.n) is not int or type(self.r) is not int:
            raise DomainError(f"lattice parameters must be ints, got n={self.n!r}, r={self.r!r}")
        if not 0 <= self.r <= self.n:
            raise DomainError(f"need 0 <= r <= n, got n={self.n}, r={self.r}")

    @property
    def num_pos(self) -> int:
        return self.r

    @property
    def num_neg(self) -> int:
        return self.n - self.r

    @property
    def total_rank(self) -> int:
        """Rank of the top word: C(r+1, 2) + C(n-r+1, 2)."""
        return comb(self.r + 1, 2) + comb(self.n - self.r + 1, 2)

    def nonzero_symbols(self) -> tuple:
        """All n nonzero marks, positive ones first, ascending index."""
        pos = tuple(Symbol(i) for i in range(1, self.r + 1))
        neg = tuple(Symbol(-j) for j in range(1, self.n - self.r + 1))
        return pos + neg

    def __str__(self):
        return f"L({self.n}, {self.r})"


@dataclass(frozen=True, order=True)
class Symbol:
    """One alphabet letter, identified by its height in the symbol chain.

    ``value > 0`` is the positive mark with that index, ``value == 0``
    the zero mark, ``value < 0`` the negative mark with index ``-value``.
    Symbols compare by chain height.
    """

    value: int

    @classmethod
    def pos(cls, index: int) -> "Symbol":
        if index < 1:
            raise DomainError(f"positive mark index must be >= 1, got {index}")
        return cls(index)

    @classmethod
    def neg(cls, index: int) -> "Symbol":
        if index < 1:
            raise DomainError(f"negative mark index must be >= 1, got {index}")
        return cls(-index)

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    @property
    def is_pos(self) -> bool:
        return self.value > 0

    @property
    def is_neg(self) -> bool:
        return self.value < 0

    @property
    def index(self) -> int:
        """Mark index within its side (undefined notionally for zero; 0)."""
        return abs(self.value)

    def covers(self, other: "Symbol") -> bool:
        """True when this symbol sits directly above ``other`` in the chain."""
        return self.value == other.value + 1

    def in_alphabet(self, params: LatticeParams) -> bool:
        return -params.num_neg <= self.value <= params.r

    def __str__(self):
        if self.value > 0:
            return f"pos({self.value})"
        if self.value < 0:
            return f"neg({-self.value})"
        return "zero"


ZERO = Symbol(0)


# The canonical string splits at the bar into a positive side fixed by
# the low r mask bits and a negative side fixed by the rest.  Each side
# is cached per (side length, side bits): lattices are walked mask by
# mask, so the same sides recur across many words.  Digits take commas
# once a side holds 10 marks.


@lru_cache(maxsize=1 << 15)
def _pos_text(r: int, bits: int) -> str:
    pos = [str(i) for i in range(r, 0, -1) if bits >> (i - 1) & 1]
    return ("," if r >= 10 else "").join(pos + ["0"] * (r - len(pos)))


@lru_cache(maxsize=1 << 15)
def _neg_text(m: int, bits: int) -> str:
    neg = [str(j) for j in range(1, m + 1) if bits >> (j - 1) & 1]
    return ("," if m >= 10 else "").join(["0"] * (m - len(neg)) + neg)


class Word:
    """One lattice element: a subset of the nonzero marks, stored as a
    bit mask, rendered as a canonical string on demand.

    Words are immutable; equality and hashing go by (n, r, mask).
    """

    __slots__ = ("params", "mask", "_vals", "_rank", "_hash")

    def __init__(self, params: LatticeParams, mask: int):
        if type(mask) is not int:
            raise DomainError(f"a word mask must be an int, got {mask!r}")
        if not 0 <= mask < (1 << params.n):
            raise DomainError(f"mask {mask:#x} out of range for {params}")
        self.params = params
        self.mask = mask
        self._vals = None
        self._rank = None
        self._hash = hash((params.n, params.r, mask))

    @classmethod
    def _from_vals(cls, params: LatticeParams, vals: tuple) -> "Word":
        # trusted constructor: vals must already be canonical
        r = params.r
        mask = 0
        for v in vals[:r]:
            if v:
                mask |= 1 << (v - 1)
        for v in vals[r:]:
            if v:
                mask |= 1 << (r - v - 1)
        w = cls(params, mask)
        w._vals = vals
        return w

    @property
    def values(self) -> tuple:
        """Symbol heights of the canonical string, one per position."""
        vals = self._vals
        if vals is None:
            r = self.params.r
            m = self.params.num_neg
            mask = self.mask
            pos = [i for i in range(r, 0, -1) if mask >> (i - 1) & 1]
            neg = [-j for j in range(1, m + 1) if mask >> (r + j - 1) & 1]
            vals = tuple(pos) + (0,) * (r - len(pos) + m - len(neg)) + tuple(neg)
            self._vals = vals
        return vals

    @property
    def rank(self) -> int:
        """Grading: position-wise distance from the bottom word."""
        rk = self._rank
        if rk is None:
            m = self.params.num_neg
            rk = sum(self.values) + comb(m + 1, 2)
            self._rank = rk
        return rk

    @property
    def nonzero_count(self) -> int:
        """How many nonzero marks the word uses (its subset size)."""
        return self.mask.bit_count()

    @property
    def members(self) -> frozenset:
        """The subset of nonzero marks this word encodes."""
        symbols = self.params.nonzero_symbols()
        return frozenset(s for k, s in enumerate(symbols) if self.mask >> k & 1)

    def symbol_at(self, position: int) -> Symbol:
        """Symbol at string position ``position`` (1-based)."""
        if not 1 <= position <= self.params.n:
            raise DomainError(f"position {position} out of 1..{self.params.n}")
        return Symbol(self.values[position - 1])

    def complement(self) -> "Word":
        full = (1 << self.params.n) - 1
        return Word(self.params, self.mask ^ full)

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return (
            self.mask == other.mask
            and self.params.n == other.params.n
            and self.params.r == other.params.r
        )

    def __hash__(self):
        return self._hash

    def __str__(self):
        r = self.params.r
        mask = self.mask
        return (
            _pos_text(r, mask & ((1 << r) - 1))
            + "|"
            + _neg_text(self.params.num_neg, mask >> r)
        )

    def __repr__(self):
        return f"Word({str(self)!r}, n={self.params.n}, r={self.params.r})"


@dataclass(frozen=True)
class DeltaVector:
    """Position-wise difference of two words: ``entries[k]`` is None where
    they agree and a ``(symbol_from_first, symbol_from_second)`` pair where
    they differ."""

    entries: tuple

    @property
    def support(self) -> tuple:
        """1-based positions where the two words differ."""
        return tuple(k + 1 for k, e in enumerate(self.entries) if e is not None)


def _require_same(w1: Word, w2: Word):
    if w1.params != w2.params:
        raise DomainError(f"words from different lattices: {w1.params} vs {w2.params}")


def word_from_subset(params: LatticeParams, symbols: Iterable[Symbol]) -> Word:
    """Build the canonical word for a subset of the nonzero marks."""
    mask = 0
    for s in symbols:
        if not isinstance(s, Symbol):
            raise DomainError(f"not a symbol: {s!r}")
        if s.is_zero or not s.in_alphabet(params):
            raise DomainError(f"{s} is not a nonzero mark of {params}")
        if s.value > 0:
            mask |= 1 << (s.value - 1)
        else:
            mask |= 1 << (params.r - s.value - 1)
    return Word(params, mask)


def _parse_side(text: str, what: str, expected: int, bound: int) -> list:
    # `_pos_text` and `_neg_text` render by the same rule
    wide = expected >= 10
    if ("," in text) != wide:
        raise ValidationError(
            f"{what} digits are comma-separated exactly when the side has 10 or more marks"
        )
    digits = text.split(",") if wide else list(text)
    if len(digits) != expected:
        raise ValidationError(f"expected {expected} {what} digits, got {len(digits)}")
    out = []
    for d in digits:
        if not d.isdigit():
            raise ValidationError(f"{what} digit {d!r} is not a number")
        v = int(d)
        if v > bound:
            raise ValidationError(f"{what} digit {v} exceeds the side maximum {bound}")
        out.append(v)
    return out


def parse_word(params: LatticeParams, text: str) -> Word:
    """Parse a canonical string form back into a word.

    The grammar matches ``str(word)``: positive digits, a bar, negative
    digits, with comma-separated digits exactly when a side has 10 or
    more marks.  Non-canonical strings are rejected with a message naming
    the violated rule.
    """
    if not isinstance(text, str) or text.count("|") != 1:
        raise ValidationError("a word is two digit blocks separated by one '|'")
    left_text, right_text = text.split("|")
    r, m = params.r, params.num_neg
    left = _parse_side(left_text, "positive-side", r, r)
    right = _parse_side(right_text, "negative-side", m, m)
    for k in range(1, r):
        if left[k] > left[k - 1]:
            raise ValidationError("positive-side digits must not increase")
        if left[k] == left[k - 1] and left[k] != 0:
            raise ValidationError(
                "positive-side digits must be strictly decreasing before the zeros"
            )
    for k in range(1, m):
        if right[k] < right[k - 1]:
            raise ValidationError(
                "negative-side digits must be zeros followed by increasing digits"
            )
        if right[k] == right[k - 1] and right[k] != 0:
            raise ValidationError(
                "negative-side digits must be strictly increasing after the zeros"
            )
    vals = tuple(left) + tuple(-v for v in right)
    return Word._from_vals(params, vals)


def leq(w1: Word, w2: Word) -> bool:
    """Position-wise comparison through the symbol chain."""
    _require_same(w1, w2)
    return all(map(operator.le, w1.values, w2.values))


def meet(w1: Word, w2: Word) -> Word:
    """Greatest lower bound: position-wise smaller symbol."""
    _require_same(w1, w2)
    return Word._from_vals(w1.params, tuple(map(min, w1.values, w2.values)))


def join(w1: Word, w2: Word) -> Word:
    """Least upper bound: position-wise larger symbol."""
    _require_same(w1, w2)
    return Word._from_vals(w1.params, tuple(map(max, w1.values, w2.values)))


def bool_union(w1: Word, w2: Word) -> Word:
    """The word of the union of the two subsets.  Not the lattice join."""
    _require_same(w1, w2)
    return Word(w1.params, w1.mask | w2.mask)


def bool_intersect(w1: Word, w2: Word) -> Word:
    """The word of the intersection of the two subsets."""
    _require_same(w1, w2)
    return Word(w1.params, w1.mask & w2.mask)


def complement(w: Word) -> Word:
    """The word of the complementary subset of nonzero marks."""
    return w.complement()


def delta(w1: Word, w2: Word) -> DeltaVector:
    """Position-wise difference vector of two words."""
    _require_same(w1, w2)
    entries = tuple(
        None if a == b else (Symbol(a), Symbol(b))
        for a, b in zip(w1.values, w2.values)
    )
    return DeltaVector(entries)


def is_cover(w1: Word, w2: Word) -> bool:
    """True when ``w2`` covers ``w1``: they differ in exactly one position
    and there by one step of the symbol chain."""
    _require_same(w1, w2)
    found = False
    for a, b in zip(w1.values, w2.values):
        if a == b:
            continue
        if b != a + 1 or found:
            return False
        found = True
    return found


def rank(w: Word) -> int:
    return w.rank


def nonzero_count(w: Word) -> int:
    return w.nonzero_count


def transpose(w: Word) -> Word:
    """Swap the two sides: pos(i) becomes neg(i) and vice versa, landing in
    L(n, n-r).  Order-reversing; applying it twice gives the word back."""
    p = w.params
    q = LatticeParams(p.n, p.num_neg)
    low = (1 << p.r) - 1
    return Word(q, (w.mask >> p.r) | ((w.mask & low) << q.r))


def iso_to_conjugate(w: Word) -> Word:
    """Order isomorphism L(n, r) -> L(n, n-r): transpose, then complement."""
    return transpose(w).complement()


def cartesian_split(w: Word) -> tuple:
    """Split a word at the bar into its L(r, r) and L(n-r, 0) factors."""
    p = w.params
    left = Word(LatticeParams(p.r, p.r), w.mask & ((1 << p.r) - 1))
    right = Word(LatticeParams(p.num_neg, 0), w.mask >> p.r)
    return left, right


def cartesian_merge(left: Word, right: Word) -> Word:
    """Inverse of :func:`cartesian_split`."""
    lp, rp = left.params, right.params
    if lp.r != lp.n:
        raise DomainError(f"left factor must come from L(a, a), got {lp}")
    if rp.r != 0:
        raise DomainError(f"right factor must come from L(b, 0), got {rp}")
    params = LatticeParams(lp.n + rp.n, lp.n)
    return Word(params, left.mask | (right.mask << lp.n))


def enumerate_words(params: LatticeParams) -> list:
    """All 2^n words in canonical order: by rank, then in the child order
    the Hasse builder produces within each rank level."""
    from . import hasse  # deferred: hasse imports this module

    return list(hasse.build(params).words())


def enumerate_d_slice(params: LatticeParams, d: int) -> list:
    """The words using exactly ``d`` nonzero marks, in canonical order."""
    if not 1 <= d <= params.n:
        raise DomainError(f"need 1 <= d <= n, got d={d} for {params}")
    return list(_d_slice_words(params, d))


@lru_cache(maxsize=256)
def _d_slice_words(params: LatticeParams, d: int) -> tuple:
    from . import hasse  # deferred: hasse imports this module

    return tuple(w for w in hasse.build(params).words() if w.mask.bit_count() == d)
