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
Listings go by rank, then by the two sides of the bar (``_canonical_levels``).

A labeling (``BooleanMap``) assigns P or N to every word.  It is stored
as one int, the bit mask of its P-region over word masks: bit m is set
when the word whose ``Word.mask`` is m is P, so the all-zero word is bit
0, the word using only neg(1) is bit ``1 << r`` and the full word is bit
``2^n - 1``.  The set of P-labeled words (``p_set``) is derived from
that mask.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
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


def _total_rank(n: int, r: int) -> int:
    """Rank of the top word of L(n, r), unchecked: C(r+1, 2) + C(n-r+1, 2)."""
    return comb(r + 1, 2) + comb(n - r + 1, 2)


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
        """Rank of the top word: see :func:`_total_rank`."""
        return _total_rank(self.n, self.r)

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

    def __post_init__(self):
        if type(self.value) is not int:
            raise DomainError(f"a symbol value must be an int, got {self.value!r}")

    @classmethod
    def pos(cls, index: int) -> "Symbol":
        if type(index) is not int or index < 1:
            raise DomainError(f"positive mark index must be an int >= 1, got {index!r}")
        return cls(index)

    @classmethod
    def neg(cls, index: int) -> "Symbol":
        if type(index) is not int or index < 1:
            raise DomainError(f"negative mark index must be an int >= 1, got {index!r}")
        return cls(-index)

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    @property
    def is_pos(self) -> bool:
        return self.value > 0

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

    The mask is all a word keeps: ``values`` and ``rank`` are derived
    from it on each call.  Words are immutable; equality and hashing go
    by (n, r, mask).
    """

    __slots__ = ("params", "mask", "_hash")

    def __init__(self, params: LatticeParams, mask: int):
        _check_params(params)
        if type(mask) is not int:
            raise DomainError(f"a word mask must be an int, got {mask!r}")
        if not 0 <= mask < (1 << params.n):
            raise DomainError(f"mask {mask:#x} out of range for {params}")
        self.params = params
        self.mask = mask
        self._hash = hash((params.n, params.r, mask))

    @classmethod
    def _from_mask(cls, params: LatticeParams, mask: int) -> "Word":
        # trusted constructor: mask must be below 2^n.  A listing makes
        # one word per mask of a rank level, past the checks of __init__
        w = object.__new__(cls)
        w.params = params
        w.mask = mask
        w._hash = hash((params.n, params.r, mask))
        return w

    @property
    def values(self) -> tuple:
        """Symbol heights of the canonical string, one per position."""
        r = self.params.r
        m = self.params.num_neg
        mask = self.mask
        pos = [i for i in range(r, 0, -1) if mask >> (i - 1) & 1]
        neg = [-j for j in range(1, m + 1) if mask >> (r + j - 1) & 1]
        return tuple(pos) + (0,) * (r - len(pos) + m - len(neg)) + tuple(neg)

    @property
    def rank(self) -> int:
        """Grading: position-wise distance from the bottom word."""
        return sum(self.values) + comb(self.params.num_neg + 1, 2)

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
        if type(position) is not int or not 1 <= position <= self.params.n:
            raise DomainError(f"need an int position in 1..{self.params.n}, got {position!r}")
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


def _check_word(w) -> None:
    """A domain error unless w is a Word."""
    if not isinstance(w, Word):
        raise DomainError(f"need a Word, got {type(w).__name__}")


def _require_same(w1: Word, w2: Word):
    _check_word(w1)
    _check_word(w2)
    if w1.params != w2.params:
        raise DomainError(f"words from different lattices: {w1.params} vs {w2.params}")


def _word_from_values(params: LatticeParams, vals: tuple) -> Word:
    """The word of canonical symbol heights ``vals``, one per position."""
    r = params.r
    mask = 0
    for v in vals[:r]:
        if v:
            mask |= 1 << (v - 1)
    for v in vals[r:]:
        if v:
            mask |= 1 << (r - v - 1)
    return Word(params, mask)


def word_from_subset(params: LatticeParams, symbols: Iterable[Symbol]) -> Word:
    """Build the canonical word for a subset of the nonzero marks."""
    _check_params(params)
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
        if not (d.isascii() and d.isdigit()):
            raise ValidationError(f"{what} digit {d!r} is not a number")
        v = int(d)
        if v > bound:
            raise ValidationError(f"{what} digit {v} exceeds the side maximum {bound}")
        out.append(v)
    return out


def parse_word(params: LatticeParams, text: str) -> Word:
    """Parse a canonical string form back into a word.

    ``str(word)`` is the one definition of the canonical form: the
    digits name a subset of the marks, and the string must be exactly
    that subset's rendering.  Anything else is rejected with a message
    naming the rule it breaks or the canonical form of its digits.
    """
    _check_params(params)
    if not isinstance(text, str) or text.count("|") != 1:
        raise ValidationError("a word is two digit blocks separated by one '|'")
    left_text, right_text = text.split("|")
    r, m = params.r, params.num_neg
    left = _parse_side(left_text, "positive-side", r, r)
    right = _parse_side(right_text, "negative-side", m, m)
    word = _word_from_values(params, tuple(left) + tuple(-v for v in right))
    if str(word) != text:
        raise ValidationError(
            f"{text!r} is not canonical in {params}: its marks are written {str(word)!r}"
        )
    return word


def leq(w1: Word, w2: Word) -> bool:
    """Position-wise comparison through the symbol chain."""
    _require_same(w1, w2)
    return all(map(operator.le, w1.values, w2.values))


def meet(w1: Word, w2: Word) -> Word:
    """Greatest lower bound: position-wise smaller symbol."""
    _require_same(w1, w2)
    return _word_from_values(w1.params, tuple(map(min, w1.values, w2.values)))


def join(w1: Word, w2: Word) -> Word:
    """Least upper bound: position-wise larger symbol."""
    _require_same(w1, w2)
    return _word_from_values(w1.params, tuple(map(max, w1.values, w2.values)))


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
    _check_word(w)
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
    _check_word(w)
    return w.rank


def nonzero_count(w: Word) -> int:
    _check_word(w)
    return w.nonzero_count


def transpose(w: Word) -> Word:
    """Swap the two sides: pos(i) becomes neg(i) and vice versa, landing in
    L(n, n-r).  Order-reversing; applying it twice gives the word back."""
    _check_word(w)
    p = w.params
    q = LatticeParams(p.n, p.num_neg)
    low = (1 << p.r) - 1
    return Word(q, (w.mask >> p.r) | ((w.mask & low) << q.r))


def iso_to_conjugate(w: Word) -> Word:
    """Order isomorphism L(n, r) -> L(n, n-r): transpose, then complement."""
    return transpose(w).complement()


def cartesian_split(w: Word) -> tuple:
    """Split a word at the bar into its L(r, r) and L(n-r, 0) factors."""
    _check_word(w)
    p = w.params
    left = Word(LatticeParams(p.r, p.r), w.mask & ((1 << p.r) - 1))
    right = Word(LatticeParams(p.num_neg, 0), w.mask >> p.r)
    return left, right


def cartesian_merge(left: Word, right: Word) -> Word:
    """Inverse of :func:`cartesian_split`."""
    _check_word(left)
    _check_word(right)
    lp, rp = left.params, right.params
    if lp.r != lp.n:
        raise DomainError(f"left factor must come from L(a, a), got {lp}")
    if rp.r != 0:
        raise DomainError(f"right factor must come from L(b, 0), got {rp}")
    params = LatticeParams(lp.n + rp.n, lp.n)
    return Word(params, left.mask | (right.mask << lp.n))


class GenOrder(enum.Enum):
    """Word order within a rank, and child order in ``hasse.children``."""

    OUT_IN = "outin"
    LEFT_RIGHT = "leftright"


def _subset_sums(first: int, steps: Iterable[int]) -> list:
    """``sums[m]`` is ``first`` plus the steps at the set bits of m."""
    sums = [first]
    for step in steps:
        sums += [s + step for s in sums]
    return sums


def _mask_ranks(n: int, r: int) -> list:
    """The rank of every word of L(n, r), indexed by mask: C(n-r+1, 2) for
    the empty subset, plus i per pos(i) and minus j per neg(j) in it."""
    return _subset_sums(comb(n - r + 1, 2), [*range(1, r + 1), *range(-1, r - n - 1, -1)])


@lru_cache(maxsize=64)
def _canonical_levels(params: LatticeParams, order: GenOrder) -> tuple:
    """The word masks of each rank, bottom first, filled in canonical
    order: positive side ``mask & (2^r - 1)`` descending, then negative
    side ``mask >> r`` ascending (``OUT_IN``) or by the count, then the
    ascending list, of its marks (``LEFT_RIGHT``: ``Word.values`` in
    descending lexicographic order)."""
    r, m = params.r, params.num_neg
    ranks = _mask_ranks(params.n, r)
    if order is GenOrder.OUT_IN:
        negs = range(1 << m)
    else:
        negs = [sum(c) for k in range(m + 1) for c in combinations([1 << j for j in range(m)], k)]
    levels = [[] for _ in range(params.total_rank + 1)]
    for pos in range((1 << r) - 1, -1, -1):
        for neg in negs:
            mask = pos | neg << r
            levels[ranks[mask]].append(mask)
    return tuple(map(tuple, levels))


def enumerate_words(params: LatticeParams) -> list:
    """All 2^n words in canonical order (``GenOrder.OUT_IN``)."""
    _check_params(params)
    word = Word._from_mask
    return [word(params, m) for level in _canonical_levels(params, GenOrder.OUT_IN) for m in level]


def _side_texts(params: LatticeParams) -> tuple:
    """The two halves of every canonical string of L(n, r): ``pos[s]``,
    positive side s and the bar, and ``neg[t]``, negative side t.  The
    word with mask m reads ``pos[m & (2^r - 1)] + neg[m >> r]``."""
    r, m = params.r, params.num_neg
    return [_pos_text(r, s) + "|" for s in range(1 << r)], [_neg_text(m, t) for t in range(1 << m)]


def _word_texts(params: LatticeParams, words):
    """``str(w)`` of each word of L(n, r) in ``words``, in order, read
    from one table per side."""
    pos, neg = _side_texts(params)
    r = params.r
    low = (1 << r) - 1
    return (pos[w.mask & low] + neg[w.mask >> r] for w in words)


def _check_params(params) -> None:
    """A domain error unless params is a LatticeParams."""
    if not isinstance(params, LatticeParams):
        raise DomainError(f"need a LatticeParams, got {type(params).__name__}")


def _check_d(d, n: int) -> None:
    """A mark count d must be an int with 1 <= d <= n."""
    if type(d) is not int or not 1 <= d <= n:
        raise DomainError(f"need an int d with 1 <= d <= n, got d={d!r} for n={n}")


def enumerate_d_slice(params: LatticeParams, d: int) -> list:
    """The words using exactly ``d`` nonzero marks, in canonical order."""
    # _check_params inlined: the lookup cached per (params, d) costs about 1 us
    if not isinstance(params, LatticeParams):
        raise DomainError(f"need a LatticeParams, got {type(params).__name__}")
    _check_d(d, params.n)
    return list(_d_slice_words(params, d))


@lru_cache(maxsize=256)
def _d_slice_words(params: LatticeParams, d: int) -> tuple:
    levels = _canonical_levels(params, GenOrder.OUT_IN)
    word = Word._from_mask
    return tuple(word(params, m) for level in levels for m in level if m.bit_count() == d)


@lru_cache(maxsize=64)
def _d_slice(n: int, d: int) -> int:
    """Labeling mask of the words on exactly d marks, by Pascal's rule:
    ``row[j]`` holds the words on j of the first k marks, and mark k + 1
    moves each word of ``row[j - 1]`` up by 2^k into ``row[j]``."""
    row = [1] + [0] * d
    for k in range(n):
        for j in range(min(d, k + 1), 0, -1):
            row[j] |= row[j - 1] << (1 << k)
    return row[d]


@dataclass(frozen=True, init=False)
class BooleanMap:
    """A total P/N labeling stored as a bit mask over word masks: bit m of
    ``mask`` is set when the word whose ``Word.mask`` is m is P.  The set
    of P-labeled words, ``p_set``, is derived from the mask on demand."""

    params: LatticeParams
    mask: int

    def __init__(self, params: LatticeParams, p_set):
        _check_params(params)
        mask = 0
        for w in p_set:
            if not isinstance(w, Word) or w.params != params:
                raise DomainError(f"p_set entry {w!r} does not belong to {params}")
            mask |= 1 << w.mask
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def _from_mask(cls, params: LatticeParams, mask: int) -> "BooleanMap":
        # trusted constructor: mask must only hold bits below 2^n.  The
        # fields go straight into the instance dict, past the frozen
        # __setattr__, as the labeling walk makes one map per leaf
        bmap = object.__new__(cls)
        fields = bmap.__dict__
        fields["params"] = params
        fields["mask"] = mask
        return bmap

    @property
    def p_set(self) -> frozenset:
        """The P-labeled words."""
        return frozenset(
            Word(self.params, m) for m in range(1 << self.params.n) if self.mask >> m & 1
        )

    def is_positive(self, w: Word) -> bool:
        _check_word(w)
        if w.params != self.params:
            raise DomainError(f"word from {w.params} against a map on {self.params}")
        return bool(self.mask >> w.mask & 1)

    def label(self, w: Word) -> str:
        return "P" if self.is_positive(w) else "N"

    @property
    def p_count(self) -> int:
        return self.mask.bit_count()

    def p_count_d(self, d: int) -> int:
        _check_d(d, self.params.n)
        return (self.mask & _d_slice(self.params.n, d)).bit_count()
