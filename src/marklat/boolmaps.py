"""Two-valued labelings of a word lattice and their extremal numbers.

A labeling assigns P or N to every word; :mod:`marklat.core` defines
``BooleanMap`` and its mask layout.  The admissible ("weighted")
labelings are those where

* the P-region is an up-set (``monotone``),
* the all-zero word is P (``zero_word``) and the word using only
  neg(1) is N (``negative_unit``),
* no word and its complement are both N (``complement_pair``),
* the word using all n marks is P (``full_word``).

The first three conditions alone make a *basic* labeling; all five make
a *weighted* one.  A labeling is *representable* when some admissible
valuation f induces it, i.e. P exactly on the words with nonnegative
sum; that question is decided exactly with the rational feasibility
solver.  The extremal numbers minimize the size of the P-region (or its
d-mark slice) over all weighted labelings (gamma_tilde) or over the
representable ones (gamma).

One walk, an explicit-stack search over the masks, sits behind
``enumerate_wbm``.  Its root is P on every word a weighted labeling
must make P, then the N step on the negative unit, so each branch it
pushes holds one and it tests no conflicts.  A state is its P-region
and its undecided words, the latter as a mask over positions in the
top-down decision order: the next word to decide is its lowest set bit.
The subtree below a state depends on its undecided words alone, so a
state with at most ``_MEMO_BITS`` of them pushes nothing: the walk ORs
into its P-region each mask that subtree would add, listed once per
walk (``_completions``), in the same order and with the incumbent and
the cap tested leaf by leaf, so it yields exactly what pushing every
state would.  An unpruned walk of L(7,5) pops 33,289 states, not the
239,617 of its whole tree.  That order, the closures and the root are
built for the lattice being walked, the last one's dropped first
(``_tables``).  Each lattice also keeps the Farkas certificate of every
LP it refused (``_nogoods``), and a labeling that repeats one's P and N
words is refused with no LP.
Every minimum (the report's two, psi's over all r) is one branch and
bound over such walks, ``_lower``; past ``n_guard`` it refuses before
building any lattice.  The report's own loop only counts labelings.

These notions degenerate at the ends: at r = n no negative mark exists,
and at r = 0 the full word, P, is the bottom, so the negative unit
would be P.  Enumeration yields nothing there, with no tables built,
and the extremal numbers are restricted to 1 <= r <= n-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain
from math import comb, inf
from typing import Iterator, Optional

from . import hasse
from .core import BooleanMap, LatticeParams, _check_d, _check_params, _d_slice, enumerate_words
from .errors import DomainError, ResourceLimitError
from .feasibility import feasible_point
from .weights import NrFunction, induced_map

__all__ = [
    "BooleanMap",
    "AxiomCheck",
    "RepresentabilityResult",
    "ExtremalResult",
    "ExtremalReport",
    "check_axioms",
    "enumerate_wbm",
    "is_representable",
    "gamma_tilde",
    "gamma_tilde_d",
    "gamma",
    "gamma_d",
    "psi",
    "wb_vs_rwb_report",
    "map_to_json",
    "report_to_json",
    "DEFAULT_CAP",
    "DEFAULT_N_GUARD",
]

DEFAULT_CAP = 10_000_000
DEFAULT_N_GUARD = 5

BASIC_AXIOMS = ("monotone", "zero_word", "negative_unit")


@dataclass(frozen=True)
class AxiomCheck:
    is_bm: bool
    is_wbm: bool
    violated: tuple


def _params_of(bmap) -> LatticeParams:
    """A labeling's lattice; a domain error for anything else (a Word)."""
    if not isinstance(bmap, BooleanMap):
        raise DomainError(f"need a BooleanMap, got {type(bmap).__name__}")
    return bmap.params


def check_axioms(bmap: BooleanMap) -> AxiomCheck:
    """Check the five labeling conditions, reporting every violated one."""
    params = _params_of(bmap)
    if params.num_neg == 0:
        raise DomainError(
            "labeling conditions are unspecified without a negative mark (r = n)"
        )
    p = bmap.mask
    full = (1 << params.n) - 1
    violated = []
    if _p_covers(_cover_shifts(params), p) & ~p:
        violated.append("monotone")
    if not p & 1:
        violated.append("zero_word")
    if p >> (1 << params.r) & 1:
        violated.append("negative_unit")
    if any(not (p >> m & 1 or p >> (m ^ full) & 1) for m in range(full + 1)):
        violated.append("complement_pair")
    if not p >> full & 1:
        violated.append("full_word")
    is_bm = not any(v in BASIC_AXIOMS for v in violated)
    return AxiomCheck(is_bm, is_bm and len(violated) == 0, tuple(violated))


def _shifted(x: int, shift: int) -> int:
    """Labeling mask x with each word mask m moved to m + shift."""
    return x << shift if shift > 0 else x >> -shift


@lru_cache(maxsize=16)
def _cover_shifts(params: LatticeParams) -> tuple:
    """The cover relation as ``(shift, lows)`` pairs, one per distinct
    ``hi - lo`` over the cover masks (at most n of them), in first-seen
    order: ``lows`` is the labeling mask of the lower words of the covers
    with that shift, so shifting ``x & lows`` by ``shift`` moves each such
    word of x onto its cover."""
    lows = {}
    for lo, hi in hasse.build(params).cover_masks():
        lows[hi - lo] = lows.get(hi - lo, 0) | 1 << lo
    return tuple(lows.items())


def _p_covers(shifts: tuple, pos: int) -> int:
    """Labeling mask of the words covering some word of ``pos``, by a
    lattice's ``_cover_shifts``: the P-region ``pos`` is an up-set
    exactly when this lies inside it."""
    covers = 0
    for shift, lows in shifts:
        covers |= _shifted(pos & lows, shift)
    return covers


def _bits(x: int) -> Iterator[int]:
    """The set bits of x, ascending."""
    while x:
        low_bit = x & -x
        yield low_bit.bit_length() - 1
        x ^= low_bit


@lru_cache(maxsize=16)
def _row_halves(params: LatticeParams) -> tuple:
    """The LP row of a boundary word m, split at the bar:
    ``pos_half[m & low][side]`` holds the coefficients of the positive
    increments and ``neg_half[m >> r][side]`` those of the negative ones
    with the row's bound; ``side`` is 0 for a minimal P and 1 for a
    maximal N word."""
    r, n = params.r, params.n
    pos_half = []
    for m in range(1 << r):
        e = tuple((m >> k).bit_count() for k in range(r))
        pos_half.append((tuple(-c for c in e), e))
    neg_half = []
    for m in range(1 << (n - r)):
        e = tuple(-(m >> k).bit_count() for k in range(n - r))
        marks = m.bit_count()
        # sum >= 0; sum < 0, scaled to <= -1
        neg_half.append(((tuple(-c for c in e), -marks), (e, marks - 1)))
    return tuple(pos_half), tuple(neg_half)


@lru_cache(maxsize=16)
def _nogoods(params: LatticeParams) -> list:
    """The refused LPs of a lattice as nogoods ``(p_words, watch, rows,
    y)``: ``y`` is the checked Farkas certificate that refuted ``rows``,
    and ``watch`` the labeling mask of the words whose rows it weighs,
    ``p_words`` the minimal P ones among them and the rest maximal N.  A
    row depends only on its word and its side (``_row_halves``), and a
    valuation inducing a labeling meets the row of each of its P and N
    words, boundary or not: so ``y`` refutes every labeling ``pos`` with
    ``pos & watch == p_words``."""
    return []


@lru_cache(maxsize=1)
def _tables(params: LatticeParams):
    """Per-lattice machinery for the labeling search, ``(up, keep,
    decision, root)``, for 1 <= r <= n-1.

    ``decision`` lists the word masks top rank first, canonical within a
    rank; the walk keeps its undecided words as a mask over positions in
    it, bit k for ``decision[k]``.  ``up[m]`` is the up-closure of word m
    as a labeling mask.  Turning word m N decides its down-closure, N,
    and the up-closure of its complement, P; ``keep[m]`` is the position
    mask of every other word.  ``root`` is the walk's first state ``(pos,
    undecided)``: P on the words every weighted labeling makes P, then
    the N step on the negative unit.

    ``up`` and ``keep`` hold 2 * 4^n bits, so one lattice is cached: the
    report's census and its minima walk it one after another, and psi
    walks each r once.  A miss drops it before building the next.
    """
    _tables.cache_clear()
    diagram = hasse.build(params)
    covers = list(diagram.cover_masks())
    full = (1 << params.n) - 1
    decision = [m for level in reversed(diagram.mask_levels) for m in level]
    where = [0] * (full + 1)
    for k, m in enumerate(decision):
        where[m] = k
    # close the cover relation level by level: covers are listed by the
    # rank of their lower word
    up = [1 << m for m in range(full + 1)]
    for lo, hi in reversed(covers):
        up[lo] |= up[hi]
    # N on m decides {w, w ^ full : w <= m}: its down-closure, N, and, as
    # complement reverses the order, the up-closure of m ^ full, P.  Close
    # what they leave over positions, intersecting up the covers
    every = (1 << (full + 1)) - 1
    keep = [every ^ (1 << where[m] | 1 << where[m ^ full]) for m in range(full + 1)]
    for lo, hi in covers:
        keep[hi] &= keep[lo]

    # the zero and full words are P, and so is each word above its
    # complement (N would put both in N): an up-set, which misses the
    # negative unit's down-set for 1 <= r <= n-1.  The root is the N step
    # on the unit
    unit = 1 << params.r
    pos = up[0] | up[full]
    pos |= sum(1 << m for m in range(full + 1) if up[m ^ full] >> m & 1)
    decided = sum(1 << where[m] for m in _bits(pos))
    root = (pos | up[unit ^ full], keep[unit] & ~decided)
    return tuple(up), tuple(keep), tuple(decision), root


class _Incumbent:
    """The best result so far of :func:`_lower` and its size on a slice
    mask: the walk cuts every state whose P-region already holds ``size``
    words of ``slice``, and :func:`_lower` lowers it."""

    __slots__ = ("slice", "size", "best")

    def __init__(self, slice_mask: int, size=inf):
        self.slice, self.size, self.best = slice_mask, size, None


def _check_limits(n, walked, cap, n_guard) -> None:
    """A domain error unless cap and n_guard are ints and cap >= 0, then a
    resource error if n is past the guard and ``walked`` is non-empty:
    before any lattice is built."""
    if type(cap) is not int or type(n_guard) is not int or cap < 0:
        raise DomainError(f"need an int cap >= 0 and an int n_guard, got {cap!r} and {n_guard!r}")
    if walked and n > n_guard:
        raise ResourceLimitError(
            f"out of desk scale: n={n} exceeds the enumeration guard "
            f"{n_guard} (override n_guard to force)",
            count=0,
        )


def enumerate_wbm(
    params: LatticeParams,
    cap: int = DEFAULT_CAP,
    n_guard: int = DEFAULT_N_GUARD,
    *,
    _incumbent: Optional[_Incumbent] = None,
) -> Iterator[BooleanMap]:
    """Yield every weighted labeling of L(n, r), each exactly once, in a
    deterministic order (words are decided top rank first, N before P).

    Raises a resource error when n exceeds ``n_guard``, at once, or more
    than ``cap`` labelings would be produced, and a domain error, first,
    unless both are ints and ``cap >= 0``.  Nothing is yielded, and no
    table built, at r = n, where the conditions are unspecified (no
    negative mark), or at r = 0, where the full word is the bottom and P,
    so the negative unit would be P too.

    ``_incumbent`` is the best so far of :func:`_lower`: only the
    labelings below its size on its slice, as the caller lowers it, are
    yielded and counted against ``cap``.
    """
    _check_params(params)
    _check_limits(params.n, (params,), cap, n_guard)
    if params.r in (0, params.n):
        return iter(())
    return _enumerate_wbm(params, cap, _incumbent)


# a state whose undecided mask has at most this many bits yields its
# subtree's leaves from the walk's memo, one per completion, instead of
# pushing the subtree.  A warm L(7,5) census through bench/worker.py's
# consumer (fastest of 15, in 3 processes, Python 3.11, 2-core VM) took
# 121-127 ms pushing every state and 98-104 / 92-97 / 92-95 / 90-95 ms at
# 4 / 6 / 8 / 10 bits, with the memo peaking at 0.16 / 0.40 / 0.76 /
# 1.24 MiB (tracemalloc); at 6 bits the L(7,4) memo peaks at 3.8 MiB
# (BENCH_search.json, memo_walk)
_MEMO_BITS = 6


def _enumerate_wbm(params, cap, incumbent) -> Iterator[BooleanMap]:
    up, keep, decision, root = _tables(params)
    full = (1 << params.n) - 1

    emitted = 0
    memo = {0: (0,)}
    # pending branches sit on an explicit stack, not the call stack, so
    # the lattice's depth never meets the recursion limit
    stack = [root]
    while stack:
        pos, undecided = stack.pop()
        # pos only grows down the tree: no leaf below holds fewer P-words
        if incumbent is not None and (pos & incumbent.slice).bit_count() >= incumbent.size:
            continue
        if undecided.bit_count() <= _MEMO_BITS:
            # the subtree's leaves in walk order.  The incumbent only falls
            # between yields and pos only grows, so a leaf passes exactly
            # when the tree walk would have reached it
            for c in _completions(memo, undecided, up, keep, decision, full):
                leaf = pos | c
                if incumbent is not None and (leaf & incumbent.slice).bit_count() >= incumbent.size:
                    continue
                if emitted >= cap:
                    raise ResourceLimitError(
                        f"labeling enumeration for {params} exceeded the cap of {cap}",
                        count=emitted,
                    )
                emitted += 1
                yield BooleanMap._from_mask(params, leaf)
            continue
        # the next word is the first undecided one in decision order
        low = undecided & -undecided
        k = low.bit_length() - 1
        i = decision[k]
        # no branch conflicts: P is an up-set and N a down-set without i, and
        # each N word's complement is P.  So up[i] misses N; down[i] misses P;
        # up[i ^ full], the complements of down[i], misses N, as i ^ full <= j
        # in N puts i >= j ^ full in P; and down[i] meets it only if i lies
        # above its complement, P since the root.  Every word above i comes
        # before it in decision order, so it is decided, and P, as N holds
        # no word above i: the P branch decides i alone.  The N branch,
        # down[i] and up[i ^ full], runs first
        stack.append((pos | up[i], undecided ^ low))
        stack.append((pos | up[i ^ full], undecided & keep[i]))


def _completions(memo, undecided, up, keep, decision, full) -> tuple:
    """The masks the walk's subtree below ``undecided`` ORs into its
    state's P-region, one per leaf, in walk order (N before P), kept in
    ``memo`` by undecided mask.  Each branch decides
    ``decision[lowest bit]``, and both children's undecided masks and
    what they add depend on the undecided mask alone.  A child drops a
    bit, so the recursion is at most one frame per bit deep; ``memo``
    starts as ``{0: (0,)}``, the leaf."""
    found = memo.get(undecided)
    if found is None:
        low = undecided & -undecided
        i = decision[low.bit_length() - 1]
        n_adds, p_adds = up[i ^ full], up[i]
        n_side = _completions(memo, undecided & keep[i], up, keep, decision, full)
        p_side = _completions(memo, undecided ^ low, up, keep, decision, full)
        found = memo[undecided] = (
            *[n_adds | c for c in n_side],
            *[p_adds | c for c in p_side],
        )
    return found


@dataclass(frozen=True)
class RepresentabilityResult:
    representable: bool
    witness: Optional[NrFunction]

    @property
    def status(self) -> str:
        return "representable" if self.representable else "not-representable"


def is_representable(bmap: BooleanMap, require_weight: bool = True) -> RepresentabilityResult:
    """Decide exactly whether some admissible valuation induces the map
    (with ``require_weight``, some weight-flagged valuation).

    Any labeling no valuation can induce, including non-monotone ones,
    simply comes back not-representable.  A returned witness is verified
    to induce the map letter for letter before it is handed out.
    """
    params = _params_of(bmap)
    n, r = params.n, params.r
    pos = bmap.mask
    neg = ((1 << (1 << n)) - 1) ^ pos
    # one shift per cover kind moves a whole labeling onto the covers: a
    # P-word covered by an N-word breaks the up-set
    shifts = _cover_shifts(params)
    p_covers = _p_covers(shifts, pos)
    if p_covers & neg:
        return RepresentabilityResult(False, None)
    # the weight flag asks for a nonnegative total, the full word's sum:
    # exactly that the full word is P
    if require_weight and not pos >> ((1 << n) - 1) & 1:
        return RepresentabilityResult(False, None)
    # an earlier refusal whose P and N words this map repeats refutes it.
    # Newest first: a walk's next leaves share most labels with its last
    # ones (gamma_d(L(8,4), 3): 5.0 s oldest first, 2.7 s newest first,
    # on a 2-core VM)
    nogoods = _nogoods(params)
    for p_words, watch, _, _ in reversed(nogoods):
        if pos & watch == p_words:
            return RepresentabilityResult(False, None)
    n_covered = 0
    for shift, lows in shifts:
        n_covered |= _shifted(neg, -shift) & lows
    # the map is monotone, so constraining only the boundary words is
    # enough: every other word's sum lies above a minimal P (no P lower
    # cover) or below a maximal N (no N upper cover) one.  The zero
    # word's sum is 0, so as a minimal P it would pose only 0 <= 0 and is
    # skipped
    minimal_p = pos & ~p_covers & ~1
    maximal_n = neg & ~n_covered

    # the variables are the chain increments, each >= 0: f(pos(1)), then
    # f(pos(i+1)) - f(pos(i)), then -1 - f(neg(1)) (neg(1) < 0, scaled to
    # <= -1), then f(neg(j)) - f(neg(j+1)).  A mark's value is a prefix
    # sum of its side, so a word's sum gives each increment the count of
    # the word's marks at or beyond it (negated on the negative side) and
    # adds -1 per negative mark.  Rows go in ascending word mask order,
    # minimal P (sum >= 0) first, then maximal N (sum <= -1)
    low = (1 << r) - 1
    pos_half, neg_half = _row_halves(params)
    rows = []
    for side, words in enumerate((minimal_p, maximal_n)):
        for m in _bits(words):
            neg_coeffs, bound = neg_half[m >> r][side]
            rows.append((pos_half[m & low][side] + neg_coeffs, bound))

    farkas = []
    point = feasible_point(rows, n, farkas)
    if point is None:
        # keep the refusal: row i is the i-th word of minimal_p, then of
        # maximal_n, and the two are disjoint
        watch = 0
        for y, m in zip(farkas, chain(_bits(minimal_p), _bits(maximal_n))):
            if y:
                watch |= 1 << m
        # an empty list (a caller that dropped it) must not refute all
        if watch:
            nogoods.append((watch & minimal_p, watch, rows, farkas))
        return RepresentabilityResult(False, None)
    # a mark's value is a prefix sum of increments: sum them in integers
    # over the point's divisor s, then make one Fraction per mark
    ints, s = point
    pos_values = tuple(Fraction(p, s) for p in accumulate(ints[:r]))
    neg_values = tuple(Fraction(-s - p, s) for p in accumulate(ints[r:]))
    witness = NrFunction(params, pos_values, neg_values)
    if induced_map(witness).mask != pos:
        raise RuntimeError(f"feasibility witness fails to induce the map on {params}")
    return RepresentabilityResult(True, witness)


@dataclass(frozen=True)
class ExtremalResult:
    """A minimum together with one labeling achieving it (and, for the
    representable minima, a valuation witnessing that labeling)."""

    value: int
    minimizer: Optional[BooleanMap]
    witness: Optional[NrFunction] = None


def _check_slice(params: LatticeParams, d: Optional[int]) -> None:
    """A domain error unless the extremal numbers are specified for r and
    for d, a mark count or None (all words)."""
    _check_params(params)
    if not 1 <= params.r <= params.n - 1:
        raise DomainError(
            f"extremal numbers are unspecified outside 1 <= r <= n-1, got {params}"
        )
    if d is not None:
        _check_d(d, params.n)


def _floor(n: int, d: Optional[int], representable: bool) -> Optional[int]:
    """A proven lower bound on a minimum, or None where none is used.

    Over all words: every weighted labeling holds one word of each
    complement pair and both the zero and the full word, so 2^(n-1) + 1
    P-words.  On the d-mark slice of the representable labelings, when
    d divides n: Manickam and Singhi ("First distribution invariants
    and EKR theorems", JCTA 48, 1988) proved that every valuation with a
    nonnegative total has at least C(n-1, d-1) nonnegative d-sums.  The
    weighted labelings that are not induced by a valuation can go below
    it (``gamma_tilde_d(L(6,3), 2)`` is 3 < C(5, 1)), so gamma_tilde_d
    has no floor.
    """
    if d is None:
        return (1 << (n - 1)) + 1
    if representable and n % d == 0:
        return comb(n - 1, d - 1)
    return None


def _lower(n, rs, d, representable, cap, n_guard, size=inf) -> Optional[ExtremalResult]:
    """The least P-region size below ``size`` on the d-mark slice (all
    words when d is None) over the weighted (if ``representable``, the
    representable, with a witness) labelings of L(n, r) for r in ``rs``,
    or None.  A branch and bound: the walks, in turn, yield and count
    against ``cap`` only labelings below the best so far.  Their order is
    a full census's, so the best is the census's first of least size.  It
    stops at the floor, which nothing goes below.  Each lattice is built
    as its walk starts, after the limits are checked."""
    _check_limits(n, rs, cap, n_guard)
    incumbent = _Incumbent((1 << (1 << n)) - 1 if d is None else _d_slice(n, d), size)
    floor = _floor(n, d, representable)
    for r in rs:
        params = LatticeParams(n, r)
        for bmap in enumerate_wbm(params, cap=cap, n_guard=n_guard, _incumbent=incumbent):
            witness = None
            if representable:
                witness = is_representable(bmap).witness
                if witness is None:
                    continue
            incumbent.size = (bmap.mask & incumbent.slice).bit_count()
            incumbent.best = ExtremalResult(incumbent.size, bmap, witness)
            if incumbent.size == floor:
                return incumbent.best
    return incumbent.best


def _minimum(params, d, representable, cap, n_guard) -> ExtremalResult:
    """The least P-region size on the d-mark slice (all words when d is
    None) over the weighted or the representable labelings; see :func:`_lower`."""
    _check_slice(params, d)
    best = _lower(params.n, (params.r,), d, representable, cap, n_guard)
    if best is None:
        raise DomainError(f"no admissible labeling exists for {params}")
    return best


def gamma_tilde(params, *, cap=DEFAULT_CAP, n_guard=DEFAULT_N_GUARD) -> ExtremalResult:
    """Minimum P-region size over all weighted labelings."""
    return _minimum(params, None, False, cap, n_guard)


def gamma_tilde_d(params, d, *, cap=DEFAULT_CAP, n_guard=DEFAULT_N_GUARD) -> ExtremalResult:
    """Minimum count of P-labeled d-mark words over all weighted labelings."""
    return _minimum(params, d, False, cap, n_guard)


def gamma(params, *, cap=DEFAULT_CAP, n_guard=DEFAULT_N_GUARD) -> ExtremalResult:
    """Minimum P-region size over the representable weighted labelings.

    This equals the minimum of alpha over weight valuations: restricting
    to induced labelings does not change the minimum.  The search, and
    what ``cap`` counts, is that of every minimum: see :func:`_minimum`.
    """
    return _minimum(params, None, True, cap, n_guard)


def gamma_d(params, d, *, cap=DEFAULT_CAP, n_guard=DEFAULT_N_GUARD) -> ExtremalResult:
    """Minimum count of P-labeled d-mark words over the representable
    weighted labelings.  When d divides n the search stops once it
    reaches C(n-1, d-1), the Manickam-Singhi floor (see :func:`_floor`)."""
    return _minimum(params, d, True, cap, n_guard)


def psi(n: int, d: int, *, cap=DEFAULT_CAP, n_guard=DEFAULT_N_GUARD) -> ExtremalResult:
    """Minimize gamma_d over r: one :func:`_lower` over the walks for
    r = 1..n-1, so each r yields only labelings below the best of the
    earlier r (``cap`` counts those) and the first r to reach the minimum
    keeps it.  The r = n endpoint's closed form C(n, d) (no negative mark,
    so every word sums >= 0) sets the start size C(n, d) + 1; it is the
    result, with no minimizer, only at n = 1, where no r is walked.  When
    d divides n the search ends at the Manickam-Singhi floor C(n-1, d-1)
    (JCTA 48, 1988): no later r can go below it.
    """
    if type(n) is not int or n < 1:
        raise DomainError(f"need an int n >= 1, got n={n!r}")
    _check_d(d, n)
    # the guard first: C(n, d) alone takes seconds at n = 10^6, d = n/2
    _check_limits(n, range(1, n), cap, n_guard)
    best = _lower(n, range(1, n), d, True, cap, n_guard, comb(n, d) + 1)
    return best or ExtremalResult(comb(n, d), None, None)


@dataclass(frozen=True)
class ExtremalReport:
    """The census of a lattice's weighted labelings with both minima."""

    params: LatticeParams
    d: Optional[int]
    wb_count: int
    rwb_count: int
    gamma_tilde: int
    gamma: int
    minimizer: BooleanMap
    witness: NrFunction
    # the maps that are not representable, or None when not collected
    non_representable: Optional[tuple]


def wb_vs_rwb_report(
    params: LatticeParams,
    d: Optional[int] = None,
    *,
    cap: int = DEFAULT_CAP,
    n_guard: int = DEFAULT_N_GUARD,
    collect_non_representable: bool = True,
) -> ExtremalReport:
    """Count every weighted labeling (``cap`` bounds them all) and the
    representable ones, keeping (optionally) the others; the minima, the
    minimizer and its witness come from :func:`_minimum`, as in ``gamma_d``."""
    _check_slice(params, d)
    wb = rwb = 0
    bad = [] if collect_non_representable else None
    for bmap in enumerate_wbm(params, cap=cap, n_guard=n_guard):
        wb += 1
        if is_representable(bmap).representable:
            rwb += 1
        elif bad is not None:
            bad.append(bmap)
    tilde, exact = (_minimum(params, d, rwb_only, cap, n_guard) for rwb_only in (False, True))
    if wb == rwb and tilde.value != exact.value:
        raise RuntimeError(
            "consistency violated: every labeling is representable but the "
            f"two minima differ ({tilde.value} vs {exact.value}) on {params}"
        )
    bad = None if bad is None else tuple(bad)
    return ExtremalReport(
        params, d, wb, rwb, tilde.value, exact.value, exact.minimizer, exact.witness, bad
    )


def map_to_json(bmap: BooleanMap) -> dict:
    """JSON form of a labeling: its P-words in canonical order."""
    params, p = _params_of(bmap), bmap.mask
    return {"p_set": [str(w) for w in enumerate_words(params) if p >> w.mask & 1]}


def report_to_json(report: ExtremalReport) -> dict:
    """The report as a dict; ``non_representable`` only if collected."""
    out = {
        "n": report.params.n,
        "r": report.params.r,
        "d": report.d,
        "gamma_tilde": report.gamma_tilde,
        "gamma": report.gamma,
        "minimizer": map_to_json(report.minimizer),
        "wb_count": report.wb_count,
        "rwb_count": report.rwb_count,
    }
    if report.non_representable is not None:
        out["non_representable"] = [map_to_json(b) for b in report.non_representable]
    return out
