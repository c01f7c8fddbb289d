"""Two-valued labelings of a word lattice and their extremal numbers.

A labeling assigns P or N to every word.  It is stored as one int, the
bit mask of its P-region over word masks: bit m is set when the word
whose ``Word.mask`` is m is P, so the all-zero word is bit 0, the word
using only neg(1) is bit ``1 << r`` and the full word is bit ``2^n - 1``.
The set of P-labeled words (``p_set``) is derived from that mask.
The admissible ("weighted") labelings are those where

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

One walk over the weighted labelings, an explicit-stack search over
those masks, sits behind ``enumerate_wbm``; one sweep over
``enumerate_wbm`` serves every minimum and the report.  The report
visits every labeling; a minimum cuts the subtrees that cannot beat
the best labeling found so far.

These notions degenerate when no negative mark exists (r = n): the
negative witness word is missing, so enumeration yields nothing there
and the extremal numbers are restricted to 1 <= r <= n-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import comb, inf
from typing import Iterator, Optional

from . import hasse
# enumerate_words is looked up here by bench/spans.py, which traces it
from .core import LatticeParams, Word, enumerate_words  # noqa: F401
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
WEIGHTED_AXIOMS = BASIC_AXIOMS + ("complement_pair", "full_word")


@lru_cache(maxsize=64)
def _d_slice(n: int, d: int) -> int:
    """Labeling mask of the words on exactly d marks."""
    return sum(1 << m for m in range(1 << n) if m.bit_count() == d)


@dataclass(frozen=True, init=False)
class BooleanMap:
    """A total P/N labeling stored as a bit mask over word masks: bit m of
    ``mask`` is set when the word whose ``Word.mask`` is m is P.  The set
    of P-labeled words, ``p_set``, is derived from the mask on demand."""

    params: LatticeParams
    mask: int

    def __init__(self, params: LatticeParams, p_set):
        mask = 0
        for w in p_set:
            if not isinstance(w, Word) or w.params != params:
                raise DomainError(f"p_set entry {w!r} does not belong to {params}")
            mask |= 1 << w.mask
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def _from_mask(cls, params: LatticeParams, mask: int) -> "BooleanMap":
        # trusted constructor: mask must only hold bits below 2^n
        bmap = object.__new__(cls)
        object.__setattr__(bmap, "params", params)
        object.__setattr__(bmap, "mask", mask)
        return bmap

    @property
    def p_set(self) -> frozenset:
        """The P-labeled words."""
        return frozenset(
            Word(self.params, m) for m in range(1 << self.params.n) if self.mask >> m & 1
        )

    def is_positive(self, w: Word) -> bool:
        if w.params != self.params:
            raise DomainError(f"word from {w.params} against a map on {self.params}")
        return bool(self.mask >> w.mask & 1)

    def label(self, w: Word) -> str:
        return "P" if self.is_positive(w) else "N"

    @property
    def p_count(self) -> int:
        return self.mask.bit_count()

    def p_count_d(self, d: int) -> int:
        if not 1 <= d <= self.params.n:
            raise DomainError(f"need 1 <= d <= n, got d={d} for {self.params}")
        return (self.mask & _d_slice(self.params.n, d)).bit_count()


@dataclass(frozen=True)
class AxiomCheck:
    is_bm: bool
    is_wbm: bool
    violated: tuple


def check_axioms(bmap: BooleanMap) -> AxiomCheck:
    """Check the five labeling conditions, reporting every violated one."""
    params = bmap.params
    if params.num_neg == 0:
        raise DomainError(
            "labeling conditions are unspecified without a negative mark (r = n)"
        )
    p = bmap.mask
    full = (1 << params.n) - 1
    violated = []
    if _p_covers(params, p) & ~p:
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
    ``hi.mask - lo.mask`` (at most n of them): ``lows`` is the labeling
    mask of the lower words of the covers with that shift, so shifting
    ``x & lows`` by ``shift`` moves each such word of x onto its cover."""
    lows = {}
    for lo, hi in hasse.build(params).edges:
        shift = hi.mask - lo.mask
        lows[shift] = lows.get(shift, 0) | 1 << lo.mask
    return tuple(lows.items())


def _p_covers(params: LatticeParams, pos: int) -> int:
    """Labeling mask of the words covering some word of ``pos``: the
    P-region ``pos`` is an up-set exactly when this lies inside it."""
    covers = 0
    for shift, lows in _cover_shifts(params):
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
def _tables(params: LatticeParams):
    """Per-lattice machinery for the labeling search, indexed by word
    mask: the up- and down-closure of every word as a labeling mask, and
    the top-down decision order."""
    diagram = hasse.build(params)
    up = [1 << m for m in range(1 << params.n)]
    down = list(up)
    # close the cover relation level by level: edges are listed by the
    # rank of their lower word
    for lo, hi in reversed(diagram.edges):
        up[lo.mask] |= up[hi.mask]
    for lo, hi in diagram.edges:
        down[hi.mask] |= down[lo.mask]
    decision = [w.mask for level in reversed(diagram.levels) for w in level]
    return tuple(up), tuple(down), tuple(decision)


class _Incumbent:
    """The size of a minimum's best labeling so far, on a slice mask: the
    sweep lowers ``size`` and the walk cuts every state whose P-region
    already holds ``size`` words of ``slice``."""

    __slots__ = ("slice", "size")

    def __init__(self, slice_mask: int):
        self.slice = slice_mask
        self.size = inf


def enumerate_wbm(
    params: LatticeParams,
    cap: int = DEFAULT_CAP,
    n_guard: int = DEFAULT_N_GUARD,
    *,
    _incumbent: Optional[_Incumbent] = None,
) -> Iterator[BooleanMap]:
    """Yield every weighted labeling of L(n, r), each exactly once, in a
    deterministic order (words are decided top rank first, N before P).

    Raises a resource error when n exceeds ``n_guard`` or more than
    ``cap`` labelings would be produced.  At r = n the conditions are
    unspecified (no negative mark), so nothing is yielded.

    ``_incumbent`` is the extremal sweep's own: with it, only the
    labelings smaller than its current size on its slice are yielded and
    counted against ``cap``.
    """
    if params.n > n_guard:
        raise ResourceLimitError(
            f"out of desk scale: n={params.n} exceeds the enumeration guard "
            f"{n_guard} (override n_guard to force)",
            count=0,
        )
    if params.r == params.n:
        return iter(())
    return _enumerate_wbm(params, cap, _incumbent)


def _enumerate_wbm(params, cap, incumbent) -> Iterator[BooleanMap]:
    up, down, decision = _tables(params)
    full = (1 << params.n) - 1
    # rest[k]: the labeling mask of decision[k:]
    rest = [0] * (full + 2)
    for k in range(full, -1, -1):
        rest[k] = rest[k + 1] | 1 << decision[k]

    def set_p(pos, neg, i):
        pos |= up[i]
        if pos & neg:
            return None
        return pos, neg

    def set_n(pos, neg, i):
        # complement reverses the order, so the complements of the words
        # below i are exactly the words above i's complement
        neg |= down[i]
        pos |= up[i ^ full]
        if pos & neg:
            return None
        return pos, neg

    # the zero word is P, the negative unit N and the full word P
    state = set_p(0, 0, 0)
    if state is not None:
        state = set_n(*state, 1 << params.r)
    if state is not None:
        state = set_p(*state, full)
    if state is None:
        return

    emitted = 0
    # pending branches sit on an explicit stack, not the call stack, so
    # the lattice's depth never meets the recursion limit
    stack = [(*state, 0)]
    while stack:
        pos, neg, at = stack.pop()
        # pos only grows down the tree: no leaf below holds fewer P-words
        if incumbent is not None and (pos & incumbent.slice).bit_count() >= incumbent.size:
            continue
        decided = pos | neg
        if not rest[at] & ~decided:
            if emitted >= cap:
                raise ResourceLimitError(
                    f"labeling enumeration for {params} exceeded the cap of {cap}",
                    count=emitted,
                )
            emitted += 1
            yield BooleanMap._from_mask(params, pos)
            continue
        while decided >> decision[at] & 1:
            at += 1
        i = decision[at]
        # the P branch goes on the stack first, so the N branch runs first
        for st in (set_p(pos, neg, i), set_n(pos, neg, i)):
            if st is not None:
                stack.append((*st, at + 1))


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
    params = bmap.params
    n, r = params.n, params.r
    pos = bmap.mask
    neg = ((1 << (1 << n)) - 1) ^ pos
    # one shift per cover kind moves a whole labeling onto the covers: a
    # P-word covered by an N-word breaks the up-set
    p_covers = _p_covers(params, pos)
    if p_covers & neg:
        return RepresentabilityResult(False, None)
    # the weight flag asks for a nonnegative total, the full word's sum:
    # exactly that the full word is P
    if require_weight and not pos >> ((1 << n) - 1) & 1:
        return RepresentabilityResult(False, None)
    n_covered = 0
    for shift, lows in _cover_shifts(params):
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

    point = feasible_point(rows, n)
    if point is None:
        return RepresentabilityResult(False, None)
    neg_values = tuple(-1 - v for v in accumulate(point[r:]))
    witness = NrFunction(params, tuple(accumulate(point[:r])), neg_values)
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


def _check_extremal_params(params: LatticeParams, d: Optional[int]):
    if not 1 <= params.r <= params.n - 1:
        raise DomainError(
            f"extremal numbers are unspecified outside 1 <= r <= n-1, got {params}"
        )
    if d is not None and not 1 <= d <= params.n:
        raise DomainError(f"need 1 <= d <= n, got d={d} for {params}")


def _sweep(params, d, cap, n_guard, representable, census=False, collect=False):
    """The one pass behind every extremal number and the report.

    Sizes each weighted labeling's P-region on the d-mark slice (all
    words when d is None) and returns ``(wb, rwb, tilde, best, witness,
    bad)``: the labeling count, the representable count, the first
    ``(size, map)`` minimum over all labelings and over the representable
    ones, the valuation inducing the latter, and the non-representable
    maps when ``collect`` is set.  Without ``representable`` no LP runs
    and only ``wb`` and ``tilde`` are filled in.

    With ``census`` every labeling is visited, as the report needs.
    Otherwise the sweep is a branch and bound for its one minimum
    (``best``, or ``tilde`` without ``representable``): the walk cuts
    each subtree whose forced P-words reach the incumbent's size, so
    only strictly smaller labelings are yielded and given an LP.  The
    walk order is unchanged, so the first minimizer and its witness are
    the census's; ``wb``, ``rwb`` and ``cap`` count only the labelings
    reached.  Over all words (d is None) a minimum also stops at its
    floor: every weighted labeling holds one word of each complement
    pair and both the zero and the full word, so 2^(n-1) + 1 P-words,
    and once the incumbent has that size no later labeling is smaller.
    """
    _check_extremal_params(params, d)
    slice_mask = (1 << (1 << params.n)) - 1 if d is None else _d_slice(params.n, d)
    incumbent = None if census else _Incumbent(slice_mask)
    floor = (1 << (params.n - 1)) + 1 if d is None else None
    wb = rwb = 0
    tilde = best = witness = None
    bad = []
    for bmap in enumerate_wbm(params, cap=cap, n_guard=n_guard, _incumbent=incumbent):
        size = (bmap.mask & slice_mask).bit_count()
        wb += 1
        if tilde is None or size < tilde[0]:
            tilde = (size, bmap)
        if representable:
            res = is_representable(bmap)
            if res.representable:
                rwb += 1
                if best is None or size < best[0]:
                    best, witness = (size, bmap), res.witness
            elif collect:
                bad.append(bmap)
        found = best if representable else tilde
        if incumbent is not None and found is not None:
            incumbent.size = found[0]
            if found[0] == floor:
                break
    return wb, rwb, tilde, best, witness, bad


def _minimum(params, d, representable, cap, n_guard) -> ExtremalResult:
    _, _, tilde, best, witness, _ = _sweep(params, d, cap, n_guard, representable)
    found = best if representable else tilde
    if found is None:
        raise DomainError(f"no admissible labeling exists for {params}")
    return ExtremalResult(found[0], found[1], witness)


def gamma_tilde(params, *, cap=DEFAULT_CAP, n_guard=DEFAULT_N_GUARD) -> ExtremalResult:
    """Minimum P-region size over all weighted labelings."""
    return _minimum(params, None, False, cap, n_guard)


def gamma_tilde_d(params, d, *, cap=DEFAULT_CAP, n_guard=DEFAULT_N_GUARD) -> ExtremalResult:
    """Minimum count of P-labeled d-mark words over all weighted labelings."""
    return _minimum(params, d, False, cap, n_guard)


def gamma(params, *, cap=DEFAULT_CAP, n_guard=DEFAULT_N_GUARD) -> ExtremalResult:
    """Minimum P-region size over the representable weighted labelings.

    This equals the minimum of alpha over weight valuations: restricting
    to induced labelings does not change the minimum.

    Like every minimum here, the search is a branch and bound over the
    labeling walk that runs the LP only on labelings smaller than the
    best so far: the minimizer is the first in walk order, as in a full
    census, and ``cap`` counts only the labelings reached.
    """
    return _minimum(params, None, True, cap, n_guard)


def gamma_d(params, d, *, cap=DEFAULT_CAP, n_guard=DEFAULT_N_GUARD) -> ExtremalResult:
    """Minimum count of P-labeled d-mark words over the representable
    weighted labelings."""
    return _minimum(params, d, True, cap, n_guard)


def psi(n: int, d: int, *, cap=DEFAULT_CAP, n_guard=DEFAULT_N_GUARD) -> ExtremalResult:
    """Minimize gamma_d over r.

    r runs over 1..n-1 by enumeration; the r = n endpoint contributes the
    closed form C(n, d) (with no negative mark every word sums >= 0), which
    never beats the enumerated range for n >= 2.  For n = 1 the closed form
    is the only candidate and no minimizing labeling exists (minimizer is
    None).
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got n={n}")
    if not 1 <= d <= n:
        raise DomainError(f"need 1 <= d <= n, got d={d}")
    best = None
    for r in range(1, n):
        res = gamma_d(LatticeParams(n, r), d, cap=cap, n_guard=n_guard)
        if best is None or res.value < best.value:
            best = res
    closed_form = comb(n, d)
    if best is None or closed_form < best.value:
        best = ExtremalResult(closed_form, None, None)
    return best


@dataclass(frozen=True)
class ExtremalReport:
    """One full sweep over the weighted labelings of a lattice."""

    params: LatticeParams
    d: Optional[int]
    wb_count: int
    rwb_count: int
    gamma_tilde: Optional[int]
    gamma: Optional[int]
    minimizer: Optional[BooleanMap]
    witness: Optional[NrFunction]
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
    """Enumerate every weighted labeling once, recording representability,
    both extremal minima, and (optionally) each non-representable map."""
    wb, rwb, tilde, best, witness, bad = _sweep(
        params, d, cap, n_guard, True, census=True, collect=collect_non_representable
    )
    best_tilde = None if tilde is None else tilde[0]
    best_gamma, minimizer = (None, None) if best is None else best
    if wb == rwb and best_tilde != best_gamma:
        raise RuntimeError(
            "consistency violated: every labeling is representable but the "
            f"two minima differ ({best_tilde} vs {best_gamma}) on {params}"
        )
    bad = tuple(bad) if collect_non_representable else None
    return ExtremalReport(params, d, wb, rwb, best_tilde, best_gamma, minimizer, witness, bad)


def map_to_json(bmap: BooleanMap) -> dict:
    """JSON form of a labeling: its P-words in canonical order."""
    p = bmap.mask
    return {"p_set": [str(w) for w in hasse.build(bmap.params).words() if p >> w.mask & 1]}


def report_to_json(report: ExtremalReport) -> dict:
    """The report as a dict; ``non_representable`` only if collected."""
    out = {
        "n": report.params.n,
        "r": report.params.r,
        "d": report.d,
        "gamma_tilde": report.gamma_tilde,
        "gamma": report.gamma,
        "minimizer": map_to_json(report.minimizer) if report.minimizer else None,
        "wb_count": report.wb_count,
        "rwb_count": report.rwb_count,
    }
    if report.non_representable is not None:
        out["non_representable"] = [map_to_json(b) for b in report.non_representable]
    return out
