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
``enumerate_wbm`` serves every minimum and the report.

These notions degenerate when no negative mark exists (r = n): the
negative witness word is missing, so enumeration yields nothing there
and the extremal numbers are restricted to 1 <= r <= n-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import comb
from typing import Iterator, Optional

from .core import LatticeParams, Word, enumerate_words
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
    up, _, _ = _tables(params)
    p = bmap.mask
    full = (1 << params.n) - 1
    violated = []
    if any(up[m] & ~p for m in range(full + 1) if p >> m & 1):
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


@lru_cache(maxsize=16)
def _tables(params: LatticeParams):
    """Per-lattice machinery for the labeling search, indexed by word
    mask: the up- and down-closure of every word as a labeling mask, and
    the top-down decision order."""
    from .hasse import build

    diagram = build(params)
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


def enumerate_wbm(
    params: LatticeParams,
    cap: int = DEFAULT_CAP,
    n_guard: int = DEFAULT_N_GUARD,
) -> Iterator[BooleanMap]:
    """Yield every weighted labeling of L(n, r), each exactly once, in a
    deterministic order (words are decided top rank first, N before P).

    Raises a resource error when n exceeds ``n_guard`` or more than
    ``cap`` labelings would be produced.  At r = n the conditions are
    unspecified (no negative mark), so nothing is yielded.
    """
    if params.n > n_guard:
        raise ResourceLimitError(
            f"out of desk scale: n={params.n} exceeds the enumeration guard "
            f"{n_guard} (override n_guard to force)",
            count=0,
        )
    if params.r == params.n:
        return iter(())
    return _enumerate_wbm(params, cap)


def _enumerate_wbm(params: LatticeParams, cap: int) -> Iterator[BooleanMap]:
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
    up, down, _ = _tables(params)
    pos = bmap.mask
    if any(up[m] & ~pos for m in range(1 << n) if pos >> m & 1):
        return RepresentabilityResult(False, None)
    # the weight flag asks for a nonnegative total, the full word's sum:
    # exactly that the full word is P
    if require_weight and not pos >> ((1 << n) - 1) & 1:
        return RepresentabilityResult(False, None)
    # the map is monotone, so constraining only the boundary words is
    # enough: every other word's sum lies above a minimal P or below a
    # maximal N one.  The zero word's sum is 0, so as a minimal P it
    # would pose only 0 <= 0 and is skipped
    minimal_p = [m for m in range(1, 1 << n) if down[m] & pos == 1 << m]
    maximal_n = [m for m in range(1 << n) if up[m] & ~pos == 1 << m]

    # the variables are the chain increments, each >= 0: f(pos(1)), then
    # f(pos(i+1)) - f(pos(i)), then -1 - f(neg(1)) (neg(1) < 0, scaled to
    # <= -1), then f(neg(j)) - f(neg(j+1)).  A mark's value is a prefix
    # sum of its side, so a word's sum gives each increment the count of
    # the word's marks at or beyond it (negated on the negative side) and
    # adds -1 per negative mark
    low = (1 << r) - 1

    def word_row(m, sign):
        e = [((m & low) >> k).bit_count() for k in range(r)]
        e += [-(m >> k).bit_count() for k in range(r, n)]
        return [sign * c for c in e]

    rows = [(word_row(m, -1), -(m >> r).bit_count()) for m in minimal_p]  # sum >= 0
    # sum < 0, scaled to <= -1
    rows += [(word_row(m, 1), (m >> r).bit_count() - 1) for m in maximal_n]

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


def _sweep(params, d, cap, n_guard, representable, collect=False):
    """The one pass behind every extremal number and the report.

    Sizes each weighted labeling's P-region on the d-mark slice (all
    words when d is None) and returns ``(wb, rwb, tilde, best, witness,
    bad)``: the labeling count, the representable count, the first
    ``(size, map)`` minimum over all labelings and over the representable
    ones, the valuation inducing the latter, and the non-representable
    maps when ``collect`` is set.  Without ``representable`` no LP runs
    and only ``wb`` and ``tilde`` are filled in.
    """
    _check_extremal_params(params, d)
    wb = rwb = 0
    tilde = best = witness = None
    bad = []
    for bmap in enumerate_wbm(params, cap=cap, n_guard=n_guard):
        size = bmap.p_count if d is None else bmap.p_count_d(d)
        wb += 1
        if tilde is None or size < tilde[0]:
            tilde = (size, bmap)
        if not representable:
            continue
        res = is_representable(bmap)
        if res.representable:
            rwb += 1
            if best is None or size < best[0]:
                best, witness = (size, bmap), res.witness
        elif collect:
            bad.append(bmap)
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
        params, d, cap, n_guard, True, collect_non_representable
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
    return {"p_set": [str(w) for w in enumerate_words(bmap.params) if p >> w.mask & 1]}


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
