import dataclasses
import hashlib
import itertools
import json
import random
import sys
import time
import tracemalloc
from math import comb

import pytest

from marklat import boolmaps
from marklat.boolmaps import (
    BooleanMap,
    ExtremalResult,
    check_axioms,
    enumerate_wbm,
    gamma,
    gamma_d,
    gamma_tilde,
    gamma_tilde_d,
    is_representable,
    map_to_json,
    psi,
    report_to_json,
    wb_vs_rwb_report,
    _tables,
)
from marklat.core import (
    LatticeParams,
    Word,
    complement,
    enumerate_d_slice,
    enumerate_words,
    is_cover,
    parse_word,
    _d_slice,
)
from marklat.errors import DomainError, ResourceLimitError
from marklat.hasse import build, children
from marklat.weights import induced_map, load_f85, phi_count, random_nr_function, sigma

from helpers import (
    SEED,
    all_words,
    boundary_rows,
    full_tableau_point,
    leq_table,
    scan_walk_masks,
    tuple_levels_and_edges,
)


def make_map(n, r, strings):
    p = LatticeParams(n, r)
    return BooleanMap(p, frozenset(parse_word(p, s) for s in strings))


def brute_wbm_psets(params):
    """All weighted labelings by filtering every one of the 2^(2^n)
    P-subsets through the five conditions directly."""
    words = all_words(params)
    edges = build(params).edges
    zero = Word(params, 0)
    negunit = Word(params, 1 << params.r)
    full = Word(params, (1 << params.n) - 1)
    found = set()
    for bits in itertools.product((False, True), repeat=len(words)):
        p = frozenset(w for w, b in zip(words, bits) if b)
        if zero not in p or negunit in p or full not in p:
            continue
        if any(lo in p and hi not in p for lo, hi in edges):
            continue
        if any(w not in p and complement(w) not in p for w in words):
            continue
        found.add(p)
    return found


def unpruned_census(params):
    """Every weighted labeling in walk order with its LP verdict: the
    plain loop the pruned minima must agree with."""
    return [(m, is_representable(m)) for m in enumerate_wbm(params)]


def slice_size(m, d):
    """P-words of a labeling on the d-mark slice, or all of them."""
    return m.p_count if d is None else m.p_count_d(d)


def first_minimum(census, d, representable):
    """The first minimum in walk order over an unpruned census, over
    every labeling or only the representable ones."""
    found = None
    for m, res in census:
        if representable and not res.representable:
            continue
        size = slice_size(m, d)
        if found is None or size < found.value:
            found = ExtremalResult(size, m, res.witness if representable else None)
    return found


class TestBooleanMap:
    def test_rejects_foreign_words(self):
        p = LatticeParams(3, 1)
        alien = Word(LatticeParams(3, 2), 0)
        with pytest.raises(DomainError):
            BooleanMap(p, frozenset([alien]))

    def test_labels_and_counts(self):
        m = make_map(2, 1, ["0|0", "1|1", "1|0"])
        assert m.label(parse_word(m.params, "1|1")) == "P"
        assert m.label(parse_word(m.params, "0|1")) == "N"
        assert m.p_count == 3
        assert m.p_count_d(1) == 1
        assert m.p_count_d(2) == 1
        with pytest.raises(DomainError):
            m.p_count_d(3)

    def test_is_positive_rejects_foreign_word(self):
        m = make_map(2, 1, ["0|0"])
        with pytest.raises(DomainError):
            m.is_positive(Word(LatticeParams(2, 2), 0))

    def test_p_set_round_trips_through_the_mask(self):
        for n in range(1, 5):
            for r in range(0, n):
                p = LatticeParams(n, r)
                for m in enumerate_wbm(p):
                    again = BooleanMap(p, m.p_set)
                    assert again == m and hash(again) == hash(m)
                    assert m.p_count == len(m.p_set)
                    for d in range(1, n + 1):
                        assert m.p_count_d(d) == sum(
                            1 for w in m.p_set if w.nonzero_count == d
                        )

    def test_is_frozen(self):
        m = make_map(2, 1, ["0|0"])
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.mask = 0

    @pytest.mark.parametrize("call", [is_representable, check_axioms, map_to_json])
    def test_a_word_is_not_a_labeling(self, call):
        # a Word has a params and a mask too, so it once passed for a map
        w = parse_word(LatticeParams(4, 2), "21|01")
        with pytest.raises(DomainError, match="BooleanMap"):
            call(w)

    @pytest.mark.parametrize(
        "call",
        [
            lambda p: BooleanMap(p, []).is_positive(5),
            lambda p: BooleanMap(p, []).label("x"),
            lambda p: sigma(load_f85(), 3),
            lambda p: load_f85().value_of(3),
            lambda p: build(p, "bogus"),
            lambda p: children(Word(p, 0), "x"),
        ],
        ids=["is_positive", "label", "sigma", "value_of", "build", "children"],
    )
    def test_a_wrong_argument_type_is_a_domain_error(self, call):
        # DomainError is a LatticeError, the base of every error raised here
        with pytest.raises(DomainError):
            call(LatticeParams(3, 1))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: enumerate_wbm(5),
            lambda: gamma(5),
            lambda: gamma_d(5, 2),
            lambda: gamma_tilde(5),
            lambda: gamma_tilde_d(5, 2),
            lambda: wb_vs_rwb_report(5),
            lambda: BooleanMap(5, []),
        ],
        ids=["enumerate_wbm", "gamma", "gamma_d", "gamma_tilde", "gamma_tilde_d", "report", "map"],
    )
    def test_a_lattice_must_be_lattice_params(self, call):
        # an int has no n or r: unchecked, it raises AttributeError deep
        # in the walk, or BooleanMap makes a map on the int
        with pytest.raises(DomainError, match="LatticeParams"):
            call()


def oracle_violations(params, p_set):
    """The five conditions checked on words and Hasse edges directly."""
    words = all_words(params)
    violated = []
    if any(lo in p_set and hi not in p_set for lo, hi in build(params).edges):
        violated.append("monotone")
    if Word(params, 0) not in p_set:
        violated.append("zero_word")
    if Word(params, 1 << params.r) in p_set:
        violated.append("negative_unit")
    if any(w not in p_set and complement(w) not in p_set for w in words):
        violated.append("complement_pair")
    if Word(params, (1 << params.n) - 1) not in p_set:
        violated.append("full_word")
    return tuple(violated)


class TestCheckAxioms:
    def test_matches_the_word_oracle_on_every_subset(self):
        for n, r in [(2, 1), (3, 1), (3, 2)]:
            p = LatticeParams(n, r)
            words = all_words(p)
            for bits in itertools.product((False, True), repeat=len(words)):
                p_set = frozenset(w for w, b in zip(words, bits) if b)
                want = oracle_violations(p, p_set)
                chk = check_axioms(BooleanMap(p, p_set))
                assert chk.violated == want
                assert chk.is_bm == (not set(want) & {"monotone", "zero_word", "negative_unit"})
                assert chk.is_wbm == (want == ())
    def test_monotone_matches_the_closure_scan_on_every_mask(self):
        # the cover shifts decide "monotone" against the word-by-word scan
        # of up-closures, on every labeling of L(n, r), n <= 4
        for n in range(1, 5):
            for r in range(n):
                p = LatticeParams(n, r)
                _, up, _ = leq_table(p)
                for mask in range(1 << (1 << n)):
                    scan = any(up[m] & ~mask for m in range(1 << n) if mask >> m & 1)
                    chk = check_axioms(BooleanMap._from_mask(p, mask))
                    assert ("monotone" in chk.violated) == scan

    def test_cover_shifts_move_each_word_onto_its_covers(self):
        # against the word-level cover test, not the Hasse diagram the
        # shifts are built from, on every L(n, r), n <= 6
        for n in range(0, 7):
            for r in range(0, n + 1):
                p = LatticeParams(n, r)
                words = all_words(p)
                for w in words:
                    covers = sum(1 << v.mask for v in words if is_cover(w, v))
                    assert boolmaps._p_covers(p, 1 << w.mask) == covers

    def test_all_p_fails_negative_unit_only(self):
        p = LatticeParams(3, 1)
        m = BooleanMap(p, frozenset(all_words(p)))
        chk = check_axioms(m)
        assert not chk.is_bm
        assert not chk.is_wbm
        assert chk.violated == ("negative_unit",)

    def test_all_n_fails_three(self):
        p = LatticeParams(3, 1)
        chk = check_axioms(BooleanMap(p, frozenset()))
        assert chk.violated == ("zero_word", "complement_pair", "full_word")
        assert not chk.is_bm

    def test_non_monotone(self):
        m = make_map(2, 1, ["0|0", "0|1"])
        chk = check_axioms(m)
        assert "monotone" in chk.violated

    def test_the_unique_weighted_labeling_of_s21(self):
        m = make_map(2, 1, ["0|0", "1|1", "1|0"])
        chk = check_axioms(m)
        assert chk.is_bm and chk.is_wbm and chk.violated == ()

    def test_basic_but_not_weighted(self):
        # P-region {0|0, 1|0}: monotone with the right boundary words, and
        # each N word has a P complement, but the full word 1|1 stays N
        m = make_map(2, 1, ["0|0", "1|0"])
        chk = check_axioms(m)
        assert chk.is_bm
        assert not chk.is_wbm
        assert chk.violated == ("full_word",)

    def test_rejected_without_negative_marks(self):
        p = LatticeParams(2, 2)
        with pytest.raises(DomainError):
            check_axioms(BooleanMap(p, frozenset(all_words(p))))


class TestEnumerate:
    def test_matches_brute_force(self):
        for n in range(1, 4):
            for r in range(0, n):
                p = LatticeParams(n, r)
                got = [m.p_set for m in enumerate_wbm(p)]
                assert len(set(got)) == len(got)
                assert set(got) == brute_wbm_psets(p)

    def test_matches_brute_force_n4(self):
        for r in range(1, 4):
            p = LatticeParams(4, r)
            got = {m.p_set for m in enumerate_wbm(p)}
            assert got == brute_wbm_psets(p)

    def test_every_output_passes_the_checker(self):
        for n, r in [(3, 1), (3, 2), (4, 2)]:
            for m in enumerate_wbm(LatticeParams(n, r)):
                assert check_axioms(m).is_wbm

    def test_deterministic_order(self):
        p = LatticeParams(4, 2)
        a = [m.p_set for m in enumerate_wbm(p)]
        b = [m.p_set for m in enumerate_wbm(p)]
        assert a == b

    def test_empty_without_negative_marks(self):
        assert list(enumerate_wbm(LatticeParams(3, 3))) == []

    def test_empty_without_positive_marks(self):
        # the full word is the bottom there, forcing everything P,
        # which contradicts the negative unit word
        assert list(enumerate_wbm(LatticeParams(2, 0))) == []
        assert list(enumerate_wbm(LatticeParams(3, 0))) == []

    def test_n_guard(self):
        with pytest.raises(ResourceLimitError):
            list(enumerate_wbm(LatticeParams(6, 3)))
        assert sum(1 for _ in enumerate_wbm(LatticeParams(6, 3), n_guard=6)) > 0

    def test_cap_carries_partial_count(self):
        with pytest.raises(ResourceLimitError) as info:
            list(enumerate_wbm(LatticeParams(4, 2), cap=3))
        assert info.value.count == 3

    def test_guard_failure_is_eager(self):
        # the error fires at call time, not at first iteration
        with pytest.raises(ResourceLimitError):
            enumerate_wbm(LatticeParams(6, 1))

    def test_bad_limits_are_domain_errors(self):
        bad = [{"cap": c} for c in (-3, -1, 1.5, 2.0, True, "5", None)]
        bad += [{"n_guard": g} for g in (5.0, False, "5", None)]
        for limits in bad:
            # raised eagerly, at r = n too, where nothing is walked, and
            # before the guard refuses n = 8
            for p in (LatticeParams(3, 1), LatticeParams(3, 3), LatticeParams(8, 4)):
                with pytest.raises(DomainError, match="cap"):
                    enumerate_wbm(p, **limits)
            for p in (LatticeParams(3, 1), LatticeParams(8, 4)):
                with pytest.raises(DomainError, match="cap"):
                    gamma(p, **limits)
        assert list(enumerate_wbm(LatticeParams(3, 1), cap=1)) != []
        with pytest.raises(ResourceLimitError):
            list(enumerate_wbm(LatticeParams(3, 1), cap=0))

    def test_order_matches_the_scanning_walk(self):
        cases = [(n, r) for n in range(1, 7) for r in range(n)] + [(7, 1), (7, 2), (7, 6)]
        for n, r in cases:
            p = LatticeParams(n, r)
            got = [m.mask for m in enumerate_wbm(p, n_guard=7)]
            _, up, down = leq_table(p)
            assert got == scan_walk_masks(p, up, down, _tables(p)[2])

    def test_pruned_walks_are_pinned(self):
        # one sha256 over the masks the walk yields on the cases above:
        # unpruned, then under a fixed incumbent (never lowered) of the
        # least slice size + 1, the median and the largest, over all words
        # and on every d-mark slice
        digest = hashlib.sha256()
        cases = [(n, r) for n in range(1, 7) for r in range(n)] + [(7, 1), (7, 2), (7, 6)]
        for n, r in cases:
            p = LatticeParams(n, r)
            masks = [m.mask for m in enumerate_wbm(p, n_guard=7)]
            digest.update(repr((n, r, masks)).encode())
            for d in (None, *range(1, n + 1)):
                slice_mask = (1 << (1 << n)) - 1 if d is None else _d_slice(n, d)
                sizes = sorted((m & slice_mask).bit_count() for m in masks)
                for size in (sizes[0] + 1, sizes[len(sizes) // 2], sizes[-1]) if sizes else ():
                    incumbent = boolmaps._Incumbent(slice_mask, size)
                    pruned = enumerate_wbm(p, n_guard=7, _incumbent=incumbent)
                    digest.update(repr((d, size, [m.mask for m in pruned])).encode())
        want = "aba97a782eecf46bc418a86a3289ce1434293e419dedc74fa49e37cfa843f7a6"
        assert digest.hexdigest() == want

    def test_every_labeling_holds_the_walk_root(self):
        # the walk starts with P on the zero word, the full word, the
        # negative unit's complement and every word above its complement,
        # and tests no conflict below that root: so each of these words is
        # P in every weighted labeling.  Any decision order walks the same
        # labelings, so the oracle scans words in mask order
        cases = [(n, r) for n in range(1, 7) for r in range(n)] + [(7, 1), (7, 2), (7, 6)]
        for n, r in cases:
            p = LatticeParams(n, r)
            _, up, down = leq_table(p)
            full = (1 << n) - 1
            above = sum(1 << m for m in range(full + 1) if up[m ^ full] >> m & 1)
            root = up[0] | up[full] | up[(1 << r) ^ full] | above
            labelings = scan_walk_masks(p, up, down, range(full + 1))
            assert len(labelings) == len(list(enumerate_wbm(p, n_guard=7)))
            for pos in labelings:
                assert pos & root == root

    def test_tables_match_the_order_oracle(self):
        for n in range(0, 8):
            for r in range(1, n):
                p = LatticeParams(n, r)
                up, keep, decision, _ = _tables(p)
                words, want_up, want_down = leq_table(p)
                assert list(up) == want_up
                # top rank first, canonical order within a rank
                mask_of = {w.values: w.mask for w in words}
                levels, _ = tuple_levels_and_edges(p, False)
                assert list(decision) == [mask_of[v] for level in reversed(levels) for v in level]
                # turning decision[k] N leaves every position undecided
                # but those of its down-set and its complement's up-set
                full = (1 << n) - 1
                for k, i in enumerate(decision):
                    decided = want_down[i] | want_up[i ^ full]
                    undecided = [j for j, m in enumerate(decision) if not decided >> m & 1]
                    assert keep[decision[k]] == sum(1 << j for j in undecided)

    def test_tables_hold_the_walk_root(self):
        # the root of test_every_labeling_holds_the_walk_root, with its
        # undecided words as positions in the decision order
        for n in range(0, 8):
            for r in range(1, n):
                p = LatticeParams(n, r)
                _, _, decision, root = _tables(p)
                _, up, down = leq_table(p)
                full = (1 << n) - 1
                above = sum(1 << m for m in range(full + 1) if up[m ^ full] >> m & 1)
                pos = up[0] | up[full] | up[(1 << r) ^ full] | above
                decided = pos | down[1 << r]
                undecided = [k for k, m in enumerate(decision) if not decided >> m & 1]
                assert root == (pos, sum(1 << k for k in undecided))

    def test_the_search_keeps_one_lattice_of_tables(self):
        # the tables of L(12, r) are 2 * 4^12 bits, 4 MiB: keeping 16
        # lattices' retained 41 MiB, keeping the last one's about 6 MiB.
        # Dropping the last lattice's before building the next keeps the
        # peak within one lattice of that (1.5 MiB above it; 5.2 MiB when
        # the next was built first)
        tracemalloc.start()
        try:
            for r in range(1, 12):
                gamma_tilde(LatticeParams(12, r), n_guard=12)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 10 << 20
        assert peak - retained < 4 << 20

    def test_no_tables_where_nothing_is_walked(self):
        # at r = 0 the full word, P, is the bottom, so the negative unit
        # would be P; at r = n there is no negative mark
        for r in (0, 12):
            p = LatticeParams(12, r)
            misses = _tables.cache_info().misses
            assert list(enumerate_wbm(p, n_guard=12)) == []
            assert _tables.cache_info().misses == misses

    def test_complement_maps_down_sets_onto_up_sets(self):
        # the walk forces P on the up-set of i's complement when i turns N
        for n in range(0, 9):
            for r in range(0, n + 1):
                _, up, down = leq_table(LatticeParams(n, r))
                full = (1 << n) - 1
                for m in range(full + 1):
                    image = sum(1 << (b ^ full) for b in range(full + 1) if down[m] >> b & 1)
                    assert up[m ^ full] == image

    def test_walk_depth_does_not_grow_with_the_lattice(self):
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth += 1
            frame = frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            count = sum(1 for _ in enumerate_wbm(LatticeParams(6, 3), n_guard=6))
        finally:
            sys.setrecursionlimit(limit)
        assert count == 2250


def small_lattice_masks():
    """Every labeling of L(n, r), n <= 4, and every weighted one at n = 5
    and 6, as ``(params, masks)`` per lattice."""
    lattices = [
        (LatticeParams(n, r), range(1 << (1 << n))) for n in range(1, 5) for r in range(n + 1)
    ]
    for n in (5, 6):
        for r in range(1, n):
            p = LatticeParams(n, r)
            lattices.append((p, [m.mask for m in enumerate_wbm(p, n_guard=6)]))
    return lattices


def counting_lps(monkeypatch):
    """Count the LPs ``is_representable`` poses from here on."""
    from marklat import feasibility

    posed = [0]

    def counting(*args):
        posed[0] += 1
        return feasibility.feasible_point(*args)

    monkeypatch.setattr(boolmaps, "feasible_point", counting)
    return posed


class TestRepresentability:
    def test_weight_flag_separates_this_map(self):
        # {0|0, 1|0} is induced by x=0, y=-1 but by no valuation with a
        # nonnegative total
        m = make_map(2, 1, ["0|0", "1|0"])
        strict = is_representable(m, require_weight=True)
        assert not strict.representable
        assert strict.witness is None
        assert strict.status == "not-representable"
        loose = is_representable(m, require_weight=False)
        assert loose.representable
        f = loose.witness
        assert f.pos_values[0] >= 0 and f.neg_values[0] < 0
        assert induced_map(f).p_set == m.p_set

    def test_non_monotone_is_never_representable(self):
        m = make_map(2, 1, ["0|0", "0|1"])
        assert not is_representable(m).representable
        assert not is_representable(m, require_weight=False).representable

    def test_every_small_wbm_with_verified_witnesses(self):
        for n in range(2, 5):
            for r in range(1, n):
                p = LatticeParams(n, r)
                for m in enumerate_wbm(p):
                    res = is_representable(m)
                    if res.representable:
                        f = res.witness
                        assert f.is_weight
                        for w in all_words(p):
                            assert (sigma(f, w) >= 0) == m.is_positive(w)

    def test_pinned_verdict_counts(self):
        # (representable with the weight flag, without it) over every
        # labeling of L(n, r), n <= 3
        every = {
            (1, 0): (0, 1), (1, 1): (1, 1),
            (2, 0): (0, 1), (2, 1): (1, 2), (2, 2): (1, 1),
            (3, 0): (0, 1), (3, 1): (1, 4), (3, 2): (3, 4), (3, 3): (1, 1),
        }
        # (weighted labelings, representable ones)
        weighted = {
            (4, 2): (8, 8), (4, 3): (8, 8),
            (5, 2): (29, 29), (5, 3): (86, 56), (5, 4): (25, 25),
            (6, 2): (174, 174), (6, 3): (2250, 647), (6, 4): (1721, 572), (6, 5): (117, 117),
        }

        def weight_verdicts(maps):
            results = [is_representable(m) for m in maps]
            assert all(res.witness.is_weight for res in results if res.representable)
            return sum(res.representable for res in results)

        for (n, r), counts in every.items():
            maps = [BooleanMap._from_mask(LatticeParams(n, r), m) for m in range(1 << (1 << n))]
            loose = sum(is_representable(m, require_weight=False).representable for m in maps)
            assert (weight_verdicts(maps), loose) == counts
        for (n, r), counts in weighted.items():
            maps = list(enumerate_wbm(LatticeParams(n, r), n_guard=6))
            assert (len(maps), weight_verdicts(maps)) == counts

    def test_witnesses_are_byte_identical(self):
        # one sha256 over the verdict and the witness strings of every
        # weighted labeling of L(n, r), 2 <= n <= 6, in walk order: pinned
        # before the witness was built in integers over one denominator
        digest = hashlib.sha256()
        count = 0
        for n in range(2, 7):
            for r in range(0, n + 1):
                for m in enumerate_wbm(LatticeParams(n, r), n_guard=6):
                    res = is_representable(m)
                    f = res.witness
                    pos = ",".join(map(str, f.pos_values)) if f else ""
                    neg = ",".join(map(str, f.neg_values)) if f else ""
                    digest.update(f"{res.status}|{pos}|{neg}\n".encode())
                    count += 1
        assert count == 4426
        assert digest.hexdigest() == (
            "62998e0aaa003678c37363884f84a5eb112c7615da8dc2a39ee31eaef16c17ea"
        )

    def test_no_all_zero_row_is_posed(self, monkeypatch):
        # the zero word sums to 0 in every valuation: as a minimal P word
        # it would pose 0 <= 0, so the row scan skips it
        from marklat import boolmaps, feasibility

        systems = []

        def recording(rows, num_vars, farkas=None):
            systems.append(rows)
            return feasibility.feasible_point(rows, num_vars, farkas)

        monkeypatch.setattr(boolmaps, "feasible_point", recording)
        # with no stored refusal, every labeling poses its LP
        for r in range(5):
            for m in enumerate_wbm(LatticeParams(4, r)):
                boolmaps._nogoods.cache_clear()
                is_representable(m)
                boolmaps._nogoods.cache_clear()
                is_representable(m, require_weight=False)
        assert systems
        assert all(any(coeffs) for rows in systems for coeffs, _ in rows)

    def test_boundary_rows_match_the_word_scan(self, monkeypatch):
        # the rows handed to the LP, in order, against a scan over every
        # word: every labeling of L(n, r), n <= 4, and every weighted one
        # at n = 5, 6
        from marklat import boolmaps, feasibility

        systems = []

        def recording(rows, num_vars, farkas=None):
            systems.append(rows)
            return feasibility.feasible_point(rows, num_vars, farkas)

        monkeypatch.setattr(boolmaps, "feasible_point", recording)
        for p, masks in small_lattice_masks():
            _, up, down = leq_table(p)
            full = (1 << p.n) - 1
            for mask in masks:
                rows = boundary_rows(p, up, down, mask)
                for require_weight in (True, False):
                    systems.clear()
                    # with no stored refusal, every labeling poses its LP
                    boolmaps._nogoods.cache_clear()
                    is_representable(BooleanMap._from_mask(p, mask), require_weight)
                    posed = rows is not None and (mask >> full & 1 or not require_weight)
                    assert systems == ([rows] if posed else [])

    def test_verdicts_on_random_labelings_up_to_n8(self):
        # random masks (almost never up-sets), induced maps (always
        # representable) and induced maps with one word flipped, against
        # the word scan and the full-tableau LP
        rng = random.Random(SEED)
        for n in range(5, 9):
            for r in range(1, n):
                p = LatticeParams(n, r)
                _, up, down = leq_table(p)
                masks = [rng.getrandbits(1 << n) for _ in range(20)]
                for _ in range(20):
                    induced = induced_map(random_nr_function(p, rng, require_weight=True)).mask
                    masks += [induced, induced ^ 1 << rng.randrange(1 << n)]
                for mask in masks:
                    rows = boundary_rows(p, up, down, mask)
                    posed = rows is not None and mask >> ((1 << n) - 1) & 1
                    want = bool(posed) and full_tableau_point(rows, n)[0] is not None
                    assert is_representable(BooleanMap._from_mask(p, mask)).representable == want

    def test_f85_induced_map_round_trips(self):
        from marklat.weights import load_f85

        f = load_f85()
        m = induced_map(f)
        res = is_representable(m)
        assert res.representable
        assert induced_map(res.witness).p_set == m.p_set


class TestNogoods:
    def test_the_store_never_changes_an_answer(self, monkeypatch):
        # a warm store against one cleared before each call, then every
        # entry the warm store kept against its own rows
        from marklat.feasibility import refutes

        posed = counting_lps(monkeypatch)
        warm_lps = cold_lps = 0
        for p, masks in small_lattice_masks():
            maps = [BooleanMap._from_mask(p, mask) for mask in masks]
            boolmaps._nogoods.cache_clear()
            before = posed[0]
            warm = [is_representable(m, w) for m in maps for w in (True, False)]
            warm_lps += posed[0] - before
            store = list(boolmaps._nogoods(p))
            cold = []
            before = posed[0]
            for m in maps:
                for w in (True, False):
                    boolmaps._nogoods.cache_clear()
                    cold.append(is_representable(m, w))
            cold_lps += posed[0] - before
            assert [(a.status, a.witness) for a in warm] == [(b.status, b.witness) for b in cold]

            pos_half, neg_half = boolmaps._row_halves(p)
            low = (1 << p.r) - 1

            def row(m, side):
                neg_coeffs, bound = neg_half[m >> p.r][side]
                return pos_half[m & low][side] + neg_coeffs, bound

            for p_words, watch, rows, y in store:
                assert refutes(rows, y)
                assert p_words & ~watch == 0
                n_words = watch ^ p_words
                named = [(m, 0) for m in range(1 << p.n) if p_words >> m & 1]
                named += [(m, 1) for m in range(1 << p.n) if n_words >> m & 1]
                weighed = [rows[i] for i, v in enumerate(y) if v]
                assert weighed == [row(m, side) for m, side in named]
        # the warm store answered some refusals with no LP
        assert warm_lps < cold_lps

    @pytest.mark.parametrize(
        "search, value, digest, ceiling",
        [
            (
                lambda: gamma_d(LatticeParams(8, 5), 5, n_guard=8), 16,
                "7814747c2d0f317e23b11a138faedd51490a43e3f5adfbad3ef2a576ff7743c4", 178,
            ),
            (
                lambda: gamma_d(LatticeParams(8, 3), 5, n_guard=8), 20,
                "5db943d2ceee5f0a5f8d9fda12bb2eafc28c82c590eeadf8514ae2da95700835", 202,
            ),
            (
                lambda: psi(8, 3, n_guard=8), 16,
                "539dd09cd73a7d6c817aa58669aed1e10210b6ddcaa9747b952a5821a6190f97", 118,
            ),
            (
                lambda: psi(8, 5, n_guard=8), 16,
                "7814747c2d0f317e23b11a138faedd51490a43e3f5adfbad3ef2a576ff7743c4", 454,
            ),
        ],
        ids=["gamma_d(L(8,5),5)", "gamma_d(L(8,3),5)", "psi(8,3)", "psi(8,5)"],
    )
    def test_n8_frontier_values_are_pinned(self, monkeypatch, search, value, digest, ceiling):
        # sha256 over value, r, minimizer mask and witness, pinned before
        # refusals were kept; the store answers all but a few hundred of
        # the 9,085-59,772 refusals these searches met with an LP each
        boolmaps._nogoods.cache_clear()
        posed = counting_lps(monkeypatch)
        res = search()
        m, f = res.minimizer, res.witness
        pos = ",".join(map(str, f.pos_values))
        neg = ",".join(map(str, f.neg_values))
        line = f"{res.value}|{m.params.r}|{m.mask}|{pos}|{neg}"
        assert res.value == value
        assert hashlib.sha256(line.encode()).hexdigest() == digest
        assert posed[0] <= ceiling


class TestGamma:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_lower_bound_and_r1_value(self, n):
        for r in range(1, n):
            p = LatticeParams(n, r)
            g = gamma(p)
            gt = gamma_tilde(p)
            assert g.value >= (1 << (n - 1)) + 1
            assert gt.value <= g.value
            assert g.minimizer is not None
            assert g.minimizer.p_count == g.value
            assert induced_map(g.witness).p_set == g.minimizer.p_set
        assert gamma(LatticeParams(n, 1)).value == (1 << (n - 1)) + 1

    def test_boundary_r_values_rejected(self):
        for bad_r in (0, 3):
            with pytest.raises(DomainError):
                gamma(LatticeParams(3, bad_r))
            with pytest.raises(DomainError):
                gamma_tilde(LatticeParams(3, bad_r))

    def test_d_slice_variants_match_direct_minimum(self):
        # the pruned minima against a loop that runs the LP on every
        # labeling: the same value, the same first minimizer in walk
        # order (the one the CLI prints) and the same witness
        for n in (2, 3, 4, 5):
            for r in range(1, n):
                p = LatticeParams(n, r)
                census = unpruned_census(p)
                for d in (None, *range(1, n + 1)):
                    if d is None:
                        tilde, exact = gamma_tilde(p), gamma(p)
                    else:
                        tilde, exact = gamma_tilde_d(p, d), gamma_d(p, d)
                    assert tilde == first_minimum(census, d, False)
                    assert exact == first_minimum(census, d, True)
                    # the report, field by field, against a fold of the census
                    bad = tuple(m for m, res in census if not res.representable)
                    report = wb_vs_rwb_report(p, d)
                    assert report.wb_count == len(census)
                    assert report.rwb_count == len(census) - len(bad)
                    assert report.gamma_tilde == min(slice_size(m, d) for m, _ in census)
                    assert report.gamma == exact.value
                    assert report.minimizer == exact.minimizer
                    assert report.witness == exact.witness
                    assert report.non_representable == bad
                    quiet = wb_vs_rwb_report(p, d, collect_non_representable=False)
                    assert quiet.non_representable is None
                    assert dataclasses.replace(quiet, non_representable=bad) == report

    @pytest.mark.parametrize(
        "call",
        [
            lambda p: gamma(p),
            lambda p: gamma_tilde(p),
            lambda p: gamma_d(p, 12),
            lambda p: gamma_tilde_d(p, 12),
            lambda p: psi(24, 12),
            lambda p: wb_vs_rwb_report(p),
            lambda p: wb_vs_rwb_report(p, 12),
        ],
    )
    def test_the_guard_refuses_before_anything_of_size_2_to_the_n(self, call):
        # a 2^24-bit slice mask alone is 2 MB, and one table entry per word
        # more than that; a cached mask would hide the first
        guard = "out of desk scale: n=24 exceeds the enumeration guard 5"
        _d_slice.cache_clear()
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=guard):
                call(LatticeParams(24, 12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("d", [1, 5 * 10**5])
    def test_the_guard_refuses_psi_before_any_lattice(self, d):
        # the guard reads n alone: a lattice per r, built first, would
        # take seconds and over 100 MiB here, and so would C(n, n/2)
        guard = "out of desk scale: n=1000000 exceeds the enumeration guard 5"
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ResourceLimitError, match=guard):
                psi(10**6, d)
            took = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert took < 0.1
        assert peak < 1 << 20

    def test_cap_counts_the_labelings_the_pruned_walk_reaches(self):
        # L(4, 2) has 8 weighted labelings and its minimum is the first
        assert gamma(LatticeParams(4, 2), cap=1).value == 9
        with pytest.raises(ResourceLimitError):
            wb_vs_rwb_report(LatticeParams(4, 2), cap=1)
        # gamma_d(L(5, 3), 2) reaches 3 of the 86 labelings
        p = LatticeParams(5, 3)
        assert gamma_d(p, 2, cap=3).value == gamma_d(p, 2).value
        with pytest.raises(ResourceLimitError) as info:
            gamma_d(p, 2, cap=2)
        assert info.value.count == 2

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_frontier_values(self, n):
        for r in range(1, n):
            p = LatticeParams(n, r)
            g = gamma(p, n_guard=n)
            assert g.value == gamma_tilde(p, n_guard=n).value == (1 << (n - 1)) + 1
            assert induced_map(g.witness).mask == g.minimizer.mask

    def test_f85_is_optimal_on_its_slice(self):
        # the bundled valuation induces 16 P words with 5 marks on
        # L(8, 5), and no weighted representable labeling has fewer
        from marklat.weights import load_f85

        g = gamma_d(LatticeParams(8, 5), 5, n_guard=8)
        assert g.value == 16
        assert g.minimizer.p_count_d(5) == 16
        assert g.minimizer.mask == induced_map(load_f85()).mask
        assert induced_map(g.witness) == g.minimizer

    def test_the_floor_closes_the_walk(self, monkeypatch):
        # no weighted labeling of L(8, 4) holds fewer than 2^7 + 1 P
        # words: the first leaf reaches that, so the walk stops there
        # instead of popping every remaining state
        from marklat import boolmaps

        walks = []
        real = boolmaps.enumerate_wbm

        def recording(*args, **kwargs):
            walk = {"yielded": 0, "exhausted": False}
            walks.append(walk)

            def traced():
                for bmap in real(*args, **kwargs):
                    walk["yielded"] += 1
                    yield bmap
                walk["exhausted"] = True

            return traced()

        monkeypatch.setattr(boolmaps, "enumerate_wbm", recording)
        assert gamma_tilde(LatticeParams(8, 4), n_guard=8).value == 129
        assert walks == [{"yielded": 1, "exhausted": False}]

    def test_the_walk_yields_only_labelings_below_the_best(self, monkeypatch):
        # each minimum takes every labeling the walk yields that it does
        # not reject as the new best, with no comparison of its own: so a
        # yielded labeling must be strictly smaller on the slice than the
        # last one taken, and a walk that also yielded ties would fail
        from marklat import boolmaps

        yielded = []
        real = boolmaps.enumerate_wbm

        def recording(*args, **kwargs):
            for bmap in real(*args, **kwargs):
                yielded.append(bmap)
                yield bmap

        monkeypatch.setattr(boolmaps, "enumerate_wbm", recording)
        for n in (2, 3, 4, 5):
            for r in range(1, n):
                p = LatticeParams(n, r)
                for d in (None, *range(1, n + 1)):
                    for minimum, representable in (
                        (gamma_tilde if d is None else gamma_tilde_d, False),
                        (gamma if d is None else gamma_d, True),
                    ):
                        yielded.clear()
                        found = minimum(p) if d is None else minimum(p, d)
                        best = None
                        for m in yielded:
                            assert best is None or slice_size(m, d) < best
                            if not representable or is_representable(m).representable:
                                best = slice_size(m, d)
                        assert best == found.value
        # psi shares one incumbent across r, starting at C(n, d) + 1: no
        # later r yields a labeling that does not beat the earlier ones
        for n in (2, 3, 4, 5):
            for d in range(1, n + 1):
                yielded.clear()
                found = psi(n, d)
                best = comb(n, d) + 1
                for m in yielded:
                    assert m.p_count_d(d) < best
                    if is_representable(m).representable:
                        best = m.p_count_d(d)
                assert best == found.value

    def test_d_out_of_range(self):
        # d must be an int: 2.0 passed the range test and True counted as 1
        p = LatticeParams(4, 2)
        f = random_nr_function(p, random.Random(SEED))
        entry_points = [
            lambda d: enumerate_d_slice(p, d),
            induced_map(f).p_count_d,
            lambda d: phi_count(f, d),
            lambda d: gamma_d(p, d),
            lambda d: gamma_tilde_d(p, d),
            lambda d: wb_vs_rwb_report(p, d),
            lambda d: psi(4, d),
        ]
        for d in (2.0, True, "2", 0, 5):
            for call in entry_points:
                with pytest.raises(DomainError, match="int d"):
                    call(d)
        # before the guard, which refuses n = 8
        with pytest.raises(DomainError, match="int d"):
            gamma_d(LatticeParams(8, 4), 9)

    def test_gamma_equals_min_alpha_over_representable_maps(self):
        # the two routes to the extremal number agree
        for n, r in [(3, 1), (4, 2), (4, 3)]:
            p = LatticeParams(n, r)
            rep_sizes = [
                m.p_count for m in enumerate_wbm(p) if is_representable(m).representable
            ]
            assert gamma(p).value == min(rep_sizes)


class TestPsi:
    def test_small_values(self):
        assert psi(1, 1).value == 1
        assert psi(1, 1).minimizer is None
        # no r is walked at n = 1, so no guard refuses it
        assert psi(1, 1, n_guard=0) == ExtremalResult(1, None, None)
        assert psi(4, 2).value == 3
        assert psi(4, 2).minimizer.params == LatticeParams(4, 1)

    def test_matches_direct_minimum(self):
        from math import comb

        for n in (2, 3, 4, 5):
            census = [unpruned_census(LatticeParams(n, r)) for r in range(1, n)]
            for d in range(1, n + 1):
                direct = None
                for c in census:
                    found = first_minimum(c, d, True)
                    if direct is None or found.value < direct.value:
                        direct = found
                if comb(n, d) < direct.value:
                    direct = ExtremalResult(comb(n, d), None, None)
                assert psi(n, d) == direct

    def test_frontier_values(self):
        for n, value in ((6, 5), (7, 6)):
            res = psi(n, 2, n_guard=n)
            assert res.value == value
            assert res.minimizer.p_count_d(2) == value
            assert induced_map(res.witness).mask == res.minimizer.mask

    @pytest.mark.parametrize(
        "n, d, value",
        [
            (8, 2, 7), (9, 3, 28), (10, 5, 126), (12, 3, 55),
            (12, 4, 165), (12, 6, 462), (14, 7, 1716),
        ],
    )
    def test_stops_at_the_manickam_singhi_floor(self, n, d, value):
        # d divides n, so C(n-1, d-1) is a proven floor, reached at r = 1
        assert comb(n - 1, d - 1) == value
        res = psi(n, d, n_guard=n)
        assert res.value == value
        assert res.minimizer.params == LatticeParams(n, 1)
        assert induced_map(res.witness).mask == res.minimizer.mask

    def test_results_are_byte_identical(self):
        # one sha256 over value, winning r, minimizer mask and witness of
        # every psi(n, d) with n <= 7: pinned while each r still started
        # its own search
        digest = hashlib.sha256()
        count = 0
        for n in range(1, 8):
            for d in range(1, n + 1):
                res = psi(n, d, n_guard=n)
                m, f = res.minimizer, res.witness
                r = m.params.r if m else None
                mask = m.mask if m else None
                pos = ",".join(map(str, f.pos_values)) if f else ""
                neg = ",".join(map(str, f.neg_values)) if f else ""
                digest.update(f"{n}|{d}|{res.value}|{r}|{mask}|{pos}|{neg}\n".encode())
                count += 1
        assert count == 28
        assert digest.hexdigest() == (
            "0c026a62b4fe361353f9bedc9151508747d0c370bc12fa2507038d7ea3b408dc"
        )

    @pytest.mark.parametrize("n, d, r, value", [(8, 3, 3, 16), (9, 5, 2, 35)])
    def test_later_r_prune_against_the_best_so_far(self, n, d, r, value):
        # d does not divide n, so no floor ends the loop: each r after the
        # winner searches only below its value
        res = psi(n, d, n_guard=n)
        assert res == gamma_d(LatticeParams(n, r), d, n_guard=n)
        assert res.value == value
        assert res.minimizer.p_count_d(d) == value
        assert induced_map(res.witness).mask == res.minimizer.mask

    def test_the_floor_does_not_bound_gamma_tilde_d(self):
        # a weighted labeling that no valuation induces goes below C(5, 1)
        assert gamma_tilde_d(LatticeParams(6, 3), 2, n_guard=6).value == 3

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            psi(0, 1)
        with pytest.raises(DomainError):
            psi(3, 0)
        with pytest.raises(DomainError):
            psi(3, 4)
        # before the guard, which refuses n = 6
        with pytest.raises(DomainError, match="int d"):
            psi(6, 7)

    def test_bool_n_rejected(self):
        with pytest.raises(DomainError, match="int n"):
            psi(True, 1)

    def test_float_n_rejected(self):
        with pytest.raises(DomainError, match="int n"):
            psi(2.0, 1)

    def test_str_n_rejected(self):
        with pytest.raises(DomainError, match="int n"):
            psi("3", 1)

    @pytest.mark.parametrize("limits", [{"cap": "x"}, {"cap": -1}, {"n_guard": 2.5}])
    def test_bad_limits_rejected_before_the_loop_over_r(self, limits):
        # n = 1 enumerates no r, so the limits once went unchecked there;
        # n = 8 is past the guard, which refuses only valid limits
        for n in (1, 2, 8):
            with pytest.raises(DomainError, match="cap"):
                psi(n, 1, **limits)


class TestReport:
    def test_counts_and_consistency(self):
        p = LatticeParams(4, 2)
        rep = wb_vs_rwb_report(p)
        assert rep.wb_count == sum(1 for _ in enumerate_wbm(p))
        assert rep.rwb_count <= rep.wb_count
        assert rep.rwb_count == rep.wb_count - len(rep.non_representable)
        assert rep.gamma_tilde <= rep.gamma
        assert rep.gamma == gamma(p).value
        assert rep.gamma_tilde == gamma_tilde(p).value
        assert induced_map(rep.witness).p_set == rep.minimizer.p_set
        for bad in rep.non_representable:
            assert not is_representable(bad).representable

    def test_consistency_check_compares_the_two_minima(self, monkeypatch):
        # every one of the 8 weighted labelings of L(4, 2) is representable,
        # so minima that differ there are a fault, not a result
        p = LatticeParams(4, 2)
        rep = wb_vs_rwb_report(p)
        assert rep.wb_count == rep.rwb_count == 8

        def disagreeing(params, d, representable, cap, n_guard):
            return ExtremalResult(9 + representable, rep.minimizer, rep.witness)

        monkeypatch.setattr(boolmaps, "_minimum", disagreeing)
        with pytest.raises(RuntimeError, match="consistency violated"):
            wb_vs_rwb_report(p)

    def test_collect_flag(self):
        p = LatticeParams(3, 1)
        rep = wb_vs_rwb_report(p, collect_non_representable=False)
        # None, not (): an empty tuple would read as "all representable"
        assert rep.non_representable is None
        assert wb_vs_rwb_report(p).non_representable == ()

    def test_d_slice_report(self):
        p = LatticeParams(4, 1)
        rep = wb_vs_rwb_report(p, d=2)
        assert rep.d == 2
        assert rep.gamma == gamma_d(p, 2).value

    def test_json_shapes(self):
        p = LatticeParams(3, 2)
        rep = wb_vs_rwb_report(p)
        doc = report_to_json(rep)
        assert doc["n"] == 3 and doc["r"] == 2 and doc["d"] is None
        assert doc["wb_count"] == rep.wb_count
        assert "non_representable" in doc
        slim = report_to_json(wb_vs_rwb_report(p, collect_non_representable=False))
        assert "non_representable" not in slim
        assert slim == {k: v for k, v in doc.items() if k != "non_representable"}
        # p_set comes out in canonical enumeration order
        order = [str(w) for w in enumerate_words(p)]
        listed = doc["minimizer"]["p_set"]
        assert listed == [s for s in order if s in set(listed)]

    def test_map_to_json_ordering(self):
        p = LatticeParams(3, 1)
        m = next(iter(enumerate_wbm(p)))
        doc = map_to_json(m)
        order = [str(w) for w in enumerate_words(p)]
        assert doc["p_set"] == [s for s in order if parse_word(p, s) in m.p_set]

    def test_reports_are_byte_identical(self):
        # one sha256 over the JSON report in both collect modes and the
        # witness string, for every L(n, r) with 2 <= n <= 5 and every d:
        # pinned while the report still folded its own minima
        digest = hashlib.sha256()
        count = 0
        for n in range(2, 6):
            for r in range(1, n):
                p = LatticeParams(n, r)
                for d in (None, *range(1, n + 1)):
                    for collect in (True, False):
                        rep = wb_vs_rwb_report(p, d, collect_non_representable=collect)
                        digest.update(json.dumps(report_to_json(rep)).encode())
                    f = rep.witness
                    pos = ",".join(map(str, f.pos_values))
                    neg = ",".join(map(str, f.neg_values))
                    digest.update(f"|{pos}|{neg}\n".encode())
                    count += 1
        assert count == 50
        assert digest.hexdigest() == (
            "be1d903eaaeac82fb37d0d68b813151a07e02c3b8946975d952bb0d9da6e5bf8"
        )


class TestUniqueSmallLattices:
    def test_s21_has_exactly_one_weighted_labeling(self):
        maps = list(enumerate_wbm(LatticeParams(2, 1)))
        assert len(maps) == 1
        assert {str(w) for w in maps[0].p_set} == {"0|0", "1|1", "1|0"}

    def test_s31_has_exactly_one_weighted_labeling(self):
        maps = list(enumerate_wbm(LatticeParams(3, 1)))
        assert len(maps) == 1
        assert maps[0].p_count == 5
