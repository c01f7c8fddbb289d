import dataclasses
import itertools
import random
import sys

import pytest

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
from marklat.core import LatticeParams, Word, complement, enumerate_words, parse_word
from marklat.errors import DomainError, ResourceLimitError
from marklat.hasse import build
from marklat.weights import induced_map, random_nr_function, sigma

from helpers import (
    SEED,
    all_words,
    boundary_rows,
    full_tableau_point,
    leq_table,
    scan_walk_masks,
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


def first_minimum(census, d, representable):
    """The first minimum in walk order over an unpruned census, over
    every labeling or only the representable ones."""
    found = None
    for m, res in census:
        if representable and not res.representable:
            continue
        size = m.p_count if d is None else m.p_count_d(d)
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

    def test_order_matches_the_scanning_walk(self):
        cases = [(n, r) for n in range(1, 6) for r in range(n)] + [(6, 3)]
        for n, r in cases:
            p = LatticeParams(n, r)
            got = [m.mask for m in enumerate_wbm(p, n_guard=6)]
            assert got == scan_walk_masks(p, *_tables(p))

    def test_complement_maps_down_sets_onto_up_sets(self):
        # the walk forces P on the up-set of i's complement when i turns N
        for n in range(0, 9):
            for r in range(0, n + 1):
                up, down, _ = _tables(LatticeParams(n, r))
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

    def test_no_all_zero_row_is_posed(self, monkeypatch):
        # the zero word sums to 0 in every valuation: as a minimal P word
        # it would pose 0 <= 0, so the row scan skips it
        from marklat import boolmaps, feasibility

        systems = []

        def recording(rows, num_vars):
            systems.append(rows)
            return feasibility.feasible_point(rows, num_vars)

        monkeypatch.setattr(boolmaps, "feasible_point", recording)
        for r in range(5):
            for m in enumerate_wbm(LatticeParams(4, r)):
                is_representable(m)
                is_representable(m, require_weight=False)
        assert systems
        assert all(any(coeffs) for rows in systems for coeffs, _ in rows)

    def test_boundary_rows_match_the_word_scan(self, monkeypatch):
        # the rows handed to the LP, in order, against a scan over every
        # word: every labeling of L(n, r), n <= 4, and every weighted one
        # at n = 5, 6
        from marklat import boolmaps, feasibility

        systems = []

        def recording(rows, num_vars):
            systems.append(rows)
            return feasibility.feasible_point(rows, num_vars)

        monkeypatch.setattr(boolmaps, "feasible_point", recording)
        lattices = [
            (LatticeParams(n, r), range(1 << (1 << n))) for n in range(1, 5) for r in range(n + 1)
        ]
        for n in (5, 6):
            for r in range(1, n):
                p = LatticeParams(n, r)
                lattices.append((p, [m.mask for m in enumerate_wbm(p, n_guard=6)]))
        for p, masks in lattices:
            _, up, down = leq_table(p)
            full = (1 << p.n) - 1
            for mask in masks:
                rows = boundary_rows(p, up, down, mask)
                for require_weight in (True, False):
                    systems.clear()
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
                    assert wb_vs_rwb_report(p, d).minimizer == exact.minimizer

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

    def test_d_out_of_range(self):
        with pytest.raises(DomainError):
            gamma_d(LatticeParams(3, 1), 0)
        with pytest.raises(DomainError):
            gamma_tilde_d(LatticeParams(3, 1), 4)

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

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            psi(0, 1)
        with pytest.raises(DomainError):
            psi(3, 0)
        with pytest.raises(DomainError):
            psi(3, 4)


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


class TestUniqueSmallLattices:
    def test_s21_has_exactly_one_weighted_labeling(self):
        maps = list(enumerate_wbm(LatticeParams(2, 1)))
        assert len(maps) == 1
        assert {str(w) for w in maps[0].p_set} == {"0|0", "1|1", "1|0"}

    def test_s31_has_exactly_one_weighted_labeling(self):
        maps = list(enumerate_wbm(LatticeParams(3, 1)))
        assert len(maps) == 1
        assert maps[0].p_count == 5
