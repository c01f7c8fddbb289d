import random

import pytest

from marklat.core import (
    DeltaVector,
    LatticeParams,
    Symbol,
    Word,
    ZERO,
    bool_intersect,
    bool_union,
    cartesian_merge,
    cartesian_split,
    complement,
    delta,
    enumerate_d_slice,
    enumerate_words,
    is_cover,
    iso_to_conjugate,
    join,
    leq,
    meet,
    nonzero_count,
    parse_word,
    rank,
    transpose,
    word_from_subset,
)
from marklat.errors import DomainError, ValidationError

from helpers import SEED, all_words, brute_cover_pairs, leq_table


class TestParams:
    def test_valid(self):
        p = LatticeParams(6, 3)
        assert p.num_pos == 3
        assert p.num_neg == 3
        assert p.total_rank == 12

    def test_total_rank_formula(self):
        assert LatticeParams(7, 4).total_rank == 10 + 6
        assert LatticeParams(5, 0).total_rank == 15
        assert LatticeParams(5, 5).total_rank == 15
        assert LatticeParams(0, 0).total_rank == 0

    @pytest.mark.parametrize("n,r", [(-1, 0), (3, -1), (3, 4)])
    def test_invalid(self, n, r):
        with pytest.raises(DomainError):
            LatticeParams(n, r)

    @pytest.mark.parametrize("n,r", [(True, 0), (3.0, 1), (3, 1.0), ("3", 1)])
    def test_rejects_non_int_parameters(self, n, r):
        # a bool is an int subclass but no lattice size: L(True, 0) is refused
        with pytest.raises(DomainError):
            LatticeParams(n, r)

    def test_nonzero_symbols(self):
        syms = LatticeParams(3, 1).nonzero_symbols()
        assert syms == (Symbol.pos(1), Symbol.neg(1), Symbol.neg(2))


class TestSymbol:
    def test_total_order(self):
        chain = [Symbol.neg(3), Symbol.neg(2), Symbol.neg(1), ZERO, Symbol.pos(1), Symbol.pos(2)]
        for a, b in zip(chain, chain[1:]):
            assert a < b

    def test_covers(self):
        assert Symbol.pos(2).covers(Symbol.pos(1))
        assert Symbol.pos(1).covers(ZERO)
        assert ZERO.covers(Symbol.neg(1))
        assert Symbol.neg(1).covers(Symbol.neg(2))
        assert not Symbol.pos(2).covers(ZERO)
        assert not ZERO.covers(Symbol.pos(1))

    def test_str(self):
        assert str(Symbol.pos(3)) == "pos(3)"
        assert str(Symbol.neg(1)) == "neg(1)"
        assert str(ZERO) == "zero"

    def test_bad_index(self):
        with pytest.raises(DomainError):
            Symbol.pos(0)
        with pytest.raises(DomainError):
            Symbol.neg(-2)

    def test_in_alphabet(self):
        p = LatticeParams(5, 2)
        assert Symbol.pos(2).in_alphabet(p)
        assert not Symbol.pos(3).in_alphabet(p)
        assert Symbol.neg(3).in_alphabet(p)
        assert not Symbol.neg(4).in_alphabet(p)
        assert ZERO.in_alphabet(p)


class TestWordBasics:
    def test_values_hand_example(self):
        p = LatticeParams(7, 4)
        w = parse_word(p, "4310|013")
        assert w.values == (4, 3, 1, 0, 0, -1, -3)
        assert w.members == frozenset(
            {Symbol.pos(1), Symbol.pos(3), Symbol.pos(4), Symbol.neg(1), Symbol.neg(3)}
        )

    def test_empty_word_has_no_members(self):
        p = LatticeParams(7, 4)
        assert parse_word(p, "0000|000").members == frozenset()

    def test_subset_bijection(self):
        for n in range(0, 9):
            for r in range(0, n + 1):
                p = LatticeParams(n, r)
                seen = {str(w) for w in all_words(p)}
                assert len(seen) == 1 << n

    def test_str_parse_roundtrip(self):
        for n in range(0, 8):
            for r in range(0, n + 1):
                p = LatticeParams(n, r)
                for w in all_words(p):
                    assert parse_word(p, str(w)) == w

    def test_wide_alphabet_uses_commas(self):
        p = LatticeParams(12, 11)
        w = word_from_subset(p, [Symbol.pos(11), Symbol.pos(2), Symbol.neg(1)])
        s = str(w)
        assert s == "11,2,0,0,0,0,0,0,0,0,0|1"
        assert parse_word(p, s) == w

    def test_str_spells_out_values(self):
        # the string is rendered per side from the mask; it must agree with
        # the position values, also across lattices that share side bits
        for n, r in [(3, 1), (3, 2), (11, 1), (11, 10), (12, 2), (10, 0), (10, 10)]:
            p = LatticeParams(n, r)
            lsep = "," if r >= 10 else ""
            rsep = "," if n - r >= 10 else ""
            for w in all_words(p):
                vals = w.values
                want = lsep.join(str(v) for v in vals[:r]) + "|" + rsep.join(str(-v) for v in vals[r:])
                assert str(w) == want

    def test_membership_to_string(self):
        p = LatticeParams(7, 5)
        w = word_from_subset(p, [Symbol.pos(1), Symbol.neg(1)])
        assert str(w) == "10000|01"

    def test_symbol_at(self):
        p = LatticeParams(6, 3)
        w = parse_word(p, "210|013")
        assert w.symbol_at(1) == Symbol.pos(2)
        assert w.symbol_at(3) == ZERO
        assert w.symbol_at(6) == Symbol.neg(3)
        with pytest.raises(DomainError):
            w.symbol_at(0)
        with pytest.raises(DomainError):
            w.symbol_at(7)

    def test_equality_is_per_lattice(self):
        a = Word(LatticeParams(3, 1), 1)
        b = Word(LatticeParams(3, 2), 1)
        assert a != b
        assert hash(a) != hash(b) or a != b

    @pytest.mark.parametrize("mask", [1.5, 1.0, True, "1"])
    def test_rejects_non_int_masks(self, mask):
        # 1.5 would build a word whose str() fails; True would equal mask 1
        with pytest.raises(DomainError):
            Word(LatticeParams(3, 1), mask)

    def test_word_from_subset_rejects_foreign_symbols(self):
        p = LatticeParams(4, 2)
        with pytest.raises(DomainError):
            word_from_subset(p, [Symbol.pos(3)])
        with pytest.raises(DomainError):
            word_from_subset(p, [ZERO])


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "21|0|1",  # two bars
            "210",  # no bar
            "21|x",  # bad character
            "2100|0",  # left side too long
            "21|000",  # right side too long
            "12|0",  # increasing left side
            "22|0",  # repeated nonzero left digit
            "21|010",  # decreasing right side digits... wrong length first
            "3|0",  # digit exceeds r
            "21|3",  # digit exceeds n-r
        ],
    )
    def test_rejects_s32(self, text):
        p = LatticeParams(3, 2)
        with pytest.raises(ValidationError):
            parse_word(p, text)

    def test_rejects_right_side_shapes(self):
        p = LatticeParams(6, 3)
        with pytest.raises(ValidationError):
            parse_word(p, "000|132")  # decrease on the right side
        with pytest.raises(ValidationError):
            parse_word(p, "000|022")  # repeated nonzero right digit
        with pytest.raises(ValidationError):
            parse_word(p, "000|103")  # zero after a nonzero digit

    def test_rejects_left_zero_then_digit(self):
        p = LatticeParams(6, 3)
        with pytest.raises(ValidationError):
            parse_word(p, "201|123")

    @pytest.mark.parametrize(
        "n, r, text",
        [
            (3, 2, "2,1|0"),  # commas on a side of 2 marks
            (11, 10, "0000000000|0"),  # no commas on a side of 10 marks
            (11, 1, "1|0000000000"),
            (11, 1, "1,|0,0,0,0,0,0,0,0,0,0"),
        ],
    )
    def test_rejects_non_canonical_separators(self, n, r, text):
        with pytest.raises(ValidationError, match="10 or more marks"):
            parse_word(LatticeParams(n, r), text)

    def test_canonical_strings_round_trip(self):
        for n, r in [(3, 2), (10, 9), (10, 10), (11, 10), (11, 1), (12, 2)]:
            p = LatticeParams(n, r)
            for mask in range(0, 1 << n, 7):
                s = str(Word(p, mask))
                assert str(parse_word(p, s)) == s

    def test_comma_format_errors(self):
        p = LatticeParams(12, 11)
        with pytest.raises(ValidationError):
            parse_word(p, "11,2,|1")
        with pytest.raises(ValidationError):
            parse_word(p, "11,12,0,0,0,0,0,0,0,0,0|1")


class TestOrder:
    def test_leq_matches_componentwise_definition(self):
        p = LatticeParams(5, 2)
        words, up, down = leq_table(p)
        for i, wi in enumerate(words):
            for k, wk in enumerate(words):
                assert leq(wi, wk) == bool(up[i] >> k & 1)

    def test_leq_rejects_mixed_lattices(self):
        with pytest.raises(DomainError):
            leq(Word(LatticeParams(3, 1), 0), Word(LatticeParams(3, 2), 0))

    def test_bottom_and_top(self):
        p = LatticeParams(6, 3)
        bottom = parse_word(p, "000|123")
        top = parse_word(p, "321|000")
        for w in all_words(p):
            assert leq(bottom, w)
            assert leq(w, top)

    def test_partial_order_axioms(self):
        p = LatticeParams(4, 2)
        words = all_words(p)
        for a in words:
            assert leq(a, a)
            for b in words:
                if leq(a, b) and leq(b, a):
                    assert a == b
        rng = random.Random(SEED)
        for _ in range(500):
            a, b, c = (rng.choice(words) for _ in range(3))
            if leq(a, b) and leq(b, c):
                assert leq(a, c)


class TestMeetJoin:
    def test_worked_pairs(self):
        p = LatticeParams(7, 4)
        w1 = parse_word(p, "4310|023")
        w2 = parse_word(p, "2100|012")
        assert str(meet(w1, w2)) == "2100|023"
        assert str(join(w1, w2)) == "4310|012"

    def test_against_brute_bounds(self):
        for n, r in [(4, 2), (5, 1), (5, 4)]:
            p = LatticeParams(n, r)
            words, up, down = leq_table(p)
            index = {w: i for i, w in enumerate(words)}
            for i, a in enumerate(words):
                for k, b in enumerate(words):
                    lower = down[i] & down[k]
                    upper = up[i] & up[k]
                    m = meet(a, b)
                    j = join(a, b)
                    # greatest lower bound: a common lower bound above all others
                    assert lower >> index[m] & 1
                    assert all(up[t] >> index[m] & 1 for t in range(len(words)) if lower >> t & 1)
                    assert upper >> index[j] & 1
                    assert all(down[t] >> index[j] & 1 for t in range(len(words)) if upper >> t & 1)

    def test_lattice_laws_random(self):
        rng = random.Random(SEED)
        for n, r in [(5, 2), (6, 3), (6, 1)]:
            p = LatticeParams(n, r)
            words = all_words(p)
            for _ in range(300):
                a, b, c = (rng.choice(words) for _ in range(3))
                assert meet(a, b) == meet(b, a)
                assert join(a, b) == join(b, a)
                assert meet(a, meet(b, c)) == meet(meet(a, b), c)
                assert join(a, join(b, c)) == join(join(a, b), c)
                assert meet(a, join(a, b)) == a
                assert join(a, meet(a, b)) == a
                assert meet(a, a) == a and join(a, a) == a

    def test_distributive_exhaustive_small(self):
        for n in range(0, 5):
            for r in range(0, n + 1):
                words = all_words(LatticeParams(n, r))
                for a in words:
                    for b in words:
                        for c in words:
                            assert meet(a, join(b, c)) == join(meet(a, b), meet(a, c))

    def test_distributive_random_medium(self):
        rng = random.Random(SEED)
        for n in (5, 6):
            for r in (1, n // 2, n - 1):
                words = all_words(LatticeParams(n, r))
                for _ in range(400):
                    a, b, c = (rng.choice(words) for _ in range(3))
                    assert meet(a, join(b, c)) == join(meet(a, b), meet(a, c))
                    assert join(a, meet(b, c)) == meet(join(a, b), join(a, c))

    def test_meet_join_give_canonical_words(self):
        rng = random.Random(SEED)
        p = LatticeParams(6, 2)
        words = all_words(p)
        for _ in range(200):
            a, b = rng.choice(words), rng.choice(words)
            for w in (meet(a, b), join(a, b)):
                assert parse_word(p, str(w)) == w


class TestBooleanOps:
    def test_worked_examples(self):
        p = LatticeParams(7, 4)
        w1 = parse_word(p, "4310|001")
        w2 = parse_word(p, "2000|012")
        assert str(bool_union(w1, w2)) == "4321|012"
        assert str(bool_intersect(w1, w2)) == "0000|001"
        assert str(complement(w1)) == "2000|023"
        assert str(complement(w2)) == "4310|003"

    def test_boolean_algebra_on_members(self):
        rng = random.Random(SEED)
        p = LatticeParams(6, 4)
        words = all_words(p)
        for _ in range(300):
            a, b = rng.choice(words), rng.choice(words)
            assert bool_union(a, b).members == a.members | b.members
            assert bool_intersect(a, b).members == a.members & b.members

    def test_complement_involution_and_order_reversal(self):
        for n, r in [(5, 2), (6, 3)]:
            p = LatticeParams(n, r)
            words = all_words(p)
            full = frozenset(p.nonzero_symbols())
            for w in words:
                assert complement(complement(w)) == w
                assert complement(w).members == full - w.members
            rng = random.Random(SEED)
            for _ in range(300):
                a, b = rng.choice(words), rng.choice(words)
                assert leq(a, b) == leq(complement(b), complement(a))
                assert complement(meet(a, b)) == join(complement(a), complement(b))
                assert complement(join(a, b)) == meet(complement(a), complement(b))

    def test_complement_is_not_a_lattice_complement(self):
        # the order is distributive but not complemented: this word has no
        # partner meeting at bottom and joining at top
        p = LatticeParams(8, 5)
        w = parse_word(p, "54210|012")
        bottom = parse_word(p, "00000|123")
        top = parse_word(p, "54321|000")
        assert not any(
            meet(w, v) == bottom and join(w, v) == top for v in all_words(p)
        )


class TestDeltaAndCovers:
    def test_delta_vector(self):
        p = LatticeParams(6, 3)
        a = parse_word(p, "210|013")
        b = parse_word(p, "310|012")
        dv = delta(b, a)
        assert isinstance(dv, DeltaVector)
        assert dv.entries == (
            (Symbol.pos(3), Symbol.pos(2)),
            None,
            None,
            None,
            None,
            (Symbol.neg(2), Symbol.neg(3)),
        )
        assert dv.support == (1, 6)
        assert delta(a, a).support == ()

    def test_cover_criterion_matches_brute(self):
        for n in range(0, 7):
            for r in range(0, n + 1):
                p = LatticeParams(n, r)
                words = all_words(p)
                brute = brute_cover_pairs(p)
                for a in words:
                    for b in words:
                        assert is_cover(a, b) == ((a, b) in brute)

    def test_rank_and_complement_identity(self):
        for n in range(0, 9):
            for r in range(0, n + 1):
                p = LatticeParams(n, r)
                total = p.total_rank
                for w in all_words(p):
                    assert rank(w) + rank(complement(w)) == total

    def test_nonzero_count(self):
        p = LatticeParams(7, 4)
        w = parse_word(p, "4310|013")
        assert nonzero_count(w) == 5
        assert w.nonzero_count == 5


class TestTransposeAndConjugate:
    def test_transpose_examples(self):
        p31 = LatticeParams(3, 1)
        assert str(transpose(parse_word(p31, "0|01"))) == "10|0"
        assert str(transpose(parse_word(p31, "1|02"))) == "20|1"

    def test_conjugate_examples(self):
        p31 = LatticeParams(3, 1)
        assert str(iso_to_conjugate(parse_word(p31, "0|01"))) == "20|1"
        assert str(iso_to_conjugate(parse_word(p31, "1|02"))) == "10|0"

    def test_transpose_is_an_order_reversing_involution(self):
        for n, r in [(4, 1), (5, 2), (6, 3), (6, 0)]:
            p = LatticeParams(n, r)
            words = all_words(p)
            images = {transpose(w) for w in words}
            assert len(images) == len(words)
            assert all(w.params == LatticeParams(n, n - r) for w in images)
            for w in words:
                assert transpose(transpose(w)) == w
            rng = random.Random(SEED)
            for _ in range(200):
                a, b = rng.choice(words), rng.choice(words)
                assert leq(a, b) == leq(transpose(b), transpose(a))

    def test_conjugate_is_an_order_isomorphism(self):
        for n in range(1, 7):
            for r in range(0, n + 1):
                p = LatticeParams(n, r)
                words = all_words(p)
                images = {iso_to_conjugate(w) for w in words}
                assert len(images) == 1 << n
                rng = random.Random(SEED)
                pairs = (
                    [(a, b) for a in words for b in words]
                    if n <= 4
                    else [(rng.choice(words), rng.choice(words)) for _ in range(400)]
                )
                for a, b in pairs:
                    assert leq(a, b) == leq(iso_to_conjugate(a), iso_to_conjugate(b))


class TestCartesian:
    def test_split_types(self):
        p = LatticeParams(6, 2)
        left, right = cartesian_split(parse_word(p, "20|0013"))
        assert left.params == LatticeParams(2, 2)
        assert right.params == LatticeParams(4, 0)
        assert str(left) == "20|"
        assert str(right) == "|0013"

    def test_roundtrip_and_order(self):
        for n, r in [(4, 2), (5, 2), (6, 3), (5, 0), (5, 5)]:
            p = LatticeParams(n, r)
            words = all_words(p)
            for w in words:
                assert cartesian_merge(*cartesian_split(w)) == w
            rng = random.Random(SEED)
            for _ in range(300):
                a, b = rng.choice(words), rng.choice(words)
                la, ra = cartesian_split(a)
                lb, rb = cartesian_split(b)
                assert leq(a, b) == (leq(la, lb) and leq(ra, rb))

    def test_merge_validates_factor_shapes(self):
        p = LatticeParams(6, 2)
        left, right = cartesian_split(parse_word(p, "20|0013"))
        with pytest.raises(DomainError):
            cartesian_merge(right, left)


class TestEnumeration:
    def test_matches_mask_universe(self):
        for n in range(0, 7):
            for r in range(0, n + 1):
                p = LatticeParams(n, r)
                assert set(enumerate_words(p)) == set(all_words(p))

    def test_ascending_rank_order(self):
        p = LatticeParams(6, 3)
        ranks = [rank(w) for w in enumerate_words(p)]
        assert ranks == sorted(ranks)

    def test_d_slice(self):
        p = LatticeParams(5, 2)
        for d in range(1, 6):
            got = list(enumerate_d_slice(p, d))
            assert got == [w for w in enumerate_words(p) if w.nonzero_count == d]
        # each call hands out its own list
        enumerate_d_slice(p, 2).clear()
        assert len(enumerate_d_slice(p, 2)) == 10
        with pytest.raises(DomainError):
            list(enumerate_d_slice(p, 0))
        with pytest.raises(DomainError):
            list(enumerate_d_slice(p, 6))

    def test_d_slice_sizes_are_binomial(self):
        from math import comb

        p = LatticeParams(6, 2)
        for d in range(1, 7):
            assert len(list(enumerate_d_slice(p, d))) == comb(6, d)
