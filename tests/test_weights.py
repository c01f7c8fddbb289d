import json
import random
from fractions import Fraction as F

import pytest

from marklat.core import LatticeParams, Symbol, ZERO, complement, parse_word
from marklat.errors import DomainError, ValidationError
from marklat.hasse import build
from marklat.weights import (
    NrFunction,
    alpha_count,
    induced_map,
    load_f85,
    load_nr_function,
    nr_function_from_json,
    nr_function_to_json,
    phi_count,
    random_nr_function,
    sigma,
)

from helpers import MALFORMED_JSON, SEED, all_words


def fn(n, r, pos, neg):
    return NrFunction(LatticeParams(n, r), tuple(map(F, pos)), tuple(map(F, neg)))


class TestValidation:
    def test_accepts_weight_chain(self):
        f = fn(5, 2, [1, 2], ["-1/2", -1, -1])
        assert f.total == F(1, 2)
        assert f.is_weight

    def test_accepts_non_weight(self):
        f = fn(3, 1, [1], [-2, -3])
        assert not f.is_weight
        assert f.total == -4

    def test_rejects_negative_positive_value(self):
        with pytest.raises(ValidationError, match=r"pos\(1\)"):
            fn(3, 1, [-1], [-1, -2])

    def test_rejects_nonnegative_bar_value(self):
        with pytest.raises(ValidationError, match=r"neg\(1\)"):
            fn(3, 1, [1], [0, -1])

    def test_rejects_unsorted_chain(self):
        with pytest.raises(ValidationError, match=r"pos\(2\)"):
            fn(4, 2, [2, 1], [-1, -1])
        with pytest.raises(ValidationError, match=r"neg\(2\)"):
            fn(4, 2, [1, 2], [-2, -1])

    def test_allows_ties(self):
        f = fn(4, 2, [1, 1], [-1, -1])
        assert f.value_of(Symbol.pos(1)) == f.value_of(Symbol.pos(2))

    def test_rejects_floats(self):
        with pytest.raises(ValidationError, match="float"):
            NrFunction(LatticeParams(2, 1), (0.5,), (F(-1),))
        # nor anything else Fraction cannot read
        with pytest.raises(ValidationError, match="not a rational"):
            NrFunction(LatticeParams(2, 1), ([1],), (F(-1),))

    def test_rejects_bools(self):
        with pytest.raises(ValidationError, match="bool"):
            NrFunction(LatticeParams(2, 1), (True,), (F(-1),))
        with pytest.raises(ValidationError, match="bool"):
            NrFunction(LatticeParams(2, 1), (F(1),), (False,))

    def test_fractions_equal_their_strings(self):
        # a Fraction is taken as it is; every other input is converted
        p = LatticeParams(5, 2)
        pos, neg = (F(0), F(7, 3)), (F(-1, 2), F(-1, 2), F(-9, 4))
        f = NrFunction(p, pos, neg)
        g = NrFunction(p, tuple(map(str, pos)), tuple(map(str, neg)))
        assert f == g
        assert all(a is b for a, b in zip(f.pos_values + f.neg_values, pos + neg))
        assert {type(v) for v in g.pos_values + g.neg_values} == {F}

    def test_rejects_wrong_lengths(self):
        with pytest.raises(ValidationError):
            fn(3, 1, [1, 2], [-1])
        with pytest.raises(ValidationError):
            fn(3, 1, [1], [-1])

    def test_value_of(self):
        f = fn(5, 2, [1, 3], [-1, -2, -4])
        assert f.value_of(Symbol.pos(2)) == 3
        assert f.value_of(Symbol.neg(3)) == -4
        assert f.value_of(ZERO) == 0
        with pytest.raises(DomainError):
            f.value_of(Symbol.pos(3))


class TestSigma:
    def test_word_sums(self):
        f = fn(6, 3, [1, 2, 4], ["-1/2", -1, -2])
        p = LatticeParams(6, 3)
        assert sigma(f, parse_word(p, "310|023")) == 4 + 1 - 1 - 2
        assert sigma(f, parse_word(p, "000|000")) == 0
        assert sigma(f, parse_word(p, "321|123")) == f.total

    def test_rejects_foreign_word(self):
        f = fn(3, 1, [1], [-1, -1])
        with pytest.raises(DomainError):
            sigma(f, parse_word(LatticeParams(3, 2), "10|0"))

    def test_monotone_along_order(self):
        rng = random.Random(SEED)
        for n, r in [(4, 2), (5, 1), (5, 4), (6, 3)]:
            p = LatticeParams(n, r)
            words = all_words(p)
            for _ in range(20):
                f = random_nr_function(p, rng)
                sig = {w: sigma(f, w) for w in words}
                for lo, hi in build(p).edges:
                    assert sig[lo] <= sig[hi]

    def test_draws_are_pinned_for_a_seed(self):
        rng = random.Random(SEED)
        p = LatticeParams(5, 2)
        assert nr_function_to_json(random_nr_function(p, rng)) == {
            "n": 5, "r": 2, "tilde": ["3/4", "5"], "bar": ["-2/3", "-5/3", "-2"],
        }
        assert nr_function_to_json(random_nr_function(p, rng, require_weight=True)) == {
            "n": 5, "r": 2, "tilde": ["1/2", "2"], "bar": ["-1/4", "-3/4", "-3/2"],
        }

    def test_complement_identity(self):
        rng = random.Random(SEED)
        for n, r in [(4, 2), (5, 3)]:
            p = LatticeParams(n, r)
            words = all_words(p)
            for _ in range(20):
                f = random_nr_function(p, rng)
                for w in words:
                    assert sigma(f, w) + sigma(f, complement(w)) == f.total


class TestCounts:
    def test_alpha_and_phi_match_direct_counts(self):
        rng = random.Random(SEED)
        # every width and both end bits: r = 0 and r = n included
        for n, r in [(n, r) for n in range(1, 9) for r in range(n + 1)]:
            p = LatticeParams(n, r)
            words = all_words(p)
            for _ in range(10):
                f = random_nr_function(p, rng)
                nonneg = [w for w in words if sigma(f, w) >= 0]
                # zero sums are P: the pool holds words that sum to 0
                assert induced_map(f).p_set == frozenset(nonneg)
                assert alpha_count(f) == len(nonneg)
                for d in range(1, n + 1):
                    assert phi_count(f, d) == sum(
                        1 for w in nonneg if w.nonzero_count == d
                    )

    def test_phi_rejects_bad_d(self):
        f = load_f85()
        with pytest.raises(DomainError):
            phi_count(f, 0)
        with pytest.raises(DomainError):
            phi_count(f, 9)


class TestInducedMap:
    def test_is_always_basic(self):
        from marklat.boolmaps import check_axioms

        rng = random.Random(SEED)
        for n in range(2, 6):
            for r in range(1, n):
                p = LatticeParams(n, r)
                for _ in range(10):
                    f = random_nr_function(p, rng)
                    chk = check_axioms(induced_map(f))
                    assert chk.is_bm
                    if f.is_weight:
                        assert chk.is_wbm

    def test_p_set_is_the_nonnegative_region(self):
        f = load_f85()
        m = induced_map(f)
        for w in all_words(f.params):
            assert m.is_positive(w) == (sigma(f, w) >= 0)


class TestFixture:
    def test_f85_contents(self):
        f = load_f85()
        assert f.params == LatticeParams(8, 5)
        assert f.pos_values == (F(1, 5),) * 5
        assert f.neg_values == (F(-1, 3),) * 3
        assert f.total == 0
        assert f.is_weight
        pos, neg = ", ".join(["1/5"] * 5), ", ".join(["-1/3"] * 3)
        assert str(f) == f"NrFunction(L(8, 5); pos=[{pos}], neg=[{neg}])"

    def test_f85_counts(self):
        f = load_f85()
        assert alpha_count(f) == 129
        assert phi_count(f, 5) == 16


class TestJsonAndFiles:
    def test_roundtrip(self):
        f = fn(5, 2, [1, "3/2"], [-1, -1, "-5/2"])
        doc = nr_function_to_json(f)
        assert doc == {
            "n": 5,
            "r": 2,
            "tilde": ["1", "3/2"],
            "bar": ["-1", "-1", "-5/2"],
        }
        assert nr_function_from_json(doc) == f

    def test_accepts_integer_entries_and_zero_key(self):
        doc = {"n": 3, "r": 1, "tilde": [2], "bar": ["-1", -2], "zero": 0}
        f = nr_function_from_json(doc)
        assert f.pos_values == (2,)

    def test_rejects_nonzero_zero_mark(self):
        doc = {"n": 3, "r": 1, "tilde": [2], "bar": [-1, -2], "zero": "1/2"}
        with pytest.raises(ValidationError):
            nr_function_from_json(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 3, "tilde": [1], "bar": [-1, -1]},
            {"n": "3", "r": 1, "tilde": [1], "bar": [-1, -1]},
            {"n": 3, "r": 1, "tilde": [1.5], "bar": [-1, -1]},
            {"n": 3, "r": 1, "tilde": [1], "bar": [-1]},
            # a string or an object would be read entry by entry
            {"n": 3, "r": 2, "tilde": "12", "bar": ["-1"]},
            {"n": 3, "r": 2, "tilde": {"1": 0, "2": 0}, "bar": ["-1"]},
            # JSON booleans are not integers, though Python reads them as 1 and 0
            {"n": 2, "r": 1, "tilde": [True], "bar": ["-1"]},
            {"n": 2, "r": 1, "tilde": ["1"], "bar": [False]},
            {"n": 2, "r": 1, "tilde": ["1"], "bar": ["-1"], "zero": False},
            # strings Fraction reads but the schema's pattern does not allow
            {"n": 2, "r": 1, "tilde": ["0.5"], "bar": ["-1"]},
            {"n": 2, "r": 1, "tilde": ["1e3"], "bar": ["-1"]},
            {"n": 2, "r": 1, "tilde": [" 3"], "bar": ["-1"]},
            {"n": 2, "r": 1, "tilde": ["+2"], "bar": ["-1"]},
            {"n": 2, "r": 1, "tilde": ["1_000"], "bar": ["-1"]},
            # not an object
            [1],
        ],
    )
    def test_rejects_malformed_documents(self, doc):
        with pytest.raises((ValidationError, DomainError)):
            nr_function_from_json(doc)

    def test_rejects_unknown_keys(self):
        doc = {"n": 2, "r": 1, "tilde": [1], "bar": [-1], "typo_zero": 5, "note": ""}
        with pytest.raises(ValidationError, match="unknown keys: typo_zero, note"):
            nr_function_from_json(doc)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "fn.json"
        path.write_text(
            json.dumps({"n": 4, "r": 2, "tilde": ["1/2", "1/2"], "bar": ["-1/3", "-2/3"]})
        )
        f = load_nr_function(path)
        assert f.total == F(1) - F(1)
        assert f.is_weight

    def test_missing_file(self, tmp_path):
        with pytest.raises(DomainError):
            load_nr_function(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        for name, data in MALFORMED_JSON.items():
            path = tmp_path / name
            path.write_bytes(data)
            with pytest.raises(ValidationError, match=name):
                load_nr_function(path)

    def test_matches_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        from importlib import resources

        schema = json.loads(
            resources.files("marklat.schemas").joinpath("nr_function.json").read_text()
        )
        jsonschema.validate(nr_function_to_json(load_f85()), schema)


class TestRandom:
    def test_deterministic_for_a_seed(self):
        p = LatticeParams(5, 2)
        a = random_nr_function(p, random.Random(SEED))
        b = random_nr_function(p, random.Random(SEED))
        assert a == b

    def test_validates_and_optionally_weights(self):
        rng = random.Random(SEED)
        for n, r in [(3, 1), (5, 2), (6, 5)]:
            p = LatticeParams(n, r)
            for _ in range(50):
                f = random_nr_function(p, rng, require_weight=True)
                assert f.is_weight

    def test_weight_impossible_without_positive_marks(self):
        with pytest.raises(DomainError):
            random_nr_function(LatticeParams(3, 0), random.Random(SEED), require_weight=True)
