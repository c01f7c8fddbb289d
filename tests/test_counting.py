import io
import time

import pytest

from marklat.core import LatticeParams, rank
from marklat.counting import (
    BRUTE_FORCE_MAX_N,
    RankPolynomial,
    census_rows,
    check_symmetry,
    rank_polynomial,
    s_bruteforce,
    s_convolution,
    s_recursive,
    total_rank,
    write_census_csv,
)
from marklat.errors import DomainError, ResourceLimitError

from helpers import all_words, poly_mul, shallow_stack


BASE_TABLE = [
    (0, 0, 0, 1),
    (1, 0, 0, 1),
    (1, 0, 1, 1),
    (1, 1, 0, 1),
    (1, 1, 1, 1),
    (2, 0, 0, 1),
    (2, 0, 1, 1),
    (2, 0, 2, 1),
    (2, 0, 3, 1),
    (2, 1, 0, 1),
    (2, 1, 1, 2),
    (2, 1, 2, 1),
    (2, 2, 0, 1),
    (2, 2, 1, 1),
    (2, 2, 2, 1),
    (2, 2, 3, 1),
]


class TestRecursive:
    @pytest.mark.parametrize("n,r,k,want", BASE_TABLE)
    def test_base_table(self, n, r, k, want):
        assert s_recursive(n, r, k) == want

    def test_counts_words_by_rank(self):
        for n in range(0, 8):
            for r in range(0, n + 1):
                p = LatticeParams(n, r)
                census = {}
                for w in all_words(p):
                    census[rank(w)] = census.get(rank(w), 0) + 1
                for k in range(total_rank(n, r) + 1):
                    assert s_recursive(n, r, k) == census.get(k, 0)

    def test_total_is_two_to_n(self):
        for n in range(0, 11):
            for r in range(0, n + 1):
                assert sum(
                    s_recursive(n, r, k) for k in range(total_rank(n, r) + 1)
                ) == 1 << n

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            s_recursive(3, 4, 0)
        with pytest.raises(DomainError):
            s_recursive(3, 1, -1)
        with pytest.raises(DomainError):
            s_recursive(3, 1, total_rank(3, 1) + 1)

    @pytest.mark.parametrize("count", [s_recursive, s_convolution, s_bruteforce])
    @pytest.mark.parametrize("args", [(3, 1, 2.0), (3, 1, True), (3.0, 1, 2), (3, True, 2)])
    def test_non_int_arguments(self, count, args):
        with pytest.raises(DomainError):
            count(*args)

    @pytest.mark.parametrize("n, r", [(-1, 0), (True, False), (3, 5), (3, -1), (3.0, 1)])
    def test_total_rank_rejects_bad_parameters(self, n, r):
        with pytest.raises(DomainError):
            total_rank(n, r)


class TestAgreement:
    def test_three_ways_agree(self):
        for n in range(0, 9):
            for r in range(0, n + 1):
                for k in range(total_rank(n, r) + 1):
                    a = s_recursive(n, r, k)
                    b = s_convolution(n, r, k)
                    c = s_bruteforce(n, r, k)
                    assert a == b == c, (n, r, k)

    def test_conjugate_symmetry(self):
        for n in range(0, 10):
            for r in range(0, n + 1):
                for k in range(total_rank(n, r) + 1):
                    assert s_recursive(n, r, k) == s_recursive(n, n - r, k)

    def test_bruteforce_guard(self):
        with pytest.raises(ResourceLimitError):
            s_bruteforce(BRUTE_FORCE_MAX_N + 1, 1, 0)


class TestPolynomial:
    def test_coefficients_and_call(self):
        poly = rank_polynomial(6, 3)
        assert isinstance(poly, RankPolynomial)
        assert poly.coefficients == (1, 2, 3, 6, 7, 8, 10, 8, 7, 6, 3, 2, 1)
        assert poly(1) == 64
        assert poly(0) == 1
        assert poly(2) == sum(c * 2**k for k, c in enumerate(poly.coefficients))

    def test_palindromic(self):
        for n in range(0, 11):
            for r in range(0, n + 1):
                assert check_symmetry(n, r)
                coeffs = rank_polynomial(n, r).coefficients
                assert coeffs == coeffs[::-1]

    def test_product_factorization(self):
        # the lattice splits as a product of its one-sided parts, so the rank
        # polynomial factors accordingly
        for n, r in [(5, 2), (6, 3), (7, 4), (8, 3)]:
            left = list(rank_polynomial(r, r).coefficients)
            right = list(rank_polynomial(n - r, n - r).coefficients)
            assert list(rank_polynomial(n, r).coefficients) == poly_mul(left, right)


class TestCsv:
    def test_golden_small(self):
        buf = io.StringIO()
        write_census_csv(buf, 1)
        assert buf.getvalue() == (
            "n,r,k,s_recursive,s_convolution,s_bruteforce,agree\n"
            "0,0,0,1,1,1,true\n"
            "1,0,0,1,1,1,true\n"
            "1,0,1,1,1,1,true\n"
            "1,1,0,1,1,1,true\n"
            "1,1,1,1,1,1,true\n"
        )

    def test_rows_all_agree(self):
        import csv

        buf = io.StringIO()
        write_census_csv(buf, 6)
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert all(row["agree"] == "true" for row in rows)
        assert len(rows) == sum(
            total_rank(n, r) + 1 for n in range(0, 7) for r in range(0, n + 1)
        )

    def test_rows_match_the_checked_public_counts(self):
        for n_max in range(10):
            want = [
                {
                    "n": n,
                    "r": r,
                    "k": k,
                    "s_recursive": s_recursive(n, r, k),
                    "s_convolution": s_convolution(n, r, k),
                    "s_bruteforce": s_bruteforce(n, r, k),
                    "agree": True,
                }
                for n in range(n_max + 1)
                for r in range(n + 1)
                for k in range(total_rank(n, r) + 1)
            ]
            assert list(census_rows(n_max)) == want

    def test_bad_n_max(self):
        with pytest.raises(DomainError):
            write_census_csv(io.StringIO(), -1)

    @pytest.mark.parametrize("n_max", [True, 2.5, "3"])
    def test_non_int_n_max(self, n_max):
        with pytest.raises(DomainError):
            list(census_rows(n_max))


class TestLargeN:
    # q(10) = 10 partitions of 10 into distinct parts; at r = 3 the pos side
    # adds (1 + x)(1 + x^2)(1 + x^3), and x^10 of that times sum q(k) x^k is 43
    @pytest.mark.parametrize(
        "count",
        [s_recursive, s_convolution, lambda n, r, k: rank_polynomial(n, r).coefficients[k]],
        ids=["s_recursive", "s_convolution", "rank_polynomial"],
    )
    def test_counts_need_no_stack_depth(self, count):
        start = time.perf_counter()
        with shallow_stack():
            got = [count(150, 0, 10), count(150, 3, 10)]
        assert got == [10, 43]
        assert time.perf_counter() - start < 1

    def test_symmetry_needs_no_stack_depth(self):
        start = time.perf_counter()
        with shallow_stack():
            assert check_symmetry(150, 3)
            assert check_symmetry(151, 5)
        assert time.perf_counter() - start < 1
