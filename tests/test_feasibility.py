import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest

from marklat import feasibility
from marklat.feasibility import feasible_point, refutes, satisfies

from helpers import SEED, full_tableau_point


def integer_rows(rows):
    """The rows of a rational system, each scaled by the common
    multiple of its own denominators."""
    scaled = []
    for coeffs, bound in rows:
        entries = [F(v) for v in (*coeffs, bound)]
        scale = lcm(*(v.denominator for v in entries))
        ints = [int(v * scale) for v in entries]
        scaled.append((tuple(ints[:-1]), ints[-1]))
    return scaled


def check(rows, num_vars):
    point = feasible_point(rows, num_vars)
    if point is not None:
        values, divisor = point
        assert len(values) == num_vars
        assert all(type(v) is int for v in values)
        assert type(divisor) is int and divisor >= 1
        assert gcd(divisor, *values) == 1
        assert satisfies(rows, point)
    return point


class TestSmallSystems:
    def test_empty_system(self):
        assert feasible_point([], 2) == ([0, 0], 1)

    def test_pinned_value(self):
        point = check([((1,), 3), ((-1,), -3)], 1)
        assert point == ([3], 1)

    def test_simple_infeasible(self):
        assert feasible_point([((1,), 0), ((-1,), -1)], 1) is None

    def test_constant_row_infeasible(self):
        assert feasible_point([((0, 0), -1)], 2) is None

    def test_constant_row_tautology(self):
        assert check([((0,), 5)], 1) is not None

    def test_two_variables(self):
        # x + y <= 2, -x <= -1, -y <= -1 forces x = y = 1
        point = check([((1, 1), 2), ((-1, 0), -1), ((0, -1), -1)], 2)
        assert point == ([1, 1], 1)

    def test_strict_gap_needs_elimination(self):
        # x - y <= -1, y - z <= -1, z <= 5, -x <= 0: chain with room
        values, divisor = check(
            [((1, -1, 0), -1), ((0, 1, -1), -1), ((0, 0, 1), 5), ((-1, 0, 0), 0)],
            3,
        )
        assert F(values[0], divisor) < F(values[1], divisor) < F(values[2], divisor)

    def test_infeasible_chain(self, monkeypatch):
        # x <= y - 1 <= z - 2 and z <= x: impossible
        certificates = record_refutes(monkeypatch)
        rows = [((1, -1, 0), -1), ((0, 1, -1), -1), ((-1, 0, 1), 0)]
        assert feasible_point(rows, 3) is None
        # the stuck row adds up all three rows: 0 <= -2
        [(y, accepted)] = certificates
        assert accepted
        assert y[0] > 0 and y == [y[0]] * 3

    def test_fractional_data(self):
        [value], divisor = check(integer_rows([((F(1, 3),), F(1, 2)), ((-1,), F(-3, 2))]), 1)
        assert F(3, 2) <= F(value, divisor) <= F(3, 2)

    def test_unbounded_direction_still_yields_point(self):
        point = check([((-1, 0), 0)], 2)
        assert point is not None

    def test_solution_check_survives_optimization(self, monkeypatch):
        # the final check is an explicit raise, not an assert that
        # python -O would strip
        monkeypatch.setattr(feasibility, "satisfies", lambda rows, point: False)
        with pytest.raises(RuntimeError):
            feasible_point([((1,), 3)], 1)


    def test_odd_minors_need_the_divisor_to_start_at_one(self):
        # scaled row by row the rows are (1, 1) and (1, 2), whose 2x2
        # minor is 1: a first divisor of 2, their scale, divides inexactly
        half = F(1, 2)
        rows = [
            ((half, half), 1),
            ((-half, -half), -1),
            ((half, 1), F(3, 2)),
            ((-half, -1), F(-3, 2)),
        ]
        assert check(integer_rows(rows), 2) == ([1, 1], 1)

    def test_refutes_checks_farkas_multipliers(self):
        # x <= 0 and -x <= -1: adding the rows gives 0 <= -1
        rows = [((1,), 0), ((-1,), -1)]
        assert refutes(rows, (1, 1))
        assert refutes(rows, (F(1, 2), F(1, 2)))
        assert not refutes(rows, (1, 0))
        assert not refutes(rows, (0, 1))  # y b < 0 but y A < 0
        assert not refutes(rows, (0, 0))
        assert not refutes(rows, (1,))
        # y A = 0 and y b < 0, but a negative multiplier flips a row
        assert not refutes(rows + [((1,), 2)], (2, 1, -1))
        assert refutes(rows + [((1,), 2)], (1, 1, 0))

    def test_variables_are_nonnegative(self):
        # x <= -1 has free solutions but none with x >= 0, and y = 1
        # certifies that: y A = 1 >= 0 while y b = -1 < 0
        assert feasible_point([((1,), -1)], 1) is None
        assert refutes([((1,), -1)], (1,))
        assert not satisfies([], ([-1], 1))
        # a divisor <= 0 is no point: ([1], -1) would be x = -1
        assert satisfies([((-1,), 0)], ([1], 1))
        assert not satisfies([((-1,), 0)], ([1], -1))
        assert not satisfies([], ([0], 0))
        # a point of the wrong length meets no row
        assert not satisfies([((1, 1), 0)], ([0], 1))
        assert not satisfies([((1,), 0)], ([0, 0], 1))

    def test_refutation_check_survives_optimization(self, monkeypatch):
        # an infeasible answer is certified by an explicit raise, not an
        # assert that python -O would strip
        monkeypatch.setattr(feasibility, "refutes", lambda rows, y: False)
        with pytest.raises(RuntimeError):
            feasible_point([((1,), 0), ((-1,), -1)], 1)
        with pytest.raises(RuntimeError):
            feasible_point([((0,), -1)], 1)


class TestRowsAsGiven:
    def test_nonnegative_zero_rows_leave_the_point_unchanged(self):
        rng = random.Random(SEED + 5)
        for trial in range(200):
            num_vars = rng.randint(1, 4)
            rows = [
                (fraction_row(rng, num_vars), F(rng.randint(-3, 9), rng.randint(1, 4)))
                for _ in range(rng.randint(1, 6))
            ]
            expected = feasible_point(integer_rows(rows), num_vars)
            padded = list(rows)
            for _ in range(rng.randint(1, 3)):
                zero = ((0,) * num_vars, F(rng.randint(0, 5), rng.randint(1, 7)))
                padded.insert(rng.randint(0, len(padded)), zero)
            assert feasible_point(integer_rows(padded), num_vars) == expected

    def test_positive_row_multiples_leave_the_answer_unchanged(self):
        # a row's scale is the caller's choice: no sign the rule reads
        # depends on it
        for systems in (fraction_planted_systems, fraction_contradiction_systems):
            rng = random.Random(SEED + 8)
            for rows, num_vars in systems():
                multiples = []
                for coeffs, bound in rows:
                    k = rng.randint(1, 5)
                    multiples.append((tuple(k * c for c in coeffs), k * bound))
                assert feasible_point(multiples, num_vars) == feasible_point(rows, num_vars)

    def test_negative_zero_row_is_refuted_by_the_tableau(self, monkeypatch):
        certificates = record_refutes(monkeypatch)
        rows = integer_rows([((1, 0), 4), ((0, 0), F(-1, 3)), ((-1, -1), -1)])
        assert feasible_point(rows, 2) is None
        # the zero row is the stuck row, so its slack entries select
        # only itself
        [(y, accepted)] = certificates
        assert accepted
        assert y[0] == y[2] == 0 and y[1] > 0
        certificates.clear()
        assert feasible_point([((0,), -1)], 1) is None
        assert [accepted for _, accepted in certificates] == [True]

    @pytest.mark.parametrize("bad", [0.5, "1", None, F(1, 2), F(3), True])
    def test_rejects_non_exact_entries(self, bad):
        # rows are ints only, not bools; a float used to be converted
        # silently: x <= 1 with coefficient 0.5 came back as [0]
        with pytest.raises(TypeError):
            feasible_point([((bad,), 1)], 1)
        with pytest.raises(TypeError):
            feasible_point([((1,), bad)], 1)

    @pytest.mark.parametrize("bad", [True, 2.0])
    def test_rejects_a_non_int_variable_count(self, bad):
        # True once passed as 1 and returned the point ([0], 1)
        with pytest.raises(TypeError):
            feasible_point([], bad)
        with pytest.raises(TypeError):
            feasible_point([((1,), 1)], bad)

    def test_rejects_a_bad_shape(self):
        with pytest.raises(ValueError, match="nonnegative"):
            feasible_point([], -1)
        with pytest.raises(ValueError, match="expected 2"):
            feasible_point([((1,), 1)], 2)


def record_refutes(monkeypatch):
    """Replace `refutes` by a wrapper that records each ``(y, verdict)``."""
    certificates = []
    real_refutes = feasibility.refutes

    def recording(rows, y):
        certificates.append((list(y), real_refutes(rows, y)))
        return certificates[-1][1]

    monkeypatch.setattr(feasibility, "refutes", recording)
    return certificates


def fraction_row(rng, num_vars):
    return tuple(F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(num_vars))


def planted_systems():
    """Integer coefficients and rational bounds, all met by a planted
    nonnegative point, posed as integer rows."""
    rng = random.Random(SEED)
    for trial in range(200):
        num_vars = rng.randint(1, 5)
        planted = [F(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(num_vars)]
        rows = []
        for _ in range(rng.randint(1, 10)):
            coeffs = tuple(rng.randint(-3, 3) for _ in range(num_vars))
            slack = F(rng.randint(0, 5), rng.randint(1, 3))
            bound = sum(c * v for c, v in zip(coeffs, planted)) + slack
            rows.append((coeffs, bound))
        yield integer_rows(rows), num_vars


def contradiction_systems():
    """Integer rows holding ``c x <= b`` and ``-c x <= -b - gap``."""
    rng = random.Random(SEED + 1)
    for trial in range(100):
        num_vars = rng.randint(1, 4)
        coeffs = tuple(rng.randint(-3, 3) for _ in range(num_vars))
        if not any(coeffs):
            continue
        bound = F(rng.randint(-5, 5))
        gap = F(rng.randint(1, 4))
        rows = [(coeffs, bound), (tuple(-c for c in coeffs), -bound - gap)]
        extra = [
            (tuple(rng.randint(-2, 2) for _ in range(num_vars)), F(rng.randint(0, 9)))
            for _ in range(rng.randint(0, 4))
        ]
        yield integer_rows(rows + extra), num_vars


def fraction_planted_systems():
    """Fraction rows all met by a planted nonnegative point, posed as
    integer rows."""
    rng = random.Random(SEED + 3)
    for trial in range(200):
        num_vars = rng.randint(1, 5)
        planted = [F(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(num_vars)]
        rows = []
        for _ in range(rng.randint(1, 10)):
            coeffs = fraction_row(rng, num_vars)
            slack = F(rng.randint(0, 5), rng.randint(1, 4))
            bound = sum(c * v for c, v in zip(coeffs, planted)) + slack
            rows.append((coeffs, bound))
        yield integer_rows(rows), num_vars


def fraction_contradiction_systems():
    """Fraction rows holding ``c x <= b`` and ``-c x <= -b - gap``,
    posed as integer rows."""
    rng = random.Random(SEED + 4)
    for trial in range(100):
        num_vars = rng.randint(1, 4)
        coeffs = fraction_row(rng, num_vars)
        if not any(coeffs):
            continue
        bound = F(rng.randint(-5, 5), rng.randint(1, 4))
        gap = F(rng.randint(1, 4), rng.randint(1, 4))
        rows = [(coeffs, bound), (tuple(-c for c in coeffs), -bound - gap)]
        extra = [
            (fraction_row(rng, num_vars), F(rng.randint(0, 9), rng.randint(1, 4)))
            for _ in range(rng.randint(0, 4))
        ]
        yield integer_rows(rows + extra), num_vars


class TestRandomized:
    def test_planted_solutions_are_found(self):
        for rows, num_vars in planted_systems():
            assert check(rows, num_vars) is not None

    def test_planted_contradictions_are_rejected(self):
        for rows, num_vars in contradiction_systems():
            assert feasible_point(rows, num_vars) is None

    def test_planted_solutions_with_fraction_coefficients(self):
        for rows, num_vars in fraction_planted_systems():
            assert check(rows, num_vars) is not None

    def test_planted_contradictions_with_fraction_coefficients(self, monkeypatch):
        certificates = record_refutes(monkeypatch)
        infeasible = 0
        for rows, num_vars in fraction_contradiction_systems():
            assert feasible_point(rows, num_vars) is None
            infeasible += 1
        assert [accepted for _, accepted in certificates] == [True] * infeasible

    def test_deterministic(self):
        rng = random.Random(SEED + 2)
        rows = [
            (tuple(rng.randint(-3, 3) for _ in range(4)), rng.randint(-2, 8))
            for _ in range(12)
        ]
        first = feasible_point(rows, 4)
        second = feasible_point(list(rows), 4)
        assert first == second


def degenerate_system(rng, num_vars):
    """Rows with entries in {-1, 0, 1}, most bounds 0 and some rows
    repeated, all met by a planted point of 0s, 1s and 2s.  Many rows
    are tight at the planted point, so bases tie and pivots stall."""
    planted = [rng.choice((0, 0, 1, 2)) for _ in range(num_vars)]
    rows = []
    for _ in range(rng.randint(2, 12)):
        coeffs = [rng.choice((-1, 0, 0, 1)) for _ in range(num_vars)]
        value = sum(c * v for c, v in zip(coeffs, planted))
        if rng.random() < 0.2:
            rows.append((tuple(coeffs), value))  # tight, often below 0
        else:
            if value > 0:
                coeffs = [-c for c in coeffs]
            rows.append((tuple(coeffs), 0))
    rows += rng.sample(rows, rng.randint(0, len(rows)))
    rng.shuffle(rows)
    return rows


def degenerate_systems():
    rng = random.Random(SEED + 6)
    for trial in range(400):
        num_vars = rng.randint(1, 6)
        yield degenerate_system(rng, num_vars), num_vars


def degenerate_contradiction_systems():
    """Degenerate systems with ``c x <= 0`` and ``-c x <= -1`` (each
    possibly twice) inserted."""
    rng = random.Random(SEED + 7)
    for trial in range(400):
        num_vars = rng.randint(1, 6)
        rows = degenerate_system(rng, num_vars)
        coeffs = tuple(rng.choice((-1, 0, 1)) for _ in range(num_vars))
        contradiction = [(coeffs, 0), (tuple(-c for c in coeffs), -1)]
        contradiction += rng.sample(contradiction, rng.randint(0, 2))
        for row in contradiction:
            rows.insert(rng.randint(0, len(rows)), row)
        yield rows, num_vars


class TestDegenerate:
    def test_planted_solutions_are_found(self):
        for rows, num_vars in degenerate_systems():
            assert check(rows, num_vars) is not None

    def test_planted_contradictions_are_refuted(self, monkeypatch):
        certificates = record_refutes(monkeypatch)
        for rows, num_vars in degenerate_contradiction_systems():
            assert feasible_point(rows, num_vars) is None
        assert [accepted for _, accepted in certificates] == [True] * 400


@pytest.mark.parametrize(
    "systems",
    [
        planted_systems,
        contradiction_systems,
        fraction_planted_systems,
        fraction_contradiction_systems,
        degenerate_systems,
        degenerate_contradiction_systems,
    ],
)
def test_condensed_tableau_takes_the_full_tableaus_pivots(monkeypatch, systems):
    # the tableau stores only the nonbasic columns; the full one with a
    # column per slack must give the same point, or hand `refutes` the
    # same multipliers
    certificates = record_refutes(monkeypatch)
    for rows, num_vars in systems():
        certificates.clear()
        point = feasible_point(rows, num_vars)
        want_point, want_y = full_tableau_point(rows, num_vars)
        if point is None:
            assert want_point is None
        else:
            values, divisor = point
            assert [F(v, divisor) for v in values] == want_point
        assert [y for y, _ in certificates] == ([] if want_y is None else [want_y])
        # the same multipliers come back in an out-list on a refusal; a
        # point leaves the list as it was
        farkas = ["untouched"]
        assert feasible_point(rows, num_vars, farkas) == point
        if point is None:
            assert farkas == want_y and refutes(rows, farkas)
        else:
            assert farkas == ["untouched"]
