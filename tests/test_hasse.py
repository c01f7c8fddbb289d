import io
import json
import os
import tracemalloc

import pytest

from marklat import hasse
from marklat.core import (
    LatticeParams,
    _canonical_levels,
    enumerate_d_slice,
    enumerate_words,
    parse_word,
    rank,
)
from marklat.errors import DomainError
from marklat.hasse import (
    GenOrder,
    build,
    children,
    diagram_to_json,
    generating_indexes,
    split_parts,
    to_dot,
    write_dot,
    write_json,
)

from helpers import (
    all_words,
    bit_loop_child_masks,
    brute_cover_pairs,
    oracle_dot,
    oracle_json,
    ordered_child_vals,
    sorted_levels,
    tuple_levels_and_edges,
)


class TestGeneratingIndexes:
    def test_worked_example_s95(self):
        p = LatticeParams(9, 5)
        w = parse_word(p, "52000|0024")
        assert generating_indexes(w) == ((2, 3), (8, 9))

    def test_worked_examples_s63(self):
        p = LatticeParams(6, 3)
        assert generating_indexes(parse_word(p, "000|023")) == ((1,), (5,))
        assert generating_indexes(parse_word(p, "100|023")) == ((1,), (5,))
        assert generating_indexes(parse_word(p, "000|013")) == ((1,), (5, 6))

    def test_top_has_none(self):
        p = LatticeParams(6, 3)
        assert generating_indexes(parse_word(p, "321|000")) == ((), ())

    def test_bump_at_the_last_positive_position(self):
        p = LatticeParams(6, 3)
        assert generating_indexes(parse_word(p, "320|000")) == ((3,), ())
        assert generating_indexes(parse_word(p, "320|001")) == ((3,), (6,))

    def test_bottom_bumps_on_both_sides(self):
        p = LatticeParams(6, 3)
        assert generating_indexes(parse_word(p, "000|123")) == ((1,), (4,))


class TestChildren:
    def test_worked_example_both_orders(self):
        p = LatticeParams(9, 5)
        w = parse_word(p, "52000|0024")
        assert [str(c) for c in children(w)] == [
            "53000|0024",
            "52100|0024",
            "52000|0023",
            "52000|0014",
        ]
        assert [str(c) for c in children(w, GenOrder.LEFT_RIGHT)] == [
            "53000|0024",
            "52100|0024",
            "52000|0014",
            "52000|0023",
        ]

    def test_children_are_exactly_the_upper_covers(self):
        for n, r in [(5, 2), (6, 3), (6, 0), (6, 6)]:
            p = LatticeParams(n, r)
            covers = brute_cover_pairs(p)
            for w in all_words(p):
                got = set(children(w))
                want = {hi for lo, hi in covers if lo == w}
                assert got == want


class TestBuild:
    def test_matches_the_height_tuple_generator(self):
        for n in range(0, 10):
            for r in range(0, n + 1):
                p = LatticeParams(n, r)
                for order in GenOrder:
                    left_right = order is GenOrder.LEFT_RIGHT
                    levels, edges = tuple_levels_and_edges(p, left_right)
                    d = build(p, order)
                    assert [[w.values for w in level] for level in d.levels] == levels
                    assert [(lo.values, hi.values) for lo, hi in d.edges] == edges
                    for w in d.words():
                        got = [c.values for c in children(w, order)]
                        assert got == ordered_child_vals(p, w.values, left_right)
                    if order is GenOrder.OUT_IN:
                        listed = [w.values for w in enumerate_words(p)]
                        assert listed == [v for level in levels for v in level]
                        for k in range(1, n + 1):
                            want = [v for v in listed if sum(map(bool, v)) == k]
                            assert [w.values for w in enumerate_d_slice(p, k)] == want

    def test_levels_match_the_sort_oracle_beyond_the_generator(self):
        for n in range(10, 15):
            for r in range(0, n + 1):
                p = LatticeParams(n, r)
                for order in GenOrder:
                    want = sorted_levels(p, order is GenOrder.LEFT_RIGHT)
                    assert [list(level) for level in _canonical_levels(p, order)] == want

    def test_cover_masks_match_the_bit_loops_beyond_the_generator(self):
        for n in range(10, 14):
            for r in range(0, n + 1):
                p = LatticeParams(n, r)
                for order in GenOrder:
                    left_right = order is GenOrder.LEFT_RIGHT
                    want = [
                        (lo, hi)
                        for level in _canonical_levels(p, order)
                        for lo in level
                        for hi in bit_loop_child_masks(p, lo, left_right)
                    ]
                    assert list(build(p, order).cover_masks()) == want, (n, r, order)

    def test_word_listings_do_not_build_the_diagram(self):
        p = LatticeParams(9, 4)
        before = hasse._build_cached.cache_info()
        assert len(enumerate_words(p)) == 1 << 9
        assert len(enumerate_d_slice(p, 4)) == 126
        assert hasse._build_cached.cache_info() == before

    def test_s63_first_levels_exact_order(self):
        d = build(LatticeParams(6, 3))
        assert [str(w) for w in d.levels[0]] == ["000|123"]
        assert [str(w) for w in d.levels[1]] == ["100|123", "000|023"]
        assert [str(w) for w in d.levels[2]] == ["200|123", "100|023", "000|013"]
        assert [str(w) for w in d.levels[3]] == [
            "300|123",
            "210|123",
            "200|023",
            "100|013",
            "000|012",
            "000|003",
        ]

    def test_levels_partition_by_rank(self):
        for n in range(0, 8):
            for r in range(0, n + 1):
                p = LatticeParams(n, r)
                for order in GenOrder:
                    d = build(p, order)
                    assert sum(len(level) for level in d.levels) == 1 << n
                    for k, level in enumerate(d.levels):
                        assert all(rank(w) == k for w in level)
                    assert set(d.words()) == set(all_words(p))

    def test_edges_are_the_cover_relation(self):
        for n in range(0, 7):
            for r in range(0, n + 1):
                p = LatticeParams(n, r)
                d = build(p)
                assert d.edge_set == brute_cover_pairs(p)

    def test_both_orders_same_sets_possibly_different_sequences(self):
        p = LatticeParams(6, 3)
        a = build(p, GenOrder.OUT_IN)
        b = build(p, GenOrder.LEFT_RIGHT)
        assert a.edge_set == b.edge_set
        for la, lb in zip(a.levels, b.levels):
            assert set(la) == set(lb)
        assert any(la != lb for la, lb in zip(a.levels, b.levels))

    def test_deterministic_and_cached(self):
        p = LatticeParams(5, 2)
        d1 = build(p)
        d2 = build(p)
        assert d1 is d2
        assert d1.levels == build(LatticeParams(5, 2)).levels

    def test_degenerate_lattices(self):
        d = build(LatticeParams(0, 0))
        assert [len(l) for l in d.levels] == [1]
        assert d.edges == ()
        d = build(LatticeParams(1, 1))
        assert [len(l) for l in d.levels] == [1, 1]
        assert len(d.edges) == 1


class TestSplit:
    def test_parts_sizes_and_shift(self):
        for n in range(1, 8):
            for r in range(0, n + 1):
                p = LatticeParams(n, r)
                part = split_parts(p)
                assert len(part.lower) == 1 << (n - 1)
                assert len(part.upper) == 1 << (n - 1)
                assert part.lower | part.upper == set(all_words(p))
                assert not part.lower & part.upper
                expected_shift = n if r == n else n - r
                assert part.shift == expected_shift
                lower_ranks = sorted(rank(w) for w in part.lower)
                upper_ranks = sorted(rank(w) for w in part.upper)
                assert upper_ranks == [k + part.shift for k in lower_ranks]

    def test_split_respects_order_within_parts(self):
        from marklat.core import leq

        p = LatticeParams(5, 2)
        part = split_parts(p)
        # dropping the separating mark is an isomorphism onto L(n-1, r):
        # rank shifted by a constant on the upper part
        for side in (part.lower, part.upper):
            words = sorted(side, key=lambda w: w.mask)
            for a in words:
                for b in words:
                    if leq(a, b):
                        assert rank(a) <= rank(b)

    def test_empty_lattice_rejected(self):
        with pytest.raises(DomainError):
            split_parts(LatticeParams(0, 0))


class TestDot:
    def test_golden_s21(self):
        d = build(LatticeParams(2, 1))
        expected = (
            "digraph lattice {\n"
            "  rankdir=BT;\n"
            "  node [shape=box];\n"
            '  { rank=same; "0|1"; }\n'
            '  { rank=same; "1|1" -> "0|0" [style=invis]; }\n'
            '  { rank=same; "1|0"; }\n'
            '  "0|1" -> "1|1";\n'
            '  "0|1" -> "0|0";\n'
            '  "1|1" -> "1|0";\n'
            '  "0|0" -> "1|0";\n'
            "}\n"
        )
        assert to_dot(d) == expected

    def test_shape_general(self):
        p = LatticeParams(5, 3)
        d = build(p)
        text = to_dot(d)
        assert text.startswith("digraph lattice {")
        assert text.endswith("}\n")
        # each level is an invisible chain of size-1 arrows, the rest are covers
        invis_arrows = (1 << 5) - len(d.levels)
        assert text.count('" -> "') == len(d.edges) + invis_arrows
        for w in all_words(p):
            assert f'"{w}"' in text


class TestWriters:
    @staticmethod
    def written(writer, diagram):
        out = io.StringIO()
        writer(diagram, out)
        return out.getvalue()

    def test_match_the_whole_text_oracles(self):
        # every L(n, r) with n <= 11, L(0,0), L(1,0) and L(1,1) among them
        for n in range(12):
            for r in range(n + 1):
                for order in GenOrder:
                    d = build(LatticeParams(n, r), order)
                    assert self.written(write_dot, d) == oracle_dot(d), (n, r, order)
                    assert self.written(write_json, d) == oracle_json(d), (n, r, order)

    def test_both_writers_share_one_name_table(self):
        d = build(LatticeParams(7, 3), GenOrder.LEFT_RIGHT)
        self.written(write_dot, d)
        misses = hasse._quoted_names.cache_info().misses
        self.written(write_json, d)
        assert hasse._quoted_names.cache_info().misses == misses

    def test_exports_build_no_words(self):
        hasse._build_cached.cache_clear()
        d = build(LatticeParams(8, 3), GenOrder.LEFT_RIGHT)
        self.written(write_dot, d)
        self.written(write_json, d)
        assert "levels" not in d.__dict__
        assert "edges" not in d.__dict__
        assert len(d.edges) == sum(1 for _ in d.cover_masks())
        assert "levels" in d.__dict__

    def test_memory_stays_below_the_text(self):
        # neither writer holds its whole document: the traced peak of
        # both exports of L(13,6) stays below the length of the DOT text
        d = build(LatticeParams(13, 6))
        size = len(to_dot(d))
        with open(os.devnull, "w", encoding="utf-8") as fh:
            tracemalloc.start()
            try:
                write_dot(d, fh)
                write_json(d, fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < size, (peak, size)

    def test_writers_hold_one_word_at_a_time(self):
        # with the name table built, the traced peak of each export of
        # L(13,6) stays below the DOT cover lines of its largest rank
        # level: 37-44 KB against 66 KB, where holding a level's lines
        # at once peaks at 150-230 KB
        d = build(LatticeParams(13, 6))
        text = to_dot(d)
        level_of = {f'"{w}"': i for i, level in enumerate(d.levels) for w in level}
        per_level = [0] * len(d.levels)
        for line in text.splitlines(keepends=True):
            if " -> " in line and "rank=same" not in line:
                per_level[level_of[line.split(" -> ")[0].strip()]] += len(line)
        bound = max(per_level)
        with open(os.devnull, "w", encoding="utf-8") as fh:
            for writer in (write_dot, write_json):
                tracemalloc.start()
                try:
                    writer(d, fh)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < bound, (writer.__name__, peak, bound)


class TestJson:
    def test_document_shape(self):
        p = LatticeParams(4, 2)
        d = build(p)
        doc = diagram_to_json(d)
        assert doc["params"] == {"n": 4, "r": 2}
        assert doc["order"] == "outin"
        assert [len(l) for l in doc["levels"]] == [len(l) for l in d.levels]
        assert len(doc["edges"]) == len(d.edges)
        json.dumps(doc)

    def test_matches_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        from importlib import resources

        schema = json.loads(
            resources.files("marklat.schemas").joinpath("hasse_diagram.json").read_text()
        )
        doc = diagram_to_json(build(LatticeParams(4, 1), GenOrder.LEFT_RIGHT))
        jsonschema.validate(doc, schema)
        assert doc["order"] == "leftright"
