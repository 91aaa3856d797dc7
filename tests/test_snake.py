import os
import subprocess
import sys
from collections import Counter, deque
from dataclasses import fields
from fractions import Fraction
from itertools import product
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from twobridge.cfrac import (EvenCF, PositiveCF, even_cf, numerator_rec,
                             positive_cf, type_sequence)
from twobridge.errors import BudgetExceeded, CrossCheckMismatch
from twobridge.laurent import specialize_y
from twobridge.jones import specialized_f_even, specialized_f_positive
from twobridge.snake import (RIGHT, UP, SnakeGraph, _flip_data, _heights,
                             check_budget, check_canvas, count_matchings,
                             enumerate_matchings, f_polynomial, height_subsets,
                             isomorphic, render_ascii, snake_from_even,
                             snake_from_positive)
from twobridge.verify import even_lists, positive_lists

from reference import lift

SRC = Path(__file__).resolve().parent.parent / "src"


def steps_of(signs):
    """Step word of a sign word, counted afresh: step k is UP exactly when an
    odd number of the neighbouring pairs in signs[0..k] are equal."""
    return tuple(UP if sum(signs[i] == signs[i + 1] for i in range(k)) % 2
                 else RIGHT for k in range(len(signs)))


def flip_search(g):
    """Reference enumeration: breadth-first flip search from the minimal
    matching, as a set of (edge mask, height mask) pairs.

    A flip applies at a tile whose two horizontal or two vertical edges are
    both matched; it swaps them for the opposite pair and toggles the tile
    in the height set.  Reaching one matching with two heights raises.
    """
    _, pairs, start = _flip_data(g)
    moves = [(ns, ew, ns ^ ew, 1 << tile)
             for tile, (ns, ew) in enumerate(pairs)]
    heights = {start: 0}
    queue = deque([start])
    while queue:
        m = queue.popleft()
        h = heights[m]
        for ns, ew, flip, bit in moves:
            if m & ns == ns or m & ew == ew:
                m2 = m ^ flip
                h2 = h ^ bit
                if m2 not in heights:
                    heights[m2] = h2
                    queue.append(m2)
                elif heights[m2] != h2:
                    raise CrossCheckMismatch(
                        "height function is path dependent",
                        engines=("flip search",), value=g.steps)
    return set(heights.items())


def isomorphic_by_steps(g, h):
    """Reference: the step-word test, the step words equal up to reversal
    and the swap of RIGHT and UP."""
    if g.d != h.d:
        return False
    if g.d <= 1:
        return True
    w = g.steps
    swapped = tuple(UP if s == RIGHT else RIGHT for s in w)
    return h.steps in (w, w[::-1], swapped, swapped[::-1])


def count_by_steps(g):
    """Reference: the transfer along the step word, where a tile between
    two equal steps is straight."""
    if g.d == 0:
        return 1
    if g.d == 1:
        return 2
    steps = g.steps
    free, covered = 1, 1
    for k in range(len(steps) - 1):
        if steps[k] == steps[k + 1]:
            free, covered = free + covered, free
        else:
            free, covered = free, free + covered
    return 2 * free + covered


def fence_ideals(g):
    """The fence build's heights as a set, after checking it lists each
    once."""
    heights = _heights(g)
    assert len(set(heights)) == len(heights) == count_matchings(g)
    return set(heights)


def listed_pairs(g):
    """enumerate_matchings as (edge mask, height mask) pairs over the edge
    list of ``_flip_data``, after checking it lists each matching once."""
    index = {e: 1 << i for i, e in enumerate(_flip_data(g)[0])}
    ms = enumerate_matchings(g)
    pairs = {(sum(index[e] for e in m.edges),
              sum(1 << t - 1 for t in m.height)) for m in ms}
    assert len(pairs) == len(ms) == count_matchings(g)
    return pairs


def zigzag(g):
    return all(a != b for a, b in zip(g.steps, g.steps[1:]))


def straight(g):
    return all(a == b for a, b in zip(g.steps, g.steps[1:]))


def gluing_from_even(cf):
    """Reference: the even snake graph glued block by block from the whole
    type sequence."""
    bs = cf.entries
    ts = type_sequence(cf)
    signs = []
    for b, t, u in zip(bs, ts, ts[1:]):
        signs += [t] * (abs(b) - 2)
        signs += (t, u) if t != u else (-t,)
    signs += [ts[-1]] * (abs(bs[-1]) - 2)
    return SnakeGraph(len(signs) + 1, signs, ts[0])


def runs_from_positive(cf):
    """Reference: the positive snake graph from its list of sign runs."""
    a = cf.entries
    d = sum(a) - 1
    if d == 0:
        return SnakeGraph(0, ())
    runs = [a[0] - 2] if len(a) == 1 else [a[0] - 1, *a[1:-1], a[-1] - 1]
    signs = []
    sign = 1
    for length in runs:
        signs.extend([sign] * length)
        sign = -sign
    return SnakeGraph(d, signs)


class TestConstruction:
    def test_staircase(self):
        g = snake_from_positive(PositiveCF((2, 1, 2, 3)))
        assert g.d == 7
        assert g.step_word() == "RRRUUR"
        assert g.edge_signs == (1, -1, 1, 1, -1, -1)

    def test_degenerate(self):
        g = snake_from_positive(PositiveCF((1,)))
        assert g.d == 0 and g.steps == () and count_matchings(g) == 1

    def test_single_run_is_zigzag(self):
        for a in range(2, 8):
            g = snake_from_positive(PositiveCF((a,)))
            assert g.d == a - 1
            assert zigzag(g)

    def test_even_matches_positive_word(self):
        g = snake_from_even(EvenCF((2, 2, -2, 4)))
        assert g.d == 7
        assert g.edge_signs == (1, -1, 1, 1, -1, -1)
        assert g.step_word() == "RRRUUR"
        assert g.first_sign == 1

    def test_alternating_even_cf_is_zigzag(self):
        assert zigzag(snake_from_even(EvenCF((2, -2, 2, -2, 2))))

    def test_sign_pair_blocks_are_straight(self):
        assert straight(snake_from_even(EvenCF((2, 2, -2, -2))))
        assert straight(snake_from_even(EvenCF((2, 2, -2, -2, 2, 2))))

    def test_constructors_match_references(self):
        """Every even list with sum |b_i| <= 14 and every positive list with
        sum <= 14, any entry size, gives the reference sign word."""
        def same(g, h):
            assert (g.d, g.edge_signs, g.first_sign) == (
                h.d, h.edge_signs, h.first_sign)
            assert type(g.edge_signs) is tuple

        evens = positives = 0
        for entries in even_lists(14, max_abs=14):
            cf = EvenCF(entries)
            same(snake_from_even(cf), gluing_from_even(cf))
            evens += 1
        for entries in positive_lists(14, max_entry=14):
            cf = PositiveCF(entries)
            same(snake_from_positive(cf), runs_from_positive(cf))
            positives += 1
        assert (evens, positives) == (2186, 16383)

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            SnakeGraph(3, (1,))  # d = 3 needs two interior signs
        with pytest.raises(ValueError):
            SnakeGraph(-1, ())
        with pytest.raises(ValueError):
            SnakeGraph(3, (1, 0))  # signs are +1 or -1
        with pytest.raises(ValueError):
            SnakeGraph(3, (1, 1), first_sign=0)
        assert SnakeGraph(3, (1, 1)).steps == (RIGHT, UP)  # equal signs turn
        assert SnakeGraph(3, (1, -1)).steps == (RIGHT, RIGHT)  # unequal go straight
        assert SnakeGraph(4, (-1, -1, -1)).steps == (RIGHT, UP, RIGHT)
        assert SnakeGraph(1, ()).steps == SnakeGraph(0, ()).steps == ()

    @given(st.lists(st.sampled_from([1, -1, 0, 3, -3, 2, True, 1.0, -1.0]),
                    max_size=5).map(tuple),
           st.sampled_from([1, 0, 2, -1, -2]),
           st.sampled_from([1, -1, 0, 3, -3, True, 1.0, -1.0]))
    def test_validation_matches_plain_predicate(self, signs, extra, first_sign):
        d = len(signs) + extra  # mostly the right count, sometimes not
        ok = (d >= 0 and len(signs) == max(d - 1, 0)
              and all(s in (1, -1) for s in signs) and first_sign in (1, -1))
        try:
            g = SnakeGraph(d, signs, first_sign)
        except ValueError:
            assert not ok
        else:
            assert ok
            assert g.edge_signs == signs and g.steps == steps_of(signs)


class TestSignWordOnly:
    """Counting and isomorphism read the sign word, never the step word."""

    def test_stores_no_step_word(self):
        assert [f.name for f in fields(SnakeGraph)] == [
            "d", "edge_signs", "first_sign"]

    def test_count_and_isomorphism_read_no_steps(self, monkeypatch):
        def no_steps(g):
            raise AssertionError("the step word was derived")
        g = snake_from_positive(PositiveCF((2, 1, 2, 3)))
        h = snake_from_even(EvenCF((2, 2, -2, 4)))
        monkeypatch.setattr(SnakeGraph, "steps", property(no_steps))
        assert count_matchings(g) == 27
        assert isomorphic(g, h)

    def test_count_matches_step_transfer(self):
        graphs = 0
        for d in range(2, 13):
            for signs in product((1, -1), repeat=d - 1):
                for first_sign in (1, -1):
                    g = SnakeGraph(d, signs, first_sign)
                    assert count_matchings(g) == count_by_steps(g), signs
                    graphs += 1
        assert graphs == 8188
        for g in (SnakeGraph(0, ()), SnakeGraph(1, ())):
            assert count_matchings(g) == count_by_steps(g)

    def test_isomorphic_matches_step_word_test(self):
        for d in range(0, 10):
            graphs = [SnakeGraph(d, signs)
                      for signs in product((1, -1), repeat=max(d - 1, 0))]
            for g in graphs:
                for h in graphs:
                    assert isomorphic(g, h) == isomorphic_by_steps(g, h), (
                        g.edge_signs, h.edge_signs)


class TestTileCount:
    def test_examples(self):
        assert EvenCF((2, 2, -2, 4)).d == 7
        assert EvenCF((2,)).d == 1
        assert EvenCF((2, -2, 2, -2)).d == 4

    def test_matches_construction(self):
        for entries in [(2, 4, 2), (-2, -4, 6), (4, 4, -2, 2), (6, -2)]:
            cf = EvenCF(entries)
            assert snake_from_even(cf).d == cf.d


class TestIsomorphism:
    def test_even_vs_positive(self):
        assert isomorphic(snake_from_positive(PositiveCF((2, 1, 2, 3))),
                          snake_from_even(EvenCF((2, 2, -2, 4))))

    def test_first_entry_split(self):
        for entries in [(2, 1, 2, 3), (3, 2), (4, 1, 2)]:
            a = snake_from_positive(PositiveCF(entries))
            b = snake_from_positive(PositiveCF((1, entries[0] - 1) + entries[1:]))
            assert isomorphic(a, b)

    def test_different_tile_counts(self):
        assert not isomorphic(snake_from_positive(PositiveCF((3,))),
                              snake_from_positive(PositiveCF((2, 2))))

    def test_mirror_invariance(self):
        for entries in [(2, 2, -2, 4), (4, -2), (2, -2, 2), (6, 4, 2)]:
            cf = EvenCF(entries)
            assert isomorphic(snake_from_even(cf), snake_from_even(cf.mirrored()))

    def test_two_entry_reduction(self):
        for b1, b2 in product((2, 4, 6), repeat=2):
            same = snake_from_even(EvenCF((b1, b2)))
            assert isomorphic(same, snake_from_positive(PositiveCF((b1, b2))))
            opposite = snake_from_even(EvenCF((b1, -b2)))
            reduced = snake_from_positive(PositiveCF((b1 - 1, 1, b2 - 1)))
            assert isomorphic(opposite, reduced)

    def test_symmetry_group_matches_graph_isomorphism(self):
        # step-word test vs abstract graph isomorphism, all graphs with d <= 6
        def explicit(g):
            G = nx.Graph()
            x = y = 0
            for i, (px, py) in enumerate(g.tile_positions()):
                corners = [(px, py), (px + 1, py), (px + 1, py + 1), (px, py + 1)]
                for a, b in zip(corners, corners[1:] + corners[:1]):
                    G.add_edge(a, b)
            return G

        graphs = [SnakeGraph(1, ())]
        for d in range(2, 7):
            for signs in product((1, -1), repeat=d - 1):
                # the first sign does not change the shape
                g = SnakeGraph(d, signs, first_sign=signs[-1])
                assert g.steps == steps_of(signs)
                graphs.append(g)
        for g in graphs:
            for h in graphs:
                assert isomorphic(g, h) == nx.is_isomorphic(explicit(g),
                                                            explicit(h))


class TestCounting:
    def test_examples(self):
        assert count_matchings(snake_from_positive(PositiveCF((2, 1, 2, 3)))) == 27
        assert count_matchings(SnakeGraph(1, ())) == 2
        assert count_matchings(snake_from_positive(PositiveCF((2, 3, 4, 5, 6)))) == 972

    def test_counts_equal_numerators(self):
        for entries in [(2,), (3, 2), (1, 1, 1, 2), (5, 4), (2, 2, 2, 2),
                        (9, 1, 3), (1, 8)]:
            cf = PositiveCF(entries)
            assert count_matchings(snake_from_positive(cf)) == numerator_rec(entries)

    def test_quotient_gives_reduced_fraction(self):
        from math import gcd

        from twobridge.verify import positive_lists
        for entries in positive_lists(14):
            if len(entries) < 2:
                continue
            cf = PositiveCF(entries)
            top = count_matchings(snake_from_positive(cf))
            bottom = count_matchings(snake_from_positive(PositiveCF(entries[1:])))
            assert gcd(top, bottom) == 1
            assert Fraction(top, bottom) == cf.value()

    def test_even_graph_counts_numerator(self):
        for p, q in [(27, 10), (5, 4), (10, 7), (12, 5)]:
            cf = even_cf(Fraction(p, q))
            assert count_matchings(snake_from_even(cf)) == p


class TestEnumeration:
    def test_single_tile(self):
        ms = enumerate_matchings(SnakeGraph(1, ()))
        assert [m.height for m in ms] == [frozenset(), frozenset({1})]

    def test_staircase(self):
        ms = enumerate_matchings(snake_from_positive(PositiveCF((2, 1, 2, 3))))
        assert len(ms) == 27
        heights = {m.height for m in ms}
        assert len(heights) == 27
        assert sum(1 for m in ms if m.height == frozenset()) == 1
        assert sum(1 for m in ms if m.height == frozenset(range(1, 8))) == 1

    def test_every_matching_is_perfect(self):
        g = snake_from_positive(PositiveCF((3, 3)))
        vertices = set()
        for (x, y) in g.tile_positions():
            vertices.update([(x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)])
        for m in enumerate_matchings(g):
            covered = [v for e in m.edges for v in e]
            assert sorted(covered) == sorted(vertices)

    def test_budget(self, monkeypatch, capsys):
        # the budget bounds the listing: 27 matchings x 7 tiles = 189; each
        # check reads snake.LISTING_BUDGET when it runs, the CLI's included
        import twobridge.snake as snake
        from twobridge.cli import main
        g = snake_from_positive(positive_cf(Fraction(27, 10)))
        monkeypatch.setattr(snake, "LISTING_BUDGET", 188)
        with pytest.raises(BudgetExceeded):
            check_budget(27, 7)
        with pytest.raises(BudgetExceeded):
            enumerate_matchings(g)
        with pytest.raises(BudgetExceeded):
            f_polynomial(g)
        assert main(["fpoly", "--full", "27/10"]) == 2
        assert capsys.readouterr().err == (
            "error [fpoly]: 27 matchings x 7 tiles exceed budget 188\n")
        monkeypatch.setattr(snake, "LISTING_BUDGET", 189)
        check_budget(27, 7)
        assert len(enumerate_matchings(g)) == 27
        assert len(f_polynomial(g)) == 27
        assert main(["fpoly", "--full", "27/10"]) == 0
        assert capsys.readouterr().out.count(" + ") == 26

    def test_oversized_listing_fails_fast(self):
        # [100000] has only 100000 matchings, but of 99999 tiles each
        g = snake_from_positive(PositiveCF((100000,)))
        with pytest.raises(BudgetExceeded):
            enumerate_matchings(g)

    @given(st.lists(st.sampled_from([1, -1]), max_size=8),
           st.sampled_from([1, -1]))
    def test_flip_search_count_matches_transfer(self, signs, first_sign):
        g = SnakeGraph(len(signs) + 1, signs, first_sign)
        assert g.steps == steps_of(signs)
        assert len(enumerate_matchings(g)) == count_matchings(g)

    def test_minimal_and_maximal_matchings_are_the_boundary_matchings(self):
        # every sign word with d <= 8 and both first signs; the boundary
        # edges are the edges of exactly one tile
        south, west = frozenset(((0, 0), (1, 0))), frozenset(((0, 0), (0, 1)))
        for d in range(1, 9):
            for signs in product((1, -1), repeat=d - 1):
                for first_sign in (1, -1):
                    g = SnakeGraph(d, signs, first_sign)
                    tiles = Counter()
                    for x, y in g.tile_positions():
                        sw, se = (x, y), (x + 1, y)
                        nw, ne = (x, y + 1), (x + 1, y + 1)
                        tiles.update(frozenset(e) for e in
                                     ((sw, se), (se, ne), (nw, ne), (sw, nw)))
                    boundary = {e for e, n in tiles.items() if n == 1}
                    ms = enumerate_matchings(g)
                    low, high = ms[0], ms[-1]
                    assert low.height == frozenset()
                    assert high.height == frozenset(range(1, d + 1))
                    assert low.edges <= boundary
                    first = south if d == 1 or first_sign == signs[0] else west
                    assert first in low.edges
                    assert high.edges == boundary - low.edges


class TestFenceIdeals:
    """The tile-by-tile fence build lists what the flip search reaches.

    Comparing heights alone is as strong as comparing (matching, height)
    pairs: every pair the flip search reaches has the minimal matching
    with its height's tile flips applied as its matching.
    """

    def test_every_sign_word_up_to_twelve_tiles(self):
        graphs = 0
        for d in range(1, 13):
            for signs in product((1, -1), repeat=d - 1):
                for first_sign in (1, -1):
                    g = SnakeGraph(d, signs, first_sign)
                    assert fence_ideals(g) == {h for _, h in flip_search(g)}, (
                        signs, first_sign)
                    graphs += 1
        assert graphs == 8190

    def test_matchings_of_every_sign_word_up_to_eight_tiles(self):
        for d in range(1, 9):
            for signs in product((1, -1), repeat=d - 1):
                for first_sign in (1, -1):
                    g = SnakeGraph(d, signs, first_sign)
                    assert listed_pairs(g) == flip_search(g), (
                        signs, first_sign)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([1, -1]), min_size=12, max_size=15),
           st.sampled_from([1, -1]))
    def test_long_sign_words(self, signs, first_sign):
        g = SnakeGraph(len(signs) + 1, signs, first_sign)
        assert listed_pairs(g) == flip_search(g)


def test_missed_matchings_raise_under_optimize():
    """The fence build's count check is if/raise, so it survives
    ``python -O``."""
    script = (
        "import twobridge.snake as snake\n"
        "from twobridge.cfrac import PositiveCF\n"
        "from twobridge.errors import CrossCheckMismatch\n"
        "count = snake.count_matchings\n"
        "snake.count_matchings = lambda g: count(g) + 1\n"
        "g = snake.snake_from_positive(PositiveCF((2, 1, 2, 3)))\n"
        "for search in (snake.enumerate_matchings, snake.f_polynomial):\n"
        "    try:\n"
        "        search(g)\n"
        "    except CrossCheckMismatch as exc:\n"
        "        print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "fence build missed matchings: 27 of 28"] * 2


class TestFPolynomial:
    def test_two_tiles(self):
        F = f_polynomial(snake_from_positive(PositiveCF((3,))))
        assert F == {0b00, 0b01, 0b11}  # 1 + y1 + y1*y2
        assert height_subsets(F) == [[], [1], [1, 2]]

    def test_three_tiles(self):
        F = f_polynomial(snake_from_positive(PositiveCF((2, 2))))
        # 1 + y1 + y3 + y1*y3 + y1*y2*y3
        assert height_subsets(F) == [[], [1], [3], [1, 3], [1, 2, 3]]

    def test_single_tile(self):
        assert height_subsets(f_polynomial(SnakeGraph(1, ()))) == [[], [1]]

    def test_no_tiles(self):
        assert f_polynomial(SnakeGraph(0, ())) == {0}
        assert height_subsets({0}) == [[]]

    def test_shape(self):
        # smallest subsets first: the empty height first, the full one last
        for entries in [(2, 1, 2), (3, 3), (1, 2, 2), (4, 2)]:
            g = snake_from_positive(PositiveCF(entries))
            subsets = height_subsets(f_polynomial(g))
            assert subsets[0] == []
            assert subsets[-1] == list(range(1, g.d + 1))

    @given(st.sets(st.one_of(
        st.integers(0, (1 << 80) - 1),
        st.sampled_from([1 << 63, (1 << 64) - 1, (1 << 5001) - 1,
                         (1 << 5200) | 1]),
        st.sets(st.integers(0, 5200), max_size=30).map(
            lambda bits: sum(1 << b for b in bits))), max_size=12))
    def test_height_subsets_decode_each_bit(self, F):
        # masks up to bit 63 and beyond 5,000 bits, against a per-bit read
        tiles = [[j + 1 for j in range(h.bit_length()) if h >> j & 1]
                 for h in F]
        assert height_subsets(F) == sorted(tiles,
                                           key=lambda t: (len(t), t))

    def test_reflection(self):
        # reflecting along the first tile's diagonal complements all heights
        from twobridge.verify import positive_lists
        for entries in positive_lists(10):
            if entries[0] < 2:
                continue
            cf = PositiveCF(entries)
            other = PositiveCF((1, entries[0] - 1) + entries[1:])
            F = f_polynomial(snake_from_positive(cf))
            heights = _heights(snake_from_positive(other))
            full = (1 << cf.d) - 1
            assert F == {full ^ h for h in heights}, entries

    def test_needs_only_the_sign_word(self, monkeypatch):
        import twobridge.snake as snake

        def no_geometry(g):
            raise AssertionError("f_polynomial built the embedding")
        monkeypatch.setattr(snake, "_flip_data", no_geometry)
        monkeypatch.setattr(SnakeGraph, "tile_positions", no_geometry)
        F = f_polynomial(snake_from_positive(PositiveCF((2, 1, 2, 3))))
        assert len(F) == 27

    def test_past_sixty_three_tiles(self):
        # long graphs with few matchings, checked against the kernel
        for entries in [(65,), (200,), (1, 70), (62, 3), (2, 100),
                        (100, 1, 2), (50, 2, 40)]:
            cf = PositiveCF(entries)
            g = snake_from_positive(cf)
            assert 64 <= g.d <= 200
            assert lift(specialize_y(f_polynomial(g), g.d)) == (
                lift(specialized_f_positive(cf))), entries
        for entries in [(2, -2) * 32, (64, -2), (2, -66), (70, 2),
                        (40, -2, 2, -30), (30, 30, -10)]:
            cf = EvenCF(entries)
            g = snake_from_even(cf)
            assert 64 <= g.d <= 200
            assert lift(specialize_y(f_polynomial(g), g.d)) == (
                lift(specialized_f_even(cf))), entries

    def test_listing_against_fpoly(self):
        """The listing of an even CF's graph specializes to F, the polynomial
        ``fpoly`` prints, for b_1 > 0, and to q^(d+1) bar(F) for b_1 < 0: the
        reflection identity.  ``fpoly -- [-2,2]`` prints 1 + t^(-2) - t^(-3),
        and ``fpoly --full -- [-2,2]`` lists 1 + y2 + y1*y2."""
        seen = Counter()
        for entries in even_lists(10):
            cf = EvenCF(entries)
            g = snake_from_even(cf)
            listed = lift(specialize_y(f_polynomial(g), g.d))
            F = specialized_f_even(cf)
            if entries[0] < 0:  # q^(d+1) = (-1)^(d+1) t^(-d-1)
                F = F.bar().times((-1) ** (g.d + 1), -2 * (g.d + 1))
            assert listed == lift(F), entries
            seen[entries[0] > 0] += 1
        assert seen == {True: 115, False: 115}
        g = snake_from_even(EvenCF((-2, 2)))
        assert height_subsets(f_polynomial(g)) == [[], [2], [1, 2]]
        assert (lift(specialize_y(f_polynomial(g), g.d)).to_text()
                == "1 - t^(-1) - t^(-3)")
        assert (lift(specialized_f_even(EvenCF((-2, 2)))).to_text()
                == "1 + t^(-2) - t^(-3)")

    def test_specialization_route(self):
        g = snake_from_even(EvenCF((2, -2)))
        assert lift(specialize_y(f_polynomial(g), g.d)) == (
            1 + lift(specialize_y({0b10}, 2)) + lift(specialize_y({0b11}, 2)))


class TestRender:
    def test_canvas_budget(self):
        # (2 * 7812 + 1) * (3 * 1365 + 1) = 15625 * 4096 is the budget itself
        check_canvas(7812, 1365)
        with pytest.raises(BudgetExceeded):
            check_canvas(7812, 1366)
        # [7000] is a zigzag of 6999 tiles, 3500 high and wide: 73,517,501
        # cells, refused before the canvas is allocated
        with pytest.raises(BudgetExceeded, match="has 73517501 cells"):
            render_ascii(snake_from_positive(PositiveCF((7000,))))

    def test_single_tile(self):
        assert render_ascii(SnakeGraph(1, ())) == "+--+\n|  |\n+--+"

    def test_single_edge(self):
        assert render_ascii(SnakeGraph(0, ())) == "+\n|\n+"

    def test_straight_row(self):
        art = render_ascii(snake_from_positive(PositiveCF((2, 2))))
        assert art == "+--+--+--+\n|  |  |  |\n+--+--+--+"

    def test_staircase_dimensions(self):
        art = render_ascii(snake_from_positive(PositiveCF((2, 1, 2, 3))))
        lines = art.splitlines()
        assert len(lines) == 7          # three rows of tiles
        assert max(len(l) for l in lines) == 16  # five columns wide
