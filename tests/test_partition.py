import math
import sys
import threading
from fractions import Fraction

import pytest

from qpaths import partition
from qpaths.errors import RangeError
from qpaths.partition import (
    SectorSpec,
    ZCache,
    markov_decompose,
    memo,
    ratio_bound_check,
    z_closed,
    z_generalized,
    z_recursive,
    z_row,
)
from qpaths.paths import DOWN, BoxSpec, enumerate_paths, oracle_partition
from qpaths.qpoly import QPoly


def all_sectors(max_total):
    for total in range(max_total + 1):
        for n in range(total + 1):
            yield n, total - n


def points(path):
    """The lattice points the path visits, origin included."""
    x, y = path.origin
    out = [(x, y)]
    for s in path.steps:
        x, y = (x + 1, y) if s == DOWN else (x, y + 1)
        out.append((x, y))
    return out


class TestClosedForm:
    def test_trivial_rows(self):
        for m in range(6):
            assert z_closed(0, m) == QPoly.one()
        assert z_closed(3, 0) == QPoly.monomial(12)

    def test_small_values(self):
        assert z_closed(1, 1) == QPoly({2: 1, 4: 1})
        assert z_closed(2, 1) == QPoly({6: 1, 8: 1, 10: 1})

    def test_matches_enumeration(self):
        for n, m in all_sectors(8):
            assert z_closed(n, m) == oracle_partition(BoxSpec.sector(n, m))

    def test_degree_window_and_positivity(self):
        for n, m in all_sectors(10):
            z = z_closed(n, m)
            assert z.all_coefficients_positive()
            assert z.has_even_exponents_only()
            assert z.min_exponent() == n * (n + 1)
            assert z.max_exponent() == n * (n + 1) + 2 * n * m

    def test_coefficients_sum_to_binomial(self):
        # q -> 1 counts paths
        assert z_closed(4, 4).evaluate(Fraction(1)) == math.comb(8, 4)

    def test_negative_sector_rejected(self):
        with pytest.raises(ValueError):
            z_closed(-1, 2)


class TestRecursion:
    def test_base_cases(self):
        assert z_recursive(0, 7) == QPoly.one()
        assert z_recursive(4, 0) == QPoly.monomial(20)

    def test_small_value(self):
        assert z_recursive(1, 1) == QPoly({2: 1, 4: 1})

    def test_matches_closed_form(self):
        assert z_recursive(5, 5) == z_closed(5, 5)
        for n, m in all_sectors(7):
            assert z_recursive(n, m) == z_closed(n, m)


class TestRow:
    def test_matches_closed_form(self):
        # k > L - k + 1 is where the remainder check reaches below index 0
        for length in range(41):
            full = [z_closed(j, length - j) for j in range(length + 1)]
            for k in range(length + 1):
                assert z_row(length, k) == full[: k + 1]

    def test_publishes_into_cache(self):
        expected = z_closed(3, 4)
        with memo() as cache:
            z_row(7, 4)
            assert (cache.hits, cache.misses, len(cache)) == (0, 5, 5)
            assert cache.get_or_compute((3, 4), lambda: QPoly.zero()) == expected

    def test_fully_cached_row_computes_nothing(self, monkeypatch):
        def fail(*args):
            raise AssertionError("computed a cached entry")

        with memo():
            expected = z_row(9, 6)
            monkeypatch.setattr(partition, "_mul_div", fail)
            monkeypatch.setattr(partition, "_z_from_gauss", fail)
            assert z_row(9, 6) == expected
            assert z_row(9, 3) == expected[:4]

    def test_no_cache_keeps_nothing_between_calls(self, monkeypatch):
        steps = []
        mul_div = partition._mul_div
        monkeypatch.setattr(partition, "_mul_div", lambda *args: steps.append(1) or mul_div(*args))
        first = z_row(12, 6)
        assert len(steps) == 6
        assert z_row(12, 6) == first
        assert len(steps) == 12

    def test_extends_a_cached_prefix(self):
        expected = [z_closed(j, 6 - j) for j in range(6)]
        with memo() as cache:
            z_row(6, 2)
            assert z_row(6, 5) == expected
        assert (cache.hits, cache.misses) == (3, 6)

    @pytest.mark.parametrize("length, k", [(3, -1), (3, 4)])
    def test_bad_prefix_rejected(self, length, k):
        with pytest.raises(ValueError):
            z_row(length, k)


class TestGeneralized:
    def test_zero_shift(self):
        assert z_generalized(BoxSpec.sector(3, 2)) == z_closed(3, 2)

    def test_unit_shift(self):
        assert z_generalized(BoxSpec(1, 0, 2, 1)) == QPoly({4: 1, 6: 1})

    def test_empty_box(self):
        assert z_generalized(BoxSpec(2, 3, 2, 3)) == QPoly.one()

    def test_matches_enumeration(self):
        for n0 in range(3):
            for m0 in range(3):
                for n in range(n0, n0 + 4):
                    for m in range(m0, m0 + 4):
                        box = BoxSpec(n0, m0, n, m)
                        assert z_generalized(box) == oracle_partition(box)


class TestMarkov:
    def test_unit_cut(self):
        terms = markov_decompose(BoxSpec.sector(1, 1), 1)
        by_point = {t.point: t.left * t.right for t in terms}
        # paths through (1,0) have their down spin at position 1, hence q^2
        assert by_point == {(1, 0): QPoly({2: 1}), (0, 1): QPoly.monomial(4)}
        for t in terms:
            through = QPoly.zero()
            for p in enumerate_paths(BoxSpec.sector(1, 1)):
                if t.point in points(p):
                    through = through + p.weight()
            assert through == t.left * t.right

    def test_against_path_enumeration(self):
        # each cut term is the weight of the paths through its point, at every cut
        for n, m in ((2, 2), (3, 1), (2, 3)):
            box = BoxSpec.sector(n, m)
            for z in range(n + m + 1):
                for t in markov_decompose(box, z):
                    through = QPoly.zero()
                    for p in enumerate_paths(box):
                        if t.point in points(p):
                            through = through + p.weight()
                    assert through == t.left * t.right

    def test_degenerate_cut(self):
        terms = markov_decompose(BoxSpec.sector(4, 3), 0)
        assert len(terms) == 1
        assert terms[0].point == (0, 0)
        assert terms[0].left == QPoly.one()

    def test_middle_cut_sums_to_z(self):
        terms = markov_decompose(BoxSpec.sector(3, 3), 3)
        assert len(terms) == 4
        total = QPoly.zero()
        for t in terms:
            total = total + t.left * t.right
        assert total == z_closed(3, 3)

    def test_every_cut_of_a_box(self):
        box = BoxSpec(1, 2, 4, 5)
        expected = z_generalized(box)
        for z in range(3, 10):
            total = QPoly.zero()
            for t in markov_decompose(box, z):
                total = total + t.left * t.right
            assert total == expected

    def test_out_of_range_cut(self):
        with pytest.raises(RangeError):
            markov_decompose(BoxSpec.sector(2, 2), 5)
        with pytest.raises(RangeError):
            markov_decompose(BoxSpec(1, 1, 2, 2), 1)


class TestIdentities:
    def test_pascal_both_forms(self):
        for n in range(1, 9):
            for m in range(1, 9):
                z = z_closed(n, m)
                assert z == z_closed(n, m - 1) + z_closed(n - 1, m).shift(2 * (n + m))
                assert z == (z_closed(n - 1, m) + z_closed(n, m - 1)).shift(2 * n)

    def test_transpose_shift(self):
        values = {}
        for n in range(31):
            for m in range(n, 31):
                values[(n, m)] = z_closed(n, m)
                values[(m, n)] = z_closed(m, n)
        for (n, m), z in values.items():
            assert z.shift(m * (m + 1)) == values[(m, n)].shift(n * (n + 1))

    def test_box_transpose_shift(self):
        box = BoxSpec(1, 0, 2, 1)
        lhs = z_generalized(box).shift((box.n0 + box.m) * (box.n0 + box.m + 1))
        rhs = z_generalized(BoxSpec(0, 1, 1, 2)).shift((box.n + box.m0) * (box.n + box.m0 + 1))
        assert lhs == rhs

    def test_corner_split(self):
        for n in range(1, 7):
            for m in range(1, 7):
                split = z_generalized(BoxSpec(1, 0, n, m)).shift(2) + z_generalized(
                    BoxSpec(0, 1, n, m)
                )
                assert z_closed(n, m) == split

    def test_neighbor_ratios_cross_multiplied(self):
        one = QPoly.one()
        for n in range(1, 8):
            for m in range(1, 8):
                z = z_closed(n, m)
                ell = n + m
                lhs = (z_closed(n - 1, m) * (one - QPoly.monomial(2 * ell))).shift(2 * n)
                assert lhs == z * (one - QPoly.monomial(2 * n))
                lhs = z_closed(n, m - 1) * (one - QPoly.monomial(2 * ell))
                assert lhs == z * (one - QPoly.monomial(2 * m))


class TestRatioBound:
    def test_equality_at_zero_offsets(self):
        assert ratio_bound_check(3, 3, 0, 0) == list(partition.DEFAULT_Q_GRID)

    def test_holds_at_named_points(self):
        assert ratio_bound_check(3, 3, 1, 1, q_grid=[Fraction(1, 2)]) == [Fraction(1, 2)]
        assert ratio_bound_check(4, 2, 2, 0, q_grid=[Fraction(3, 4)]) == [Fraction(3, 4)]

    def test_full_scan(self):
        for n, m in all_sectors(7):
            for v in range(n + 1):
                for w in range(m + 1):
                    assert len(ratio_bound_check(n, m, v, w)) == 3, (n, m, v, w)

    def test_bad_offsets(self):
        with pytest.raises(RangeError):
            ratio_bound_check(2, 2, 3, 0)


class TestZCache:
    def test_hit_miss_counting(self):
        # the memo is empty, hence falsy, at the first call: it must still be used
        with memo() as cache:
            z_closed(3, 3)
            assert (cache.hits, cache.misses) == (0, 1)
            z_closed(3, 3)
            assert (cache.hits, cache.misses) == (1, 1)

    def test_stored_value_is_never_replaced(self):
        cache = ZCache()
        first = z_closed(2, 2)

        def compute():
            # Another caller stores the key while this one computes.
            cache.get_or_compute((2, 2), lambda: first)
            return z_closed(2, 2)

        assert cache.get_or_compute((2, 2), compute) is first
        assert cache.get_or_compute((2, 2), compute) is first
        assert (cache.hits, cache.misses, len(cache)) == (1, 2, 1)

    def test_concurrent_readers(self):
        cache = ZCache()
        results = []

        def worker():
            results.append(cache.get_or_compute((6, 6), lambda: z_closed(6, 6)))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == z_closed(6, 6) for r in results)

    def test_counters_are_exact_under_thread_switching(self):
        cache = ZCache()

        def worker():
            for i in range(2_000):
                cache.get_or_compute((i % 4, 2), lambda: z_closed(i % 4, 2))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert cache.hits + cache.misses == 16_000

    def test_sector_spec(self):
        assert SectorSpec(2, 3).length == 5
        with pytest.raises(ValueError):
            SectorSpec(-1, 0)


class TestMemo:
    @pytest.fixture
    def made(self, monkeypatch):
        """Every ZCache built while the test runs."""
        made = []
        init = ZCache.__init__

        def counting_init(cache):
            init(cache)
            made.append(cache)

        monkeypatch.setattr(ZCache, "__init__", counting_init)
        return made

    def test_nested_blocks_and_decorated_calls_use_the_outer_memo(self, made):
        @memo()
        def inner_z(n, m):
            return z_closed(n, m)

        with memo() as outer:  # empty, hence falsy, when the inner blocks open
            with memo() as inner:
                assert inner is outer
                inner_z(2, 3)
            with memo():
                z_row(5, 2)
        assert made == [outer]
        assert (outer.hits, outer.misses) == (1, 3)  # row (0,5), (1,4), (2,3) after Z(2, 3)

    def test_no_memo_is_open_after_a_block(self, made):
        with memo():
            pass
        with pytest.raises(RuntimeError):
            with memo():
                raise RuntimeError("body failed")
        assert partition._MEMO.get() is None
        z_closed(3, 3)
        assert len(made) == 2

    def test_a_thread_started_in_a_block_sees_no_memo(self):
        seen = []

        def worker():
            seen.append(partition._MEMO.get())
            z_closed(3, 3)

        with memo() as cache:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(timeout=60)
        assert seen == [None]
        assert (cache.hits, cache.misses) == (0, 0)
