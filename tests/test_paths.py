import pytest

from qpaths.errors import CapExceeded
from qpaths.paths import DOWN, UP, BoxSpec, Path, enumerate_paths, oracle_partition
from qpaths.qpoly import QPoly


def all_sectors(max_total):
    for total in range(max_total + 1):
        for n in range(total + 1):
            yield n, total - n


def endpoint(path):
    """The lattice point the path ends at."""
    return (path.origin[0] + path.steps.count(DOWN), path.origin[1] + path.steps.count(UP))


class TestBoxSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoxSpec(2, 0, 1, 1)
        with pytest.raises(ValueError):
            BoxSpec(-1, 0, 1, 1)

    def test_path_count(self):
        assert BoxSpec.sector(3, 3).path_count() == 20
        assert BoxSpec(2, 3, 2, 3).path_count() == 1


class TestPath:
    def test_invalid_steps(self):
        for steps in ("HX", "XHV", "HXV", "HVx", "H V", "h"):
            with pytest.raises(ValueError, match="steps must be over"):
                Path((0, 0), steps)

    @pytest.mark.parametrize("steps", ["HxV", "HV "])
    def test_invalid_step_message(self, steps):
        with pytest.raises(ValueError) as raised:
            Path((0, 0), steps)
        assert str(raised.value) == f"steps must be over {{H,V}}, got {steps!r}"


class TestWeight:
    def test_down_spins_early(self):
        # HHV: down spins at chain positions 1, 2
        assert Path((0, 0), "HHV").weight() == QPoly.monomial(6)

    def test_down_spins_late(self):
        # VHH: down spins at chain positions 2, 3
        assert Path((0, 0), "VHH").weight() == QPoly.monomial(10)

    def test_all_vertical(self):
        assert Path((0, 0), "VVVV").weight() == QPoly.one()

    def test_absolute_coordinates_in_boxes(self):
        # step positions count from the box origin's distance to the origin
        assert Path((1, 0), "HV").weight() == QPoly.monomial(4)
        assert Path((1, 0), "VH").weight() == QPoly.monomial(6)


class TestArea:
    @pytest.mark.parametrize(
        "steps,area", [("HHV", 0), ("VHH", 2), ("VVHH", 4), ("", 0), ("HHHH", 0)]
    )
    def test_examples(self, steps, area):
        assert Path((0, 0), steps).area() == area

    def test_weight_exponent_identity(self):
        # exponent = n(n+1) + 2*area for paths from the origin
        for n, m in all_sectors(8):
            for p in enumerate_paths(BoxSpec.sector(n, m)):
                assert p.weight().min_exponent() == n * (n + 1) + 2 * p.area()

    def test_complement_under_parity_and_reversal(self):
        for n, m in all_sectors(10):
            for p in enumerate_paths(BoxSpec.sector(n, m)):
                assert p.area() + p.parity().area() == n * m
                assert p.area() + p.time_reversed().area() == n * m


class TestSymmetries:
    def test_parity_swaps_steps(self):
        assert Path((0, 0), "HV").parity() == Path((0, 0), "VH")

    def test_time_reverse(self):
        assert Path((0, 0), "HHV").time_reversed() == Path((0, 0), "VHH")

    def test_involutions_and_combined_map(self):
        for n, m in all_sectors(6):
            for p in enumerate_paths(BoxSpec.sector(n, m)):
                assert p.parity().parity() == p
                assert p.time_reversed().time_reversed() == p
                ft = p.parity().time_reversed()
                assert endpoint(ft) == (m, n)
                assert ft.area() == p.area()
                # weights agree up to the endpoint-dependent prefactor
                assert p.weight().shift(m * (m + 1)) == ft.weight().shift(n * (n + 1))

    def test_combined_map_is_a_bijection(self):
        paths = list(enumerate_paths(BoxSpec.sector(3, 2)))
        images = {p.parity().time_reversed() for p in paths}
        assert len(images) == len(paths)
        assert all(endpoint(im) == (2, 3) for im in images)


class TestEnumeration:
    def test_small_boxes(self):
        assert {p.steps for p in enumerate_paths(BoxSpec.sector(1, 1))} == {"HV", "VH"}
        assert len(list(enumerate_paths(BoxSpec.sector(2, 1)))) == 3
        assert len(list(enumerate_paths(BoxSpec.sector(3, 3)))) == 20

    def test_counts_match_binomial(self):
        for n, m in all_sectors(9):
            box = BoxSpec.sector(n, m)
            paths = list(enumerate_paths(box))
            assert len(paths) == box.path_count()
            assert len(set(paths)) == len(paths)
            assert all(endpoint(p) == (n, m) for p in paths)

    def test_cap_exceeded(self):
        with pytest.raises(CapExceeded):
            list(enumerate_paths(BoxSpec.sector(3, 3), cap=19))


class TestOraclePartition:
    def test_sector_11(self):
        assert oracle_partition(BoxSpec.sector(1, 1)) == QPoly({2: 1, 4: 1})

    def test_single_path_boxes(self):
        assert oracle_partition(BoxSpec.sector(3, 0)) == QPoly.monomial(12)
        assert oracle_partition(BoxSpec.sector(0, 5)) == QPoly.one()
        assert oracle_partition(BoxSpec(2, 3, 2, 3)) == QPoly.one()

    def test_shifted_box(self):
        assert oracle_partition(BoxSpec(1, 0, 2, 1)) == QPoly({4: 1, 6: 1})
