import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qpaths.cli import _any_length_ints, _write_json
from qpaths.errors import DomainError
from qpaths.partition import z_closed
from qpaths.qpoly import QPoly, QRational


def P(pairs):
    return QPoly(pairs)


polys = st.builds(
    QPoly,
    st.dictionaries(st.integers(0, 40), st.integers(-(10**6), 10**6), max_size=8),
)
rationals = st.fractions(min_value=Fraction(-4), max_value=Fraction(4))
#: q = a/b with multi-digit signed numerators and denominators
wide_rationals = st.builds(Fraction, st.integers(-(10**9), 10**9), st.integers(1, 10**9))


def fraction_sum(poly, q):
    """poly(q) as one Fraction per term: the slow, obviously correct oracle."""
    return sum((c * q**e for e, c in poly.terms()), Fraction(0))


class DictPoly:
    """Test-only oracle: sparse dict {exponent: nonzero coefficient} arithmetic,
    term by term, sharing nothing with ``QPoly``'s dense lists."""

    def __init__(self, pairs=()):
        self.d = {}
        for e, c in pairs.items() if isinstance(pairs, dict) else pairs:
            s = self.d.get(e, 0) + c
            if s:
                self.d[e] = s
            else:
                self.d.pop(e, None)

    def __eq__(self, other):
        return self.d == other.d

    def __add__(self, other):
        return DictPoly([*self.d.items(), *other.d.items()])

    def __sub__(self, other):
        return DictPoly([*self.d.items(), *((e, -c) for e, c in other.d.items())])

    def __mul__(self, other):
        return DictPoly([(ea + eb, ca * cb) for ea, ca in self.d.items() for eb, cb in other.d.items()])

    def shift(self, k):
        return DictPoly({e + k: c for e, c in self.d.items()})

    def terms(self):
        return tuple(sorted(self.d.items()))

    def float_value(self, x):
        """Summed in exponent order, the order ``QPoly.evaluate`` promises."""
        return float(sum(c * x**e for e, c in self.terms()))


class TestConstruction:
    def test_canonical_drops_zero_coefficients(self):
        assert P({3: 0, 2: 5}) == P({2: 5})
        assert not P({0: 0})

    def test_duplicate_exponents_merge(self):
        assert QPoly([(2, 1), (2, 3)]) == P({2: 4})
        assert QPoly([(2, 1), (2, -1)]).is_zero

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            P({-1: 1})

    def test_dense_moves_end_zeros_into_the_valuation(self):
        assert QPoly.dense(3, [0, 1, 0, 2, 0]) == P({4: 1, 6: 2})
        assert QPoly.dense(3, [0, 0]) == QPoly.zero() == QPoly.dense(0, [])
        with pytest.raises(ValueError):
            QPoly.dense(-1, [1])

    def test_terms_sorted(self):
        assert P({4: 1, 2: 3}).terms() == ((2, 3), (4, 1))


class TestArithmetic:
    def test_add_disjoint(self):
        assert P({2: 1}) + P({4: 1}) == P({2: 1, 4: 1})

    def test_add_cancels(self):
        assert P({2: 1, 4: 1}) + P({4: -1}) == P({2: 1})

    def test_add_z_values(self):
        # Z(1,1) + Z(0,2) from the enumeration oracle
        assert P({2: 1, 4: 1}) + P({0: 1}) == P({0: 1, 2: 1, 4: 1})

    def test_mul_identity(self):
        p = P({0: 2, 3: -1, 7: 5})
        assert QPoly.one() * p == p

    def test_mul_difference_of_squares(self):
        assert P({0: 1, 2: 1}) * P({0: 1, 2: -1}) == P({0: 1, 4: -1})

    def test_mul_z11_squared(self):
        z11 = P({2: 1, 4: 1})
        assert z11 * z11 == P({4: 1, 6: 2, 8: 1})

    def test_shift(self):
        assert QPoly.one().shift(0) == QPoly.one()
        assert P({0: 1, 2: 1}).shift(2) == P({2: 1, 4: 1})
        # Z(1,2) = q^2 + q^4 + q^6 shifted by 4 gives q^6 + q^8 + q^10 = Z(2,1)
        assert P({2: 1, 4: 1, 6: 1}).shift(4) == P({6: 1, 8: 1, 10: 1})


class TestEvaluate:
    def test_exact_substitution(self):
        assert P({2: 1, 4: 1}).evaluate(Fraction(1, 2)) == Fraction(5, 16)

    def test_rational_probability(self):
        # P(S_1 = down) for n = m = 1, from the two-configuration oracle
        r = QRational(P({2: 1}), P({2: 1, 4: 1}))
        assert r.evaluate(Fraction(1, 2)) == Fraction(4, 5)

    def test_float_constant(self):
        assert QPoly.one().evaluate(0.999) == 1.0

    def test_float_value_does_not_depend_on_construction_order(self):
        a, b = P({4: 10**16, 0: 1, 2: 1}), P({0: 1, 2: 1, 4: 10**16})
        assert a == b
        assert a.evaluate(1.0) == b.evaluate(1.0) == 1.0000000000000002e16

    def test_float_ratio_survives_underflowing_powers(self):
        # q^1100 alone is below the float range at q = 1/2; the ratio is 4/5
        r = QRational(P({1100: 1}), P({1100: 1, 1102: 1}))
        assert r.evaluate(0.5) == pytest.approx(0.8, rel=1e-15)
        assert r.evaluate(Fraction(1, 2)) == Fraction(4, 5)

    def test_zero_and_constant_polynomials(self):
        for q in (Fraction(0), Fraction(-7, 3), Fraction(12345, 678)):
            assert QPoly.zero().evaluate(q) == 0
            assert P({0: -5}).evaluate(q) == -5
            assert QRational(QPoly.zero(), P({0: 3})).evaluate(q) == 0
            assert QRational(P({0: 2}), P({0: 3})).evaluate(q) == Fraction(2, 3)

    def test_exact_at_zero(self):
        assert P({0: 3, 2: 1}).evaluate(Fraction(0)) == 3
        assert P({2: 1}).evaluate(Fraction(0)) == 0
        assert QRational(P({0: 1, 4: 2}), P({0: 2, 2: 1})).evaluate(Fraction(0)) == Fraction(1, 2)
        with pytest.raises(ZeroDivisionError):
            QRational(P({2: 1}), P({2: 1})).evaluate(Fraction(0))

    def test_float_ratio_of_coefficients_beyond_float_range(self):
        r = QRational(P({0: 10**400, 2: 10**400}), P({0: 3 * 10**400}))
        assert r.evaluate(0.5) == 5 / 12
        assert r.evaluate(Fraction(1, 2)) == Fraction(5, 12)

    def test_float_polynomial_beyond_float_range_is_the_rounded_exact_value(self):
        p = QPoly.monomial(2000, 10**400)
        assert p.evaluate(0.5) == float(p.evaluate(Fraction(1, 2))) == 8.709809816217216e-203

    def test_float_ratio_of_two_overflowing_sums(self):
        # each sum of 20 terms near 1e307 overflows to inf, so the float quotient is nan
        r = QRational(*(QPoly({e: c * 10**307 for e in range(0, 40, 2)}) for c in (1, 2)))
        assert r.evaluate(0.99999) == 0.5

    def test_float_value_past_the_float_range_is_refused(self):
        # the float sum is inf; the exact value, about 2e310, has no float
        with pytest.raises(DomainError, match="q=0.99999"):
            QPoly({e: 10**307 for e in range(2000)}).evaluate(0.99999)
        with pytest.raises(DomainError, match="q=0.5"):
            QPoly.monomial(0, 10**400).evaluate(0.5)

    def test_float_denominator_that_underflows_falls_back_to_the_exact_value(self):
        # 0.5^2000 is 0.0 as a float, though the polynomial is not zero there
        with pytest.raises(DomainError, match="q=0.5"):
            QRational(QPoly.one(), QPoly.monomial(2000)).evaluate(0.5)
        assert QRational(P({0: 1, 1: -2}), QPoly.monomial(2000)).evaluate(0.5) == 0.0

    def test_rational_zero_denominator(self):
        r = QRational(QPoly.one(), P({0: 1, 1: -1}))
        with pytest.raises(ZeroDivisionError):
            r.evaluate(Fraction(1))

    def test_zero_polynomial_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            QRational(QPoly.one(), QPoly.zero())

    def test_equal_ratios_are_unhashable(self):
        # Equality cross-multiplies, so no hash over (num, den) could agree with it.
        half, two_quarters = QRational(P({0: 1}), P({0: 2})), QRational(P({0: 2}), P({0: 4}))
        assert half == two_quarters
        for r in (half, two_quarters):
            with pytest.raises(TypeError):
                hash(r)


def as_json(value):
    """The value parsed back from the CLI writer's compact JSON text."""
    out = []
    with _any_length_ints():
        _write_json(value, out, "", "")
    return json.loads("".join(out))


class TestSerialization:
    def test_pairs_format(self):
        assert as_json(P({6: 1, 8: 1, 10: 1})) == [[6, "1"], [8, "1"], [10, "1"]]

    def test_big_coefficients_roundtrip(self):
        p = P({0: 10**40, 3: -(7**30)})
        assert as_json(p) == [[0, str(10**40)], [3, str(-(7**30))]]

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
    def test_coefficient_past_the_int_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        big = P({0: 1, 2: -(10**4999 + 7)})
        assert as_json(big) == [[0, "1"], [2, "-1" + "0" * 4998 + "7"]]
        assert sys.get_int_max_str_digits() == limit

    def test_qrational_roundtrip(self):
        r = QRational(P({2: 1}), P({2: 1, 4: 1}))
        assert as_json(r) == {"num": [[2, "1"]], "den": [[2, "1"], [4, "1"]]}


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys, polys, rationals)
def test_evaluate_is_a_homomorphism(a, b, q):
    assert (a * b).evaluate(q) == a.evaluate(q) * b.evaluate(q)
    assert (a + b).evaluate(q) == a.evaluate(q) + b.evaluate(q)


@given(polys, wide_rationals)
def test_exact_evaluate_matches_the_per_term_sum(p, q):
    assert p.evaluate(q) == fraction_sum(p, q)


@given(polys, polys, st.one_of(wide_rationals, rationals))
def test_exact_ratio_matches_the_per_term_sums(a, b, q):
    assume(not b.is_zero)
    den = fraction_sum(b, q)
    if den == 0:
        with pytest.raises(ZeroDivisionError):
            QRational(a, b).evaluate(q)
    else:
        assert QRational(a, b).evaluate(q) == fraction_sum(a, q) / den


@given(polys)
def test_serialization_roundtrip(p):
    assert as_json(p) == [[e, str(c)] for e, c in p.terms()]


#: Sparse inputs with odd exponents up to 500 and signed 100-bit coefficients.
sparse = st.dictionaries(st.integers(0, 500), st.integers(-(10**30), 10**30), max_size=12)
floats = st.floats(-2, 2, allow_nan=False)


@st.composite
def cancelling(draw):
    """(a, b) where b is minus a's lowest terms, its highest terms or all of a,
    so a + b cancels at the low end, at the high end or to zero."""
    a = draw(sparse)
    ordered = sorted(a.items())
    k = draw(st.integers(0, len(ordered)))
    chosen = draw(st.sampled_from([ordered[:k], ordered[len(ordered) - k :], ordered]))
    return a, {e: -c for e, c in chosen}


def same_float(x, y):
    """Bit-identical floats (-0.0 and 0.0 differ)."""
    return x.hex() == y.hex()


def rounded(exact):
    """The float nearest an exact value, or DomainError where it is past the float range."""
    try:
        return float(exact)
    except OverflowError:
        return DomainError


def float_or_domain_error(f, *args):
    try:
        return f(*args)
    except DomainError:
        return DomainError


class TestAgainstTheDictOracle:
    @given(st.one_of(st.tuples(sparse, sparse), cancelling()))
    def test_ring_operations(self, pair):
        a, b = pair
        for op in ("__add__", "__sub__", "__mul__"):
            got = getattr(QPoly(a), op)(QPoly(b))
            assert got.terms() == getattr(DictPoly(a), op)(DictPoly(b)).terms()

    @given(cancelling())
    def test_cancellation_leaves_canonical_values(self, pair):
        a, b = pair
        got, want = QPoly(a) + QPoly(b), DictPoly(a) + DictPoly(b)
        assert got == QPoly(want.d) and hash(got) == hash(QPoly(want.d))
        assert got.is_zero == (not want.d)
        if want.d:
            assert (got.min_exponent(), got.max_exponent()) == (min(want.d), max(want.d))

    @given(sparse, st.integers(0, 500))
    def test_shift_and_inspection(self, a, k):
        p, want = QPoly(a).shift(k), DictPoly(a).shift(k)
        assert p.terms() == want.terms()
        assert len(p) == len(want.d)
        assert p.has_even_exponents_only() == all(e % 2 == 0 for e in want.d)
        assert p.all_coefficients_positive() == all(c > 0 for c in want.d.values())
        if want.d:
            assert (p.min_exponent(), p.max_exponent()) == (min(want.d), max(want.d))
        else:
            with pytest.raises(ValueError):
                p.min_exponent()

    @given(sparse, sparse)
    def test_equality_and_hash(self, a, b):
        p, q = QPoly(a), QPoly(b)
        assert (p == q) == (DictPoly(a) == DictPoly(b))
        rebuilt = QPoly(list(a.items())[::-1]) + q - q
        assert rebuilt == p and hash(rebuilt) == hash(p)

    @given(sparse)
    def test_json_roundtrip(self, a):
        assert as_json(QPoly(a)) == [[e, str(c)] for e, c in DictPoly(a).terms()]

    @given(sparse, wide_rationals)
    def test_exact_evaluate(self, a, q):
        assert QPoly(a).evaluate(q) == sum(
            (c * q**e for e, c in DictPoly(a).terms()), Fraction(0)
        )

    @given(sparse, floats)
    def test_float_evaluate_is_bit_identical(self, a, x):
        got = float_or_domain_error(QPoly(a).evaluate, x)
        try:
            want = DictPoly(a).float_value(x)
        except OverflowError:  # a coefficient past the float range
            want = math.inf
        if not math.isfinite(want):
            want = rounded(fraction_sum(DictPoly(a), Fraction(x)))
        assert got == want if DomainError in (got, want) else same_float(got, want)

    @given(sparse, sparse, st.floats(0.01, 1.5))
    def test_float_ratio_is_bit_identical(self, a, b, x):
        num, den = DictPoly(a), DictPoly(b)
        assume(den.d)
        # the oracle divides the lowest power out of both sides by rebuilding terms
        v = min(min(p.d) for p in (num, den) if p.d)
        num, den = (DictPoly({e - v: c for e, c in p.d.items()}) for p in (num, den))
        try:
            want = num.float_value(x) / den.float_value(x)
        except (OverflowError, ZeroDivisionError):  # a sum overflowed or underflowed to zero
            want = math.inf
        if not math.isfinite(want):
            exact_den = fraction_sum(den, Fraction(x))
            if exact_den == 0:
                with pytest.raises(ZeroDivisionError):
                    QRational(QPoly(a), QPoly(b)).evaluate(x)
                return
            want = rounded(fraction_sum(num, Fraction(x)) / exact_den)
        got = float_or_domain_error(QRational(QPoly(a), QPoly(b)).evaluate, x)
        assert got == want if DomainError in (got, want) else same_float(got, want)


@settings(max_examples=5, deadline=None)
@given(st.integers(60, 80), st.integers(60, 80), st.integers(1, 200))
def test_large_partition_functions_against_the_dict_oracle(n, m, k):
    z = z_closed(n, m)
    want = DictPoly(z_closed(n, m - 1).terms()) + DictPoly(z_closed(n - 1, m).terms()).shift(
        2 * (n + m)
    )
    assert z.terms() == want.terms()
    assert len(z) == n * m + 1 and z.max_exponent() - z.min_exponent() == 2 * n * m
    factor = {0: 1, k: -1}  # Z (1 - q^k) cancels nowhere at the ends
    assert (z * QPoly(factor)).terms() == (want * DictPoly(factor)).terms()
    assert (z - z.shift(k)) == z * QPoly(factor)
    top = z.max_exponent()  # per-term sum at q = 2/3, scaled by 3^top to stay in integers
    assert z.evaluate(Fraction(2, 3)) == Fraction(
        sum(c * 2**e * 3 ** (top - e) for e, c in want.terms()), 3**top
    )
    assert same_float(z.evaluate(0.9), want.float_value(0.9))


def test_wide_sparse_input():
    p = QPoly({0: 1, 100000: 1})
    assert len(p) == 2 and p.terms() == ((0, 1), (100000, 1))
    assert (p * p).terms() == ((0, 1), (100000, 2), (200000, 1))
    assert (p - QPoly({0: 1})).terms() == ((100000, 1),)
    assert (p - p).is_zero and (p - p) == QPoly.zero()
    assert p.evaluate(Fraction(1, 2)) == 1 + Fraction(1, 2**100000)
    assert p.evaluate(0.5) == 1.0
