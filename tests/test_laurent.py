"""Half-integer Laurent polynomials: ring laws, division, rendering."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropical_refine import (HalfLaurent, NonPositive, NotDivisible,
                             q_analog, w_pow_minus_inverse)
from tropical_refine.laurent import linear_combination

coeffs = st.integers(-20, 20)
polys = st.dictionaries(st.integers(-8, 8), coeffs, max_size=6).map(HalfLaurent)
nonzero_polys = polys.filter(bool)


def test_construction_drops_zeros():
    p = HalfLaurent({2: 1, 0: 0, -2: 3})
    assert p.support() == (-2, 2)
    assert p.coeff(0) == 0
    assert p.coeff(-2) == 3
    assert not HalfLaurent(0)
    assert HalfLaurent(5).coeff(0) == 5


@pytest.mark.parametrize("coeffs", [
    {0.5: 1}, {Fraction(1, 2): 1}, {"1": 1},
    {1: 1.0}, {1: Fraction(1)}, {1: "1"}, 1.0, Fraction(1),
    {True: 1}, {1: True}, {0: False}, True],
    ids=["float-exp", "fraction-exp", "str-exp",
         "float-coeff", "fraction-coeff", "str-coeff",
         "float-scalar", "fraction-scalar",
         "bool-exp", "bool-coeff", "false-coeff", "bool-scalar"])
def test_public_constructor_rejects_non_integers(coeffs):
    # a bool is not an integer here, as in Vec: HalfLaurent({True: True})
    # would print q^True/2 and serialise to [[true, true]]
    with pytest.raises(TypeError):
        HalfLaurent(coeffs)


def test_bools_do_not_mix_with_polynomials():
    for op in (lambda p: p + True, lambda p: False - p, lambda p: p * True):
        with pytest.raises(TypeError):
            op(HalfLaurent(2))
    assert HalfLaurent(1) != True  # noqa: E712
    assert HalfLaurent(1) == 1
    # nor is a bool an exponent: HalfLaurent({2: 1}) ** True would be q
    for flag in (True, False):
        with pytest.raises(TypeError, match="an exponent is an int"):
            HalfLaurent({2: 1}) ** flag


def test_power_tells_a_wrong_type_from_a_negative_exponent():
    for bad in (True, 2.0, Fraction(2), "2", None):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            HalfLaurent({1: 1}) ** bad
    with pytest.raises(ValueError, match="nonnegative integer powers"):
        HalfLaurent({1: 1}) ** -1
    assert HalfLaurent({1: 1}) ** 0 == 1


@pytest.mark.parametrize("bad", [True, 2.0, Fraction(2)])
def test_whole_powers_of_q_refuse_a_non_int_exponent(bad):
    # as HalfLaurent.monomial(True) is refused, q_power(True) is not q
    got = re.escape(repr(bad))
    with pytest.raises(TypeError, match=f"exp is an int, got {got}"):
        HalfLaurent.q_power(bad)
    with pytest.raises(TypeError):
        HalfLaurent.monomial(bad)


@pytest.mark.parametrize("make", [q_analog, w_pow_minus_inverse])
def test_quantum_integers_refuse_a_non_positive_index(make):
    with pytest.raises(NonPositive, match="a >= 1, got 0"):
        make(0)


@pytest.mark.parametrize("make", [q_analog, w_pow_minus_inverse])
@pytest.mark.parametrize("bad", [True, 2.0, Fraction(2)])
def test_quantum_integers_refuse_a_non_int_index(make, bad):
    # a bool is an int to isinstance: q_analog(True) is not 1
    got = re.escape(repr(bad))
    with pytest.raises(TypeError, match=f"a is an int, got {got}"):
        make(bad)


@pytest.mark.parametrize("pairs", [[[1.5, 1]], [[1, 2.0]], [["1", 1]],
                                   [[1, Fraction(1)]], [[True, 1]],
                                   [[1, True]]])
def test_json_pairs_reject_non_integers(pairs):
    with pytest.raises(TypeError):
        HalfLaurent.from_json_pairs(pairs)


@pytest.mark.parametrize("bad", [1.0, True])
def test_pairs_refuse_a_non_int_exponent_after_an_equal_int(bad):
    # the sum keeps the first of equal keys, so the key check of the
    # constructor never saw a 1.0 or True that followed an int 1
    with pytest.raises(TypeError, match=f"an exponent is an int, got {bad!r}"):
        HalfLaurent.from_json_pairs([[1, 1], [bad, 1]])


def test_scalar_and_monomial_constructors():
    assert HalfLaurent(3) == HalfLaurent({0: 3})
    assert HalfLaurent.monomial(1) == HalfLaurent({1: 1})
    assert HalfLaurent.q_power(2) == HalfLaurent({4: 1})
    assert HalfLaurent.from_json_pairs([[2, 1], [-2, 1]]) == HalfLaurent(
        {2: 1, -2: 1})


@given(st.integers(-50, 50))
def test_constants_equal_and_hash_as_their_int(c):
    # built by the constructor or as an arithmetic result, whose zero
    # coefficients are dropped, a constant equals its int and hashes as it
    w, q = HalfLaurent({1: 1}), HalfLaurent({2: 1})
    zeros = [HalfLaurent({}), HalfLaurent({2: 0}), w - w, w * 0, 0 * w,
             linear_combination([]), linear_combination([(w, 3), (w, -3)])]
    constants = [HalfLaurent(c), HalfLaurent({0: c, 3: 0}),
                 HalfLaurent(c) + 0, (w + c) - w, w * 0 + c,
                 HalfLaurent(1) * c, c * HalfLaurent(1),
                 linear_combination([(HalfLaurent(c), 1), (w, 2), (w, -2)])]
    for p, value in [(z, 0) for z in zeros] + [(p, c) for p in constants]:
        assert p == value and hash(p) == hash(value)
        assert value in {p} and p in {value}
    # a polynomial with a constant term and another is not that int, and
    # equal ones hash alike however they were built
    want = HalfLaurent({0: c, 2: 1})
    for p in (q + c, c + q * 1, HalfLaurent({2: 1, 0: c}),
              linear_combination([(q, 1), (HalfLaurent(c), 1)])):
        assert p != c and p not in {c} and c not in {p}
        assert p == want and hash(p) == hash(want)


def test_only_ints_mix_with_polynomials():
    assert 5 - HalfLaurent(2) == HalfLaurent(3)
    for other in ({}, {0: 2}, 1.0, "2", Fraction(2), True):
        for op in (lambda p: p + other, lambda p: other + p,
                   lambda p: p - other, lambda p: other - p,
                   lambda p: p.exact_div(other)):
            with pytest.raises(TypeError):
                op(HalfLaurent(2))


@pytest.mark.parametrize("bad", [True, False, 1.0, Fraction(1), "1", None])
def test_coeff_refuses_a_non_int_exponent(bad):
    # a bool or a float equal to a key would read that key's coefficient
    p = HalfLaurent({1: 2, 0: 5})
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        p.coeff(bad)
    assert (p.coeff(1), p.coeff(0), p.coeff(3)) == (2, 5, 0)


@given(st.lists(st.tuples(polys, st.integers(-5, 5)), max_size=6))
def test_linear_combination_equals_repeated_addition(terms):
    total = HalfLaurent(0)
    for poly, count in terms:
        total = total + poly * count
    assert linear_combination(terms) == total


@pytest.mark.parametrize("bad", [True, 2.0, Fraction(2), "2", None])
def test_linear_combination_takes_only_int_counts(bad):
    with pytest.raises(TypeError, match="a count is an int"):
        linear_combination([(HalfLaurent(1), 2), (HalfLaurent(3), bad)])


@pytest.mark.parametrize("bad", [1, 2.0, {0: 1}, None])
def test_linear_combination_takes_only_polynomial_terms(bad):
    with pytest.raises(TypeError, match="a term is a HalfLaurent"):
        linear_combination([(HalfLaurent(1), 2), (bad, 1)])


def test_arithmetic_oracles():
    w = HalfLaurent.monomial(1)
    w_inv = HalfLaurent.monomial(-1)
    assert w * w_inv == HalfLaurent(1)
    assert (w + w_inv) ** 2 == HalfLaurent({2: 1, 0: 2, -2: 1})
    assert (w - w_inv) * (w + w_inv) == HalfLaurent({2: 1, -2: -1})
    assert w - w == HalfLaurent(0)


@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + HalfLaurent(0) == a
    assert a * HalfLaurent(1) == a


@given(polys)
def test_negation_and_subtraction(a):
    assert a - a == HalfLaurent(0)
    assert a + (-a) == HalfLaurent(0)
    assert -(-a) == a


def test_q_analog_oracles():
    assert q_analog(1) == HalfLaurent(1)
    assert q_analog(2) == HalfLaurent({1: 1, -1: 1})
    assert q_analog(3) == HalfLaurent({2: 1, 0: 1, -2: 1})
    assert q_analog(4) == HalfLaurent({3: 1, 1: 1, -1: 1, -3: 1})


def test_q_analog_specializes_to_integer():
    for a in range(1, 9):
        assert q_analog(a).eval_q1() == a


def test_w_pow_minus_inverse():
    assert w_pow_minus_inverse(1) == HalfLaurent({1: 1, -1: -1})
    assert w_pow_minus_inverse(2) == HalfLaurent({2: 1, -2: -1})
    assert (w_pow_minus_inverse(3)
            == w_pow_minus_inverse(1) * q_analog(3))


def test_exact_div_oracles():
    num = HalfLaurent({2: 1, -2: -1})          # q - 1/q
    w_plus = HalfLaurent({1: 1, -1: 1})        # w + 1/w
    w_minus = HalfLaurent({1: 1, -1: -1})      # w - 1/w
    assert num.exact_div(w_plus) == w_minus
    assert num.exact_div(w_minus) == w_plus
    assert HalfLaurent(0).exact_div(w_plus) == HalfLaurent(0)


def test_exact_div_remainder():
    with pytest.raises(NotDivisible) as info:
        HalfLaurent({2: 1}).exact_div(HalfLaurent({1: 1, -1: 1}))
    assert info.value.remainder is not None
    with pytest.raises(ZeroDivisionError):
        HalfLaurent(1).exact_div(HalfLaurent(0))


def test_exact_div_rejects_fractional_quotient():
    with pytest.raises(NotDivisible):
        HalfLaurent(1).exact_div(HalfLaurent(2))


@given(polys, nonzero_polys)
def test_exact_div_inverts_multiplication(a, b):
    assert (a * b).exact_div(b) == a


def fraction_long_division(num: HalfLaurent, den: HalfLaurent):
    """Long division of num by den over Q, from the top exponent down:
    (quotient, remainder) as {half_exponent: Fraction} without zeros. An
    independent reference for exact_div, which must divide exactly when
    the remainder is zero and every quotient coefficient is an integer."""
    if not num:
        return {}, {}
    nlo, nhi = num.support()[0], num.support()[-1]
    dlo, dhi = den.support()[0], den.support()[-1]
    rem = {k: Fraction(num.coeff(k)) for k in range(nlo, nhi + 1)}
    quot = {}
    for top in range(nhi, nlo + (dhi - dlo) - 1, -1):
        c = rem[top] / den.coeff(dhi)
        if c:
            quot[top - dhi] = c
            for k in den.support():
                rem[top - dhi + k] -= c * den.coeff(k)
    return quot, {k: c for k, c in rem.items() if c}


@st.composite
def division_cases(draw):
    """(num, den) with den's leading coefficient in +-1, +-2, +-3: exact
    multiples, multiples plus noise, and multiples of den / k, whose
    quotient is fractional unless k divides it."""
    lower = draw(st.dictionaries(st.integers(-3, 2), st.integers(-4, 4),
                                 max_size=4))
    lead = draw(st.sampled_from((1, -1, 2, -2, 3, -3)))
    den = HalfLaurent({**lower, draw(st.integers(3, 5)): lead})
    num = draw(polys) * den
    kind = draw(st.sampled_from(("exact", "noise", "fractional")))
    if kind == "noise":
        num = num + draw(polys)
    elif kind == "fractional":
        den = den * draw(st.sampled_from((2, 3)))
    return num, den


def test_fraction_long_division_reference():
    w_plus = HalfLaurent({1: 1, -1: 1})
    assert fraction_long_division(HalfLaurent({2: 1, -2: -1}), w_plus) == (
        {1: 1, -1: -1}, {})
    assert fraction_long_division(w_plus, w_plus * 2) == ({0: Fraction(1, 2)}, {})
    assert fraction_long_division(HalfLaurent(1), w_plus) == ({}, {0: 1})


@settings(max_examples=300)
@given(division_cases())
def test_exact_div_matches_fraction_long_division(case):
    num, den = case
    quot, rem = fraction_long_division(num, den)
    if rem or any(c.denominator != 1 for c in quot.values()):
        with pytest.raises(NotDivisible) as info:
            num.exact_div(den)
        assert info.value.remainder is not None
    else:
        assert num.exact_div(den) == HalfLaurent(
            {k: int(c) for k, c in quot.items()})


def test_exact_div_lead_two_and_three():
    base = HalfLaurent({2: 1, 0: -1, -2: 1})
    assert (base * 6).exact_div(base * 2) == HalfLaurent(3)
    assert (base * 3).exact_div(base * -3) == HalfLaurent(-1)
    for num, den in ((base, base * 2), (base * 2, base * 3),
                     (base * 2 + 1, base * 2)):
        with pytest.raises(NotDivisible) as info:
            num.exact_div(den)
        assert info.value.remainder is not None


@given(polys)
def test_eval_q1_is_coefficient_sum(a):
    assert a.eval_q1() == sum(c for _, c in a.items())


def test_is_symmetric():
    assert q_analog(5).is_symmetric()
    assert HalfLaurent({2: 1, -2: -1}).is_symmetric() is False
    assert HalfLaurent(0).is_symmetric()
    assert HalfLaurent({3: 2, -3: 2, 0: -1}).is_symmetric()


@given(st.integers(1, 12))
def test_q_analog_symmetric(a):
    assert q_analog(a).is_symmetric()


def test_str_rendering():
    assert str(HalfLaurent(0)) == "0"
    assert str(HalfLaurent(1)) == "1"
    assert str(HalfLaurent(-3)) == "-3"
    assert str(q_analog(3)) == "q + 1 + q^-1"
    assert str(HalfLaurent({4: 1, 0: 1, -4: 1})) == "q^2 + 1 + q^-2"
    assert str(w_pow_minus_inverse(1)) == "q^1/2 - q^-1/2"
    assert str(HalfLaurent({1: 4, -1: -4})) == "4*q^1/2 - 4*q^-1/2"
    assert str(HalfLaurent({3: -1, 1: 2})) == "-q^3/2 + 2*q^1/2"


def test_json_pairs_round_trip():
    p = HalfLaurent({3: 2, -1: -5, 0: 7})
    pairs = p.to_json_pairs()
    assert pairs == [[3, 2], [0, 7], [-1, -5]]
    assert HalfLaurent.from_json_pairs(pairs) == p


@given(polys)
def test_json_pairs_round_trip_property(a):
    assert HalfLaurent.from_json_pairs(a.to_json_pairs()) == a


@given(polys, st.integers(0, 4))
def test_power_matches_repeated_product(a, k):
    expect = HalfLaurent(1)
    for _ in range(k):
        expect = expect * a
    assert a ** k == expect
