"""Exactness and order tests for the polynomial cores.

Expansion and substitution expectations were frozen from an independent
computer-algebra evaluation; random-point evaluation cross-checks guard the
arithmetic paths without reusing them.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from retractlab.poly_core import (
    MINUS_INF,
    Monomial,
    Poly2,
    UniPoly,
    horner,
    monomial_degree_under,
    substitute1,
    substitute2,
    try_sqrt,
)

X = Poly2.var_x()
Y = Poly2.var_y()
Z = UniPoly.var_z()


def poly(d):
    return Poly2(d)


rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)

poly2s = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    rationals,
    max_size=6,
).map(Poly2)

unipolys = st.lists(rationals, max_size=5).map(UniPoly)


def eval_point(p: Poly2, a: Fraction, b: Fraction) -> Fraction:
    return sum(
        (c * b**m.i * a**m.j for m, c in p.items()),
        Fraction(0),
    )


# ---------------------------------------------------------------- basics


def test_zero_degree_is_sentinel_not_minus_one():
    assert Poly2.zero().deg() == MINUS_INF
    assert Poly2.zero().deg() < -10**9
    assert Poly2.zero().deg() != -1
    assert UniPoly.zero().deg() == MINUS_INF


def test_no_zero_coefficients_stored():
    p = poly({(0, 1): 1, (2, 0): 0}) + poly({(0, 1): -1})
    assert p.is_zero()
    assert dict(p.terms) == {}


def test_mul_frozen_expansion():
    lhs = (2 * X - Y + 1) * (X**2 + X * Y - 3)
    expected = poly(
        {
            (0, 3): 2,
            (1, 2): 1,
            (0, 2): 1,
            (2, 1): -1,
            (1, 1): 1,
            (0, 1): -6,
            (0, 0): -3,
            (1, 0): 3,
        }
    )
    assert lhs == expected


def test_pow_frozen_expansion():
    assert (X + 2 * Y) ** 3 == poly(
        {(0, 3): 1, (1, 2): 6, (2, 1): 12, (3, 0): 8}
    )


def test_difference_of_squares_frozen():
    h = X + 1
    assert (X + Y * h) ** 2 - (X - Y * h) ** 2 == poly(
        {(1, 2): 4, (1, 1): 4}
    )


# ------------------------------------------------------------ lex order


def test_leading_monomial_x_dominates_y():
    # x >> y: any positive x-exponent beats any y-exponent.
    p = X + Y**9
    assert p.leading_monomial() == Monomial(i=0, j=1)
    q = X**2 * Y + X**2 * Y**3 + X * Y**8
    assert q.leading_monomial() == Monomial(i=3, j=2)


def test_leading_monomial_of_zero_errors():
    with pytest.raises(ValueError):
        Poly2.zero().leading_monomial()


@settings(max_examples=60)
@given(poly2s, poly2s)
def test_leading_monomial_multiplicative(p, q):
    if p.is_zero() or q.is_zero():
        return
    mp, mq = p.leading_monomial(), q.leading_monomial()
    assert (p * q).leading_monomial() == Monomial(mp.i + mq.i, mp.j + mq.j)


# ---------------------------------------------------------- ring axioms


@settings(max_examples=40)
@given(poly2s, poly2s, poly2s)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + Poly2.zero() == p
    assert p * Poly2.const(1) == p
    assert p - p == Poly2.zero()


@settings(max_examples=40)
@given(poly2s, poly2s)
def test_mul_agrees_with_point_evaluation(p, q):
    for a, b in [(Fraction(2), Fraction(-3)), (Fraction(1, 2), Fraction(5, 3))]:
        assert eval_point(p * q, a, b) == eval_point(p, a, b) * eval_point(q, a, b)


# ---------------------------------------------------------- substitution


def test_substitute1_examples():
    assert substitute1(X * Y, Z**2, Z**3) == Z**5
    w = Y + (X + Y**2) ** 2
    assert substitute1(w, Z, UniPoly.zero()) == Z**2
    h = X**2 * Y + 3
    assert substitute1(X + Y * h, Z, UniPoly.zero()) == Z


def test_substitute1_frozen_oracle():
    p = X**2 * Y - 3 * X + Y**2
    s = Z**2 - 1
    t = 2 * Z + UniPoly.const(Fraction(1, 2))
    expected = UniPoly(
        [Fraction(15, 4), 4, 0, -4, Fraction(1, 2), 2]
    )
    assert substitute1(p, s, t) == expected


@settings(max_examples=50)
@given(poly2s)
def test_substitute2_identity(p):
    assert substitute2(p, X, Y) == p


# Exponents with gaps above 1, so sparse Horner must raise the argument
# to powers beyond the first; the empty dict gives the zero polynomial.
sparse_poly2s = st.dictionaries(
    st.tuples(st.sampled_from([0, 1, 3, 6]), st.sampled_from([0, 2, 5])),
    rationals,
    max_size=4,
).map(Poly2)

small_poly2s = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    rationals,
    max_size=3,
).map(Poly2)

sparse_unipolys = st.dictionaries(
    st.sampled_from([0, 2, 5]), rationals, max_size=3
).map(UniPoly.from_terms)

points = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4
)


def eval_z(u: UniPoly, r: Fraction) -> Fraction:
    return eval_point(Poly2({(0, k): c for k, c in enumerate(u.coeffs)}), r, 0)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(sparse_poly2s, poly2s), small_poly2s, small_poly2s, points, points
)
@example(Poly2.zero(), X + Y, X * Y, Fraction(2), Fraction(-1, 3))
def test_substitute2_agrees_with_point_evaluation(p, a, b, u, v):
    image = substitute2(p, a, b)
    assert eval_point(image, u, v) == eval_point(
        p, eval_point(a, u, v), eval_point(b, u, v)
    )


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(sparse_poly2s, poly2s),
    st.one_of(sparse_unipolys, unipolys),
    st.one_of(sparse_unipolys, unipolys),
    points,
)
@example(Poly2.zero(), Z, Z**2, Fraction(3, 2))
def test_substitute1_agrees_with_point_evaluation(p, s, t, r):
    image = substitute1(p, s, t)
    assert eval_z(image, r) == eval_point(p, eval_z(s, r), eval_z(t, r))


@settings(max_examples=30)
@given(poly2s, unipolys, unipolys, unipolys)
def test_substitution_composition_law(p, s, t, q):
    # substituting then composing equals composing the substituents first
    lhs = substitute1(p, s, t).compose(q)
    rhs = substitute1(p, s.compose(q), t.compose(q))
    assert lhs == rhs


@settings(max_examples=40)
@given(st.lists(st.integers(-9, 9), max_size=6), st.integers(-5, 5), unipolys)
@example([], 3, Z)
def test_horner_matches_power_sum(coeffs, a, u):
    assert horner(coeffs, a, 0) == sum(c * a**k for k, c in enumerate(coeffs))
    want = sum((c * u**k for k, c in enumerate(coeffs)), UniPoly())
    assert horner(coeffs, u, UniPoly()) == want


@settings(max_examples=40)
@given(
    st.integers(0, 5),
    st.integers(0, 5),
    st.integers(1, 4),
    st.integers(1, 4),
)
def test_monomial_degree_under_matches_substitution(i, j, ds, dt):
    s = Z**ds + 1
    t = Z**dt - 2
    image = substitute1(Poly2.monomial(i, j), s, t)
    if i == 0 and j == 0:
        assert image.deg() == 0 == monomial_degree_under(i, j, ds, dt)
    else:
        assert image.deg() == monomial_degree_under(i, j, ds, dt)


# --------------------------------------------------------------- unipoly


def test_unipoly_divmod_exact():
    a = Z**3 - 2 * Z + 5
    b = Z - 1
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.deg() == 0 or r.is_zero()
    q2, r2 = divmod(Z**4 - 1, Z**2 + 1)
    assert q2 == Z**2 - 1 and r2.is_zero()


@settings(max_examples=40)
@given(unipolys, unipolys)
def test_unipoly_divmod_property(a, b):
    if b.is_zero():
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero() or r.deg() < b.deg()


def test_unipoly_compose():
    u = Z**2 + 1
    v = Z - 3
    assert u.compose(v) == Z**2 - 6 * Z + 10


def test_unipoly_eval_at_poly():
    u = Z**2 + UniPoly.const(2)
    p = X + Y
    assert u.eval_at_poly(p) == (X + Y) ** 2 + 2


# ------------------------------------------------------------ square root


def test_try_sqrt_detects_squares():
    for q in [X + Y**3, 2 * X * Y - 1, Y, X**2 + Y, Poly2.const(Fraction(3, 5))]:
        root = try_sqrt(q * q)
        assert root is not None
        assert root * root == q * q


def test_try_sqrt_rejects_non_squares():
    for p in [X * Y, X + Y, Y**3, 2 * X**2, X**2 + Y**2, -(Y**2)]:
        assert try_sqrt(p) is None


def test_try_sqrt_rational_coefficients():
    p = Fraction(1, 4) * X**2
    root = try_sqrt(p)
    assert root is not None and root * root == p


# ------------------------------------------------------------- text form


def test_canonical_text_examples():
    p = 3 * X**2 * Y - Fraction(1, 2) * Y
    assert p.to_text() == "3*x^2*y - 1/2*y"
    assert Poly2.zero().to_text() == "0"
    assert (X - Y).to_text() == "x - y"
    assert (-X + Y).to_text() == "-x + y"
    assert Poly2.const(Fraction(-7, 3)).to_text() == "-7/3"
    assert (Z**2 + Fraction(1, 2) * Z).to_text() == "z^2 + 1/2*z"
    assert UniPoly.const(1).to_text() == "1"
