"""Grammar tests: precedence, rational literals, mode rules, positions,
and print/parse round trips."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retractlab import free_algebra as fa
from retractlab.parsing import (
    EXPONENT_CAP,
    NESTING_CAP,
    ParseError,
    parse_ncpoly,
    parse_poly2,
    parse_unipoly,
)
from retractlab.poly_core import Poly2, UniPoly
from retractlab.theorem_lab import witness_coordinate

X = Poly2.var_x()
Y = Poly2.var_y()


def poly2s():
    coeff = st.integers(min_value=-9, max_value=9).map(Fraction)
    keys = st.tuples(
        st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5)
    )
    return st.dictionaries(keys, coeff, max_size=6).map(Poly2)


def unipolys():
    coeff = st.fractions(
        min_value=-9, max_value=9, max_denominator=7
    )
    return st.dictionaries(
        st.integers(min_value=0, max_value=6), coeff, max_size=5
    ).map(UniPoly.from_terms)


def expression_trees(variables):
    """Random trees: sums, differences, products, powers up to 3, unary
    minus and rational literals, as nested tuples."""
    leaves = st.one_of(
        st.sampled_from(variables).map(lambda v: ("var", v)),
        st.fractions(min_value=-5, max_value=5, max_denominator=4).map(
            lambda c: ("num", c)
        ),
    )

    def branches(kids):
        return st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*"]), kids, kids),
            st.tuples(st.just("^"), kids, st.integers(min_value=0, max_value=3)),
            st.tuples(st.just("neg"), kids),
        )

    return st.recursive(leaves, branches, max_leaves=10).filter(
        lambda tree: tree_degree(tree) <= 24
    )


def tree_degree(tree):
    kind = tree[0]
    if kind in ("var", "num"):
        return int(kind == "var")
    if kind == "^":
        return tree_degree(tree[1]) * tree[2]
    if kind == "neg":
        return tree_degree(tree[1])
    left, right = tree_degree(tree[1]), tree_degree(tree[2])
    return left + right if kind == "*" else max(left, right)


# binding strength of each rendered form; an operand weaker than its slot
# needs parentheses (pow bases must be atoms or powers, so (-x)^2 keeps its)
_SUM, _PRODUCT, _NEG, _POW, _ATOM = range(5)


def render(tree):
    """(text, binding strength) with only the parentheses the grammar needs."""
    kind = tree[0]
    if kind == "var":
        return tree[1], _ATOM
    if kind == "num":
        c = tree[1]
        lit = str(abs(c))
        return ("-" + lit, _NEG) if c < 0 else (lit, _ATOM)

    def slot(sub, strength):
        text, got = render(sub)
        return text if got >= strength else f"({text})"

    if kind == "neg":
        return "-" + slot(tree[1], _NEG), _NEG
    if kind == "^":
        return f"{slot(tree[1], _POW)}^{tree[2]}", _POW
    if kind == "*":
        return f"{slot(tree[1], _PRODUCT)}*{slot(tree[2], _NEG)}", _PRODUCT
    return f"{slot(tree[1], _SUM)} {kind} {slot(tree[2], _PRODUCT)}", _SUM


def build(tree, ring):
    """The tree evaluated by the ring's own arithmetic."""
    kind = tree[0]
    if kind == "var":
        return ring[tree[1]]
    if kind == "num":
        return ring["1"] * tree[1]
    if kind == "neg":
        return -build(tree[1], ring)
    if kind == "^":
        return build(tree[1], ring) ** tree[2]
    left, right = build(tree[1], ring), build(tree[2], ring)
    return {"+": left + right, "-": left - right, "*": left * right}[kind]


POLY2_RING = {"x": X, "y": Y, "1": Poly2.const(1)}
UNIPOLY_RING = {"z": UniPoly.var_z(), "1": UniPoly.const(1)}


class TestDocumentedForms:
    def test_witness_coordinate_text(self):
        assert parse_poly2("y+(x+y^3)^2") == witness_coordinate(3)

    def test_rational_coefficients(self):
        p = parse_poly2("1/2*x*y - y")
        assert p.terms == {(1, 1): Fraction(1, 2), (1, 0): Fraction(-1)}

    def test_noncommutative_commutator(self):
        c = parse_ncpoly("x*y - y*x")
        assert c == fa.commutator(fa.NcPoly.var_x(), fa.NcPoly.var_y())


class TestPrecedence:
    def test_power_binds_tighter_than_product(self):
        assert parse_poly2("2*x^3") == Poly2.monomial(0, 3, 2)
        assert parse_poly2("x*y^2") == X * Y * Y

    def test_product_binds_tighter_than_sum(self):
        assert parse_poly2("x+y*x") == X + Y * X

    def test_unary_minus(self):
        assert parse_poly2("-x^2") == Poly2.monomial(0, 2, -1)
        assert parse_poly2("--x") == X
        assert parse_poly2("-(x+y)") == -(X + Y)

    def test_parentheses(self):
        assert parse_poly2("(x+y)^2") == (X + Y) ** 2

    def test_whitespace_insensitive(self):
        assert parse_poly2(" x +\n y ") == X + Y


class TestModeRules:
    def test_commutative_rejects_juxtaposed_names(self):
        with pytest.raises(ParseError, match="write 'x\\*y'"):
            parse_poly2("xy")

    def test_commutative_rejects_adjacent_tokens(self):
        with pytest.raises(ParseError, match="implicit multiplication"):
            parse_poly2("2x")
        with pytest.raises(ParseError, match="implicit multiplication"):
            parse_poly2("x y")

    def test_noncommutative_name_is_a_word(self):
        w = parse_ncpoly("xy")
        assert w == fa.NcPoly.word("xy")
        # the power applies to the whole word atom
        assert parse_ncpoly("xyx^2") == fa.NcPoly.word("xyx") ** 2
        assert parse_ncpoly("xy*x^2") == fa.NcPoly.word("xyxx")

    def test_z_is_univariate_only(self):
        with pytest.raises(ParseError, match="unknown variable 'z'"):
            parse_poly2("z")
        assert parse_unipoly("z^2-1") == UniPoly.from_terms({2: 1, 0: -1})
        with pytest.raises(ParseError, match="unknown variable 'x'"):
            parse_unipoly("x")

    def test_unipoly_alternate_variable(self):
        assert parse_unipoly("y^2", var="y") == UniPoly.from_terms({2: 1})

    def test_unknown_word_rejected(self):
        with pytest.raises(ParseError, match="words use letters x and y"):
            parse_ncpoly("xz")

    def test_prime_field_coercion(self):
        p = parse_ncpoly("1/2*xy", field=fa.PrimeField(5))
        assert p == fa.NcPoly(fa.PrimeField(5), {"xy": 3})


class TestErrors:
    def test_positions_are_one_based(self):
        with pytest.raises(ParseError) as exc:
            parse_poly2("x*y~")
        assert (exc.value.line, exc.value.column) == (1, 4)

    def test_position_across_lines(self):
        with pytest.raises(ParseError) as exc:
            parse_poly2("x +\n* y")
        assert (exc.value.line, exc.value.column) == (2, 1)

    def test_dangling_operator(self):
        with pytest.raises(ParseError, match="end of input"):
            parse_poly2("x+")

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError, match="expected '\\)'"):
            parse_poly2("(x+y")

    def test_exponent_must_be_integer_literal(self):
        with pytest.raises(ParseError, match="nonnegative integer"):
            parse_poly2("x^(2)")
        with pytest.raises(ParseError, match="nonnegative integer"):
            parse_poly2("x^1/2")

    def test_exponent_overflow(self):
        with pytest.raises(ParseError, match=f"cap {EXPONENT_CAP}"):
            parse_poly2(f"x^{EXPONENT_CAP + 1}")
        assert parse_poly2("y^12").deg() == 12

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_poly2("1/0")

    def test_first_of_two_unknown_names_is_reported(self):
        for text, column in (("x + q*w", 5), ("(x + q)^2 - w", 6), ("w*(q+x)", 1)):
            with pytest.raises(ParseError, match="unknown variable") as exc:
                parse_poly2(text)
            assert (exc.value.line, exc.value.column) == (1, column), text

    def test_nesting_cap(self):
        deepest = "(" * NESTING_CAP + "x" + ")" * NESTING_CAP
        assert parse_poly2(deepest) == X
        with pytest.raises(ParseError, match="nested deeper") as exc:
            parse_poly2("(" * 1000 + "x" + ")" * 1000)
        # the offending '(' is the first one past the cap
        assert (exc.value.line, exc.value.column) == (1, NESTING_CAP + 1)


class TestRoundTrips:
    @given(poly2s())
    @settings(max_examples=80, deadline=None)
    def test_poly2(self, p):
        assert parse_poly2(p.to_text()) == p

    @given(unipolys())
    @settings(max_examples=80, deadline=None)
    def test_unipoly(self, u):
        assert parse_unipoly(u.to_text()) == u

    @given(expression_trees(["x", "y"]))
    @settings(max_examples=150, deadline=None)
    def test_poly2_matches_ring_arithmetic(self, tree):
        text, _ = render(tree)
        assert parse_poly2(text) == build(tree, POLY2_RING), text

    @given(expression_trees(["z"]))
    @settings(max_examples=100, deadline=None)
    def test_unipoly_matches_ring_arithmetic(self, tree):
        text, _ = render(tree)
        assert parse_unipoly(text) == build(tree, UNIPOLY_RING), text

    def test_long_sum(self):
        # a left-deep tree of this sum used to exhaust the recursion limit
        assert parse_poly2("+".join(["x"] * 1200)) == 1200 * X

    def test_round_trip_past_two_thousand_terms(self):
        p = (X + Y + 1) ** 62
        assert len(p.terms) == 2016
        assert parse_poly2(p.to_text()) == p

    def test_seeded_sweep_both_modes(self):
        rng = random.Random(2024)
        for _ in range(120):
            p = Poly2(
                {
                    (rng.randint(0, 4), rng.randint(0, 4)): rng.randint(-6, 6)
                    for _ in range(rng.randint(0, 5))
                }
            )
            assert parse_poly2(p.to_text()) == p
        for _ in range(80):
            q = fa.NcPoly(
                fa.RATIONALS,
                {
                    "".join(rng.choice("xy") for _ in range(rng.randint(0, 4))): rng.randint(-6, 6)
                    for _ in range(rng.randint(0, 4))
                },
            )
            assert parse_ncpoly(q.to_text()) == q

    def test_edge_forms(self):
        for text in ("0", "-x", "1/3", "x^2 - y", "-3*x*y + 2"):
            assert parse_poly2(parse_poly2(text).to_text()) == parse_poly2(text)
