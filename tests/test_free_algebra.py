"""Tests for the noncommutative layer: word arithmetic, abelianization,
and the deformed-retraction verification."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retractlab import free_algebra as fa
from retractlab.parsing import parse_ncpoly
from retractlab.poly_core import MINUS_INF, Poly2, UniPoly

Q = fa.RATIONALS
F5 = fa.PrimeField(5)

X = fa.NcPoly.var_x()
Y = fa.NcPoly.var_y()


def upoly(*coeffs):
    return UniPoly.from_terms({k: c for k, c in enumerate(coeffs)})


def random_certificate(rng, field):
    """A generator r = x + (words each containing y), certified by (z, 0)."""
    pool = ["y", "yy", "xy", "yx", "xyy", "yxy", "yyx"]
    r = fa.NcPoly.var_x(field)
    for w in rng.sample(pool, rng.randint(1, 3)):
        c = rng.choice([-2, -1, 1, 2])
        r = r + fa.NcPoly.word(w, field, c)
    return r


words = st.text(alphabet="xy", max_size=3)
coeffs = st.integers(min_value=-3, max_value=3)
nc_polys = st.dictionaries(words, coeffs, max_size=4).map(
    lambda d: fa.NcPoly(Q, d)
)


class TestFields:
    def test_prime_field_rejects_composite(self):
        with pytest.raises(ValueError, match="not prime"):
            fa.PrimeField(21)

    def test_prime_field_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="between"):
            fa.PrimeField(1)
        with pytest.raises(ValueError, match="between"):
            fa.PrimeField(2**31 + 1)

    def test_coerce_fraction_inverts_denominator(self):
        assert F5.coerce(Fraction(1, 2)) == 3
        assert F5.coerce(Fraction(-1, 3)) == 3
        assert F5.coerce(7) == 2

    def test_coerce_rejects_denominator_in_ideal(self):
        with pytest.raises(ValueError, match="zero mod 5"):
            F5.coerce(Fraction(1, 10))

    def test_names(self):
        assert Q.name == "Q"
        assert F5.name == "F_5"


class TestArithmetic:
    def test_words_do_not_commute(self):
        assert X * Y != Y * X
        assert (X * Y).to_text() == "xy"
        assert (Y * X).to_text() == "yx"

    def test_commutator_is_nonzero(self):
        c = fa.commutator(X, Y)
        assert not c.is_zero()
        assert c == fa.NcPoly(Q, {"xy": 1, "yx": -1})

    def test_square_of_sum_keeps_both_cross_terms(self):
        expected = fa.NcPoly(Q, {"xx": 1, "xy": 1, "yx": 1, "yy": 1})
        assert (X + Y) ** 2 == expected

    def test_scalar_and_subtraction(self):
        p = 2 * fa.NcPoly.word("xyx") - fa.NcPoly.word("yxx")
        assert p.coefficient("xyx") == 2
        assert p.coefficient("yxx") == -1
        assert p - p == fa.NcPoly.zero()
        assert (p * Fraction(1, 2)).coefficient("xyx") == 1

    def test_pow_zero_is_one(self):
        assert (X + Y) ** 0 == fa.NcPoly.const(1)

    def test_degree_and_leading_form(self):
        p = fa.NcPoly(Q, {"xy": 1, "yx": -1, "x": 3, "": 5})
        assert p.deg() == 2
        assert p.leading_form() == fa.commutator(X, Y)
        assert fa.NcPoly.zero().deg() == MINUS_INF

    def test_constants(self):
        assert fa.NcPoly.const(3).constant_value() == 3
        assert fa.NcPoly.const(0).is_zero()
        with pytest.raises(ValueError, match="not constant"):
            X.constant_value()

    def test_mixed_fields_rejected(self):
        with pytest.raises(ValueError, match="mixed fields"):
            X + fa.NcPoly.var_x(F5)
        with pytest.raises(ValueError, match="mixed fields"):
            X * fa.NcPoly.var_x(F5)

    def test_word_alphabet_checked(self):
        with pytest.raises(ValueError, match="letters x and y"):
            fa.NcPoly.word("xz")

    def test_degree_cap_on_construction_and_products(self):
        with pytest.raises(ValueError, match="degree cap"):
            fa.NcPoly.word("x" * (fa.DEGREE_CAP + 1))
        a = fa.NcPoly.word("x" * 7)
        with pytest.raises(ValueError, match="degree cap"):
            a * a
        # at the cap is still fine
        assert (fa.NcPoly.word("x" * 6) * fa.NcPoly.word("y" * 6)).deg() == 12

    def test_text_ordering_and_signs(self):
        p = 2 * fa.NcPoly.word("xyx") - fa.NcPoly.word("yxx")
        assert p.to_text() == "2*xyx - yxx"
        q = fa.NcPoly(Q, {"x": -1, "y": Fraction(1, 2), "": -3})
        assert q.to_text() == "-x + 1/2*y - 3"
        assert fa.NcPoly.zero().to_text() == "0"

    @given(nc_polys, nc_polys, nc_polys)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a + b == b + a

    def test_prime_field_arithmetic_wraps(self):
        p = fa.NcPoly(F5, {"xy": 3}) + fa.NcPoly(F5, {"xy": 4})
        assert p.coefficient("xy") == 2
        assert (p * 5).is_zero()

    @given(nc_polys, nc_polys, coeffs, st.sampled_from([2, 5, 7]))
    @settings(max_examples=60, deadline=None)
    def test_reduction_mod_p_is_a_homomorphism(self, a, b, k, p):
        fp = fa.PrimeField(p)

        def mod_p(u):
            return fa.NcPoly(fp, {w: fp.coerce(c) for w, c in u.items()})

        ap, bp = mod_p(a), mod_p(b)
        assert ap + bp == mod_p(a + b)
        assert ap * bp == mod_p(a * b)
        assert -ap == mod_p(-a)
        assert ap * k == mod_p(a * k)
        assert k * ap == mod_p(k * a)


class TestAbelianization:
    def test_commutator_vanishes(self):
        assert fa.abelianization(fa.commutator(X, Y)).is_zero()

    def test_letter_counts_merge(self):
        p = fa.NcPoly.word("xxy") + fa.NcPoly.word("yxx")
        assert fa.abelianization(p) == Poly2.monomial(1, 2, 2)

    def test_prime_field_rejected(self):
        with pytest.raises(ValueError, match="rational polynomial ring only"):
            fa.abelianization(fa.NcPoly.var_x(F5))

    @given(nc_polys, nc_polys)
    @settings(max_examples=60, deadline=None)
    def test_ring_homomorphism(self, p, q):
        assert fa.abelianization(p * q) == fa.abelianization(p) * fa.abelianization(q)
        assert fa.abelianization(p + q) == fa.abelianization(p) + fa.abelianization(q)

    @given(nc_polys)
    @settings(max_examples=40, deadline=None)
    def test_deformation_invisible_after_collapse(self, r):
        image = fa.deformation_endo().apply(r)
        assert fa.abelianization(image) == fa.abelianization(r)

    @given(nc_polys)
    @settings(max_examples=40, deadline=None)
    def test_collapse_kernel_matches_abelianization(self, p):
        assert fa._commutative_collapse(p).is_zero() == fa.abelianization(p).is_zero()

    def test_collapse_works_over_prime_fields(self):
        c = fa.commutator(fa.NcPoly.var_x(F5), fa.NcPoly.var_y(F5))
        assert fa._commutative_collapse(c).is_zero()


class TestSubstitution:
    def test_identity_fixes(self):
        p = fa.NcPoly(Q, {"xy": 2, "yyx": -1, "": 4})
        assert fa.nc_substitute(p, fa.NcEndo.identity()) == p

    def test_order_is_preserved(self):
        swap = fa.NcEndo(Y, X)
        assert fa.nc_substitute(X * Y, swap) == Y * X

    def test_deformation_fixes_x(self):
        phi = fa.deformation_endo()
        assert phi.apply(X) == X
        assert phi.fy == Y + fa.commutator(X, Y)

    def test_mixed_fields_rejected(self):
        with pytest.raises(ValueError, match="mixed fields"):
            fa.nc_substitute(X, fa.NcEndo.identity(F5))

    def test_endo_images_must_share_field(self):
        with pytest.raises(ValueError, match="share a field"):
            fa.NcEndo(X, fa.NcPoly.var_y(F5))

    def test_unipoly_evaluation(self):
        w = X + Y**2
        assert fa.evaluate_unipoly(upoly(0, 0, 1), w) == w * w
        assert fa.evaluate_unipoly(upoly(3), w) == fa.NcPoly.const(3)
        assert fa.evaluate_unipoly(UniPoly.zero(), w).is_zero()
        assert fa.evaluate_unipoly(UniPoly.var_z(), w) == w

    def test_unipoly_coefficients_coerced_into_field(self):
        half = UniPoly.from_terms({1: Fraction(1, 2)})
        out = fa.evaluate_unipoly(half, fa.NcPoly.var_x(F5))
        assert out == fa.NcPoly(F5, {"x": 3})


class TestCommuteCheck:
    def test_powers_of_one_element_commute(self):
        w = X + Y**2
        assert fa.commute_check(w**2, w**3)

    def test_x_and_commutator_do_not(self):
        assert not fa.commute_check(X, fa.commutator(X, Y))

    def test_deformation_leading_forms_obstruct(self):
        phi = fa.deformation_endo()
        assert phi.fx.leading_form() == X
        assert phi.fy.leading_form() == fa.commutator(X, Y)
        assert not fa.commute_check(phi.fx.leading_form(), phi.fy.leading_form())

    def test_univariate_images_of_same_element_commute(self):
        rng = random.Random(11)
        for _ in range(25):
            w = fa.NcPoly(
                Q,
                {
                    "".join(rng.choice("xy") for _ in range(rng.randint(1, 3))): rng.randint(-2, 2)
                    for _ in range(rng.randint(1, 3))
                },
            )
            s = upoly(rng.randint(-2, 2), rng.randint(-2, 2), 1)
            t = upoly(rng.randint(-2, 2), 1)
            sw, tw = fa.evaluate_unipoly(s, w), fa.evaluate_unipoly(t, w)
            assert fa.commutator(sw, tw).is_zero()
            assert fa.commute_check(sw, tw)


class TestVerifyDeformedRetraction:
    def test_fixed_generator_is_untouched(self):
        report = fa.verify_deformed_retraction(X, UniPoly.var_z(), UniPoly.zero())
        assert report.passed
        assert report.r_prime == X

    def test_documented_expansion(self):
        r = X + Y**2
        report = fa.verify_deformed_retraction(r, UniPoly.var_z(), UniPoly.zero())
        c = fa.commutator(X, Y)
        assert report.r_prime == r + Y * c + c * Y + c**2
        assert report.passed
        assert report.shift_in_kernel
        assert report.fixes_deformed_generator
        assert report.idempotent_on_generators

    def test_rejects_non_certificate(self):
        with pytest.raises(ValueError, match="not a retract certificate"):
            fa.verify_deformed_retraction(Y, UniPoly.var_z(), UniPoly.zero())

    def test_report_serialization(self):
        report = fa.verify_deformed_retraction(X, UniPoly.var_z(), UniPoly.zero())
        obj = report.to_obj()
        assert obj["passed"] is True
        assert obj["r_prime"] == "x"
        assert set(obj) == {
            "r_prime",
            "shift_in_kernel",
            "fixes_deformed_generator",
            "idempotent_on_generators",
            "passed",
        }

    @pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
    def test_seeded_certificates(self, field):
        z, zero = UniPoly.var_z(), UniPoly.zero()
        for seed in range(20):
            rng = random.Random(seed)
            r = random_certificate(rng, field)
            report = fa.verify_deformed_retraction(r, z, zero)
            assert report.passed, f"seed {seed}"

    def test_mirrored_certificate(self):
        # generator built on y instead of x, certified by (0, z)
        r = Y + X * Y * X
        report = fa.verify_deformed_retraction(r, UniPoly.zero(), UniPoly.var_z())
        assert report.passed


class TestParsing:
    def test_documented_form(self):
        p = parse_ncpoly("2*xyx - yxx")
        assert p == 2 * fa.NcPoly.word("xyx") - fa.NcPoly.word("yxx")
        assert p.to_text() == "2*xyx - yxx"

    def test_prime_field_mode(self):
        p = parse_ncpoly("3*xy + 4*xy", field=F5)
        assert p == fa.NcPoly(F5, {"xy": 2})

    @given(nc_polys)
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, p):
        assert parse_ncpoly(p.to_text()) == p
