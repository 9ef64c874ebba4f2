"""Retract certificates, retraction endomorphisms, bounded search, span test."""

import itertools
import logging
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retractlab.endo_algebra import ElemX, ElemY, TameAuto, compose, random_tame
from retractlab.errors import InternalCheckError
from retractlab.poly_core import Poly2, UniPoly, try_sqrt
from retractlab.retracts import (
    CANONICAL_COEFFS,
    Retraction,
    RetractCertificate,
    SearchResult,
    generates_kz,
    is_retract_generator_bounded,
    make_retract_generator,
    retraction_endo,
    verify_retract_generator,
)

X = Poly2.var_x()
Y = Poly2.var_y()
Z = UniPoly.var_z()
ZERO = UniPoly.zero()


def upoly(*coeffs):
    return UniPoly([Fraction(c) for c in coeffs])


# ---------------------------------------------------------------- verify


def test_verify_normal_form_any_h():
    for h in (Poly2.zero(), X, X * Y + 3, Y**4 - X):
        assert verify_retract_generator(X + Y * h, Z, ZERO)


def test_verify_xy_with_constant_side():
    assert verify_retract_generator(X * Y, Z, upoly(1))


def test_verify_rejects_wrong_pair():
    # x + y at (z, z) evaluates to 2z, not z
    assert not verify_retract_generator(X + Y, Z, Z)


def test_verify_constant_raises():
    with pytest.raises(ValueError):
        verify_retract_generator(Poly2.const(5), Z, ZERO)


# ------------------------------------------------------------- Retraction


def test_retraction_validates_pair():
    with pytest.raises(ValueError):
        Retraction(s=Z, t=Z, p=X + Y)
    with pytest.raises(ValueError):
        Retraction(s=Z, t=ZERO, p=Poly2.const(1))


def test_retraction_endo_normal_form():
    r = Retraction(s=Z, t=ZERO, p=X + Y * X)
    pi = retraction_endo(r)
    assert pi.f == X + X * Y
    assert pi.g == Poly2.zero()
    assert compose(pi, pi) == pi


def test_retraction_endo_xy():
    r = Retraction(s=Z, t=upoly(1), p=X * Y)
    pi = retraction_endo(r)
    assert pi.f == X * Y
    assert pi.g == Poly2.const(1)
    assert pi.apply(X * Y) == X * Y


def test_retraction_endo_coordinate_x():
    pi = retraction_endo(Retraction(s=Z, t=ZERO, p=X))
    assert pi.f == X and pi.g == Poly2.zero()


def test_retraction_endo_large_instance_uses_identity_route():
    # degree 18 generator: direct composition would be big, the certificate
    # identity still guarantees idempotency on the fixed generator
    h = X**8 * Y**9
    r = Retraction(s=Z, t=ZERO, p=X + Y * h)
    pi = retraction_endo(r)
    assert pi.apply(r.p) == r.p


def test_retraction_to_obj_text():
    r = Retraction(s=Z, t=ZERO, p=X + X * Y)
    assert r.to_obj() == {"p": "x*y + x", "s": "z", "t": "0"}


# ------------------------------------------------------------ certificates


def test_certificate_normal_form():
    cert = RetractCertificate.normal_form(X)
    assert cert.p == X + X * Y
    r = cert.to_retraction()
    assert (r.s, r.t) == (Z, ZERO)


def test_certificate_direct_roundtrip():
    cert = RetractCertificate.direct(X * Y, Z, upoly(1))
    assert cert.to_retraction().p == X * Y


def test_certificate_direct_requires_pair():
    with pytest.raises(ValueError):
        RetractCertificate(X * Y, "direct", s=Z)


def test_certificate_conjugated_validates_claim():
    sigma = TameAuto((ElemY(upoly(0, 0, 1)),))  # (x, y + x^2)
    with pytest.raises(ValueError):
        RetractCertificate.conjugated(X + Y, sigma, Poly2.zero())


def test_certificate_unknown_kind():
    with pytest.raises(ValueError):
        RetractCertificate(X, "mystery")


def test_make_identity_h_x():
    cert = make_retract_generator(TameAuto(()), X)
    assert cert.kind == "normal-form"
    assert cert.p == X + X * Y
    r = cert.to_retraction()
    assert (r.s, r.t) == (Z, ZERO)


def test_make_elementary_sigma_h_zero():
    # sigma = (x, y + x^2) pulls x + y*0 back to the coordinate x
    sigma = TameAuto((ElemY(upoly(0, 0, 1)),))
    cert = make_retract_generator(sigma, Poly2.zero())
    assert cert.kind == "conjugated"
    assert cert.p == X
    r = cert.to_retraction()
    assert (r.s, r.t) == (Z, upoly(0, 0, 1))


def test_make_accepts_scalar_h():
    cert = make_retract_generator(TameAuto(()), 1)
    assert cert.p == X + Y


def test_make_seeded_all_validate():
    rng = random.Random(411)
    for _ in range(30):
        sigma = random_tame(rng, n_moves=3, deg_bound=2, coeff_bound=2)
        h = Poly2(
            {
                (rng.randrange(3), rng.randrange(3)): rng.choice([1, -1, 2]),
                (0, 0): rng.randrange(-2, 3),
            }
        )
        r = make_retract_generator(sigma, h).to_retraction()
        assert verify_retract_generator(r.p, r.s, r.t)


def test_transported_certificate_of_certified_generator():
    # if p(s, t) = z and sigma is tame, sigma applied to p is again a
    # generator, certified by the inverse components evaluated at (s, t)
    rng = random.Random(77)
    base = Retraction(s=Z, t=ZERO, p=X + Y * (X**2 - 1))
    for _ in range(10):
        sigma = random_tame(rng, n_moves=2, deg_bound=2, coeff_bound=2)
        tau = sigma.inverse().to_endo()
        q = sigma.to_endo().apply(base.p)
        a = tau.f.substitute1(base.s, base.t)
        b = tau.g.substitute1(base.s, base.t)
        assert verify_retract_generator(q, a, b)


# ---------------------------------------------------------- bounded search


def test_search_x_squared_y():
    d = is_retract_generator_bounded(X**2 * Y, 1)
    assert d.found
    assert (d.s, d.t) == (upoly(1), Z)


def test_search_coordinate_x():
    d = is_retract_generator_bounded(X, 2)
    assert d.found
    assert (d.s, d.t) == (Z, ZERO)


def test_search_x_plus_xy():
    # x + xy = x*(1 + y) has the exact certificate s = 1, t = z - 1
    d = is_retract_generator_bounded(X + X * Y, 4)
    assert d.found
    assert (d.s, d.t) == (upoly(1), upoly(-1, 1))


def test_search_xy_first_certificate_order():
    # cell (ds, dt) = (0, 1) precedes (1, 0), so (1, z) wins over (z, 1)
    d = is_retract_generator_bounded(X * Y, 3)
    assert (d.s, d.t) == (upoly(1), Z)


def test_search_square_fast_path():
    for p in (X**2, (X + Y**2) ** 2, Y**2):
        d = is_retract_generator_bounded(p, 5)
        assert not d.found
        assert "square" in d.reason


def test_search_negated_square_fast_path():
    d = is_retract_generator_bounded(-(X**2), 5)
    assert not d.found
    assert "square" in d.reason


def test_search_x_plus_y_squared():
    d = is_retract_generator_bounded(X + Y**2, 3)
    assert d.found
    assert (d.s, d.t) == (Z, ZERO)


def test_search_witness_image_rejected():
    # coordinate y + (x + y^3)^2 pushed through (x, xy): no bounded pair
    wit = Y + (X + Y**3) ** 2
    img = wit.substitute2(X, X * Y)
    d = is_retract_generator_bounded(img, 4)
    assert not d.found
    assert "4" in d.reason


def test_search_constant_raises():
    with pytest.raises(ValueError):
        is_retract_generator_bounded(Poly2.const(3), 2)


def test_search_deterministic_rerun():
    p = X * Y + X**3
    a = is_retract_generator_bounded(p, 3)
    b = is_retract_generator_bounded(p, 3)
    assert (a.found, a.s, a.t, a.reason) == (b.found, b.s, b.t, b.reason)


def test_search_found_always_verifies():
    rng = random.Random(9)
    hits = 0
    for _ in range(40):
        terms = {
            (rng.randrange(3), rng.randrange(3)): rng.randrange(-2, 3)
            for _ in range(3)
        }
        p = Poly2(terms)
        if p.is_constant():
            continue
        d = is_retract_generator_bounded(p, 2)
        if d.found:
            hits += 1
            assert verify_retract_generator(p, d.s, d.t)
    assert hits > 0


def test_search_custom_coeff_set():
    # 3 is outside the default grid; passing it in finds s = 3
    p = 3 * X * Y - X  # p(3, t) = 9t - 3 forces t = (z + 3)/9
    d = is_retract_generator_bounded(p, 2, coeff_set=(0, 3))
    assert d.found
    assert verify_retract_generator(p, d.s, d.t)


def test_search_coeff_set_needs_nonzero():
    with pytest.raises(ValueError):
        is_retract_generator_bounded(X, 2, coeff_set=(0,))


def test_search_result_truthiness():
    assert is_retract_generator_bounded(X, 1)
    assert not is_retract_generator_bounded(X**2, 1)


# ------------------------------------- bounded search against brute force


def _grid_polys(deg, scalars):
    """Every polynomial of degree exactly deg (every constant, zero
    included, for deg 0) with coefficients from scalars: constant term
    varying slowest, leading coefficient fastest."""
    if deg == 0:
        return [UniPoly((c,)) for c in scalars]
    return [
        UniPoly(body + (lead,))
        for body in itertools.product(scalars, repeat=deg)
        for lead in scalars
        if lead
    ]


def _reference_pairs(p, ds, dt, scalars, solve_constant_cells=True):
    if solve_constant_cells and (ds, dt) in ((1, 0), (0, 1)):
        # one constant side c from the grid; the linear side is solved
        # exactly from p(z, c) or p(c, z), so it is not grid limited
        for c in scalars:
            const = UniPoly((c,))
            q = p.substitute1(Z, const) if dt == 0 else p.substitute1(const, Z)
            if q.deg() == 1:
                solved = (Z - UniPoly((q.coefficient(0),))) / q.coefficient(1)
                yield (solved, const) if dt == 0 else (const, solved)
        return
    for s in _grid_polys(ds, scalars):
        for t in _grid_polys(dt, scalars):
            yield s, t


def _reference_search(
    p, max_deg, coeff_set=CANONICAL_COEFFS, solve_constant_cells=True
):
    """Brute force in the documented order, each pair decided by
    verify_retract_generator.  Without solve_constant_cells, both sides
    of every cell come from the grid."""
    scalars = [Fraction(c) for c in coeff_set]
    for total in range(2 * max_deg + 1):
        for ds in range(max(0, total - max_deg), min(total, max_deg) + 1):
            pairs = _reference_pairs(
                p, ds, total - ds, scalars, solve_constant_cells
            )
            for s, t in pairs:
                if verify_retract_generator(p, s, t):
                    return True, s, t, "certificate found"
    grid = "{" + ", ".join(str(c) for c in scalars) + "}"
    return (
        False,
        None,
        None,
        f"no certificate with both degrees <= {max_deg} and enumerated "
        f"coefficients from {grid}",
    )


def _random_grid_p(rng, coeffs):
    """Degree 2 or 3, both variables at degree >= 2 (so both sides are
    enumerated), and not a square up to sign."""
    while True:
        deg = rng.choice((2, 3))
        p = Poly2(
            {
                (i, j): rng.choice(coeffs)
                for i in range(deg + 1)
                for j in range(deg + 1 - i)
                if rng.random() < 0.6
            }
        )
        if (
            p.deg() == deg
            and p.deg_x() >= 2
            and p.deg_y() >= 2
            and try_sqrt(p) is None
            and try_sqrt(-p) is None
        ):
            return p


def _pulled_back_coordinate(u, a, b, c, d):
    """x - u(y) at x := a*x + b*y, y := c*x + d*y.  With k a constant,
    x - u(y) has the certificate (z + u(k), k), so this p has the
    degree-1 certificate solving a*s + b*t = z + u(k), c*s + d*t = k."""
    return (X * a + Y * b) - u.eval_at_poly(X * c + Y * d)


def _assert_matches_reference(p, max_deg, coeff_set=CANONICAL_COEFFS):
    got = is_retract_generator_bounded(p, max_deg, coeff_set)
    want = _reference_search(p, max_deg, coeff_set)
    assert (got.found, got.s, got.t, got.reason) == want, p.to_text()
    return got


def test_search_matches_brute_force_random():
    rng = random.Random(20)
    coeffs = (-2, -1, 0, 1, 2, Fraction(1, 2))
    for _ in range(10):
        _assert_matches_reference(_random_grid_p(rng, coeffs), 1)
    for _ in range(2):
        _assert_matches_reference(
            _random_grid_p(rng, coeffs), 2, coeff_set=(0, 1, -1)
        )


def test_search_matches_brute_force_fractional_coeff_set():
    rng = random.Random(21)
    half = (0, 1, Fraction(1, 2))
    for _ in range(4):
        _assert_matches_reference(_random_grid_p(rng, (-1, 0, 1, 2)), 1, half)
    # (x + y) - (x - y)^2: with k = 0, s = t = z/2, inside {0, 1, 1/2}
    p = _pulled_back_coordinate(upoly(0, 0, 1), 1, 1, 1, -1)
    got = _assert_matches_reference(p, 1, half)
    assert got.found


def test_search_matches_brute_force_known_certificates():
    # (x + y) - u(x + 2y) has the certificate (2z + 2u(k) - k, k - z - u(k))
    # for every constant k: both sides of degree 1, found by the grid
    for u in (upoly(0, 0, 1), upoly(1, -1, 1), upoly(0, 1, 0, -1)):
        p = _pulled_back_coordinate(u, 1, 1, 1, 2)
        assert p.deg_x() >= 2 and p.deg_y() >= 2
        got = _assert_matches_reference(p, 1)
        assert got.found and got.s.deg() == got.t.deg() == 1
    p = _pulled_back_coordinate(upoly(0, 0, -1), 2, 1, 1, 1)
    assert _assert_matches_reference(p, 2).found


def test_search_balanced_composite_max_deg_3():
    # F(a*x + b*y + c) with deg F = 2 and |a| = |b|: every image is F of a
    # polynomial, of degree 0 or >= 2, never z; every cell up to (3, 3) is
    # searched
    for lin in (X + Y + 1, X * 2 - Y * 2 - 1):
        p = upoly(1, 1, 1).eval_at_poly(lin)
        d = is_retract_generator_bounded(p, 3)
        assert not d.found and d.s is None and d.t is None
        assert d.reason == (
            "no certificate with both degrees <= 3 and enumerated "
            "coefficients from {0, 1, -1, 2, -2}"
        )


def _random_linear_p(rng, in_y, vanish_on=()):
    """p = A(w) + v*B(w) with B nonzero, linear in v = y (in_y) or v = x,
    and taking the search's linear path for v.  With vanish_on, B is a
    constant times the product of (w - c) over it, so that B(c) = 0 for
    every constant side c there."""
    w, v = (X, Y) if in_y else (Y, X)
    b_len = 1 if vanish_on else 3
    root_prod = UniPoly.const(1)
    for c in vanish_on:
        root_prod = root_prod * (Z - c)
    while True:
        a = upoly(*(rng.randint(-2, 2) for _ in range(rng.randint(1, 4))))
        b = upoly(*(rng.randint(-2, 2) for _ in range(rng.randint(1, b_len))))
        p = a.eval_at_poly(w) + v * (b * root_prod).eval_at_poly(w)
        if b and (p.deg_y() == 1) == in_y and (in_y or p.deg_x() == 1):
            return p


def _cell(s, t):
    """Position of a pair in the documented cell order."""
    ds, dt = max(s.deg(), 0), max(t.deg(), 0)
    return ds + dt, ds


def test_search_linear_p_against_brute_force():
    # The linear path enumerates one side and solves for the other, so in
    # any cell where the all-grid reference finds a certificate, the
    # search finds one too: a reference Yes is a search Yes, in the same
    # cell or an earlier one.  The reference's solved constant-side cells
    # are left out, since there the solved side is the one the linear
    # path enumerates.  Solved sides are not grid limited, so the search
    # may find more, and every search Yes must verify within the degree
    # bound.  In inputs 4 to 7 of every eight, B vanishes at each constant
    # of the grid, so B(free) = 0 occurs in the search.
    rng = random.Random(22)
    small = (0, 1, -1)
    for n in range(20):
        in_y, max_deg = n % 2 == 0, 2 if n % 4 == 3 else 1
        vanish = n % 8 >= 4
        p = _random_linear_p(rng, in_y, small if vanish else ())
        coeff_set = small if vanish or max_deg == 2 else CANONICAL_COEFFS
        got = is_retract_generator_bounded(p, max_deg, coeff_set)
        if got.found:
            assert verify_retract_generator(p, got.s, got.t), p.to_text()
            assert max(got.s.deg(), got.t.deg(), 0) <= max_deg
        found, s, t, _ = _reference_search(p, max_deg, coeff_set, False)
        if found:
            assert got.found, p.to_text()
            assert _cell(got.s, got.t) <= _cell(s, t), p.to_text()


def _grid_cell_logs(caplog, p, max_deg):
    caplog.clear()
    is_retract_generator_bounded(p, max_deg)
    return [r.getMessage() for r in caplog.records if "grid cell" in r.message]


def test_search_logs_each_grid_cell(caplog):
    caplog.set_level(logging.DEBUG, logger="retractlab.retracts")
    # top weighted degree 2 in cell (1, 1), so three points; the leading
    # pair survives only when ls^2 + ls*lt + lt^2 = 0, never over the
    # rationals, so all 20 * 20 candidates are pruned
    assert _grid_cell_logs(caplog, X**2 + Y**2 + X * Y + 1, 1) == [
        "grid cell (1, 1): 3 points, 0 candidates tried, 400 pruned by the "
        "leading pair"
    ]
    # ls^2 = lt^2 survives: the first s = z keeps t-leads 1 and -1 of four
    # over five t-bodies (10 pruned), and its first t = z is a certificate
    assert _grid_cell_logs(caplog, X**2 - Y**2 + X, 1) == [
        "grid cell (1, 1): 3 points, 1 candidates tried, 10 pruned by the "
        "leading pair"
    ]


# -------------------------------------------------------------- span test


def test_span_z_zero():
    assert generates_kz(Z, ZERO, 3).generates


def test_span_difference_is_z():
    assert generates_kz(upoly(0, 1, 1), upoly(0, 0, 1), 4).generates


def test_span_z2_z3_fails():
    # neither degree divides the other; z is unreachable
    r = generates_kz(upoly(0, 0, 1), upoly(0, 0, 0, 1), 12)
    assert not r.generates
    assert r.bound == 12


def test_span_both_constant():
    assert not generates_kz(upoly(2), upoly(-1), 5).generates


def test_span_bound_validation():
    with pytest.raises(ValueError):
        generates_kz(Z, ZERO, 0)


def test_span_affine_side():
    assert generates_kz(upoly(4, -3), upoly(7), 2).generates


def test_span_z3_z5_never():
    assert not generates_kz(upoly(0, 0, 0, 1), upoly(0, 0, 0, 0, 0, 1), 15).generates


def test_span_cube_plus_lower():
    # s = z^3, t = z^2: z = s*t^-1... not polynomial; but s - t*z... the
    # pair generates z^2 and z^3 only, so z stays out at any bound
    assert not generates_kz(upoly(0, 0, 0, 1), upoly(0, 0, 1), 12).generates


def test_span_divisible_pair_recovers_z():
    # s = z, t = z^2: trivially Yes through s alone
    assert generates_kz(Z, upoly(0, 0, 1), 4).generates


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-2, 2), min_size=1, max_size=4),
    st.integers(0, 2),
)
def test_span_contains_named_products(coeffs, shift):
    # whenever Yes, z really is a polynomial combination: cross-check by
    # evaluating the claim on a linear s (always generates)
    s = UniPoly([Fraction(shift), Fraction(1)])
    t = UniPoly([Fraction(c) for c in coeffs])
    assert generates_kz(s, t, 6).generates
