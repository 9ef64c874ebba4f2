import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retractlab.endo_algebra import (
    Affine,
    ElemX,
    ElemY,
    Endo,
    TameAuto,
    compose,
    is_automorphism,
    random_tame,
)
from retractlab.errors import InternalCheckError
from retractlab.poly_core import MINUS_INF, Poly2, UniPoly
from retractlab.retracts import RetractCertificate, generates_kz
from retractlab.theorem_lab import (
    CaseReport,
    Dependence,
    LeadingPair,
    LinearComponent,
    NormalizedEndo,
    RatioDecomposition,
    Reduced,
    ReductionOutcome,
    RetractionSequenceStats,
    StuckReport,
    am_divisibility,
    coordinate_image_experiment,
    image_of_witness,
    leading_dependence,
    normalize,
    ratio_value,
    reduction_step,
    run_reduction,
    transport_sequence_check,
    witness_coordinate,
    witness_degree_analysis,
    witness_exponent,
    witness_pair,
)

X = Poly2.var_x()
Y = Poly2.var_y()
Z = UniPoly.var_z()


def upoly(*coeffs):
    return UniPoly(Fraction(c) for c in coeffs)


def rand_poly(rng, deg, coeff, allow_zero=True):
    terms = {}
    for i in range(deg + 1):
        for j in range(deg + 1 - i):
            if rng.random() < 0.5:
                c = rng.randint(-coeff, coeff)
                if c:
                    terms[(i, j)] = c
    p = Poly2(terms)
    if p.is_zero() and not allow_zero:
        return Poly2.monomial(0, 1)
    return p


# ----------------------------------------------------------- normalize


class TestNormalize:
    def test_tail_removed_by_sigma_prime(self):
        phi = Endo(X, Y + X**3)
        n = normalize(phi, RetractCertificate.normal_form(Poly2.zero()))
        assert n.h1.is_zero()
        assert n.h2 == Poly2.monomial(0, 0)
        assert len(n.sigma.moves) == 0
        assert n.sigma_prime.moves == (ElemY(upoly(0, 0, 0, -1)),)
        assert n.normal_form == Endo.identity()

    def test_already_normal(self):
        phi = Endo(X + X * Y, Y)
        n = normalize(phi, RetractCertificate.normal_form(X))
        assert n.h1 == X
        assert n.h2 == Poly2.monomial(0, 0)
        assert n.sigma.moves == () and n.sigma_prime.moves == ()

    def test_image_inside_kx_rejected(self):
        phi = Endo(X, X**2)
        with pytest.raises(ValueError, match="lies in K\\[x\\]"):
            normalize(phi, RetractCertificate.normal_form(Poly2.zero()))

    def test_direct_certificate_rejected(self):
        cert = RetractCertificate.direct(X, Z, UniPoly.zero())
        with pytest.raises(ValueError, match="conjugating"):
            normalize(Endo(X, Y), cert)

    def test_certificate_component_mismatch(self):
        cert = RetractCertificate.normal_form(X)
        with pytest.raises(ValueError, match="first component"):
            normalize(Endo(X, Y), cert)

    def test_conjugated_roundtrip(self):
        # phi = sigma^-1 o (x + y*h1, y*h2): tail-free, exact recovery
        rng = random.Random(3)
        for _ in range(8):
            sigma = random_tame(rng, n_moves=2, deg_bound=2, coeff_bound=2)
            h1 = rand_poly(rng, 2, 2)
            h2 = rand_poly(rng, 1, 2, allow_zero=False)
            normal = Endo(X + Y * h1, Y * h2)
            inv = sigma.inverse().to_endo()
            phi = compose(inv, normal)
            cert = (
                RetractCertificate.normal_form(h1)
                if not sigma.moves
                else RetractCertificate.conjugated(phi.f, sigma, h1)
            )
            n = normalize(phi, cert)
            assert n.h1 == h1 and n.h2 == h2
            assert n.sigma_prime.moves == ()

    def test_invariant_validated_at_construction(self):
        with pytest.raises(ValueError, match="h2 must be nonzero"):
            NormalizedEndo(
                Endo(X, Y), TameAuto(()), TameAuto(()), Poly2.zero(), Poly2.zero()
            )
        with pytest.raises(ValueError, match="do not bring"):
            NormalizedEndo(
                Endo(X, Y + X), TameAuto(()), TameAuto(()), Poly2.zero(), X
            )


# ----------------------------------------------------------- witnesses


class TestWitness:
    def test_exponent_examples(self):
        assert witness_exponent(Poly2.monomial(0, 0), 1) == 3
        assert witness_exponent(X**2 + Y, 3) == 10
        assert witness_exponent(Poly2.zero(), 1) == 3

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            witness_exponent(X, 0)

    @given(st.integers(0, 5), st.integers(1, 6))
    def test_exponent_strict(self, d, n):
        h1 = Poly2.monomial(0, d) if d else Poly2.monomial(0, 0)
        m = witness_exponent(h1, n)
        assert m > d + 2 and m > n and m > 1 + (n + 1) * d

    def test_coordinate_values(self):
        assert witness_coordinate(1) == Y + (X + Y) ** 2
        assert witness_coordinate(2) == X**2 + 2 * X * Y**2 + Y**4 + Y
        with pytest.raises(ValueError):
            witness_coordinate(0)

    def test_pair_factorization(self):
        for m in (1, 2, 3):
            pair = witness_pair(m)
            e = pair.to_endo()
            assert e == Endo(X + Y**m, witness_coordinate(m))
            assert is_automorphism(e).is_automorphism

    def test_image_closed_forms(self):
        ident = NormalizedEndo(
            Endo.identity(),
            TameAuto(()),
            TameAuto(()),
            Poly2.zero(),
            Poly2.monomial(0, 0),
        )
        assert image_of_witness(ident, 2) == Y + (X + Y**2) ** 2
        n = normalize(Endo(X + X * Y, Y), RetractCertificate.normal_form(X))
        assert image_of_witness(n, 3) == Y + (X + X * Y + Y**3) ** 2

    def test_image_matches_substitution(self):
        rng = random.Random(11)
        for _ in range(20):
            h1 = rand_poly(rng, 2, 2)
            h2 = rand_poly(rng, 2, 2, allow_zero=False)
            m = rng.randint(1, 4)
            n = NormalizedEndo(
                Endo(X + Y * h1, Y * h2), TameAuto(()), TameAuto(()), h1, h2
            )
            img = image_of_witness(n, m)
            assert img == witness_coordinate(m).substitute2(
                X + Y * h1, Y * h2
            )


# ----------------------------------------------------- degree analysis


def _normal(h1, h2):
    return NormalizedEndo(
        Endo(X + Y * h1, Y * h2), TameAuto(()), TameAuto(()), h1, h2
    )


class TestDegreeAnalysis:
    def test_documented_instance(self):
        # h1 = 0, h2 = 1: multiplier is t itself
        rep = witness_degree_analysis(
            _normal(Poly2.zero(), Poly2.monomial(0, 0)), 3, Z**4, Z
        )
        assert rep.case == "both-nonconstant"
        by_name = {c.name: c for c in rep.checks}
        bound = by_name["h1-part-degree-bound"]
        assert bound.rhs == 1 and bound.holds
        assert not rep.image_equals_z
        assert rep.image_degree >= 2

    def test_dominant_power_formula(self):
        h1 = X
        m = witness_exponent(h1, 4)
        rep = witness_degree_analysis(
            _normal(h1, Poly2.monomial(0, 0)), m, Z**2, Z
        )
        assert rep.branch == "dominant-power"
        assert rep.hypotheses_hold
        assert rep.image_degree == 2 * m
        assert not rep.image_equals_z

    def test_t_zero_routes_to_constant_case(self):
        rep = witness_degree_analysis(
            _normal(Poly2.zero(), Poly2.monomial(0, 0)), 3, Z, UniPoly.zero()
        )
        assert rep.case == "t-constant"
        assert rep.branch == "shifted-square"
        assert not rep.image_equals_z

    def test_s_constant_case(self):
        rep = witness_degree_analysis(
            _normal(Poly2.zero(), Poly2.monomial(0, 0)), 3, upoly(2), Z
        )
        assert rep.case == "s-constant"
        assert not rep.image_equals_z

    def test_validation(self):
        n = _normal(Poly2.zero(), Poly2.monomial(0, 0))
        with pytest.raises(ValueError, match="both be constant"):
            witness_degree_analysis(n, 3, upoly(1), upoly(2))
        with pytest.raises(ValueError):
            witness_degree_analysis(n, 0, Z, Z)

    def test_image_never_z_across_cases(self):
        rng = random.Random(21)
        for _ in range(60):
            h1 = rand_poly(rng, 2, 2)
            h2 = rand_poly(rng, 1, 2, allow_zero=False)
            m = witness_exponent(h1, 4)
            pick = rng.randint(0, 2)
            if pick == 0:  # t constant
                s = UniPoly.from_terms({rng.randint(1, 3): 1, 0: rng.randint(-2, 2)})
                t = upoly(rng.randint(-2, 2))
            elif pick == 1:  # s constant
                s = upoly(rng.randint(-2, 2))
                t = UniPoly.from_terms({rng.randint(1, 3): 1})
            else:  # both nonconstant, ds <= 4*dt
                dt = rng.randint(1, 2)
                ds = rng.randint(1, 4 * dt)
                s = UniPoly.from_terms({ds: 1, 0: rng.randint(-1, 1)})
                t = UniPoly.from_terms({dt: rng.randint(1, 2)})
            rep = witness_degree_analysis(_normal(h1, h2), m, s, t)
            assert not rep.image_equals_z
            if rep.branch == "dominant-power" and pick != 0:
                assert rep.hypotheses_hold


# ------------------------------------------------- leading-monomial facts


class TestLeadingFacts:
    def test_dependence_examples(self):
        assert leading_dependence(LeadingPair(2, 4, 1, 2)) == Dependence(2, False)
        assert leading_dependence(LeadingPair(1, 2, 1, 1)) is None
        assert leading_dependence(LeadingPair(0, 3, 0, 1)) == Dependence(3, False)
        assert leading_dependence(LeadingPair(1, 2, 2, 4)) == Dependence(2, True)

    def test_dependence_brute_force(self):
        def brute(a, b, c, d):
            for k in range(1, 13):
                if (a, b) == (k * c, k * d):
                    return Dependence(k, False)
            for k in range(1, 13):
                if (c, d) == (k * a, k * b):
                    return Dependence(k, True)
            return None

        for a in range(7):
            for b in range(7):
                for c in range(7):
                    for d in range(7):
                        got = leading_dependence(LeadingPair(a, b, c, d))
                        assert got == brute(a, b, c, d), (a, b, c, d)

    def test_from_endo(self):
        lp = LeadingPair.from_endo(Endo(X**2, X * Y**3))
        assert (lp.a, lp.b, lp.c, lp.d) == (0, 2, 3, 1)

    def test_ratio_examples(self):
        r = ratio_value(2, 4, 1, 2, 3)
        assert r.value == 2 and r.k == 2 and r.correction == 0
        r = ratio_value(3, 4, 1, 2, 10)
        assert r.value == Fraction(43, 21)
        assert r.k == 2 and r.correction == Fraction(1, 21)

    def test_ratio_validation(self):
        with pytest.raises(ValueError, match="precondition"):
            ratio_value(1, 2, 3, 0, 1)
        with pytest.raises(ValueError, match="precondition"):
            ratio_value(1, 3, 1, 2, 1)
        with pytest.raises(ValueError, match="nonzero"):
            ratio_value(1, 2, 4, 2, -2)

    @given(
        st.integers(-9, 9),
        st.integers(1, 9),
        st.integers(-9, 9),
        st.integers(-9, 9),
        st.fractions(min_value=-5, max_value=5),
    )
    def test_ratio_identity(self, a, k, c, d, m):
        if d == 0 or c + d * m == 0:
            return
        r = ratio_value(a, k * d, c, d, m)
        assert r.value == r.k + r.correction
        assert r.value == Fraction(a + k * d * m) / (c + d * m)

    def test_am_divisibility(self):
        assert am_divisibility(2, 6)
        assert not am_divisibility(2, 3)
        assert am_divisibility(5, 5)
        with pytest.raises(ValueError):
            am_divisibility(0, 3)

    def test_sequence_stats(self):
        st_ = RetractionSequenceStats(6, 4)
        assert st_.m == Fraction(3, 2)
        assert RetractionSequenceStats(6, 4, Fraction(3, 2)).m == Fraction(3, 2)
        with pytest.raises(ValueError):
            RetractionSequenceStats(6, 4, Fraction(2))
        with pytest.raises(ValueError):
            RetractionSequenceStats(0, 4)


# ----------------------------------------------------------- reduction


class TestReductionStep:
    def test_linear_slots(self):
        assert reduction_step(Endo(X + Y**2, Y)) == LinearComponent("second")
        assert reduction_step(Endo(2 * Y + 1, X)) == LinearComponent("first")

    def test_power_rewrite(self):
        res = reduction_step(Endo(X**2 + Y, X))
        assert isinstance(res, Reduced)
        assert res.move == ElemX(upoly(0, 0, -1))
        assert res.psi == Endo(Y, X)

    def test_symmetric_rewrite(self):
        res = reduction_step(Endo(X + Y**2, Y + (X + Y**2) ** 3))
        assert isinstance(res, Reduced)
        assert isinstance(res.move, ElemY)
        assert res.psi == Endo(X + Y**2, Y)

    def test_stuck_reports_monomials(self):
        res = reduction_step(Endo(X, X * Y))
        assert isinstance(res, StuckReport)
        assert res.mono_f == (0, 1) and res.mono_g == (1, 1)
        assert "x*y" in res.detail
        assert res.to_obj()["leading_f"] == [0, 1]

    def test_constant_rejected(self):
        with pytest.raises(ValueError, match="nonconstant"):
            reduction_step(Endo(Poly2.monomial(0, 0), Y))


class TestRunReduction:
    def test_identity(self):
        out = run_reduction(Endo.identity())
        assert out.kind == "automorphism"
        assert out.trail.moves == () and out.steps == 0
        assert bool(out)

    def test_elementary(self):
        e = Endo(X + Y**2, Y)
        out = run_reduction(e)
        assert out.kind == "automorphism"
        t = out.trail.to_endo()
        assert compose(t, e).is_identity()
        assert compose(e, t).is_identity()

    def test_affine_mix(self):
        e = Endo(X + Y, X - Y)
        out = run_reduction(e)
        assert out.kind == "automorphism"
        assert out.trail.inverse().to_endo() == e

    def test_stuck_examples(self):
        out = run_reduction(Endo(X, X * Y))
        assert out.kind == "stuck" and out.step == 0
        assert out.report.mono_g == (1, 1)
        assert not bool(out)
        out = run_reduction(Endo(Y**2, Y))
        assert out.kind == "stuck"
        assert "h = 0" in out.report.detail
        out = run_reduction(Endo(2 * X + 1, Y**3 + Y))
        assert out.kind == "stuck"
        out = run_reduction(Endo(X, Poly2.monomial(0, 0)))
        assert out.kind == "stuck"
        assert "constant" in out.report.detail

    def test_budget(self):
        e = random_tame(2, n_moves=4, deg_bound=3, coeff_bound=3).to_endo()
        full = run_reduction(e)
        assert full.kind == "automorphism" and full.steps >= 2
        out = run_reduction(e, max_steps=1)
        assert out.kind == "budget" and out.steps == 1
        assert out.moves == full.moves[:1]

    def test_negative_budget_rejected(self):
        e = Endo(X + Y**2, Y + (X + Y**2) ** 2)
        with pytest.raises(ValueError, match="max_steps"):
            run_reduction(e, max_steps=-1)
        with pytest.raises(ValueError, match="max_steps"):
            run_reduction(Endo.identity(), max_steps=-5)
        assert run_reduction(e, max_steps=0).kind == "budget"
        assert run_reduction(Endo.identity(), max_steps=0).kind == "automorphism"

    def test_moves_recorded_for_every_kind(self):
        e = Endo(X + Y**2, Y + (X + Y**2) ** 2)
        out = run_reduction(e)
        assert out.kind == "automorphism"
        assert out.moves == (ElemY(upoly(0, 0, -1)),)
        assert out.trail.moves[: out.steps] == out.moves
        out = run_reduction(Endo(X + Y**2, (X + Y**2) ** 2 + Y**3))
        assert out.kind == "stuck" and out.step == out.steps == 1
        assert out.moves == (ElemY(upoly(0, 0, -1)),)
        assert run_reduction(e, max_steps=0).moves == ()

    def test_seeded_tames_reduce(self):
        for seed in range(120):
            e = random_tame(seed, n_moves=4, deg_bound=3, coeff_bound=3).to_endo()
            out = run_reduction(e, max_steps=400)
            assert out.kind == "automorphism", seed
            if seed < 25:
                assert out.trail.inverse().to_endo() == e

    def test_agreement_with_is_automorphism(self):
        rng = random.Random(17)
        checked = 0
        while checked < 120:
            f = rand_poly(rng, 3, 2)
            g = rand_poly(rng, 3, 2)
            if f.is_constant() or g.is_constant():
                continue
            checked += 1
            e = Endo(f, g)
            got = run_reduction(e, max_steps=400).kind == "automorphism"
            assert got == is_automorphism(e).is_automorphism, e

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_tame_always_reduces(self, seed):
        e = random_tame(seed, n_moves=3, deg_bound=2, coeff_bound=2).to_endo()
        assert run_reduction(e, max_steps=400).kind == "automorphism"


# ----------------------------------------------------------- transport


class TestTransport:
    def test_identity_alpha(self):
        assert transport_sequence_check(
            Endo(X, X * Y), TameAuto(()), Z, UniPoly.zero(), 6
        )

    def test_elementary_both_yes(self):
        psi = ElemX(upoly(0, 0, 1)).to_endo()
        alpha = TameAuto((ElemY(upoly(0, 1)),))
        assert transport_sequence_check(psi, alpha, Z, UniPoly.zero(), 6)
        u = compose(psi, alpha.to_endo())
        assert generates_kz(
            u.f.substitute1(Z, UniPoly.zero()),
            u.g.substitute1(Z, UniPoly.zero()),
            6,
        ).generates

    def test_validation(self):
        with pytest.raises(ValueError):
            transport_sequence_check(Endo(X, Y), TameAuto(()), Z, Z, 0)

    def test_random_instances_agree(self):
        for seed in range(30):
            rng = random.Random(1000 + seed)
            psi = random_tame(rng, n_moves=2, deg_bound=2, coeff_bound=2).to_endo()
            alpha = random_tame(rng, n_moves=2, deg_bound=2, coeff_bound=2)
            s = UniPoly.from_terms(
                {rng.randint(1, 2): rng.randint(1, 2), 0: rng.randint(-1, 1)}
            )
            t = UniPoly.from_terms({rng.randint(0, 2): rng.randint(-2, 2)})
            assert transport_sequence_check(psi, alpha, s, t, 8), seed


# ---------------------------------------------------------- experiment


class TestExperiment:
    def test_small_run(self):
        rep = coordinate_image_experiment(seed=7, trials=10, max_deg=4)
        assert rep["ok"]
        assert rep["summary"] == "ok: 12/12"
        assert [r["trial"] for r in rep["positive"]] == list(range(10))
        assert all(r["verdict"] == "automorphism" for r in rep["positive"])
        by_endo = {e["endo"]: e for e in rep["negative"]}
        wit = by_endo["(x, x*y)"]
        assert wit["found_failure"]
        assert wit["coordinate"] == witness_coordinate(5).to_text()
        sq = by_endo["(x, y^2)"]
        assert sq["coordinate"] == "y"
        assert "square" in sq["reason"]

    def test_deterministic(self):
        a = coordinate_image_experiment(seed=3, trials=6, max_deg=4)
        b = coordinate_image_experiment(seed=3, trials=6, max_deg=4)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            coordinate_image_experiment(seed=1, trials=0)

    def test_insufficient_samples_reported_honestly(self):
        # x alone maps to generators under both library endos
        rep = coordinate_image_experiment(
            seed=1, trials=1, max_deg=3, sample_coords=[X]
        )
        assert not rep["ok"]
        assert any(not e["found_failure"] for e in rep["negative"])
