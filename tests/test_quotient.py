import random
from fractions import Fraction

import pytest

from cobcalc.fgl import Context
from cobcalc.quotient import FormalP, PDivisibilityError, coeffs_mod_p
from cobcalc.series import GradedSeries, SeriesError, vp


@pytest.fixture(scope="module")
def ctx():
    # trunc 10 in t so reductions near the boundary stay visible
    return Context(9, 6, tfloor=-8)


@pytest.fixture(scope="module")
def fp2(ctx):
    return FormalP(ctx, 2)


def random_series(ctx, rng, tmin=0, tmax=8, nterms=6, coeff_bound=9):
    b_monos = [{}, {"b1": 1}, {"b2": 1}, {"b1": 2}, {"b1": 1, "b2": 1},
               {"b3": 1}]
    out = ctx.zero()
    for _ in range(nterms):
        exps = dict(random.Random(rng.random()).choice(b_monos))
        exps = dict(exps)
        exps["t"] = rng.randint(tmin, tmax)
        c = rng.randint(-coeff_bound, coeff_bound)
        out = out + ctx.mono(exps, coeff=c)
    return out


def test_generator_digits(ctx, fp2):
    g = fp2.g
    assert g.constant() == 2
    assert g.coeff_of("t", 1) == ctx.mono({"b1": 1}, 2)
    assert g.coeff_of("t", 2) == ctx.mono({"b2": 1}, 6) + ctx.mono({"b1": 2}, -4)


def test_generator_constant_term(ctx):
    for p in (2, 3, 5):
        assert FormalP(ctx, p).g.constant() == p
    with pytest.raises(SeriesError):
        FormalP(ctx, 1)


def test_normal_form_of_generator_is_zero(ctx, fp2):
    assert fp2.normal_form(fp2.g).is_zero
    assert FormalP(ctx, 3).normal_form(FormalP(ctx, 3).g).is_zero


def test_normal_form_fixes_reduced_input(ctx, fp2):
    t = ctx.var("t")
    assert fp2.normal_form(t) == t
    f = ctx.mono({"t": 2, "b1": 1}) + ctx.one()
    assert fp2.normal_form(f) == f


def test_normal_form_of_constant_p(ctx, fp2):
    nf = fp2.normal_form(ctx.const(2))
    assert nf.coeff_of("t", 0).is_zero
    assert fp2.normal_form(nf) == nf
    # p*t reduces the same way, one degree up
    nft = fp2.normal_form(ctx.mono({"t": 1}, 2))
    assert nft.coeff_of("t", 1).is_zero


def test_normal_form_rejects_negative_t(ctx, fp2):
    with pytest.raises(SeriesError):
        fp2.normal_form(ctx.mono({"t": -1}))


def test_normal_form_digit_range_and_ring_structure(ctx):
    rng = random.Random(20260814)
    for p in (2, 3, 5):
        fp = FormalP(ctx, p)
        for _ in range(8):
            a = random_series(ctx, rng)
            b = random_series(ctx, rng)
            na = fp.normal_form(a)
            assert all(0 <= c < p for c in na.terms.values())
            assert fp.normal_form(a + b) == fp.normal_form(na + fp.normal_form(b))
            assert fp.normal_form(a * b) == fp.normal_form(na * fp.normal_form(b))


def test_quotient_equal_mod_ideal(ctx, fp2):
    rng = random.Random(7)
    a = random_series(ctx, rng)
    h = random_series(ctx, rng, tmax=4, nterms=3)
    assert fp2.normal_form((a + h * fp2.g) - a).is_zero
    assert not fp2.normal_form((a + ctx.var("t")) - a).is_zero


def test_additive_context_reduces_coefficients(ctx):
    add = Context(6, 0, tfloor=-6)
    fp = FormalP(add, 3)
    assert fp.g == add.const(3)
    f = add.mono({"t": 2}, 7) + add.mono({"t": 1}, -1) + add.const(3)
    assert fp.normal_form(f) == coeffs_mod_p(f, 3)


def test_clear_coprime_denominators(ctx, fp2):
    f = ctx.mono({"t": 1}, Fraction(1, 3)) + ctx.mono({"t": 2}, Fraction(5, 6))
    g = fp2.clear_coprime_denominators(f)
    c1 = g.coeff_of("t", 1).constant()
    c2 = g.coeff_of("t", 2).constant()
    assert Fraction(c1).denominator == 1
    assert Fraction(c2).denominator == 2
    # classes agree p-adically to far beyond the truncation depth
    assert vp(Fraction(c1) - Fraction(1, 3), 2) >= 20
    assert vp(Fraction(c2) - Fraction(5, 6), 2) >= 19
    # denominators already powers of p are untouched
    h = ctx.mono({"t": 1}, Fraction(1, 2))
    assert fp2.clear_coprime_denominators(h) == h


def test_laurent_reduce(ctx, fp2):
    f = fp2.g * ctx.mono({"t": -2, "b1": 1})
    ok, red, witness = fp2.laurent_reduce(f)
    assert ok and witness is None
    assert red.min_degree("t") is None or red.min_degree("t") >= 0
    ok2, _, witness2 = fp2.laurent_reduce(ctx.mono({"t": -1}))
    assert not ok2
    assert "t^-1" in witness2


def test_is_integral_examples(ctx, fp2):
    half_g = fp2.g.scale(Fraction(1, 2))
    assert half_g.coeff_of("t", 2) == ctx.mono({"b2": 1}, 3) + ctx.mono({"b1": 2}, -2)
    ok, rep, witness = fp2.is_integral_mod_ideal(half_g)
    assert ok and witness is None
    assert rep == half_g

    ok, rep, witness = fp2.is_integral_mod_ideal(ctx.const(Fraction(1, 2)))
    assert not ok and rep is None and witness is not None

    ok, rep, _ = fp2.is_integral_mod_ideal(ctx.mono({"t": 1}, Fraction(1, 3)))
    assert ok


def test_is_integral_invariant_under_ideal(ctx, fp2):
    rng = random.Random(11)
    for _ in range(6):
        f = random_series(ctx, rng, tmin=-3, tmax=5, nterms=4)
        if rng.random() < 0.5:
            f = f + ctx.mono({"t": -1}, Fraction(1, 2))
        h = random_series(ctx, rng, tmin=-3, tmax=3, nterms=3)
        v1 = fp2.is_integral_mod_ideal(f)[0]
        v2 = fp2.is_integral_mod_ideal(f + h * fp2.g)[0]
        assert v1 == v2


def test_divide_by_formal_p_examples(ctx, fp2):
    assert fp2.divide_by_formal_p(fp2.g) == ctx.one()
    fp3 = FormalP(ctx, 3)
    assert fp3.divide_by_formal_p(fp3.g) == ctx.one()

    s = ctx.mono({"t": -1}, 2) + ctx.mono({"b1": 1}, 2)
    lowered, _ = (fp2.g * ctx.mono({"t": -1})).split_parts("t")
    assert lowered == s
    assert fp2.divide_by_formal_p(s) == ctx.mono({"t": -1})

    with pytest.raises(PDivisibilityError) as exc:
        fp2.divide_by_formal_p(ctx.one())
    assert exc.value.witness is not None


def test_divide_by_formal_p_uniqueness(ctx):
    rng = random.Random(20260814)
    for p in (2, 3):
        fp = FormalP(ctx, p)
        for _ in range(6):
            h = random_series(ctx, rng, tmin=-4, tmax=0, nterms=5)
            s, _ = (fp.g * h).split_parts("t")
            assert fp.divide_by_formal_p(s) == h
            # residual has strictly positive t-degrees
            resid = s - fp.g * h
            lo = resid.min_degree("t")
            assert lo is None or lo >= 1


def test_faithful_against_laurent_quotient(ctx, fp2):
    ginv = fp2.g.mul_inverse()
    rng = random.Random(5)
    cases = [fp2.g * (ctx.var("t") + ctx.const(2) + ctx.mono({"t": 3, "b1": 1})),
             ctx.var("t"), ctx.one()]
    cases += [random_series(ctx, rng, nterms=4) for _ in range(6)]
    for f in cases:
        nf_zero = fp2.normal_form(f).is_zero
        q = f * ginv
        laurent_zero = all(vp(c, 2) >= 0 for c in q.terms.values()) \
            if not q.is_zero else True
        assert nf_zero == laurent_zero


def test_normal_form_json_roundtrip(ctx, fp2):
    nf = fp2.normal_form(fp2.g + ctx.var("t"))
    assert nf == ctx.var("t")
    assert nf.trunc_plus == ctx.trunc_plus
    doc = nf.to_json_dict()
    assert GradedSeries.from_json_dict(doc) == nf
    assert nf == fp2.normal_form(ctx.var("t"))
