import gc
import random
import weakref
from fractions import Fraction

import pytest

from cobcalc import actions, fgl, operations
from cobcalc.fgl import Context
from cobcalc.quotient import (FormalP, PDivisibilityError, coeffs_mod_p,
                              formal_p)
from cobcalc.series import (FalsificationError, Geometry, GradedSeries,
                            SeriesError, Variable, VariableTable, vp)


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


def test_normal_form_scans_t_only_under_a_floor(ctx, fp2, monkeypatch):
    """A Laurent table still refuses a t^-1 among other terms; a table with
    no t floor cannot hold one, so its normal form reads no t-degree."""
    f = ctx.mono({"t": -1, "b1": 1}, 3) + ctx.var("t") + ctx.one()
    with pytest.raises(SeriesError, match="negative t-powers"):
        fp2.normal_form(f)
    plain = Context(6, 4)
    fp = FormalP(plain, 2)
    g = plain.mono({"t": 2, "b1": 1}, 3) + plain.const(5)

    def no_scan(self, name):
        raise AssertionError("min_degree(%r) scanned" % name)
    monkeypatch.setattr(GradedSeries, "min_degree", no_scan)
    assert fp.normal_form(g) == plain.mono({"t": 2, "b1": 1}) + plain.one()


def test_normal_form_digit_range_and_ring_structure(ctx):
    rng = random.Random(20260814)
    for p in (2, 3, 5):
        fp = FormalP(ctx, p)
        for _ in range(8):
            a = random_series(ctx, rng)
            b = random_series(ctx, rng)
            na = fp.normal_form(a)
            assert all(0 <= c < p for _e, c in na.sorted_terms())
            assert fp.normal_form(a + b) == fp.normal_form(na + fp.normal_form(b))
            assert fp.normal_form(a * b) == fp.normal_form(na * fp.normal_form(b))


def test_normal_form_makes_no_products(ctx, fp2, monkeypatch):
    f = random_series(ctx, random.Random(11), nterms=12)
    calls = []
    mul = GradedSeries.__mul__
    monkeypatch.setattr(GradedSeries, "__mul__",
                        lambda a, b: calls.append(b) or mul(a, b))
    nf = fp2.normal_form(f)
    assert nf != f and calls == []


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


def test_normal_form_of_p_integral_coefficients(ctx, fp2):
    # a denominator prime to p is a unit of Z_(p): num * den^-1 mod p
    f = (ctx.mono({"t": 1}, Fraction(1, 3))
         + ctx.mono({"t": 2, "b1": 1}, Fraction(2, 3)))
    assert fp2.normal_form(f) == ctx.mono({"t": 1})
    assert FormalP(ctx, 3).normal_form(f.scale(Fraction(3, 2))) == (
        ctx.mono({"t": 1}, 2) + ctx.mono({"t": 2, "b1": 1}))
    with pytest.raises(SeriesError):
        fp2.normal_form(ctx.mono({"t": 1}, Fraction(1, 2)))


def test_coeffs_mod_p_multiplies_by_the_inverse_of_the_denominator(ctx):
    # 2 is not its own inverse mod 5: 1/2 is 3 in F_5, while 2 mod 5 is 2
    half_t = ctx.mono({"t": 1}, Fraction(1, 2))
    assert coeffs_mod_p(half_t, 5) == ctx.mono({"t": 1}, 3)


def test_laurent_reduce(ctx, fp2):
    f = fp2.g * ctx.mono({"t": -2, "b1": 1})
    ok, red, witness = fp2.is_integral_mod_ideal(f)
    assert ok and witness is None
    assert red.min_degree("t") is None or red.min_degree("t") >= 0
    ok2, _, witness2 = fp2.is_integral_mod_ideal(ctx.mono({"t": -1}))
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


def test_integrality_witness_is_the_least_term():
    # graded-lex order puts b1 below t, as coeffs_mod_p and
    # lowest_indivisible name them
    ctx = operations.make_context(2)
    f = ctx.mono({"t": 1}, Fraction(1, 2)) + ctx.mono({"b1": 1},
                                                      Fraction(1, 2))
    ok, rep, witness = formal_p(ctx, 2).is_integral_mod_ideal(f)
    assert not ok and rep is None
    assert witness == "b1 (coefficient 1/2)"


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


def test_u_inverse_reaches_as_deep_as_the_t_floor():
    """g * t^-2 divides to t^-2: the t^-2 brings the terms of u^-1 two
    degrees past g's bound back into range, so u^-1 must hold them."""
    table = VariableTable([Variable("t", 1, laurent_floor=-2),
                           Variable("v0", 1)])
    u = GradedSeries(table, 3, 0, {(0, 0): 1, (1, 0): -3, (1, 1): -3})
    fp = FormalP.from_generator(u.scale(2), 2)
    t2 = GradedSeries.monomial(table, 3, 0, {"t": -2})
    assert fp.divide_by_formal_p(fp.g * t2) == t2


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
        laurent_zero = all(vp(c, 2) >= 0 for _e, c in q.sorted_terms()) \
            if not q.is_zero else True
        assert nf_zero == laurent_zero


def test_normal_form_json_roundtrip(ctx, fp2):
    nf = fp2.normal_form(fp2.g + ctx.var("t"))
    assert nf == ctx.var("t")
    assert nf.trunc_plus == ctx.trunc_plus
    doc = nf.to_json_dict()
    assert GradedSeries.from_json_dict(doc) == nf
    assert nf == fp2.normal_form(ctx.var("t"))


def test_formal_p_refuses_a_generator_p_does_not_divide(ctx):
    g = FormalP(ctx, 3).g
    assert FormalP.from_generator(g, 3).normal_form(g).is_zero
    with pytest.raises(SeriesError, match="p = 3 does not divide"):
        FormalP.from_generator(g + ctx.mono({"t": 2, "b1": 1}), 3)
    with pytest.raises(SeriesError, match="p = 2 does not divide"):
        FormalP.from_generator(ctx.const(2) + ctx.mono({"t": 1, "b1": 1},
                                                      Fraction(2, 3)), 2)
    # a cap on t is no ideal once t has negative powers: t^-2 * t^2 = 1
    capped = Context(9, 6, tfloor=-8, degree_caps=(("t", 1),))
    with pytest.raises(SeriesError, match="cap on t"):
        FormalP(capped, 2)


def test_formal_p_refuses_a_generator_that_is_not_p_modulo_t(ctx):
    # u^-1 = 1 mod t is what lets a t^0 digit lift to itself
    g = FormalP(ctx, 2).g
    with pytest.raises(SeriesError, match="p modulo t"):
        FormalP.from_generator(g + ctx.mono({"b1": 1}, 2), 2)


def test_lift_passes_the_t0_digit_through(ctx, fp2, monkeypatch):
    """D(g*h) = p*h for h without positive t-powers.  Only the negative
    digits of the input meet u^-1, and an input without negative t-powers
    costs no product."""
    h = (ctx.mono({"t": -2}) + ctx.mono({"t": -1, "b1": 1}, 3)
         + ctx.mono({"b2": 1}, -1) + ctx.one())
    f = fp2.g * h
    pos = ctx.var("t") + ctx.mono({"t": 2, "b1": 1}, 5)
    operands = []
    mul = GradedSeries.__mul__
    monkeypatch.setattr(GradedSeries, "__mul__",
                        lambda a, b: operands.append((a, b)) or mul(a, b))
    assert fp2.lift(f) == h.scale(2)
    assert len(operands) == 2
    divided, = [a for a, b in operands if b is fp2.u_inv]
    assert divided.max_degree("t") == -1
    del operands[:]
    assert fp2.lift(h.kill_vars(("t",)) + pos) == h.kill_vars(("t",))
    assert not operands


def test_lift_certifies_its_remainder(ctx):
    """u^-1 + t^3 adds the t^-3 digit of f at t^0 to D(f): f - u*D(f) then
    keeps that digit at t^0, and the remainder's t^0 part is the witness."""
    fp = FormalP(ctx, 2)
    f = fp.g * ctx.mono({"t": -3})
    assert fp.lift(f) == ctx.mono({"t": -3}, 2)
    fp.u_inv = fp.u_inv + GradedSeries.monomial(
        ctx.table, fp.u_inv.trunc_plus, fp.u_inv.trunc_minus, {"t": 3})
    with pytest.raises(FalsificationError,
                       match="not strictly positive") as info:
        fp.lift(f)
    assert info.value.witness == "-2"


def test_division_and_integrality_make_at_most_two_products(ctx, fp2,
                                                            monkeypatch):
    # three negative t-digits: a digit-by-digit solve multiplies per digit
    h = (ctx.mono({"t": -3}) + ctx.mono({"t": -2, "b1": 1}, 3)
         + ctx.mono({"t": -1, "b2": 1}, -1) + ctx.one())
    s, _ = (fp2.g * h).split_parts("t")
    f = fp2.g * h + ctx.mono({"t": 2}, Fraction(1, 3))
    calls = []
    mul = GradedSeries.__mul__
    monkeypatch.setattr(GradedSeries, "__mul__",
                        lambda a, b: calls.append(b) or mul(a, b))
    assert fp2.divide_by_formal_p(s) == h
    assert len(calls) <= 1
    del calls[:]
    ok, rep, _ = fp2.is_integral_mod_ideal(f)
    assert ok and rep.min_degree("t") >= 0
    assert len(calls) <= 2


@pytest.mark.parametrize("p", [2, 3])
def test_division_and_integrality_move_no_key(p, monkeypatch):
    # u^-1 lies deeper than the context by the t floor, within the key
    # geometry of the context's table, so moving a series onto it and back
    # filters keys and neither unpacks nor packs one
    ctx = operations.make_context(p)
    fp = formal_p(ctx, p)
    assert fp.u_inv._lay is ctx.one()._lay
    st = operations.quillen_steenrod(ctx, p, tuple(range(1, p)))
    e = fgl.pn_class(ctx, 1).series
    image = st.apply(e)
    s = e ** p - image
    calls = []

    def counted(method):
        return lambda lay, arg: calls.append(arg) or method(lay, arg)
    monkeypatch.setattr(Geometry, "unpack", counted(Geometry.unpack))
    monkeypatch.setattr(Geometry, "key", counted(Geometry.key))
    phi = fp.divide_by_formal_p(s)
    ok, _rep, _witness = fp.is_integral_mod_ideal(image)
    assert not calls
    assert ok and not phi.is_zero


@pytest.mark.parametrize("suite", ["theorem_g_suite", "prop_xy_series",
                                   "twisted_fgl_alpha"])
def test_a_finished_suite_frees_its_context(suite, monkeypatch):
    # FormalP keeps no reference to its context, so the context that
    # caches it is no reference cycle and dies without a collection
    built = []
    init = fgl.Context.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))
    monkeypatch.setattr(fgl.Context, "__init__", record)
    gc.disable()
    try:
        getattr(actions, suite)(3)
        assert built and all(ref() is None for ref in built)
    finally:
        gc.enable()
