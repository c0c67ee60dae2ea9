import random
from fractions import Fraction

import pytest

from cobcalc.fgl import (
    ChowModel,
    Context,
    EtaDivisibilityError,
    LazardElement,
    base_context,
    hypersurface_class,
    pn_class,
    proj_pushforward,
)
from cobcalc.series import SeriesError, mod_p


@pytest.fixture(scope="module")
def ctx():
    return base_context(deg=8, bweight=8)


def test_log_inverts_exp(ctx):
    t = ctx.var("t")
    assert ctx.exp_t.substitute({"t": ctx.log_t}) == t
    assert ctx.log_t.substitute({"t": ctx.exp_t}) == t


def test_log_low_coefficients(ctx):
    m1 = ctx.m_coeff(1)
    m2 = ctx.m_coeff(2)
    m3 = ctx.m_coeff(3)
    assert m1 == ctx.mono({"b1": 1}, -1)
    assert m2 == ctx.mono({"b1": 2}, 2) + ctx.mono({"b2": 1}, -1)
    assert m3 == (ctx.mono({"b1": 3}, -5) + ctx.mono({"b1": 1, "b2": 1}, 5)
                  + ctx.mono({"b3": 1}, -1))


def test_fgl_structure_constants(ctx):
    F = ctx.fgl()
    assert ctx.a_coeff(1, 1) == ctx.mono({"b1": 1}, 2)
    assert ctx.a_coeff(2, 1) == ctx.mono({"b2": 1}, 3) + ctx.mono({"b1": 2}, -2)
    # unitality: F(x,0) = x
    assert F.coeff_of("y", 0) == ctx.var("x")
    assert ctx.a_coeff(3, 0).is_zero
    # commutativity
    assert F == F.substitute({"x": ctx.var("y"), "y": ctx.var("x")},
                             poly_vars=("x", "y"))


def test_fgl_integrality(ctx):
    F = ctx.fgl()
    assert all(isinstance(c, int) for _e, c in F.sorted_terms())


def test_fgl_associativity():
    c = Context(6, 6, extra_vars=("x", "y", "w"))
    lhs = c.formal_sum(c.fgl(), c.var("w"))
    rhs = c.formal_sum(c.var("x"), c.formal_sum(c.var("y"), c.var("w")))
    assert lhs == rhs


def test_formal_int_mul(ctx):
    two = ctx.nseries(2)
    assert two == ctx.formal_sum(ctx.var("t"), ctx.var("t"))
    assert two.coeff({"t": 1}) == 2
    assert two.coeff({"t": 2, "b1": 1}) == 2
    assert two.coeff({"t": 3, "b2": 1}) == 6
    assert two.coeff({"t": 3, "b1": 2}) == -4
    assert ctx.nseries(1) == ctx.var("t")
    assert ctx.nseries(0).is_zero


def test_formal_inverse(ctx):
    inv = ctx.nseries(-1)
    assert inv.coeff({"t": 1}) == -1
    assert inv.coeff({"t": 2, "b1": 1}) == 2
    assert inv.coeff({"t": 3, "b1": 2}) == -4
    assert ctx.formal_sum(ctx.var("t"), inv).is_zero


def test_nseries_add_and_compose(ctx):
    for n in (-2, -1, 0, 1, 2, 3):
        for m in (-1, 1, 2):
            lhs = ctx.formal_sum(ctx.nseries(n), ctx.nseries(m))
            assert lhs == ctx.nseries(n + m), (n, m)
            comp = ctx.nseries(n).substitute({"t": ctx.nseries(m)})
            assert comp == ctx.nseries(n * m), (n, m)


def test_pn_classes(ctx):
    assert pn_class(ctx, 0).series == ctx.one()
    assert pn_class(ctx, 1).series == ctx.mono({"b1": 1}, -2)
    p2 = pn_class(ctx, 2)
    assert p2.series == ctx.mono({"b1": 2}, 6) + ctx.mono({"b2": 1}, -3)
    assert p2.dimension == 2
    for n in range(5):
        assert pn_class(ctx, n).is_integral()


def test_invariant_form(ctx):
    w = ctx.omega
    assert w.coeff_of("t", 0) == ctx.one()
    assert w.coeff_of("t", 1) == pn_class(ctx, 1).series
    for n in range(5):
        assert w.coeff_of("t", n) == pn_class(ctx, n).series


def test_pushforward_normalization(ctx):
    for n in range(5):
        xn = ctx.mono({"x": n})
        assert proj_pushforward(ctx, xn, n) == ctx.one()
        assert proj_pushforward(ctx, ctx.one(), n) == pn_class(ctx, n).series
    # kills x^{n+1} * (power series)
    f = ctx.mono({"x": 4}) * (ctx.one() + ctx.var("x") + ctx.mono({"b1": 1}))
    assert proj_pushforward(ctx, f, 3).is_zero


def test_pushforward_linearity(ctx):
    f = ctx.mono({"x": 1}) + ctx.mono({"x": 2}, 3)
    g = ctx.mono({"x": 2}, -1) + ctx.one()
    lhs = proj_pushforward(ctx, f + g, 3)
    assert lhs == proj_pushforward(ctx, f, 3) + proj_pushforward(ctx, g, 3)


def test_hypersurface_classes(ctx):
    h22 = hypersurface_class(ctx, 2, 2)
    assert h22.series == pn_class(ctx, 1).series
    assert h22.dimension == 1
    with pytest.raises(SeriesError):
        hypersurface_class(ctx, 0, 2)
    h33 = hypersurface_class(ctx, 3, 3)
    assert h33.is_integral()
    assert h33.s_number() == -15


def test_hyperplane_is_smaller_projective_space(ctx):
    # degree-1 hypersurfaces: [d]_F with d = 1 pushes to [P^{n-1}]
    for n in (1, 2, 3, 4):
        f = ctx.nseries(1).substitute({"t": ctx.var("x")})
        val = proj_pushforward(ctx, f, n)
        assert val == pn_class(ctx, n - 1).series, n


def test_s_numbers(ctx):
    assert pn_class(ctx, 1).s_number() == 2
    for n in range(1, 6):
        assert pn_class(ctx, n).s_number() == n + 1
    p1 = pn_class(ctx, 1)
    sq = LazardElement(ctx, p1.series * p1.series, 2, "P1*P1")
    assert sq.s_number() == 0


def test_s_number_formula_hypersurfaces(ctx):
    for n in range(2, 5):
        for d in range(2, 4):
            h = hypersurface_class(ctx, n, d)
            assert h.s_number() == d * (n + 1) - d ** n, (n, d)


def test_coordinate_change_is_involution(ctx):
    rng = random.Random(4)
    bindings = {"b%d" % i: ctx.m_coeff(i) for i in range(1, ctx.bweight + 1)}
    for _ in range(5):
        u = ctx.zero()
        for _ in range(4):
            i = rng.randint(1, 4)
            j = rng.randint(0, 2)
            u = u + ctx.mono({"b%d" % i: 1, "b1": j}, rng.randint(-3, 3))
        once = u.substitute(bindings, poly_vars=ctx.b_names)
        twice = once.substitute(bindings, poly_vars=ctx.b_names)
        assert twice == u


def test_s_number_errors(ctx):
    with pytest.raises(SeriesError):
        pn_class(ctx, 0).s_number()


def test_predicates(ctx):
    p1 = pn_class(ctx, 1)
    assert p1.in_Ip(2)
    assert p1.is_nu_r(2, 1)
    p2 = pn_class(ctx, 2)
    assert p2.in_Ip(3)
    assert p2.is_nu_r(3, 1)
    # dimension 2 = 3^1 - 1, but s vanishes on decomposables
    sq = LazardElement(ctx, p1.series * p1.series, 2, "P1*P1")
    assert not sq.is_nu_r(3, 1)
    with pytest.raises(SeriesError):
        sq.is_nu_r(2, 1)
    assert not pn_class(ctx, 4).in_Ip(2)
    assert pn_class(ctx, 4).in_Ip(5)


def test_char_numbers(ctx):
    p1 = pn_class(ctx, 1)
    assert p1.char_number({"b1": 1}) == -2
    assert p1.char_number({"b2": 1}) == 0
    h22 = hypersurface_class(ctx, 2, 2)
    assert h22.char_number({"b1": 1}) == -2


def test_lazard_element_guards(ctx):
    with pytest.raises(SeriesError):
        LazardElement(ctx, ctx.var("x"), 1, "x")
    mixed = ctx.mono({"b1": 1}) + ctx.mono({"b2": 1})
    with pytest.raises(SeriesError):
        LazardElement(ctx, mixed, 1, "b1+b2")
    zero = LazardElement(ctx, ctx.zero(), 3, "0")
    assert zero.dimension == 3


def test_chow_tangent_series():
    m = ChowModel(1)
    t = m.chern_series(2)[0]
    assert t.coeff({"t": 1}) == 1
    assert t.coeff({"h": 1}) == 2
    assert len(t.sorted_terms()) == 2
    conic = ChowModel(2, 2)
    conic_t = conic.chern_series(2)[0]
    assert conic_t.coeff({"t": 1}) == 1
    assert conic_t.coeff({"h": 1}) == 1


def test_chow_che_oracles():
    m = ChowModel(1)
    che = m.chern_che(2, (1,))
    assert che.coeff({"t": -1}) == 1
    assert che.coeff({"t": -2, "h": 1}) == -2
    m2 = ChowModel(2)
    # c(-T_{P^2})(2t) hand expansion
    scaled = m2.chern_series(2)[1].scale_var("t", 2)
    assert scaled.coeff({"t": -2}) == Fraction(1, 4)
    assert scaled.coeff({"t": -3, "h": 1}) == Fraction(-3, 8)
    assert scaled.coeff({"t": -4, "h": 2}) == Fraction(3, 8)
    che3 = m2.chern_che(3, (1, 2))
    assert che3.coeff({"t": -6, "h": 2}) == 3


def test_eta_values():
    assert ChowModel(1).eta(2, (1,)) == 1
    assert ChowModel(2).eta(3, (1, 2)) == -1
    assert ChowModel(2, 2).eta(2, (1,)) == 1


def test_eta_pinned_values():
    canonical = {2: (1,), 3: (1, 2), 5: (1, 2, 3, 4)}
    for model, want in ((ChowModel(4), {2: -35, 3: -5,
                                        5: Fraction(-11531, 26873856)}),
                        (ChowModel(4, 3), {2: -15, 3: Fraction(-45, 32),
                                           5: Fraction(-1459, 3981312)})):
        assert {p: model.eta(p, canonical[p]) for p in want} == want


def test_eta_well_defined_on_grid():
    reps_of = {2: [(1,), (-1,)], 3: [(1, 2), (1, -1)],
               5: [(1, 2, 3, 4), (1, -1, 2, -2)]}
    models = [ChowModel(1), ChowModel(2), ChowModel(3), ChowModel(3, 3)]
    for p, choices in reps_of.items():
        for reps in choices:
            for m in models:
                m.eta(p, reps)  # must not raise


def test_reps_validation():
    m = ChowModel(1)
    with pytest.raises(SeriesError):
        m.eta(2, (2,))
    with pytest.raises(SeriesError):
        m.eta(3, (1, 1))
    with pytest.raises(SeriesError):
        m.eta(3, (1,))


def test_chow_model_guards():
    with pytest.raises(SeriesError):
        ChowModel(2, 1)
    with pytest.raises(SeriesError):
        ChowModel(0)


def test_mod_p():
    assert mod_p(Fraction(-2, 3), 5) == 1
    assert mod_p(7, 2) == 1
    with pytest.raises(SeriesError):
        mod_p(Fraction(1, 2), 2)
