from fractions import Fraction

import pytest

from cobcalc.actions import (ConfluentMatrix, ShiftAction, action_context,
                             bareiss_det, check_minor_determinant,
                             invariant_decompose, minors_suite,
                             prop_xy_series, reconstruct, theorem_g_suite,
                             twisted_context, twisted_fgl_alpha,
                             vandermonde_product, xy_context)
from cobcalc.fgl import Context
from cobcalc.quotient import FormalP
from cobcalc.series import GradedSeries, SeriesError, vp


def mono(cm, exps, coeff=1):
    return GradedSeries.monomial(cm.table, cm.trunc_plus, 0, exps, coeff=coeff)


def test_matrix_examples():
    a = ConfluentMatrix((1, 1), 2)
    assert a.rows == ((a.one(), mono(a, {"t1": 1})),
                      (a.one(), mono(a, {"t2": 1})))
    b = ConfluentMatrix((2,), 2)
    assert b.rows == ((b.one(), mono(b, {"t1": 1})),
                      (b._zero(), b.one()))
    c = ConfluentMatrix((1,), 1)
    assert c.rows == ((c.one(),),)
    with pytest.raises(SeriesError):
        ConfluentMatrix((0,), 1)


def test_bareiss_examples():
    a = ConfluentMatrix((1, 1), 2)
    assert bareiss_det(a.rows, a.one()) == mono(a, {"t2": 1}) - mono(a, {"t1": 1})

    b = ConfluentMatrix((2, 1), 3)
    d = mono(b, {"t2": 1}) - mono(b, {"t1": 1})
    assert bareiss_det(b.rows, b.one()) == d * d
    assert bareiss_det(b.rows, b.one()) == vandermonde_product(b)

    c = ConfluentMatrix((3,), 3)
    assert bareiss_det(c.rows, c.one()) == c.one()

    one, zero = a.one(), a._zero()
    assert bareiss_det(((zero, one), (one, zero)), one) == -one
    assert bareiss_det(((zero, zero), (zero, zero)), one).is_zero


def test_minor_determinant_report():
    rep = check_minor_determinant((2, 1), exhaustive_minors=True)
    assert rep["verdict"] and rep["witness"] is None
    assert rep["cases"] == 1 + 10  # square + C(5,3) minors


def test_minors_suite_small():
    rep = minors_suite(max_square=4, max_minor=3)
    assert rep["verdict"]
    assert rep["cases"] > 8


def _shift_power(action, k):
    """sigma^k(x) by applying the one-step shift k - 1 times to image(1)."""
    out = action.image(1)
    for _ in range(k - 1):
        out = action.apply(out)
    return out


def test_shift_automorphism_shape():
    ctx = action_context(2)
    image = ShiftAction(ctx, 2, "x").image(1)
    assert image.coeff_of("x", 0) == ctx.var("t")
    lam1 = image.coeff_of("x", 1)
    assert lam1.constant() == 1
    assert lam1.coeff_of("t", 1) == ctx.mono({"b1": 1}, 2)  # a_{1,1}


@pytest.mark.parametrize("p", [2, 3])
def test_shift_automorphism_order_p(p):
    ctx = action_context(p)
    action = ShiftAction(ctx, p, "x")
    assert _shift_power(action, 2) == action.image(2)
    fp = action.fp
    assert fp.normal_form(_shift_power(action, p) - ctx.var("x")).is_zero


def test_additive_shift_has_order_two():
    ctx = Context(6, 0, extra_vars=("x",), trunc_plus=12)
    action = ShiftAction(ctx, 2, "x")
    assert action.image(1) == ctx.var("x") + ctx.var("t")
    fp = FormalP(ctx, 2)
    assert fp.normal_form(_shift_power(action, 2) - ctx.var("x")).is_zero


def test_invariant_decompose_pi_powers():
    ctx = action_context(2)
    action = ShiftAction(ctx, 2, "x")
    fp = action.fp

    psi, certs = invariant_decompose(action.pi(), action)
    assert set(psi) == {1}
    assert psi[1] == ctx.one()
    assert {"power": 1, "t_order": 1} in certs

    noise = fp.g * ctx.mono({"x": 1, "t": 2}, 3)
    psi2, _ = invariant_decompose(action.pi_power(2) + noise, action)
    live = {k for k, q in psi2.items() if not fp.normal_form(q).is_zero}
    assert live == {2}
    assert fp.normal_form(psi2[2] - ctx.one()).is_zero


def test_invariant_decompose_rejects_non_invariant():
    ctx = action_context(2)
    action = ShiftAction(ctx, 2, "x")
    with pytest.raises(SeriesError):
        invariant_decompose(ctx.var("x"), action)


def test_invariant_decompose_additive():
    ctx = Context(6, 0, extra_vars=("x",), trunc_plus=12)
    action = ShiftAction(ctx, 2, "x")
    phi = ctx.var("x") * (ctx.var("x") + ctx.var("t"))
    psi, _ = invariant_decompose(phi, action)
    assert set(psi) == {1} and psi[1] == ctx.one()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_theorem_g_suite_smoke(p):
    rep = theorem_g_suite(p, count=3, seed=11)
    assert rep["verdict"], rep["witness"]
    assert rep["cases"] == 3


def test_prop_xy_additive():
    coeffs, rep = prop_xy_series(2, bweight=0)
    assert rep["verdict"], rep["witness"]
    assert set(coeffs) == {(1, 0), (0, 1)}
    ctx = xy_context(2, bweight=0)
    assert coeffs[(1, 0)] == ctx.one()
    assert coeffs[(0, 1)] == ctx.one()


def test_prop_xy_universal_p2():
    coeffs, rep = prop_xy_series(2)
    assert rep["verdict"], rep["witness"]
    fp = FormalP(xy_context(2), 2)
    assert fp.normal_form(coeffs[(1, 0)] - xy_context(2).one()).is_zero
    assert any(k >= 1 and l >= 1 for (k, l) in coeffs)


def test_prop_xy_universal_p3():
    _, rep = prop_xy_series(3)
    assert rep["verdict"], rep["witness"]


def test_twisted_additive_p2():
    fa, rep = twisted_fgl_alpha(2, bweight=0)
    assert rep["verdict"], rep["witness"]
    ctx = twisted_context(2, bweight=0)
    # additive ideal is (2) itself: F^alpha - u - v = 2*beta(u)*beta(v)
    diff = fa - ctx.var("u") - ctx.var("v")
    assert not diff.is_zero
    assert all(vp(c, 2) >= 1 for c in diff.terms.values())


@pytest.mark.parametrize("p", [2, 3])
def test_twisted_universal(p):
    _, rep = twisted_fgl_alpha(p)
    assert rep["verdict"], rep["witness"]
