import itertools
import math
import random
from fractions import Fraction

import pytest

from cobcalc import actions, operations
from cobcalc.actions import (ConfluentMatrix, ShiftAction, bareiss_det,
                             check_minor_determinant, invariant_decompose,
                             maximal_minors, minors_suite, prop_xy_series,
                             reconstruct, theorem_g_suite, twisted_context,
                             twisted_fgl_alpha, vandermonde_product,
                             xy_context)
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

    with pytest.raises(SeriesError):
        bareiss_det((), one)
    with pytest.raises(SeriesError):
        bareiss_det(((one, zero),), one)
    with pytest.raises(SeriesError):
        maximal_minors((), one)
    with pytest.raises(SeriesError):
        maximal_minors(((one, zero), (one,)), one)
    with pytest.raises(SeriesError):
        maximal_minors(((one,), (zero,)), one)


def _cofactor_det(rows, zero):
    """Laplace expansion along the first row; no elimination, no division."""
    if len(rows) == 1:
        return rows[0][0]
    out = zero
    for j, entry in enumerate(rows[0]):
        if entry.is_zero:
            continue
        term = entry * _cofactor_det(
            tuple(r[:j] + r[j + 1:] for r in rows[1:]), zero)
        out = out + term if j % 2 == 0 else out - term
    return out


def _random_rows(cm, rng, n, m):
    """Small integers times monomials of degree at most 2 in t1, t2; about a
    third of the nonzero entries add a second, different monomial, so the
    expansion multiplies by multi-term entries too."""
    def entry():
        a, b = rng.randint(0, 1), rng.randint(0, 1)
        out = mono(cm, {"t1": a, "t2": b},
                   coeff=rng.choice((-3, -2, -1, 1, 2, 3)))
        if rng.random() < 0.35:
            out = out + mono(cm, {"t1": 1 - a, "t2": b},
                             coeff=rng.choice((-2, -1, 1, 2)))
        return out
    return [[entry() if rng.random() > 0.15 else cm._zero()
             for _ in range(m)] for _ in range(n)]


def test_maximal_minors_match_cofactor_expansion():
    cm = ConfluentMatrix((2, 2), 6)
    one, zero = cm.one(), cm._zero()
    rng = random.Random(1309)
    cases = []
    for n, m in ((2, 3), (2, 4), (3, 4), (3, 5), (4, 5), (4, 6)):
        # the first entry of row 0 is zero, and the second row's is one
        lead = _random_rows(cm, rng, n, m)
        lead[0][0], lead[1][0] = zero, one
        # column 1 is zero: every minor on it expands over zero entries
        dead = _random_rows(cm, rng, n, m)
        for row in dead:
            row[1] = zero
        # rows 0 and 1 agree on columns 0 and 1, so the sub-minor on them is
        # zero and every minor over both columns skips it
        deep = _random_rows(cm, rng, n, m)
        deep[0][0] = one
        deep[1][:2] = deep[0][:2]
        cases += [(lead, one), (dead, one), (deep, one),
                  (_random_rows(cm, rng, n, m), one)]
    assert any(len(e.terms) > 1 for rows, _ in cases for r in rows for e in r)
    wide = ConfluentMatrix((2, 1), 5)
    cases.append((wide.rows, wide.one()))
    for rows, unit in cases:
        rows = tuple(tuple(r) for r in rows)
        n, m = len(rows), len(rows[0])
        got = list(maximal_minors(rows, unit))
        assert len(got) == math.comb(m, n)
        assert [cols for cols, _ in got] == list(
            itertools.combinations(range(m), n))
        for cols, minor in got:
            sub = tuple(tuple(r[j] for j in cols) for r in rows)
            assert minor == _cofactor_det(sub, unit - unit), (n, m, cols)


def test_minor_determinant_work_ceiling(monkeypatch):
    """Exact work counts of criterion 02 on A(2,2,1): exact divisions,
    products of two operands with two terms or more, and one-term products
    (key shifts); a change may lower these ceilings, and raising one must
    be argued."""
    counts = {"exact_divide": 0, "multi": 0, "shift": 0}
    divide, mul = GradedSeries.exact_divide, GradedSeries.__mul__

    def counted_divide(self, g, integral=False):
        counts["exact_divide"] += 1
        return divide(self, g, integral=integral)

    def counted_mul(self, other):
        if isinstance(other, GradedSeries) and self._rows and other._rows:
            two = len(self._rows) > 1 and len(other._rows) > 1
            counts["multi" if two else "shift"] += 1
        return mul(self, other)

    monkeypatch.setattr(GradedSeries, "exact_divide", counted_divide)
    monkeypatch.setattr(GradedSeries, "__mul__", counted_mul)
    rep = check_minor_determinant((2, 2, 1), exhaustive_minors=True)
    assert rep["verdict"] and rep["cases"] == 1 + 21
    assert counts["exact_divide"] <= 20
    assert counts["multi"] <= 6
    assert counts["shift"] <= 377


def test_theorem_g_work_ceiling(monkeypatch):
    """Operand-size products (sum of |a|*|b| over series x series products)
    of three thmG round trips at p = 3; a change may lower this ceiling,
    and raising it must be argued."""
    work = [0]
    mul = GradedSeries.__mul__

    def counted_mul(self, other):
        if isinstance(other, GradedSeries):
            work[0] += len(self._rows) * len(other._rows)
        return mul(self, other)

    monkeypatch.setattr(GradedSeries, "__mul__", counted_mul)
    rep = theorem_g_suite(3, count=3, seed=11)
    assert rep["verdict"] and rep["cases"] == 3
    assert work[0] <= 509198


def test_reversion_work_ceiling(monkeypatch):
    """Series x series products, and their operand-size products, of the
    log_t reversion in the context of `cobcalc op ... --p 5`; a change may
    lower these ceilings, and raising one must be argued."""
    work = {"mul": 0, "pairs": 0}
    mul = GradedSeries.__mul__

    def counted_mul(self, other):
        if isinstance(other, GradedSeries):
            work["mul"] += 1
            work["pairs"] += len(self._rows) * len(other._rows)
        return mul(self, other)

    monkeypatch.setattr(operations, "_CTX_CACHE", {})
    ctx = operations.make_context(5, 8, 8)
    monkeypatch.setattr(GradedSeries, "__mul__", counted_mul)
    log_t = ctx.log_t
    assert log_t.coeff({"t": 1}) == 1
    assert work["mul"] <= 65
    assert work["pairs"] <= 251920


def test_minor_determinant_report():
    rep = check_minor_determinant((2, 1), exhaustive_minors=True)
    assert rep["verdict"] and rep["witness"] is None
    assert rep["cases"] == 1 + 10  # square + C(5,3) minors


def test_minor_determinant_catches_a_wrong_product(monkeypatch):
    """The square identity, read from the wide walk's first minor, still
    fails when the product it is compared with is wrong."""
    product = actions.vandermonde_product
    monkeypatch.setattr(actions, "vandermonde_product",
                        lambda matrix: product(matrix) * 2)
    rep = check_minor_determinant((2, 2, 1), exhaustive_minors=True)
    assert not rep["verdict"] and rep["cases"] == 1
    assert rep["witness"] == "det A(2,2,1;5) != product"


def test_minor_determinant_catches_a_wrong_minor(monkeypatch):
    """A later minor plus 1 is not divisible by the product."""
    walk = actions.maximal_minors

    def off_by_one(rows, one):
        for i, (cols, minor) in enumerate(walk(rows, one)):
            yield cols, minor + one if i == 7 else minor
    monkeypatch.setattr(actions, "maximal_minors", off_by_one)
    rep = check_minor_determinant((2, 2, 1), exhaustive_minors=True)
    cols = list(itertools.combinations(range(7), 5))[7]
    assert not rep["verdict"] and rep["cases"] == 1 + 8
    assert rep["witness"] == "minor columns %s of A(2,2,1;7)" % (cols,)


def test_minors_suite_small():
    rep = minors_suite(max_square=4, max_minor=3)
    assert rep["verdict"]
    assert rep["cases"] > 8


def action_context(p, deg=6, bweight=6):
    """A context for one shifted carrier x, cut by weight (see xy_context)."""
    return Context(deg, bweight, extra_vars=("x",), trunc_plus=3 * deg + 4)


def _shift_power(ctx, k):
    """sigma^k(x) by applying the one-step shift k - 1 times to x +_F t."""
    out = ctx.shift_image("x", 1)
    for _ in range(k - 1):
        out = out.substitute({"x": ctx.shift_image("x", 1)})
    return out


def test_shift_automorphism_shape():
    ctx = action_context(2)
    image = ctx.shift_image("x", 1)
    assert image.coeff_of("x", 0) == ctx.var("t")
    lam1 = image.coeff_of("x", 1)
    assert lam1.constant() == 1
    assert lam1.coeff_of("t", 1) == ctx.mono({"b1": 1}, 2)  # a_{1,1}


@pytest.mark.parametrize("p", [2, 3])
def test_shift_automorphism_order_p(p):
    ctx = action_context(p)
    assert _shift_power(ctx, 2) == ctx.shift_image("x", 2)
    fp = FormalP(ctx, p)
    assert fp.normal_form(_shift_power(ctx, p) - ctx.var("x")).is_zero


def test_additive_shift_has_order_two():
    ctx = Context(6, 0, extra_vars=("x",), trunc_plus=12)
    assert ctx.shift_image("x", 1) == ctx.var("x") + ctx.var("t")
    fp = FormalP(ctx, 2)
    assert fp.normal_form(_shift_power(ctx, 2) - ctx.var("x")).is_zero


def test_invariant_decompose_pi_powers():
    ctx = action_context(2)
    action = ShiftAction(ctx, 2, "x")
    fp = action.fp

    psi, certs = invariant_decompose(action.pi_power(1), action)
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
    with pytest.raises(SeriesError, match="not invariant"):
        invariant_decompose(ctx.var("x"), action)


@pytest.mark.parametrize("p", [2, 3])
def test_invariant_decompose_names_a_p_in_a_denominator(p):
    """pi/p is not p-integral; pi itself is invariant, so the error names
    the denominator rather than the invariance check."""
    ctx = action_context(p)
    action = ShiftAction(ctx, p, "x")
    with pytest.raises(SeriesError,
                       match=r"/%d has p = %d in its denominator" % (p, p)):
        invariant_decompose(action.pi_power(1).scale(Fraction(1, p)),
                            action)


@pytest.mark.parametrize("p", [2, 3])
def test_invariance_is_checked_modulo_p(p):
    """pi + p*x is invariant in B/(p) and decomposes as pi; pi + x is not."""
    ctx = action_context(p)
    action = ShiftAction(ctx, p, "x")
    pi = action.pi_power(1)
    psi, _ = invariant_decompose(pi + ctx.var("x").scale(p), action)
    assert psi == {1: ctx.one()}
    with pytest.raises(SeriesError, match="not invariant"):
        invariant_decompose(pi + ctx.var("x"), action)


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
