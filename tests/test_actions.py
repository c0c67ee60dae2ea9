import itertools
import math
import random
from fractions import Fraction

import pytest

from cobcalc import actions, operations
from cobcalc.actions import (ShiftAction, bareiss_det, confluent_rows,
                             invariant_decompose, laplace_step,
                             minors_suite, prop_xy_series, reconstruct,
                             theorem_g_suite, twisted_context,
                             twisted_fgl_alpha, xy_context)
from cobcalc.fgl import Context
from cobcalc.quotient import FormalP
from cobcalc.series import GradedSeries, SeriesError, vp


def mono(ref, exps, coeff=1):
    """A monomial on the table and bounds of the series ref."""
    return GradedSeries.monomial(ref.table, ref.trunc_plus, 0, exps,
                                 coeff=coeff)


def unit(ref):
    return mono(ref, {})


def matrix_rows(blocks, width):
    """The rows of A(blocks; width), taken from `confluent_rows`."""
    rows = confluent_rows(sum(blocks), width)
    return tuple(rows[i, ubar] for i, n in enumerate(blocks)
                 for ubar in range(n))


def maximal_minors(rows, one):
    """{columns: minor} of every maximal minor of an n x m matrix, n <= m,
    one `laplace_step` per row, in itertools.combinations order."""
    level = {(): one}
    for row in rows:
        level = laplace_step(level, row, one - one)
    return level


def _compositions(n):
    """Every composition of n, in lexicographic order."""
    return sorted(c for k in range(1, n + 1)
                  for c in itertools.product(range(1, n + 1), repeat=k)
                  if sum(c) == n)


def _direct_product(blocks, ref):
    """prod_{i>j} (t_i - t_j)^(n_i n_j), factor by factor."""
    out = unit(ref)
    for i in range(len(blocks)):
        for j in range(i):
            ti = mono(ref, {"t%d" % (i + 1): 1})
            tj = mono(ref, {"t%d" % (j + 1): 1})
            out = out * (ti - tj) ** (blocks[i] * blocks[j])
    return out


def _leaf(blocks, width):
    """(product, minors) that the walk carries to A(blocks; width)."""
    for got, product, minors in actions._composition_walk(sum(blocks),
                                                          width):
        if got == tuple(blocks):
            return product, minors


def test_matrix_examples():
    a = matrix_rows((1, 1), 2)
    one = unit(a[0][0])
    assert a == ((one, mono(one, {"t1": 1})), (one, mono(one, {"t2": 1})))
    b = matrix_rows((2,), 2)
    one = unit(b[0][0])
    assert b == ((one, mono(one, {"t1": 1})), (one - one, one))
    c = matrix_rows((1,), 1)
    assert c == ((unit(c[0][0]),),)
    with pytest.raises(SeriesError):
        confluent_rows(0, 1)
    with pytest.raises(SeriesError):
        confluent_rows(1, 0)


def test_bareiss_examples():
    a = matrix_rows((1, 1), 2)
    one = unit(a[0][0])
    assert bareiss_det(a, one) == mono(one, {"t2": 1}) - mono(one, {"t1": 1})

    b = matrix_rows((2, 1), 3)
    d = mono(b[0][0], {"t2": 1}) - mono(b[0][0], {"t1": 1})
    assert bareiss_det(b, unit(d)) == d * d
    assert bareiss_det(b, unit(d)) == _direct_product((2, 1), d)

    c = matrix_rows((3,), 3)
    assert bareiss_det(c, unit(c[0][0])) == unit(c[0][0])

    zero = one - one
    assert bareiss_det(((zero, one), (one, zero)), one) == -one
    assert bareiss_det(((zero, zero), (zero, zero)), one).is_zero

    with pytest.raises(SeriesError):
        bareiss_det((), one)
    with pytest.raises(SeriesError):
        bareiss_det(((one, zero),), one)
    with pytest.raises(SeriesError):
        bareiss_det(((one, zero), (one,)), one)


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


def _random_rows(one, rng, n, m):
    """Small integers times monomials of degree at most 2 in t1, t2; about a
    third of the nonzero entries add a second, different monomial, so the
    expansion multiplies by multi-term entries too."""
    def entry():
        a, b = rng.randint(0, 1), rng.randint(0, 1)
        out = mono(one, {"t1": a, "t2": b},
                   coeff=rng.choice((-3, -2, -1, 1, 2, 3)))
        if rng.random() < 0.35:
            out = out + mono(one, {"t1": 1 - a, "t2": b},
                             coeff=rng.choice((-2, -1, 1, 2)))
        return out
    return [[entry() if rng.random() > 0.15 else one - one
             for _ in range(m)] for _ in range(n)]


def test_maximal_minors_match_cofactor_expansion():
    one = unit(matrix_rows((2, 2), 6)[0][0])
    zero = one - one
    rng = random.Random(1309)
    cases = []
    for n, m in ((2, 3), (2, 4), (3, 4), (3, 5), (4, 5), (4, 6)):
        # the first entry of row 0 is zero, and the second row's is one
        lead = _random_rows(one, rng, n, m)
        lead[0][0], lead[1][0] = zero, one
        # column 1 is zero: every minor on it expands over zero entries
        dead = _random_rows(one, rng, n, m)
        for row in dead:
            row[1] = zero
        # rows 0 and 1 agree on columns 0 and 1, so the sub-minor on them is
        # zero and every minor over both columns skips it
        deep = _random_rows(one, rng, n, m)
        deep[0][0] = one
        deep[1][:2] = deep[0][:2]
        cases += [(lead, one), (dead, one), (deep, one),
                  (_random_rows(one, rng, n, m), one)]
    assert any(len(e.sorted_terms()) > 1
               for rows, _ in cases for r in rows for e in r)
    wide = matrix_rows((2, 1), 5)
    cases.append((wide, unit(wide[0][0])))
    for rows, one in cases:
        rows = tuple(tuple(r) for r in rows)
        n, m = len(rows), len(rows[0])
        got = list(maximal_minors(rows, one).items())
        assert len(got) == math.comb(m, n)
        assert [cols for cols, _ in got] == list(
            itertools.combinations(range(m), n))
        for cols, minor in got:
            sub = tuple(tuple(r[j] for j in cols) for r in rows)
            assert minor == _cofactor_det(sub, one - one), (n, m, cols)


def _count_minor_work(monkeypatch):
    """Count exact divisions, products of two operands with two terms or
    more, one-term products (key shifts) and the series built from here
    on.  A product counts whether `*` forms it or `add_products` adds it
    into a sum."""
    counts = {"exact_divide": 0, "multi": 0, "shift": 0, "series": 0}
    divide, mul = GradedSeries.exact_divide, GradedSeries.__mul__
    add_products = GradedSeries.add_products
    packed, init = GradedSeries._packed.__func__, GradedSeries.__init__

    def count_product(a, b):
        if isinstance(b, GradedSeries) and a._rows and b._rows:
            two = len(a._rows) > 1 and len(b._rows) > 1
            counts["multi" if two else "shift"] += 1

    def counted_divide(self, g, integral=False):
        counts["exact_divide"] += 1
        return divide(self, g, integral=integral)

    def counted_mul(self, other):
        count_product(self, other)
        return mul(self, other)

    def counted_add_products(self, pairs):
        pairs = list(pairs)
        for a, b in pairs:
            count_product(a, b)
        return add_products(self, pairs)

    def counted_packed(cls, *args, **kwargs):
        counts["series"] += 1
        return packed(cls, *args, **kwargs)

    def counted_init(self, *args, **kwargs):
        counts["series"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(GradedSeries, "exact_divide", counted_divide)
    monkeypatch.setattr(GradedSeries, "__mul__", counted_mul)
    monkeypatch.setattr(GradedSeries, "add_products", counted_add_products)
    monkeypatch.setattr(GradedSeries, "_packed", classmethod(counted_packed))
    monkeypatch.setattr(GradedSeries, "__init__", counted_init)
    return counts


def test_minors_suite_work_ceiling(monkeypatch):
    """Exact work counts of the whole of criterion 02: the compositions of
    each n share their Laplace levels and carry their Vandermonde products,
    each minor is one sum of products, and divisibility is certified
    without a division.  A change may lower these ceilings, and raising
    one must be argued."""
    counts = _count_minor_work(monkeypatch)
    rep = minors_suite(max_square=6, max_minor=5)
    assert rep["verdict"] and rep["cases"] == 574
    assert counts["exact_divide"] == 0
    assert counts["multi"] <= 282
    assert counts["shift"] <= 5210
    assert counts["series"] <= 3423


def test_composition_walk_matches_each_matrix():
    """The shared walk reaches the compositions in order, each with the
    maximal minors of its own matrix."""
    for n_total, width in ((3, 5), (4, 4)):
        got = list(actions._composition_walk(n_total, width))
        assert [blocks for blocks, _, _ in got] == _compositions(n_total)
        for blocks, product, minors in got:
            rows = matrix_rows(blocks, width)
            assert minors == maximal_minors(rows, unit(product))


def test_the_walk_carries_each_vandermonde_product():
    """The product a leaf carries equals prod_{i>j} (t_i - t_j)^(n_i n_j)
    built factor by factor, for every composition of n <= 5."""
    for n_total in range(1, 6):
        got = list(actions._composition_walk(n_total, n_total))
        assert [blocks for blocks, _, _ in got] == _compositions(n_total)
        for blocks, product, _ in got:
            assert product == _direct_product(blocks, product), blocks

def test_theorem_g_work_ceiling(monkeypatch):
    """Operand-size products (sum of |a|*|b| over series x series products)
    of three thmG round trips at p = 3; a change may lower this ceiling,
    and raising it must be argued.  A product counts whether `*` forms it
    or `add_products` adds it into a sum."""
    work = [0]
    mul, add_products = GradedSeries.__mul__, GradedSeries.add_products

    def counted_mul(self, other):
        if isinstance(other, GradedSeries):
            work[0] += len(self._rows) * len(other._rows)
        return mul(self, other)

    def counted_add_products(self, pairs):
        pairs = list(pairs)
        work[0] += sum(len(a._rows) * len(b._rows) for a, b in pairs)
        return add_products(self, pairs)

    monkeypatch.setattr(GradedSeries, "__mul__", counted_mul)
    monkeypatch.setattr(GradedSeries, "add_products", counted_add_products)
    rep = theorem_g_suite(3, count=3, seed=11)
    assert rep["verdict"] and rep["cases"] == 3
    assert work[0] <= 296584


def test_a_second_theorem_g_case_builds_no_new_power(monkeypatch):
    """The invariance check reads the powers of the shift image from the
    context, so a second round trip whose input reaches no higher x-power
    than the first builds none (seed 20260814 at p = 3 is such a pair)."""
    built = []
    memo = Context.memo

    def counted_memo(self, key, build):
        def counted_build():
            built.append(key)
            return build()
        return memo(self, key, counted_build)

    monkeypatch.setattr(Context, "memo", counted_memo)
    counts = []
    for count in (1, 2):
        built.clear()
        assert theorem_g_suite(3, count=count)["verdict"]
        counts.append(sum(key[0] == "image_power" for key in built))
    assert counts[0] > 1 and counts[1] == counts[0]


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
    assert work["mul"] <= 17
    assert work["pairs"] <= 36448


def test_minor_determinant_report():
    product, minors = _leaf((2, 1), 5)
    # square + C(5,3) minors
    assert actions._check_minors((2, 1), 5, product,
                                 minors.items()) == (True, 1 + 10, None)


def _cases_before(blocks):
    """The cases of `minors_suite(6, 5)` before the leaf A(blocks; n + 2)."""
    n = sum(blocks)
    return (sum(len(_compositions(k)) * (1 + math.comb(k + 2, k))
                for k in range(1, n))
            + _compositions(n).index(blocks) * (1 + math.comb(n + 2, n)))


def test_minor_determinant_catches_a_wrong_product(monkeypatch):
    """A walk whose product is doubled at one leaf stops the suite there,
    at the square identity."""
    walk = actions._composition_walk

    def doubled(n_total, width):
        for blocks, product, minors in walk(n_total, width):
            if blocks == (2, 2, 1):
                product = product * 2
            yield blocks, product, minors
    monkeypatch.setattr(actions, "_composition_walk", doubled)
    rep = minors_suite(max_square=6, max_minor=5)
    assert not rep["verdict"] and rep["blocks"] == [2, 2, 1]
    assert rep["cases"] == _cases_before((2, 2, 1)) + 1
    assert rep["witness"] == "det A(2,2,1;5) != product"


def _with_minor(minors, index, change):
    """The minors, (columns, minor) in combinations order, with minor
    `index` replaced by change(minor)."""
    out = list(minors.items())
    cols, minor = out[index]
    out[index] = cols, change(minor)
    return out


def _plus_one(minor):
    return minor + unit(minor)


def _refused_at_minor_7(verdict, cases, witness):
    cols = list(itertools.combinations(range(7), 5))[7]
    return (not verdict and cases == 1 + 8
            and witness == "minor columns %s of A(2,2,1;7)" % (cols,))


def _check_wide_221(change):
    """Criterion 02 on A(2,2,1;7) with minor 7 replaced by change(minor)."""
    product, minors = _leaf((2, 2, 1), 7)
    return actions._check_minors((2, 2, 1), 7, product,
                                 _with_minor(minors, 7, change))


def test_minor_determinant_catches_a_wrong_minor():
    """A later minor plus 1 is not divisible by the product."""
    assert _refused_at_minor_7(*_check_wide_221(_plus_one))


def test_minor_certificate_reads_every_derivative_order():
    """A minor divisible by (t2 - t1)^3 but not by (t2 - t1)^4 is refused:
    the check reaches the Hasse derivative of order 3."""
    product, _ = _leaf((2, 2, 1), 7)
    d21 = mono(product, {"t2": 1}) - mono(product, {"t1": 1})
    short = product.exact_divide(d21)
    assert short.divisible_by_difference("t2", "t1", 3)
    assert not short.divisible_by_difference("t2", "t1", 4)
    assert _refused_at_minor_7(*_check_wide_221(lambda minor: short))


def test_minor_certificate_asks_for_integer_coefficients():
    """A minor plus half the product is divisible by the product over the
    rationals, but not with an integral quotient."""
    product, _ = _leaf((2, 2, 1), 7)
    half = product.scale(Fraction(1, 2))
    assert _refused_at_minor_7(
        *_check_wide_221(lambda minor: minor + half))


def test_minors_suite_reports_the_first_wrong_leaf(monkeypatch):
    """The suite's walk stops at the first refused minor of A(2,2,1;7) and
    counts the cases of every leaf before it."""
    step = actions.laplace_step
    leaf = _compositions(5).index((2, 2, 1))
    seen = [0]

    def tampered(level, row, zero):
        # minor 7 of the leaf-th 5 x 7 last level, plus 1
        out = step(level, row, zero)
        cols = list(out)
        if len(cols[0]) == 5 and len(row) == 7:
            if seen[0] == leaf:
                out[cols[7]] = _plus_one(out[cols[7]])
            seen[0] += 1
        return out
    monkeypatch.setattr(actions, "laplace_step", tampered)
    rep = minors_suite(max_square=6, max_minor=5)
    assert rep["blocks"] == [2, 2, 1]
    assert _refused_at_minor_7(rep["verdict"],
                               rep["cases"] - _cases_before((2, 2, 1)),
                               rep["witness"])


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


def _thmg_context(p, deg=6, bweight=6):
    """The context `theorem_g_suite` builds, at kmax = 3."""
    return Context(deg, bweight, extra_vars=("x",),
                   trunc_plus=3 * p + deg + bweight + 4)


@pytest.mark.parametrize("p", [2, 3])
def test_shift_image_is_the_formal_sum_with_each_rep(p):
    """Every image name +_F [k]t, built from the first one, equals the
    formal sum of name and [k]t, in each context that reads images."""
    contexts = [(operations.make_context(p), ("z1", "x")),
                (_thmg_context(p), ("x",)), (xy_context(p), ("x", "y")),
                (twisted_context(p), ("x",))]
    ks = sorted({k for _, reps in operations.rep_choices(p) for k in reps})
    for ctx, names in contexts:
        for name in names:
            for k in ks:
                want = ctx.formal_sum(ctx.var(name), ctx.nseries(k))
                assert ctx.shift_image(name, k) == want, (name, k)


@pytest.mark.parametrize("p", [2, 3])
def test_orbit_product_is_the_carrier_times_the_shift_product(p):
    """pi = x * prod_i (x +_F [i]t), and the shift product of power series
    does not depend on the order of its factors."""
    contexts = [(operations.make_context(p, 6, 6), ("z1", "x")),
                (twisted_context(p), ("x",))]
    choices = [reps for _, reps in operations.rep_choices(p)] + [(1, -1, 2)]
    for ctx, names in contexts:
        for name in names:
            for reps in choices:
                shifted = ctx.shift_product(name, reps)
                assert ctx.orbit_product(name, reps) == (
                    ctx.var(name) * shifted), (name, reps)
                assert ctx.shift_product(name, reps[::-1]) == shifted, (
                    name, reps)


def test_prop_xy_orbit_product_is_the_product_of_formal_sums(monkeypatch):
    """The series prop_xy_series decomposes is s * prod_i (s +_F [i]t),
    s = x +_F y, built here from formal sums, and its G rebuilds it from
    orbit products built here."""
    seen = []
    decompose = actions.invariant_decompose

    def spy(phi, action):
        seen.append(phi)
        return decompose(phi, action)
    monkeypatch.setattr(actions, "invariant_decompose", spy)
    p = 2
    for deg in (3, 4):
        seen.clear()
        coeffs, rep = prop_xy_series(p, deg=deg, bweight=deg)
        assert rep["verdict"], rep["witness"]
        ctx = xy_context(p, deg=deg, bweight=deg)
        x, y, t = ctx.var("x"), ctx.var("y"), ctx.var("t")
        s = ctx.formal_sum(x, y)
        old = s
        for i in range(1, p):
            old = old * ctx.formal_sum(s, ctx.nseries(i))
        assert seen[0] == old
        pix, piy = x * ctx.formal_sum(x, t), y * ctx.formal_sum(y, t)
        recon = ctx.zero()
        for (k, l), q in coeffs.items():
            recon = recon + q * pix ** k * piy ** l
        assert FormalP(ctx, p).normal_form(old - recon).is_zero


@pytest.mark.parametrize("p", [2, 3])
def test_unit_inverse_is_the_inverse_of_the_nseries_product(p):
    """c(t) read from pi is prod_{i<p} [i](t): the unit inverse is that of
    the product over t^(p-1), built here."""
    for ctx in (_thmg_context(p), xy_context(p, deg=4, bweight=4)):
        c = ctx.one()
        for i in range(1, p):
            c = c * ctx.nseries(i)
        unit_c = c.shift_var("t", -(p - 1))
        want = unit_c.mul_inverse()
        assert ShiftAction(ctx, p, "x").unit_inverse() == want
        assert want.constant() == Fraction(1, math.factorial(p - 1))
        assert want * unit_c == ctx.one()


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

    psi = invariant_decompose(action.pi_power(1), action)
    assert set(psi) == {1}
    assert psi[1] == ctx.one()

    noise = fp.g * ctx.mono({"x": 1, "t": 2}, 3)
    psi2 = invariant_decompose(action.pi_power(2) + noise, action)
    live = {k for k, q in psi2.items() if not fp.normal_form(q).is_zero}
    assert live == {2}
    assert fp.normal_form(psi2[2] - ctx.one()).is_zero


def _horner_shift(action, f):
    """The normal form of f(x +_F t) by plain Horner substitution."""
    nf = action.fp.normal_form
    img = nf(action.ctx.shift_image(action.var, 1))
    return nf(f.substitute({action.var: img}))


@pytest.mark.parametrize("p", [2, 3])
def test_shift_matches_horner(p):
    """The sum over cached image powers equals Horner's value, on invariant
    series and on series that are not."""
    ctx = action_context(p)
    action = ShiftAction(ctx, p, "x")
    nf = action.fp.normal_form
    x, t, b1 = ctx.var("x"), ctx.var("t"), ctx.var("b1")
    pi = action.pi_power(1)
    invariant = [pi, action.pi_power(2) + pi * t * b1.scale(2),
                 action.pi_power(3).scale(Fraction(1, 5)), ctx.one() + t]
    other = [x, x * x * t + x * b1, pi + x, (x + t) ** 7 * b1]
    for f in invariant:
        assert action.shift(f) == _horner_shift(action, f) == nf(f)
    for f in other:
        assert action.shift(f) == _horner_shift(action, f) != nf(f)


def test_shift_keeps_the_image_powers_of_each_variable():
    """x and y on one context have different shift images, so their powers
    must not share a cache entry."""
    ctx = xy_context(2, deg=4, bweight=4)
    x, y, t = ctx.var("x"), ctx.var("y"), ctx.var("t")
    f = x * x * y + y * y * y * t + x * y + y
    for var in ("x", "y", "x", "y"):
        action = ShiftAction(ctx, 2, var)
        assert action.shift(f) == _horner_shift(action, f)


def test_invariant_decompose_refuses_a_laurent_floor():
    """Truncated Laurent products are not associative, so the sum over
    image powers need not equal the substituted series there."""
    ctx = Context(4, 3, tfloor=-4, extra_vars=("x",), trunc_plus=10)
    action = ShiftAction(ctx, 2, "x")
    with pytest.raises(SeriesError, match="Laurent floors"):
        invariant_decompose(action.pi_power(1), action)


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
    psi = invariant_decompose(pi + ctx.var("x").scale(p), action)
    assert psi == {1: ctx.one()}
    with pytest.raises(SeriesError, match="not invariant"):
        invariant_decompose(pi + ctx.var("x"), action)


def test_invariant_decompose_additive():
    ctx = Context(6, 0, extra_vars=("x",), trunc_plus=12)
    action = ShiftAction(ctx, 2, "x")
    phi = ctx.var("x") * (ctx.var("x") + ctx.var("t"))
    psi = invariant_decompose(phi, action)
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
    assert all(vp(c, 2) >= 1 for _, c in diff.sorted_terms())


@pytest.mark.parametrize("p", [2, 3])
def test_twisted_universal(p):
    _, rep = twisted_fgl_alpha(p)
    assert rep["verdict"], rep["witness"]
