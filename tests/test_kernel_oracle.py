"""The series kernels against oracles written out in this file.

The product oracle multiplies every pair of terms with Fraction arithmetic
and then applies the ring's rules written out here from their definitions:
drop zero coefficients, drop terms past a degree cap or a truncation bound,
and raise LaurentUnderflow when a kept term lies below a Laurent floor.  It
does not call GradedSeries.__mul__ or anything that product uses.  Exact
division, multiplicative and compositional inverses are checked by round
trips, and products against the ring laws that truncation keeps.
Substitution is checked against products with materialized powers of the
images.  The quotient modulo g = p*u is checked against general algorithms
that hold for any g = p + (terms of positive t-degree): the normal form
against a carry sweep up the t-digits and against repeated subtraction of
multiples of g, the division by g against a digit-by-digit solve, and the
integrality check against clearing one negative digit at a time.  These
oracles use the product checked first.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cobcalc.quotient import FormalP, PDivisibilityError  # noqa: E402
from cobcalc.series import (  # noqa: E402
    GradedSeries,
    LaurentUnderflow,
    NonUnitLowest,
    NotDivisible,
    Variable,
    VariableTable,
    vp,
)

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)
COEFFS = st.one_of(st.integers(-3, 3),
                   st.builds(Fraction, st.integers(-3, 3),
                             st.sampled_from([2, 3, 4])))


def degrees(table, e):
    """(positive degree, negative-weight degree) of the term at e."""
    return (sum(w * k for w, k in zip(table.weights, e) if w > 0),
            sum(-w * k for w, k in zip(table.weights, e) if w < 0))


def capped(table, e):
    """True when the term at e lies past a degree cap."""
    return any(sum(e[i] for i in idxs) > bound for idxs, bound in table.caps)


def ring_rules(table, tp, tm, acc):
    """(the terms of acc the ring keeps, whether a kept one lies below a
    floor), for any {exponent: rational}."""
    out, underflow = {}, False
    for e, c in acc.items():
        c = Fraction(c)
        if c == 0 or capped(table, e):
            continue
        dp, dm = degrees(table, e)
        if dp > tp or dm > tm:
            continue
        if any(k < (f or 0) for k, f in zip(e, table.floors)):
            underflow = True
        out[e] = c.numerator if c.denominator == 1 else c
    return out, underflow


def oracle(a, b):
    """(terms of a*b, whether a kept term lies below a floor)."""
    acc = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            acc[e] = acc.get(e, 0) + Fraction(ca) * Fraction(cb)
    return ring_rules(a.table, a.trunc_plus, a.trunc_minus, acc)


@st.composite
def tables(draw):
    n = draw(st.integers(1, 4))
    variables = [Variable("v%d" % i,
                          draw(st.sampled_from([-3, -2, -1, 1, 2, 3])),
                          laurent_floor=draw(st.sampled_from([None, -1, -3])))
                 for i in range(n)]
    names = [v.name for v in variables]
    caps = draw(st.lists(st.tuples(st.lists(st.sampled_from(names), min_size=1,
                                            max_size=n, unique=True),
                                   st.integers(0, 5)), max_size=2))
    table = VariableTable(variables, degree_caps=[(tuple(g), bound)
                                                  for g, bound in caps])
    return table, draw(st.integers(0, 12)), draw(st.integers(0, 12))


def series(draw, table, tp, tm, coeffs=COEFFS, nonneg=False):
    # small exponent ranges make products collide, and so cancel
    exps = st.tuples(*[st.integers(0 if nonneg or v.laurent_floor is None
                                   else v.laurent_floor, 2)
                       for v in table.variables])
    terms = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=8))
    return GradedSeries(table, tp, tm, terms)


@st.composite
def operands(draw):
    table, tp, tm = draw(tables())
    a, b = series(draw, table, tp, tm), series(draw, table, tp, tm)
    if draw(st.booleans()):
        # (a + b)(a - b): the cross terms cancel
        return a + b, a - b
    return a, b


def _laurent_pair():
    table = VariableTable([Variable("t", 1, laurent_floor=-3),
                           Variable("b", -1)])
    a = GradedSeries(table, 4, 2, {(-2, 0): 1, (1, 1): Fraction(1, 2)})
    return a, GradedSeries(table, 4, 2, {(-2, 1): 3, (0, 0): -1})


def _cancelling_pair():
    table = VariableTable([Variable("x", 1), Variable("y", 2)])
    a = GradedSeries(table, 6, 0, {(1, 0): 1, (0, 1): Fraction(1, 2)})
    return a, GradedSeries(table, 6, 0, {(1, 0): 1, (0, 1): Fraction(-1, 2)})


def _capped_underflow_pair():
    # t^-4 lies below the floor but carries h^3, past the cap: no raise
    table = VariableTable([Variable("t", 1, laurent_floor=-3),
                           Variable("h", 1)], degree_caps=[("h", 2)])
    a = GradedSeries(table, 6, 0, {(-2, 2): 2, (0, 0): 1})
    return a, GradedSeries(table, 6, 0, {(-2, 1): 1, (1, 0): 3})


@SETTINGS
@given(operands())
@example(_laurent_pair())
@example(_cancelling_pair())
@example(_capped_underflow_pair())
def test_product_matches_all_pairs_oracle(pair):
    a, b = pair
    expected, underflow = oracle(a, b)
    for left, right in ((a, b), (b, a)):
        if underflow:
            with pytest.raises(LaurentUnderflow):
                left * right
            continue
        got = left * right
        assert got.terms == expected
        assert all(type(c) is int or c.denominator != 1
                   for c in got.terms.values())
        assert (got.trunc_plus, got.trunc_minus) == (a.trunc_plus,
                                                     a.trunc_minus)


def test_oracle_examples_reach_each_branch():
    a, b = _laurent_pair()
    assert oracle(a, b)[1]
    with pytest.raises(LaurentUnderflow):
        a * b
    a, b = _cancelling_pair()
    expected, underflow = oracle(a, b)
    assert not underflow and (1, 1) not in expected
    assert (a * b).terms == {(2, 0): 1, (0, 2): Fraction(-1, 4)}
    a, b = _capped_underflow_pair()
    expected, underflow = oracle(a, b)
    assert not underflow and (a * b).terms == expected


@st.composite
def divisions(draw):
    """(q, g) with int coefficients and g = +-1 + terms of higher order."""
    table, tp, tm = draw(tables())
    q = series(draw, table, tp, tm, coeffs=st.integers(-4, 4))
    g = series(draw, table, tp, tm, coeffs=st.integers(-4, 4), nonneg=True)
    unit = draw(st.sampled_from([1, -1]))
    g = g + GradedSeries.const(table, tp, tm, unit - g.constant())
    return q, g


@SETTINGS
@given(divisions())
def test_exact_divide_roundtrip_integral(pair):
    q, g = pair
    f = q * g
    quotient = f.exact_divide(g, integral=True)
    assert all(type(c) is int for c in quotient.terms.values())
    assert quotient * g == f


@SETTINGS
@given(divisions(), st.integers(2, 5))
def test_exact_divide_roundtrip_fractions(pair, den):
    q, g = pair
    f = (q * g).scale(Fraction(1, den))
    assert f.exact_divide(g) * g == f


def test_not_divisible_names_the_seed_monomial():
    table = VariableTable([Variable("t", 1, laurent_floor=-2),
                           Variable("x", 1), Variable("b", -1)],
                          degree_caps=[("x", 3)])

    def m(exps, c=1):
        return GradedSeries.monomial(table, 6, 2, exps, coeff=c)
    g = m({}, 2) + m({"x": 1}) + m({"t": -1, "b": 1}, 3)
    f = ((m({"t": 1}) + m({"x": 1}, -1) + m({"b": 1})) * g
         + m({"x": 2, "b": 1}, 4) - m({"t": -1, "x": 1, "b": 2}, 3))
    with pytest.raises(NotDivisible) as err:
        f.exact_divide(g, integral=True)
    assert err.value.monomial == "x*b"
    assert str(err.value) == "coefficient of x*b not divisible"
    with pytest.raises(NotDivisible) as err:
        f.exact_divide(g)
    assert err.value.monomial == "t*x"
    assert str(err.value) == "monomial t*x not divisible by t^-1*b"


def substitute_oracle(f, bindings):
    """Each term times materialized powers of the images, summed."""
    table = f.table
    one = GradedSeries.one(table, f.trunc_plus, f.trunc_minus)
    bound = {table.index[n]: img for n, img in bindings.items()}
    total = GradedSeries.zero(table, f.trunc_plus, f.trunc_minus)
    for exp, c in f.terms.items():
        rest = tuple(0 if i in bound else k for i, k in enumerate(exp))
        part = GradedSeries(table, f.trunc_plus, f.trunc_minus, {rest: c})
        for i, img in bound.items():
            power = one
            for _ in range(exp[i]):
                power = power * img
            part = part * power
        total = total + part
    return total


@st.composite
def substitutions(draw):
    """(f, bindings) with nonnegative exponents throughout, so truncation is
    monotone, and every image self-sufficient: each image term carries a
    positive-weight variable, often another bound one."""
    table, tp, tm = draw(tables())
    positive = [v.name for v in table.variables if v.weight > 0]
    hypothesis.assume(positive)
    f = series(draw, table, tp, tm, nonneg=True)
    names = draw(st.lists(st.sampled_from(table.names()), min_size=1,
                          max_size=3, unique=True))
    swap = [n for n in names if n in positive][:2]
    if len(swap) == 2 and draw(st.booleans()):
        # {u: v, v: u}
        bindings = {swap[0]: GradedSeries.monomial(table, tp, tm,
                                                   {swap[1]: 1}),
                    swap[1]: GradedSeries.monomial(table, tp, tm,
                                                   {swap[0]: 1})}
    else:
        bindings = {}
    for n in names:
        if n not in bindings:
            carrier = draw(st.sampled_from(positive))
            bindings[n] = (series(draw, table, tp, tm, nonneg=True)
                           * GradedSeries.monomial(table, tp, tm,
                                                   {carrier: 1}))
    return f, bindings


def _swap_example():
    table = VariableTable([Variable("u", 1), Variable("v", 2),
                           Variable("b", -1)])
    f = GradedSeries(table, 8, 3, {(2, 1, 0): 3, (1, 0, 1): -1, (0, 0, 2): 2})
    u, v = (GradedSeries.monomial(table, 8, 3, {n: 1}) for n in "uv")
    return f, {"u": v, "v": u * u + u * v}


@SETTINGS
@given(substitutions())
@example(_swap_example())
def test_substitute_matches_materialized_powers(case):
    f, bindings = case
    assert f.substitute(bindings) == substitute_oracle(f, bindings)


def test_substitute_oracle_example_is_simultaneous():
    f, bindings = _swap_example()
    sequential = f
    for n, img in bindings.items():
        sequential = sequential.substitute({n: img})
    assert substitute_oracle(f, bindings) != sequential


def _first_indivisible(series, p):
    """The least exponent, in graded order, whose coefficient p does not
    divide; None if p divides them all."""
    bad = [e for e, c in series.terms.items() if vp(c, p) < 1]
    return min(bad, key=lambda e: (sum(e), e)) if bad else None


@st.composite
def formal_p_inputs(draw, floor=None):
    """(FormalP, table, tp, tm) for a drawn g = p*u, u = 1 + terms of
    t-degree >= 1, as in the group-law contexts, where p divides every
    coefficient of [p](t)/t.  t is the first variable, with the given
    Laurent floor; FormalP refuses a cap on t when t has one."""
    p = draw(st.sampled_from([2, 3, 5]))
    variables = [Variable("t", 1, laurent_floor=floor)] + [
        Variable("v%d" % i, w) for i, w in enumerate(draw(st.lists(
            st.sampled_from([-2, -1, 1, 2]), max_size=3)))]
    names = [v.name for v in variables[0 if floor is None else 1:]]
    caps = draw(st.lists(st.tuples(st.lists(st.sampled_from(names), min_size=1,
                                            unique=True),
                                   st.integers(1, 6)),
                         max_size=2)) if names else []
    table = VariableTable(variables, degree_caps=[(tuple(g), bound)
                                                  for g, bound in caps])
    tp, tm = draw(st.integers(3, 10)), draw(st.integers(0, 4))
    exps = st.tuples(*[st.integers(0, 2) for _ in variables])
    tail = draw(st.dictionaries(exps.filter(lambda e: e[0] >= 1),
                                st.sampled_from([-3, -2, -1, 1, 2, 3]),
                                min_size=2, max_size=6))
    u = (GradedSeries(table, tp, tm, tail)
         + GradedSeries.const(table, tp, tm, 1))
    return FormalP.from_generator(u.scale(p), p), table, tp, tm


@st.composite
def normal_form_inputs(draw):
    fp, table, tp, tm = draw(formal_p_inputs())
    exps = st.tuples(*[st.integers(0, 2) for _ in table.variables])
    f = draw(st.dictionaries(exps, st.integers(-40, 40), min_size=4,
                             max_size=10))
    return fp, GradedSeries(table, tp, tm, f)


def normal_form_oracle(fp, f):
    """Subtract q*t^k*m*g for the lowest digit c*t^k*m outside [0, p), with
    q = c // p, until none is left."""
    ti = f.table.index["t"]
    while True:
        bad = [(e[ti], e) for e, c in f.terms.items() if not 0 <= c < fp.p]
        if not bad:
            return f
        e = min(bad)[1]
        m = GradedSeries(f.table, f.trunc_plus, f.trunc_minus,
                         {e: f.terms[e] // fp.p})
        f = f - m * fp.g


def carry_sweep_oracle(fp, f):
    """The normal form for an arbitrary g = p + (terms of t-degree >= 1):
    one sweep up the t-digits turns c into c - p*q for q = c // p and
    carries -q times the terms of g of positive t-degree into higher
    digits."""
    p, table, tp, tm = fp.p, f.table, f.trunc_plus, f.trunc_minus
    tail = sorted(degrees(table, e)[::-1] + (e[0], e, c)
                  for e, c in fp.g.terms.items() if e[0] >= 1)
    digits = {}
    for exp, c in f.terms.items():
        digits.setdefault(exp[0], {})[exp] = c
    out = {}
    for k in range(tp + 1):
        for exp, c in digits.pop(k, {}).items():
            q, r = divmod(c, p)
            if r:
                out[exp] = r
            if not q:
                continue
            pe, me = degrees(table, exp)
            for mg, pg, j, eg, cg in tail:
                if me + mg > tm:
                    break
                if pe + pg > tp:
                    continue
                e = tuple(x + y for x, y in zip(exp, eg))
                if capped(table, e):
                    continue
                above = digits.setdefault(k + j, {})
                above[e] = above.get(e, 0) - q * cg
    return GradedSeries(table, tp, tm, out)


@SETTINGS
@given(normal_form_inputs())
def test_normal_form_matches_repeated_subtraction(case):
    fp, f = case
    nf = fp.normal_form(f)
    assert nf == normal_form_oracle(fp, f) == carry_sweep_oracle(fp, f)
    assert all(type(c) is int and 0 <= c < fp.p for c in nf.terms.values())
    assert fp.normal_form(nf) == nf


def triangular_solve_oracle(fp, S):
    """Phi digit by digit from the lowest t-degree up: the t^j digit of
    S - g*(Phi so far) must be divisible by p, and Phi gains it over p.
    Returns Phi, or the (message, witness) of the lowest failing digit."""
    S, _pos = S.split_parts("t")
    phi = GradedSeries.zero(S.table, S.trunc_plus, S.trunc_minus)
    for j in range(min(S.min_degree("t") or 0, 0), 1):
        val = (S - fp.g * phi).coeff_of("t", j)
        e = _first_indivisible(val, fp.p)
        if e is not None:
            mono = val.table.monomial_str(e)
            return ("p-divisibility violated at t^%d on %s (coefficient %s)"
                    % (j, mono, val.terms[e]), "t^%d * %s" % (j, mono))
        phi = phi + val.scale(Fraction(1, fp.p)).shift_var("t", j)
    return phi


def is_integral_oracle(fp, f):
    """Clear each negative digit in turn by subtracting (digit/p)*t^j*g,
    then ask for integer coefficients."""
    p = fp.p
    f = fp.clear_coprime_denominators(f)
    for j in range(min(f.min_degree("t") or 0, 0), 0):
        digit = f.coeff_of("t", j)
        e = _first_indivisible(digit, p)
        if e is not None:
            return False, None, "t^%d * %s (coefficient %s)" % (
                j, digit.table.monomial_str(e), digit.terms[e])
        f = f - digit.scale(Fraction(1, p)).shift_var("t", j) * fp.g
    for exp, c in f.terms.items():
        if Fraction(c).denominator != 1:
            return False, None, "%s (coefficient %s)" % (
                f.table.monomial_str(exp), c)
    return True, f.map_coefficients(int), None


@st.composite
def laurent_inputs(draw, coeffs):
    """(FormalP, f) with f = g*h + r for a Laurent h, plus, often, one more
    term that breaks p-divisibility or p-integrality."""
    floor = draw(st.integers(-4, -1))
    fp, table, tp, tm = draw(formal_p_inputs(floor=floor))

    def exps(top):
        return st.tuples(st.integers(floor, top),
                         *[st.integers(0, 2) for _ in table.variables[1:]])
    h = GradedSeries(table, tp, tm, draw(st.dictionaries(
        exps(0), st.integers(-4, 4), min_size=1, max_size=6)))
    r = GradedSeries(table, tp, tm, draw(st.dictionaries(
        exps(2), coeffs, max_size=3)))
    return fp, fp.g * h + r


@SETTINGS
@given(laurent_inputs(st.integers(-4, 4).map(lambda c: 5 * c)
                      | st.sampled_from([1, -1, 2])))
def test_divide_by_formal_p_matches_triangular_solve(case):
    fp, S = case
    want = triangular_solve_oracle(fp, S)
    if isinstance(want, tuple):
        with pytest.raises(PDivisibilityError) as err:
            fp.divide_by_formal_p(S)
        assert (str(err.value), err.value.witness) == want
    else:
        assert fp.divide_by_formal_p(S) == want


@SETTINGS
@given(laurent_inputs(st.sampled_from([1, -2, Fraction(1, 2), Fraction(1, 3),
                                       Fraction(5, 6), Fraction(2, 9)])))
def test_is_integral_matches_sequential_reduction(case):
    fp, f = case
    assert fp.is_integral_mod_ideal(f) == is_integral_oracle(fp, f)


@st.composite
def reversible(draw):
    """f = x*(c + h) with c a nonzero constant and h without constant term."""
    table = VariableTable([Variable("x", 1), Variable("y", 1),
                           Variable("b", -1)],
                          degree_caps=draw(st.sampled_from([(), (("y", 2),)])))
    tp, tm = draw(st.integers(1, 6)), draw(st.integers(0, 3))
    h = series(draw, table, tp, tm, nonneg=True)
    c = draw(COEFFS.filter(bool))
    unit = h + GradedSeries.const(table, tp, tm, c - h.constant())
    x = GradedSeries.monomial(table, tp, tm, {"x": 1})
    return x * unit, x


@SETTINGS
@given(reversible())
def test_compositional_inverse_round_trip(case):
    f, x = case
    g = f.compositional_inverse("x")
    assert f.substitute({"x": g}, poly_vars=("x",)) == x
    assert g.substitute({"x": f}, poly_vars=("x",)) == x


# ----- the packed path -------------------------------------------------------
#
# Series are stored as packed keys.  These checks build operands with the
# operations that work on keys alone (products, sums, as_poly_in digits,
# split_parts, shift_var, retruncate) and compare every result with terms
# worked out here from the exponent tuples.


def derived(draw, table, tp, tm):
    """(series, its terms): the output of an operation on packed keys, with
    the terms that operation must give, from the exponent tuples."""
    a, b = series(draw, table, tp, tm), series(draw, table, tp, tm)
    i = draw(st.integers(0, len(table.variables) - 1))
    name = table.variables[i].name
    kind = draw(st.sampled_from(("mul", "add", "digit", "split", "shift")))
    if kind == "mul":
        want, underflow = oracle(a, b)
        hypothesis.assume(not underflow)
        return a * b, want
    if kind == "add":
        acc = dict(a.terms)
        for e, c in b.terms.items():
            acc[e] = acc.get(e, 0) + c
        return a + b, ring_rules(table, tp, tm, acc)[0]
    if kind == "digit":
        # a digit of a negative power may hold terms past the bounds
        digits = a.as_poly_in(name)
        if not digits:
            return a, {}
        k = draw(st.sampled_from(sorted(digits)))
        assert a.coeff_of(name, k) == digits[k]
        return digits[k], {e[:i] + (0,) + e[i + 1:]: c
                           for e, c in a.terms.items() if e[i] == k}
    if kind == "split":
        above = draw(st.booleans())
        return a.split_parts(name)[above], {
            e: c for e, c in a.terms.items() if (e[i] > 0) == above}
    k = draw(st.integers(-2, 2))
    want, underflow = ring_rules(table, tp, tm, {
        e[:i] + (e[i] + k,) + e[i + 1:]: c for e, c in a.terms.items()})
    hypothesis.assume(not underflow)
    return a.shift_var(name, k), want


@st.composite
def derived_operands(draw):
    table, tp, tm = draw(tables())
    x, y = derived(draw, table, tp, tm), derived(draw, table, tp, tm)
    g = series(draw, table, tp, tm, coeffs=st.integers(-4, 4), nonneg=True)
    unit = draw(st.sampled_from([1, -1, 2]))
    return x, y, g + GradedSeries.const(table, tp, tm, unit - g.constant())


@SETTINGS
@given(derived_operands())
def test_packed_results_match_the_tuple_oracle(case):
    (x, xterms), (y, yterms), g = case
    table, tp, tm = x.table, x.trunc_plus, x.trunc_minus
    assert x.terms == xterms and y.terms == yterms
    # a sum drops only the terms that cancel
    acc = dict(xterms)
    for e, c in yterms.items():
        acc[e] = acc.get(e, 0) + c
    assert (x + y).terms == {e: c for e, c in acc.items() if c}
    assert (x - y) + y == x + y - y
    want, underflow = oracle(x, y)
    if underflow:
        with pytest.raises(LaurentUnderflow):
            x * y
        return
    product = x * y
    # equal to the series built from tuples: one denominator, lowest terms
    assert product == GradedSeries(table, tp, tm, want)
    assert product.terms == want
    assert GradedSeries.from_json(product.to_json()) == product
    try:
        f = product * g
    except LaurentUnderflow:
        return
    assert f.exact_divide(g) * g == f


@SETTINGS
@given(operands(), st.integers(0, 4), st.integers(0, 3))
def test_retruncate_moves_terms_between_layouts(pair, up, down):
    a, b = pair
    tp, tm = a.trunc_plus, a.trunc_minus
    deep_a = a.retruncate(tp + up, tm + up)
    assert deep_a.terms == a.terms
    assert deep_a.retruncate(tp, tm) == a
    lower = (max(tp - down, 0), max(tm - down, 0))
    assert a.retruncate(*lower).terms == ring_rules(a.table, *lower,
                                                    a.terms)[0]
    # a product at deeper bounds, cut back, is the product at these: both
    # hold the same operand terms
    try:
        deep = deep_a * b.retruncate(tp + up, tm + up)
    except LaurentUnderflow:
        return
    assert deep.retruncate(tp, tm) == a * b


def test_laurent_underflow_through_the_packed_path():
    table = VariableTable([Variable("t", 1, laurent_floor=-2),
                           Variable("x", 1)])

    def m(exps, c=1):
        return GradedSeries.monomial(table, 6, 0, exps, coeff=c)
    with pytest.raises(LaurentUnderflow, match="exponent -3 of t"):
        m({"t": -2}) * m({"t": -1, "x": 1})
    with pytest.raises(LaurentUnderflow, match="exponent -3 of t"):
        (m({"t": -1}) + m({"x": 1})).shift_var("t", -2)
    # t^-2 over t^-1 + t^-2*x^2: the quotient term t^-1 times t^-2*x^2
    # lies below the floor
    with pytest.raises(LaurentUnderflow, match="exponent -3 of t"):
        m({"t": -2}).exact_divide(m({"t": -1}) + m({"t": -2, "x": 2}))
    # past the bounds, a term below the floor is dropped, not raised
    assert (m({"t": -2, "x": 6}) * m({"t": -1, "x": 5})).is_zero


# ----- ring laws under truncation --------------------------------------------
#
# Dropping the terms past a cap or a bound is a ring map when no term has a
# negative exponent: the dropped terms form an ideal.  A Laurent power can
# bring back under trunc_plus a term that an earlier product dropped, so
# associativity is checked on series without negative exponents, over the
# same tables.  Distributivity needs no such care: each product drops and
# keeps term by term.


@st.composite
def triples(draw, nonneg=False):
    table, tp, tm = draw(tables())
    return tuple(series(draw, table, tp, tm, nonneg=nonneg) for _ in range(3))


@SETTINGS
@given(triples(nonneg=True))
def test_products_are_associative_under_truncation(case):
    a, b, c = case
    assert (a * b) * c == a * (b * c)


@SETTINGS
@given(triples())
def test_products_distribute_over_sums_under_truncation(case):
    a, b, c = case
    try:
        ab, ac = a * b, a * c
    except LaurentUnderflow:
        # a term below a floor in a*b may cancel against one in a*c
        hypothesis.assume(False)
    assert a * (b + c) == ab + ac
    assert (b - c) * a == ab - ac


@st.composite
def invertible(draw):
    """(a, lead): a = k * m * (1 + h) for m the monomial lead, in the
    Laurent variables within their floors, k a nonzero rational and h
    without constant term or negative exponents, so that the powers of h
    die under the truncation."""
    table, tp, tm = draw(tables())
    lead = {v.name: draw(st.integers(v.laurent_floor, -v.laurent_floor))
            for v in table.variables if v.laurent_floor is not None}
    h = series(draw, table, tp, tm, nonneg=True)
    unit = h + GradedSeries.const(table, tp, tm, 1 - h.constant())
    k = draw(COEFFS.filter(bool))
    a = GradedSeries.monomial(table, tp, tm, lead, coeff=k) * unit
    hypothesis.assume(not a.is_zero)
    return a, lead


def reach(table, series):
    """How far below zero the terms of series reach in each truncated
    quantity: the positive degree, the negative degree, each cap's sum."""
    terms = list(series.terms)
    return ([max([0] + [-degrees(table, e)[j] for e in terms])
             for j in (0, 1)],
            [max([0] + [-sum(e[i] for i in idxs) for e in terms])
             for idxs, _bound in table.caps])


def _lead_past_the_bounds():
    # t^3 is past trunc_plus 2: no inverse starts with it
    table = VariableTable([Variable("t", 1, laurent_floor=-3),
                           Variable("v", 1)])
    return GradedSeries(table, 2, 0, {(-3, 0): 1, (-3, 1): 2}), {"t": -3}


def _lead_of_negative_weight():
    # b^-1 lowers the negative degree: b^-1 * c^4 is inside trunc_minus 3
    table = VariableTable([Variable("b", -1, laurent_floor=-1),
                           Variable("c", -1)])
    return GradedSeries(table, 0, 3, {(1, 0): 1, (1, 1): 1}), {"b": 1}


@SETTINGS
@given(invertible())
@example(_lead_past_the_bounds())
@example(_lead_of_negative_weight())
def test_mul_inverse_round_trip_with_floors_and_caps(case):
    """a * a^-1 = 1 wherever the truncated product is exact: a term of a
    with a negative degree or cap sum brings back terms of a^-1 past that
    bound, so the product is exact only that far below each bound."""
    a, lead = case
    table, tp, tm = a.table, a.trunc_plus, a.trunc_minus
    past = GradedSeries.monomial(table, tp, tm,
                                 {n: -k for n, k in lead.items()}).is_zero
    try:
        inv = a.mul_inverse()
    except NonUnitLowest:
        # only a lead whose inverse lies past the bounds has no inverse
        assert past
        return
    assert not past
    assert (inv.trunc_plus, inv.trunc_minus) == (tp, tm)
    # the inverse is exact through both bounds: the one computed deeper
    # holds the same terms within them
    assert a.retruncate(tp + 2, tm + 2).mul_inverse().retruncate(tp, tm) \
        == inv
    (sp, sm), caps = reach(table, a)
    for e in (a * inv - GradedSeries.one(table, tp, tm)).terms:
        dp, dm = degrees(table, e)
        assert (dp > tp - sp or dm > tm - sm
                or any(sum(e[i] for i in idxs) > bound - s
                       for (idxs, bound), s in zip(table.caps, caps))), e

