"""The series kernels against oracles written out in this file.

The product oracle multiplies every pair of terms with Fraction arithmetic
and then applies the ring's rules written out here from their definitions:
drop zero coefficients, drop terms past a degree cap or a truncation bound,
and raise LaurentUnderflow when a kept term lies below a Laurent floor.  It
does not call GradedSeries.__mul__ or anything that product uses.  Exact
division, multiplicative and compositional inverses are checked by round
trips, and products against the ring laws that truncation keeps.  A sum
of products (`add_products`) is checked against the same all-pairs rules
applied to the whole sum, and against products and sums built from `*`
and `+`; one degree of a product (`product_coeff`) against that degree of
the all-pairs oracle and of `*`; the divisibility certificate for
(x - y)^k against exact division.
Substitution is checked against products with materialized powers of the
images, and, where its Horner steps drop terms early at a degree cap,
against a plain Horner's rule of products and sums; the shift of
`actions.ShiftAction`, summed over cached powers of its image, is checked
against Horner substitution modulo p.  The quotient modulo
g = p*u is checked against general algorithms that hold for any
g = p + (terms of positive t-degree), over Z_(p): the normal form against
a carry sweep up the t-digits, against repeated subtraction of multiples
of g and against num * den^-1 mod p of each coefficient; the division by
g against a digit-by-digit solve; and the integrality check against
clearing one negative digit at a time.  A digit c of Z_(p) splits as
r + p*q with r the one residue in range(p) that leaves p dividing c - r,
found by search.  These oracles use the product checked first.
"""

from fractions import Fraction
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cobcalc.actions import ShiftAction  # noqa: E402
from cobcalc.fgl import Context  # noqa: E402
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


def terms_of(s):
    """The terms of s by exponent tuple."""
    return dict(s.sorted_terms())


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
    for ea, ca in a.sorted_terms():
        for eb, cb in b.sorted_terms():
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
        assert terms_of(got) == expected
        assert all(type(c) is int or c.denominator != 1
                   for _e, c in got.sorted_terms())
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
    assert terms_of(a * b) == {(2, 0): 1, (0, 2): Fraction(-1, 4)}
    a, b = _capped_underflow_pair()
    expected, underflow = oracle(a, b)
    assert not underflow and terms_of(a * b) == expected


def sum_of_products_oracle(seed, pairs):
    """(terms of seed + the sum of a*b over pairs, whether a kept term of
    the sum lies below a floor): every pair of every product summed with
    Fraction arithmetic before the ring's rules."""
    acc = {e: Fraction(c) for e, c in seed.sorted_terms()}
    for a, b in pairs:
        for ea, ca in a.sorted_terms():
            for eb, cb in b.sorted_terms():
                e = tuple(x + y for x, y in zip(ea, eb))
                acc[e] = acc.get(e, 0) + Fraction(ca) * Fraction(cb)
    return ring_rules(seed.table, seed.trunc_plus, seed.trunc_minus, acc)


@st.composite
def sums_of_products(draw):
    """(seed, pairs): up to three products over one table, an operand often
    a single term or empty, and a product often followed by its negation,
    so that sums cancel across products."""
    table, tp, tm = draw(tables())

    def operand():
        kind = draw(st.sampled_from(["series", "series", "one", "empty"]))
        if kind == "one":
            return one_term(draw, table, tp, tm)
        if kind == "empty":
            return GradedSeries.zero(table, tp, tm)
        return series(draw, table, tp, tm)
    seed = (series(draw, table, tp, tm) if draw(st.booleans())
            else GradedSeries.zero(table, tp, tm))
    pairs = []
    for _ in range(draw(st.integers(0, 3))):
        a, b = operand(), operand()
        pairs.append((a, b))
        if draw(st.booleans()):
            # the same product negated, on either side, often changed a bit
            c = draw(st.sampled_from([0, 1, Fraction(1, 2)]))
            a2 = -a + a.scale(c) if draw(st.booleans()) else a
            b2 = b if a2 is not a else -b + b.scale(c)
            pairs.append((b2, a2) if draw(st.booleans()) else (a2, b2))
    return seed, pairs


def _cancelling_underflow_example():
    # t^-1 * t^-1 (a key shift) and (t^-1 + x)(t^-1 - x) (a pair loop) each
    # keep t^-2, below the floor; the sum keeps x^2 over the seed's 1/2
    table = VariableTable([Variable("t", 1, laurent_floor=-1),
                           Variable("x", 1)])
    t_inv = GradedSeries(table, 4, 0, {(-1, 0): 1})
    x = GradedSeries(table, 4, 0, {(0, 1): 1})
    seed = GradedSeries(table, 4, 0, {(0, 0): Fraction(1, 2)})
    return seed, [(t_inv, t_inv), (-(t_inv + x), t_inv - x)]


def _denominators_example():
    # the seed's denominator 2 and the products' 3 * 5 and 7 * 1
    table = VariableTable([Variable("x", 1), Variable("y", 1)])
    x = GradedSeries(table, 6, 0, {(1, 0): Fraction(1, 3), (0, 1): 1})
    y = GradedSeries(table, 6, 0, {(0, 1): Fraction(2, 5), (1, 0): 1})
    seed = GradedSeries(table, 6, 0, {(1, 1): Fraction(1, 2)})
    return seed, [(x, y), (x.scale(Fraction(1, 7)), x.scale(3))]


@SETTINGS
@given(sums_of_products())
@example(_cancelling_underflow_example())
@example(_denominators_example())
def test_add_products_matches_products_and_sums(case):
    """add_products equals seed + the sum of a*b built from `*` and `+`
    whenever every product exists, and the all-pairs oracle always: a term
    below a floor raises only when the sum keeps it, and the error names
    the first such term in key order."""
    seed, pairs = case
    table = seed.table
    want, underflow = sum_of_products_oracle(seed, pairs)
    if underflow:
        low = min((e for e in want if below(table, e)), key=seed._lay.key)
        with pytest.raises(LaurentUnderflow) as err:
            seed.add_products(pairs)
        assert str(err.value) == underflow_message(table, low)
        return
    got = seed.add_products(pairs)
    assert terms_of(got) == want
    assert (got.trunc_plus, got.trunc_minus) == (seed.trunc_plus,
                                                 seed.trunc_minus)
    try:
        products = [a * b for a, b in pairs]
    except LaurentUnderflow:
        return
    reference = seed
    for product in products:
        reference = reference + product
    assert got == reference


def test_add_products_examples_reach_each_branch():
    seed, pairs = _cancelling_underflow_example()
    for a, b in pairs:
        with pytest.raises(LaurentUnderflow):
            a * b
    assert terms_of(seed.add_products(pairs)) == {
        (0, 0): Fraction(1, 2), (0, 2): 1}
    seed, pairs = _denominators_example()
    assert seed.add_products(pairs).denominator == 2 * 3 * 5 * 7


@st.composite
def sliced_products(draw):
    """(a, b, name, k): two operands, a variable of their table and a
    degree of it, often nonzero."""
    a, b = draw(operands())
    name = draw(st.sampled_from([v.name for v in a.table.variables]))
    return a, b, name, draw(st.integers(-3, 4))


def _sliced_example():
    # t has a floor and shares a cap with h, and trunc_plus 5 cuts: at t^1
    # the pairs h^2 * t h (past the cap) and y^3 * t y^2 (past trunc_plus)
    # are dropped by their keys, as `*` drops them
    table = VariableTable([Variable("t", 1, laurent_floor=-2),
                           Variable("h", 1), Variable("y", 1)],
                          degree_caps=[(("t", "h"), 2)])
    a = GradedSeries(table, 5, 0, {(-1, 0, 1): 2, (0, 2, 0): 3, (0, 0, 3): 1,
                                   (-2, 1, 1): Fraction(1, 2)})
    b = GradedSeries(table, 5, 0, {(2, 0, 0): 1, (1, 1, 0): -1, (1, 0, 2): 1,
                                   (0, 1, 1): 1})
    return a, b, "t", 1


@SETTINGS
@given(sliced_products())
@example(_sliced_example())
@example((*_laurent_pair(), "t", -2))
def test_product_coeff_matches_the_sliced_full_product(case):
    """a.product_coeff(b, name, k) equals (a * b).coeff_of(name, k) whenever
    the full product exists, and the all-pairs oracle's terms at name^k
    always: it raises LaurentUnderflow only when one of those is kept below
    a floor."""
    a, b, name, k = case
    i = a.table.index[name]
    want = {e: c for e, c in oracle(a, b)[0].items() if e[i] == k}
    if any(below(a.table, e) for e in want):
        with pytest.raises(LaurentUnderflow):
            a.product_coeff(b, name, k)
        return
    got = a.product_coeff(b, name, k)
    assert terms_of(got) == {e[:i] + (0,) + e[i + 1:]: c
                             for e, c in want.items()}
    assert b.product_coeff(a, name, k) == got
    try:
        full = a * b
    except LaurentUnderflow:
        return
    assert got == full.coeff_of(name, k)


def test_the_sliced_example_drops_pairs_by_their_keys():
    a, b, name, k = _sliced_example()
    assert not {(1, 3, 0), (1, 0, 5)} & set(terms_of(a * b))
    assert terms_of(a.product_coeff(b, name, k)) == {(0, 0, 1): 2,
                                                     (0, 1, 3): -1}
    assert a.product_coeff(b, name, k) == (a * b).coeff_of(name, k)
    a, b = _laurent_pair()
    with pytest.raises(LaurentUnderflow):
        a * b
    # only the t^-4 b term lies below the floor
    assert terms_of(a.product_coeff(b, "t", -2)) == {(0, 0): -1}
    with pytest.raises(LaurentUnderflow):
        a.product_coeff(b, "t", -4)


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
    assert all(type(c) is int for _e, c in quotient.sorted_terms())
    assert quotient * g == f


@SETTINGS
@given(divisions(), st.integers(2, 5))
def test_exact_divide_roundtrip_fractions(pair, den):
    q, g = pair
    f = (q * g).scale(Fraction(1, den))
    assert f.exact_divide(g) * g == f


@st.composite
def difference_powers(draw, ks=st.integers(0, 8)):
    """(q, bump, x - y, k): integer polynomials in x, y and maybe z, with x
    and y of one weight; bounds that keep all of (x - y)^k, k <= 8.  Some
    coefficients reach 2^64, so the certificate's packed sums run wide."""
    w = draw(st.sampled_from([1, 2, -1]))
    variables = [Variable("x", w), Variable("y", w)]
    if draw(st.booleans()):
        variables.append(Variable("z", draw(st.sampled_from([-1, 1, 2]))))
    table = VariableTable(variables)
    k = draw(ks)
    tp = draw(st.integers(max(8, 2 * k), max(8, 2 * k) + 6))
    tm = draw(st.integers(max(4, k), max(4, k) + 6))
    ints = st.one_of(st.integers(-3, 3), st.integers(-2 ** 64, 2 ** 64))
    q = series(draw, table, tp, tm, coeffs=ints, nonneg=True)
    x, y = (GradedSeries.monomial(table, tp, tm, {n: 1}) for n in "xy")
    # a bump that keeps the factor, one a degree short of it, or any
    bump = series(draw, table, tp, tm, coeffs=ints, nonneg=True)
    bump = draw(st.sampled_from([bump * (x - y) ** k,
                                 bump * (x - y) ** max(k - 1, 0), bump]))
    return q, bump, x - y, k


@SETTINGS
@given(difference_powers())
def test_difference_power_certificate_matches_exact_divide(case):
    q, bump, d, k = case
    g = d ** k
    f = q * g
    assert f.divisible_by_difference("x", "y", k)
    h = f + bump
    try:
        h.exact_divide(g, integral=True)
        divides = True
    except NotDivisible:
        divides = False
    assert h.divisible_by_difference("x", "y", k) == divides
    # h + g/2 is divisible over the rationals exactly when h is, and never
    # with an integral quotient
    assert not (h + g.scale(Fraction(1, 2))).divisible_by_difference(
        "x", "y", k)


def _first_order_example():
    # x - y itself: its moved keys cancel, its own keys do not
    table = VariableTable([Variable("x", 1), Variable("y", 1)])
    one = GradedSeries.one(table, 8, 0)
    d = GradedSeries(table, 8, 0, {(1, 0): 1, (0, 1): -1})
    return one, GradedSeries.zero(table, 8, 0), d, 1


@SETTINGS
@given(difference_powers(ks=st.just(1)), COEFFS)
@example(_first_order_example(), 1)
def test_first_order_certificate_matches_exact_divide(case, c):
    """For k = 1 the certificate is one pass of sums over the moved keys;
    it agrees with an integral exact division on divisible series, on
    series a bump breaks and on series with a denominator."""
    q, bump, d, _k = case
    f = q * d
    for h in (f, f + bump, f + bump.scale(c), f.scale(c)):
        try:
            h.exact_divide(d, integral=True)
            divides = True
        except NotDivisible:
            divides = False
        assert h.divisible_by_difference("x", "y", 1) == divides


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
    for exp, c in f.sorted_terms():
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


def _capped_prune_example():
    # every image term carries y, capped at 3, and f has x-degree 5: Horner
    # drops the accumulator's top terms before its first product
    table = VariableTable([Variable("x", 1), Variable("y", 1),
                           Variable("b", -1)], degree_caps=[(("y", "b"), 3)])
    f = GradedSeries(table, 9, 2, {(5, 0, 0): 1, (4, 0, 1): 3,
                                   (2, 1, 0): -2, (1, 0, 0): Fraction(1, 2)})
    img = GradedSeries(table, 9, 2, {(0, 1, 0): 1, (1, 1, 0): -1,
                                     (0, 2, 1): 2})
    return f, {"x": img}


@SETTINGS
@given(substitutions())
@example(_swap_example())
@example(_capped_prune_example())
def test_substitute_matches_materialized_powers(case):
    f, bindings = case
    assert f.substitute(bindings) == substitute_oracle(f, bindings)


_SHIFT_ACTIONS = {}


def shift_action(p):
    """A ShiftAction on x over a small context without a Laurent floor, one
    per p, so that examples share its cached image powers as the round
    trips of one context do."""
    if p not in _SHIFT_ACTIONS:
        ctx = Context(4, 3, extra_vars=("x",), trunc_plus=10)
        _SHIFT_ACTIONS[p] = ShiftAction(ctx, p, "x")
    return _SHIFT_ACTIONS[p]


@st.composite
def shift_inputs(draw):
    """(action, f): f is sum_k q_k * w^k for w the orbit product pi, which
    makes f invariant, or for w = x, with q_k drawn in t and the b's and
    denominators prime to p."""
    p = draw(st.sampled_from([2, 3]))
    action = shift_action(p)
    ctx = action.ctx
    base = action.pi_power(1) if draw(st.booleans()) else ctx.var("x")
    f = ctx.zero()
    for k in draw(st.lists(st.integers(0, 3), max_size=3, unique=True)):
        q = ctx.zero()
        for _ in range(draw(st.integers(1, 3))):
            exps = draw(st.sampled_from([{}, {"b1": 1}, {"b2": 1},
                                         {"b1": 2}, {"b3": 1}]))
            q = q + ctx.mono(dict(exps, t=draw(st.integers(0, 3))),
                             coeff=draw(st.builds(Fraction,
                                                  st.integers(-3, 3),
                                                  st.sampled_from([1, 5, 7]))))
        f = f + q * base ** k
    return action, f


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(shift_inputs())
def test_shift_matches_horner_substitution(case):
    """The shift summed over cached powers of the image equals the normal
    form of Horner's substitution of the image's normal form."""
    action, f = case
    nf = action.fp.normal_form
    img = nf(action.ctx.shift_image("x", 1))
    assert action.shift(f) == nf(f.substitute({"x": img}))


def test_substitute_oracle_example_is_simultaneous():
    f, bindings = _swap_example()
    sequential = f
    for n, img in bindings.items():
        sequential = sequential.substitute({n: img})
    assert substitute_oracle(f, bindings) != sequential


def plain_horner(f, name, img):
    """f with img for name by Horner's rule with nothing dropped early."""
    digits = f.as_poly_in(name)
    acc = GradedSeries.zero(f.table, f.trunc_plus, f.trunc_minus)
    for k in range(max(digits, default=0), -1, -1):
        acc = acc * img
        if k in digits:
            acc = acc + digits[k]
    return acc


def test_prune_examples_drop_terms():
    """Horner's first product in each prune example starts from an
    accumulator the prune has cut."""
    for f, bindings in (_capped_prune_example(), _carry_example()):
        (name, img), = bindings.items()
        digits = f.as_poly_in(name)
        top = max(digits)
        acc = digits[top]
        assert acc._within_caps(top * img._least_cap_sums()) != acc


@st.composite
def twisted_substitutions(draw):
    """(f, image of x) over a table shaped like `actions.twisted_context`:
    t with a floor, b's of negative weight and x, u, v under one cap,
    where every image term carries u or v and t^-1 at the lowest."""
    table = VariableTable(
        [Variable("t", 1, laurent_floor=-6), Variable("b1", -1),
         Variable("b2", -2), Variable("x", 1), Variable("u", 1),
         Variable("v", 1)], degree_caps=[(("x", "u", "v"), 3)])

    def draw_series(exps):
        terms = draw(st.dictionaries(st.tuples(*exps), COEFFS, min_size=1,
                                     max_size=6))
        return GradedSeries(table, 9, 3, terms)
    f = draw_series([st.integers(0, 2), st.integers(0, 1), st.just(0),
                     st.integers(0, 6), st.integers(0, 1), st.just(0)])
    img = draw_series([st.integers(-1, 1), st.integers(0, 1),
                       st.integers(0, 1), st.just(0), st.integers(0, 2),
                       st.integers(0, 1)])
    carrier = draw(st.sampled_from(["u", "v"]))
    return f, img * GradedSeries.monomial(table, 9, 3, {carrier: 1})


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(twisted_substitutions())
def test_substitute_in_a_twisted_table_matches_plain_horner(case):
    f, img = case
    assert f.substitute({"x": img}, poly_vars=("x",)) == plain_horner(
        f, "x", img)


def _carry_example():
    # caps of bound 1 take 3-bit fields, and y is in every image term:
    # from x^8 down, k * m_y passes 2^3 and carries out of y's field
    table = VariableTable([Variable("y", 1), Variable("z", 1),
                           Variable("x", 1), Variable("w", 1)],
                          degree_caps=[("y", 1), ("z", 1)])
    f = GradedSeries(table, 12, 0, {
        (0, z, k, w): k + 2 * z - w for k in range(9) for z in (0, 1)
        for w in (0, 1) if k + 2 * z - w})
    img = GradedSeries(table, 12, 0, {(1, 0, 0, 0): 1, (1, 0, 0, 1): 2,
                                      (1, 1, 0, 0): -3})
    return f, {"x": img}


def test_substitute_past_a_cap_field_carry_matches_plain_horner():
    f, bindings = _carry_example()
    img = bindings["x"]
    assert [mask for _off, mask in f._lay.caps] == [0b111, 0b111]
    got = f.substitute(bindings)
    assert got == plain_horner(f, "x", img)
    assert got == substitute_oracle(f, bindings)


def test_substitute_under_a_capped_laurent_variable_matches_plain_horner():
    """A cap group holding t, of floor -3: an accumulator term may have a
    negative sum there, and an image of negative least sum would move the
    key down."""
    table = VariableTable([Variable("t", 1, laurent_floor=-3),
                           Variable("y", 1), Variable("x", 1)],
                          degree_caps=[(("t", "y"), 2)])
    cases = [({(-2, 0, 4): 1, (0, 1, 2): 3, (1, 0, 1): 5},
              {(0, 1, 0): 1}),
             ({(1, 0, 3): 1, (0, 2, 2): 3, (0, 1, 1): -1, (1, 0, 0): 5},
              {(-1, 0, 0): 1, (0, 1, 0): 2})]
    for f, img in cases:
        f, img = (GradedSeries(table, 8, 0, terms) for terms in (f, img))
        got = f.substitute({"x": img}, poly_vars=("x",))
        assert not got.is_zero and got == plain_horner(f, "x", img)


def _first_indivisible(series, p):
    """The least exponent, in graded order, whose coefficient p does not
    divide; None if p divides them all."""
    bad = [e for e, c in series.sorted_terms() if vp(c, p) < 1]
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


def _digit_split(c, p):
    """(q, r) with c = r + p*q, r in range(p) and q in Z_(p)."""
    r = next(r for r in range(p) if c == r or vp(c - r, p) >= 1)
    return Fraction(c - r, p), r


@st.composite
def normal_form_inputs(draw):
    """(FormalP, f, h) with f and h over Z_(p)."""
    fp, table, tp, tm = draw(formal_p_inputs())
    exps = st.tuples(*[st.integers(0, 2) for _ in table.variables])
    coeffs = st.integers(-40, 40) | st.builds(
        Fraction, st.integers(-40, 40),
        st.sampled_from([d for d in (3, 4, 5, 7, 9) if d % fp.p]))
    f, h = (GradedSeries(table, tp, tm, draw(st.dictionaries(
        exps, coeffs, min_size=size, max_size=10))) for size in (4, 0))
    return fp, f, h


def normal_form_oracle(fp, f):
    """Subtract q*t^k*m*g for the lowest digit c*t^k*m outside [0, p), with
    c = r + p*q, until none is left."""
    ti = f.table.index["t"]
    while True:
        bad = [(e[ti], e) for e, c in f.sorted_terms()
               if not (type(c) is int and 0 <= c < fp.p)]
        if not bad:
            return f
        e = min(bad)[1]
        m = GradedSeries(f.table, f.trunc_plus, f.trunc_minus,
                         {e: _digit_split(terms_of(f)[e], fp.p)[0]})
        f = f - m * fp.g


def carry_sweep_oracle(fp, f):
    """The normal form for an arbitrary g = p + (terms of t-degree >= 1):
    one sweep up the t-digits turns c = r + p*q into r and
    carries -q times the terms of g of positive t-degree into higher
    digits."""
    p, table, tp, tm = fp.p, f.table, f.trunc_plus, f.trunc_minus
    tail = sorted(degrees(table, e)[::-1] + (e[0], e, c)
                  for e, c in fp.g.sorted_terms() if e[0] >= 1)
    digits = {}
    for exp, c in f.sorted_terms():
        digits.setdefault(exp[0], {})[exp] = c
    out = {}
    for k in range(tp + 1):
        for exp, c in digits.pop(k, {}).items():
            q, r = _digit_split(c, p)
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
    fp, f, h = case
    p = fp.p
    nf = fp.normal_form(f)
    assert nf == normal_form_oracle(fp, f) == carry_sweep_oracle(fp, f)
    assert nf == GradedSeries(f.table, f.trunc_plus, f.trunc_minus, {
        e: Fraction(c).numerator * pow(Fraction(c).denominator, -1, p) % p
        for e, c in f.sorted_terms()})
    assert all(type(c) is int and 0 <= c < p for _e, c in nf.sorted_terms())
    assert fp.normal_form(nf) == nf
    assert fp.normal_form(f + h * fp.g) == nf


def triangular_solve_oracle(fp, S):
    """Phi digit by digit from the lowest t-degree up: the t^j digit of
    S - g*(Phi so far) must be divisible by p, and Phi gains it over p.
    Returns Phi, or the (message, witness) of the lowest failing digit."""
    S, _pos = S.split_parts("t")
    phi = GradedSeries.zero(S.table, S.trunc_plus, S.trunc_minus)
    for j in range(min(S.min_degree("t") or 0, 0), 1):
        val = t_slice(S - fp.g * phi, j)
        e = _first_indivisible(val, fp.p)
        if e is not None:
            mono = val.table.monomial_str((0,) + e[1:])
            return ("p-divisibility violated at t^%d on %s (coefficient %s)"
                    % (j, mono, terms_of(val)[e]), "t^%d * %s" % (j, mono))
        phi = phi + val.scale(Fraction(1, fp.p))
    return phi


def t_slice(f, j):
    """The terms of f at t^j, t kept (t the first variable): with t cleared
    a negative digit may pass the bounds, and the ring drops those terms."""
    return GradedSeries(f.table, f.trunc_plus, f.trunc_minus,
                        {e: c for e, c in f.sorted_terms() if e[0] == j})


def is_integral_oracle(fp, f):
    """Clear each negative digit in turn over Z_(p) by subtracting
    (digit/p)*t^j*g, then ask that no p be left in a denominator; a
    witness is the least offending term in graded order."""
    p = fp.p
    for j in range(min(f.min_degree("t") or 0, 0), 0):
        digit = t_slice(f, j)
        e = _first_indivisible(digit, p)
        if e is not None:
            return False, None, "t^%d * %s (coefficient %s)" % (
                j, digit.table.monomial_str((0,) + e[1:]), terms_of(digit)[e])
        f = f - digit.scale(Fraction(1, p)) * fp.g
    bad = [e for e, c in f.sorted_terms() if Fraction(c).denominator % p == 0]
    if bad:
        e = min(bad, key=lambda e: (sum(e), e))
        return False, None, "%s (coefficient %s)" % (
            f.table.monomial_str(e), terms_of(f)[e])
    return True, f, None


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
        acc = terms_of(a)
        for e, c in b.sorted_terms():
            acc[e] = acc.get(e, 0) + c
        return a + b, ring_rules(table, tp, tm, acc)[0]
    if kind == "digit":
        # clearing a negative power raises degrees and cap sums: a digit
        # keeps only the terms the ring keeps
        digits = a.as_poly_in(name)
        if not digits:
            return a, {}
        k = draw(st.sampled_from(sorted(digits)))
        assert a.coeff_of(name, k) == digits[k]
        return digits[k], ring_rules(table, tp, tm, {
            e[:i] + (0,) + e[i + 1:]: c
            for e, c in a.sorted_terms() if e[i] == k})[0]
    if kind == "split":
        above = draw(st.booleans())
        return a.split_parts(name)[above], {
            e: c for e, c in a.sorted_terms() if (e[i] > 0) == above}
    k = draw(st.integers(-2, 2))
    want, underflow = ring_rules(table, tp, tm, {
        e[:i] + (e[i] + k,) + e[i + 1:]: c for e, c in a.sorted_terms()})
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
    assert terms_of(x) == xterms and terms_of(y) == yterms
    # a sum drops only the terms that cancel
    acc = dict(xterms)
    for e, c in yterms.items():
        acc[e] = acc.get(e, 0) + c
    assert terms_of(x + y) == {e: c for e, c in acc.items() if c}
    assert (x - y) + y == x + y - y
    want, underflow = oracle(x, y)
    if underflow:
        with pytest.raises(LaurentUnderflow):
            x * y
        return
    product = x * y
    # equal to the series built from tuples: one denominator, lowest terms
    assert product == GradedSeries(table, tp, tm, want)
    assert terms_of(product) == want
    assert GradedSeries.from_json(product.to_json()) == product
    try:
        f = product * g
    except LaurentUnderflow:
        return
    assert f.exact_divide(g) * g == f


@st.composite
def derived_series(draw):
    table, tp, tm = draw(tables())
    return derived(draw, table, tp, tm)


def _lex_against_grlex():
    # x^2 comes first lexicographically, y first by degree
    table = VariableTable([Variable("y", 1), Variable("x", 1)])
    want = {(0, 2): 1, (1, 0): 1}
    return GradedSeries(table, 4, 0, want), want


@SETTINGS
@given(derived_series())
@example(_lex_against_grlex())
def test_sorted_terms_are_graded_lexicographic(case):
    s, want = case
    assert s.sorted_terms() == sorted(want.items(),
                                      key=lambda t: (sum(t[0]), t[0]))


@SETTINGS
@given(operands(), st.integers(0, 4), st.integers(0, 3), st.booleans())
def test_retruncate_moves_terms_between_layouts(pair, up, down, past):
    a, b = pair
    table, tp, tm = a.table, a.trunc_plus, a.trunc_minus
    if past:
        # past the depth of a's key geometry: the move repacks every key
        up += a._lay.depth[0] - tp + 1
    deep_a = a.retruncate(tp + up, tm + up)
    assert terms_of(deep_a) == terms_of(a)
    assert deep_a.retruncate(tp, tm) == a
    if past:
        assert deep_a._lay is not a._lay
    lower = (max(tp - down, 0), max(tm - down, 0))
    for bounds in (lower, (tp + up, lower[1]), (lower[0], tm + up)):
        assert terms_of(a.retruncate(*bounds)) == ring_rules(
            table, *bounds, terms_of(a))[0]
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
    # the same term through the pair loop
    with pytest.raises(LaurentUnderflow, match="exponent -3 of t"):
        (m({"t": -2}) + m({"x": 1})) * (m({"t": -1, "x": 1}) + m({"x": 2}))
    with pytest.raises(LaurentUnderflow, match="exponent -3 of t"):
        (m({"t": -1}) + m({"x": 1})).shift_var("t", -2)
    # t^-2 over t^-1 + t^-2*x^2: the quotient term t^-1 times t^-2*x^2
    # lies below the floor
    with pytest.raises(LaurentUnderflow, match="exponent -3 of t"):
        m({"t": -2}).exact_divide(m({"t": -1}) + m({"t": -2, "x": 2}))
    # past the bounds, a term below the floor is dropped, not raised
    assert (m({"t": -2, "x": 6}) * m({"t": -1, "x": 5})).is_zero


def test_a_product_at_the_geometry_depth_carries_no_field():
    # first asked for at (6, 0), this table's key geometry has depth 12; at
    # that depth (x^8*t^-2)^2 = x^16*t^-4 is inside trunc_plus, below the t
    # floor, and past the highest admissible x exponent, 15: its exponent
    # field must hold the sum without a carry that would hide the underflow
    table = VariableTable([Variable("t", 1, laurent_floor=-3),
                           Variable("xdeep", 1)])
    GradedSeries.one(table, 6, 0)
    a = GradedSeries(table, 12, 0, {(-2, 8): 1})
    assert a._lay.depth == (12, 0)
    with pytest.raises(LaurentUnderflow, match="exponent -4 of t"):
        a * a


def test_sums_at_the_ends_of_the_degree_and_cap_fields():
    # first asked for at (2, 1), this table's key geometry has depth
    # (10, 1): over admissible terms the positive degree ranges over
    # [-4, 10] and the cap group (t, x), of floor sum -4, over [-4, 2].
    # The t^-4 digits moved whole, every term kept, reach the top of both
    # ranges (y^14, x^6), t^-4 their bottom, and y^-10 and x^-2 are the
    # lowest monomials within the depth; their products and shifts must
    # match the tuple oracle.  `coeff_of` drops what passes the bounds
    table = VariableTable([Variable("t", 1, laurent_floor=-4),
                           Variable("x", 1), Variable("y", 1),
                           Variable("b", -1)],
                          degree_caps=[(("t", "x"), 2)])
    GradedSeries.one(table, 2, 1)

    def s(terms):
        return GradedSeries(table, 10, 1, terms)

    def digit(u):
        # the rows at t^-4, with t^-4 taken out of each key
        off, mask, c = u._field("t")
        step = -4 * u._lay.scale[table.index["t"]]
        return u._make({k - step: v for k, v in u._rows.items()
                        if (k >> off) & mask == c - 4}, u.denominator)
    a = s({(-4, 6, 0, 0): 1, (-4, 0, 14, 0): 2, (-4, 0, 0, 0): 3,
           (0, 0, 0, 1): 1})
    assert a._lay.depth == (10, 1)
    assert terms_of(a.coeff_of("t", -4)) == {(0, 0, 0, 0): 3}
    high = digit(a)
    top = digit(s({(-4, 0, 14, 0): 2}))
    assert terms_of(high) == {(0, 6, 0, 0): 1, (0, 0, 14, 0): 2,
                              (0, 0, 0, 0): 3}
    low, lows = s({(-4, 0, 0, 0): 3}), s({(-4, 0, 0, 0): 3, (0, 0, 0, 1): 1})
    for u, v in ((high, high), (top, high), (top, top), (low, low),
                 (lows, lows), (low, high), (lows, a)):
        want, underflow = oracle(u, v)
        if underflow:
            with pytest.raises(LaurentUnderflow):
                u * v
        else:
            assert terms_of(u * v) == want
    for u in (a, high, low):
        for name, k in (("y", -10), ("x", -2), ("y", 10), ("x", 2)):
            i = table.index[name]
            want, underflow = ring_rules(table, 10, 1, {
                e[:i] + (e[i] + k,) + e[i + 1:]: c
                for e, c in u.sorted_terms()})
            if underflow:
                with pytest.raises(LaurentUnderflow):
                    u.shift_var(name, k)
            else:
                assert terms_of(u.shift_var(name, k)) == want


# ----- one-term operands -----------------------------------------------------
#
# A product with a one-term operand shifts keys instead of running the pair
# loop, `diff` moves each term's key, and a division by a one-term divisor
# has no product to subtract.  These checks compare each with the ring's
# rules on exponent tuples, down to the error it raises and the term that
# error names: for a product or a move the first term in key order, for a
# division the least in graded-lexicographic order.


def below(table, e):
    return any(k < (f or 0) for k, f in zip(e, table.floors))


def underflow_message(table, e):
    """The LaurentUnderflow message for the term at e: its first exponent
    below a floor."""
    i = next(i for i, (k, f) in enumerate(zip(e, table.floors))
             if k < (f or 0))
    return "exponent %d of %s below floor" % (e[i], table.variables[i].name)


def in_key_order(s):
    return sorted(s.sorted_terms(), key=lambda item: s._lay.key(item[0]))


def one_term(draw, table, tp, tm):
    """A series with exactly one term, often with a negative exponent."""
    exps = st.tuples(*[st.integers(v.laurent_floor or 0, 2)
                       for v in table.variables])
    m = GradedSeries(table, tp, tm, {draw(exps): draw(COEFFS.filter(bool))})
    hypothesis.assume(not m.is_zero)
    return m


@st.composite
def one_term_products(draw):
    table, tp, tm = draw(tables())
    return series(draw, table, tp, tm), one_term(draw, table, tp, tm)


def _laurent_one_term():
    a = _laurent_pair()[0]
    return a, GradedSeries(a.table, 4, 2, {(-2, 1): 3})


@SETTINGS
@given(one_term_products())
@example(_laurent_one_term())
def test_one_term_products_match_the_tuple_oracle(case):
    a, m = case
    (em, cm), = m.sorted_terms()
    want, underflow = ring_rules(a.table, a.trunc_plus, a.trunc_minus, {
        tuple(x + y for x, y in zip(e, em)): Fraction(c) * cm
        for e, c in in_key_order(a)})
    for left, right in ((a, m), (m, a)):
        if underflow:
            low = next(e for e in want if below(a.table, e))
            with pytest.raises(LaurentUnderflow) as err:
                left * right
            assert str(err.value) == underflow_message(a.table, low)
        else:
            assert terms_of(left * right) == want


def monomial_division_oracle(f, g, integral):
    """The terms of f / g for a one-term g, or the (message, monomial) of
    the NotDivisible that the least offending term of f raises."""
    table = f.table
    (eg, cg), = g.sorted_terms()
    mono = table.monomial_str
    acc = {}
    for e, c in sorted(f.sorted_terms(), key=lambda item: (sum(item[0]),
                                                          item[0])):
        q = tuple(x - y for x, y in zip(e, eg))
        if below(table, q):
            return ("monomial %s not divisible by %s" % (mono(e), mono(eg)),
                    mono(e))
        c = Fraction(c) / cg
        if integral and c.denominator != 1:
            return "coefficient of %s not divisible" % mono(e), mono(e)
        acc[q] = c
    return ring_rules(table, f.trunc_plus, f.trunc_minus, acc)[0]


@st.composite
def one_term_divisions(draw):
    """(f, g) with g one term; f is often a multiple of g."""
    table, tp, tm = draw(tables())
    g = one_term(draw, table, tp, tm)
    f = series(draw, table, tp, tm)
    if draw(st.booleans()):
        try:
            f = f * g
        except LaurentUnderflow:
            hypothesis.assume(False)
    return f, g


def _two_failures():
    # t^-1 * x fails the floor and x^2/2 the integral check; x is least
    table = VariableTable([Variable("t", 1, laurent_floor=-1),
                           Variable("x", 1)])
    f = GradedSeries(table, 6, 0, {(-1, 1): 1, (0, 2): Fraction(1, 2)})
    return f, GradedSeries(table, 6, 0, {(0, 1): 2})


@SETTINGS
@given(one_term_divisions(), st.booleans())
@example(_two_failures(), True)
@example(_two_failures(), False)
def test_one_term_divisions_match_the_tuple_oracle(case, integral):
    f, g = case
    want = monomial_division_oracle(f, g, integral)
    if isinstance(want, tuple):
        with pytest.raises(NotDivisible) as err:
            f.exact_divide(g, integral=integral)
        assert (str(err.value), err.value.monomial) == want
    else:
        assert terms_of(f.exact_divide(g, integral=integral)) == want


def diff_oracle(a, i):
    """d/dv_i of a, or the (exception type, message) it raises."""
    want, underflow = ring_rules(a.table, a.trunc_plus, a.trunc_minus, {
        e[:i] + (e[i] - 1,) + e[i + 1:]: Fraction(c) * e[i]
        for e, c in in_key_order(a) if e[i]})
    if underflow:
        low = next(e for e in want if below(a.table, e))
        return LaurentUnderflow, underflow_message(a.table, low)
    return want


def _raises_or_equals(call, want):
    if isinstance(want, tuple):
        with pytest.raises(want[0]) as err:
            call()
        assert str(err.value) == want[1]
    else:
        assert terms_of(call()) == want


@SETTINGS
@given(operands(), st.data())
def test_diff_matches_the_tuple_oracle(pair, data):
    for a in pair:
        i = data.draw(st.integers(0, len(a.table.weights) - 1))
        _raises_or_equals(lambda: a.diff(a.table.variables[i].name),
                          diff_oracle(a, i))


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
    terms = [e for e, _c in series.sorted_terms()]
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
    for e in terms_of(a * inv - GradedSeries.one(table, tp, tm)):
        dp, dm = degrees(table, e)
        assert (dp > tp - sp or dm > tm - sm
                or any(sum(e[i] for i in idxs) > bound - s
                       for (idxs, bound), s in zip(table.caps, caps))), e


def _two_invertible_leads():
    # t*u^-1 is least graded-lexicographically, u lexicographically
    table = VariableTable([Variable("t", 1, laurent_floor=-2),
                           Variable("u", 1, laurent_floor=-2)])
    return GradedSeries(table, 6, 0, {(1, -1): 1, (0, 1): 2})


@SETTINGS
@given(derived_series())
@example((_two_invertible_leads(), None))
def test_mul_inverse_starts_from_the_least_invertible_term(case):
    """The first lead mul_inverse tries is the graded-lexicographically
    least term whose inverse is admissible; with no invertible term, the
    error names the least term."""
    a = case[0]
    hypothesis.assume(not a.is_zero)
    table, tp, tm = a.table, a.trunc_plus, a.trunc_minus
    order = sorted(terms_of(a), key=lambda e: (sum(e), e))
    inverses = [tuple(-k for k in e) for e in order]
    invertible = [e for e in inverses if not below(table, e)]
    tried, times = [], GradedSeries._times_monomial

    def spy(series, exp, c):
        tried.append(tuple(exp))
        return times(series, exp, c)
    with mock.patch.object(GradedSeries, "_times_monomial", spy):
        try:
            a.mul_inverse()
        except NonUnitLowest as err:
            if not invertible:
                assert str(err) == "no invertible term in %s" % (
                    table.monomial_str(order[0]))
    first = [e for e in invertible if ring_rules(table, tp, tm, {e: 1})[0]]
    assert tried[:1] == first[:1]
