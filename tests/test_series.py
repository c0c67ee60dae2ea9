import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cobcalc.fgl import Context
from cobcalc.series import (
    GradedSeries,
    LaurentUnderflow,
    NotDivisible,
    NonUnitLowest,
    SeriesError,
    SubstitutionOrder,
    TruncationMismatch,
    Variable,
    VariableTable,
    vp,
)

from helpers import series_from_json


def table_tb(num_b=4, floor=-6):
    vs = [Variable("t", 1, laurent_floor=floor)]
    vs += [Variable("b%d" % i, -i) for i in range(1, num_b + 1)]
    return VariableTable(vs)


def S(table, tp=8, tm=6, terms=None):
    return GradedSeries(table, tp, tm, terms or {})


def mono(table, tp, tm, exps, c=1):
    return GradedSeries.monomial(table, tp, tm, exps, coeff=c)


def test_variable_is_a_validated_immutable_value():
    v = Variable("t", 1, laurent_floor=-3)
    assert repr(v) == "Variable(name='t', weight=1, laurent_floor=-3)"
    assert v == Variable("t", 1, -3) and v != Variable("t", 1)
    assert hash(v) == hash(Variable("t", 1, -3))
    assert Variable("x", 2).laurent_floor is None
    with pytest.raises(AttributeError):
        v.weight = 2
    for args in (("1t", 1), ("t", 0), ("t", 1, 2)):
        with pytest.raises(SeriesError):
            Variable(*args)


def test_cli_import_loads_no_dataclasses_or_inspect():
    import cobcalc
    src = str(Path(cobcalc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, cobcalc.cli\n"
            "from cobcalc import operations\n"
            "operations.run_verifier('il3', p=2, deg=6, bweight=6, seed=1)\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_queries_load_only_the_layers_they_run():
    import cobcalc
    src = str(Path(cobcalc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import json, os, sys, cobcalc.cli\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.split('.')[0] == 'cobcalc')\n"
            "seen = [loaded()]\n"
            "for argv in (['fgl', '--what', 'a_ij', '--i', '2', '--j', '1'],\n"
            "             ['class', 'Pn', '--n', '2'],\n"
            "             ['eta', '--U', 'P2', '--p', '3'],\n"
            "             ['op', 'phi', '--input', 'P1', '--p', '2']):\n"
            "    assert cobcalc.cli.main(argv + ['--out', os.devnull]) == 0\n"
            "    seen.append(loaded())\n"
            "print(json.dumps(seen))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    *cold, after_op = json.loads(out)
    for modules in cold:
        assert modules == ["cobcalc", "cobcalc.cli", "cobcalc.fgl",
                           "cobcalc.series"]
    assert "cobcalc.operations" in after_op
    assert not {"cobcalc.actions", "cobcalc.verify"} & set(after_op)


def test_vp():
    assert vp(12, 2) == 2
    assert vp(Fraction(3, 4), 2) == -2
    assert vp(Fraction(9, 5), 3) == 2
    with pytest.raises(ValueError):
        vp(0, 2)


def test_normalization_drops_and_raises():
    tb = table_tb()
    # positive truncation drop
    s = mono(tb, 3, 6, {"t": 5})
    assert s.is_zero
    # negative weight drop: b3*b4 has weight 7 > 6
    s = GradedSeries(tb, 8, 6, {(0, 0, 0, 1, 1): 1})
    assert s.is_zero
    # zero coefficients vanish
    s = GradedSeries(tb, 8, 6, {(1, 0, 0, 0, 0): 0})
    assert s.is_zero
    # below the Laurent floor is an error, not a drop
    with pytest.raises(LaurentUnderflow):
        GradedSeries(tb, 8, 6, {(-7, 0, 0, 0, 0): 1})
    # negative exponent of a non-Laurent variable is an error
    with pytest.raises(LaurentUnderflow):
        GradedSeries(tb, 8, 6, {(0, -1, 0, 0, 0): 1})


def test_degree_caps_are_ring_quotients():
    tb = VariableTable(
        [Variable("t", 1, laurent_floor=-4), Variable("h", 1)],
        degree_caps=[("h", 2)],
    )
    h = mono(tb, 10, 0, {"h": 1})
    assert (h * h * h).is_zero
    assert not (h * h).is_zero
    # the same cap through the pair loop
    one = GradedSeries.one(tb, 10, 0)
    assert (h + one) * (h * h + one) == h * h + h + one


def test_group_degree_cap():
    tb = VariableTable(
        [Variable("x", 1), Variable("y", 1)],
        degree_caps=[(("x", "y"), 3)],
    )
    x = mono(tb, 10, 0, {"x": 1})
    y = mono(tb, 10, 0, {"y": 1})
    q = (x + y) ** 4
    assert q.is_zero
    c = (x + y) ** 3
    assert c.coeff({"x": 2, "y": 1}) == 3


def test_addition_and_cancellation():
    tb = table_tb()
    t = mono(tb, 8, 6, {"t": 1})
    assert (t - t).is_zero
    two_t = t + t
    assert two_t.coeff({"t": 1}) == 2


def test_retruncate_keeps_the_terms_at_the_new_bound():
    table = VariableTable([Variable("x", 1), Variable("b", -1)])
    s = GradedSeries(table, 8, 2, {(2, 0): 1, (5, 0): 2, (6, 0): 3,
                                   (1, 1): 4, (1, 2): 5})
    assert s.retruncate(5, 1) == GradedSeries(table, 5, 1, {
        (2, 0): 1, (5, 0): 2, (1, 1): 4})


def test_truncation_mismatch_guard():
    tb = table_tb()
    a = mono(tb, 8, 6, {"t": 1})
    b = mono(tb, 7, 6, {"t": 1})
    with pytest.raises(TruncationMismatch):
        a + b


def test_mul_respects_truncation():
    tb = table_tb()
    t = mono(tb, 4, 6, {"t": 1})
    p = (GradedSeries.one(tb, 4, 6) + t) ** 6
    # binomial coefficients survive only through degree 4
    assert p.coeff({"t": 4}) == 15
    assert p.max_degree("t") == 4


def test_laurent_multiplication():
    tb = table_tb()
    tinv = mono(tb, 8, 6, {"t": -2})
    t3 = mono(tb, 8, 6, {"t": 3})
    assert (tinv * t3).coeff({"t": 1}) == 1


def test_fraction_coefficients_normalize_to_int():
    tb = table_tb()
    s = mono(tb, 8, 6, {"t": 1}, c=Fraction(4, 2))
    assert dict(s.sorted_terms())[(1, 0, 0, 0, 0)] == 2
    assert isinstance(dict(s.sorted_terms())[(1, 0, 0, 0, 0)], int)


def test_scalars_are_exact():
    tb = table_tb()
    t = mono(tb, 8, 6, {"t": 1})
    assert t.scale(Fraction(1, 10)).coeff({"t": 1}) == Fraction(1, 10)
    assert 2 * t == t * 2 == t.scale(2)
    for bad in (0.1, 0.5, "1/2", 1j):
        with pytest.raises(SeriesError):
            t.scale(bad)
        with pytest.raises(SeriesError):
            t.scale_var("t", bad)
    for op in (lambda: t * 0.5, lambda: 0.5 * t, lambda: t + 1,
               lambda: 1 + t, lambda: t - 1, lambda: 1 - t,
               lambda: t * "x"):
        with pytest.raises(TypeError):
            op()


def test_power_monomial():
    tb = table_tb()
    b1 = mono(tb, 8, 6, {"b1": 1})
    assert (b1 ** 6).coeff({"b1": 6}) == 1
    assert (b1 ** 7).is_zero


def test_scale_var_handles_negative_exponents():
    tb = table_tb()
    s = mono(tb, 8, 6, {"t": -2})
    r = s.scale_var("t", 2)
    assert r.coeff({"t": -2}) == Fraction(1, 4)


def test_shift_var_to_a_negative_power():
    tb = VariableTable([
        Variable("t", 1, laurent_floor=-4),
        Variable("x", 1),
        Variable("y", 1),
    ])
    s = mono(tb, 8, 0, {"x": 2})
    assert s.shift_var("t", -3).coeff({"x": 2, "t": -3}) == 1


def test_a_negative_digit_drops_the_terms_past_trunc_plus():
    """Clearing t^-2 from t^-2 x^7 leaves x^7, past trunc_plus 5: the
    digit drops it, as the constructor does."""
    tb = VariableTable([Variable("t", 1, laurent_floor=-3),
                        Variable("x", 1)])
    s = S(tb, 5, 0, {(-2, 7): 1, (-2, 3): 2, (0, 1): 1})
    want = S(tb, 5, 0, {(0, 3): 2})
    assert s.coeff_of("t", -2) == want
    assert s.as_poly_in("t")[-2] == want
    assert want * S(tb, 5, 0, {(0, 0): 1}) == want


def test_kill_vars():
    tb = table_tb()
    s = mono(tb, 8, 6, {"t": 1}) + mono(tb, 8, 6, {"b1": 1, "t": 1})
    r = s.kill_vars(["b1", "b2", "b3", "b4"])
    assert r.coeff({"t": 1}) == 1
    assert len(r.sorted_terms()) == 1


def test_substitute_is_simultaneous():
    tb = VariableTable([Variable("x", 1), Variable("y", 1)])
    x = mono(tb, 8, 0, {"x": 1})
    y = mono(tb, 8, 0, {"y": 1})
    f = x * x + y
    swapped = f.substitute({"x": y, "y": x}, poly_vars=("x", "y"))
    assert swapped == y * y + x


def test_substitute_shrink_guard():
    tb = table_tb()
    t = mono(tb, 8, 6, {"t": 1})
    one = GradedSeries.one(tb, 8, 6)
    f = t ** 2
    with pytest.raises(SubstitutionOrder):
        f.substitute({"t": one + t})
    # vouching for polynomial support lifts the guard
    g = f.substitute({"t": one + t}, poly_vars=("t",))
    assert g.coeff({"t": 1}) == 2


def test_substitute_asks_positive_degree_under_caps():
    # x, the only positive variable, is capped at 2, so no term reaches
    # trunc_plus 4; an image term of positive degree 0 is refused anyway
    tb = VariableTable([Variable("x", 1), Variable("b", -1)],
                       degree_caps=[("x", 2)])
    x, b = (mono(tb, 4, 3, {n: 1}) for n in "xb")
    f = x + x * x
    with pytest.raises(SubstitutionOrder):
        f.substitute({"x": b})
    assert f.substitute({"x": b}, poly_vars=("x",)) == b + b * b


def test_substitute_composition_identity():
    tb = table_tb()
    t = mono(tb, 8, 6, {"t": 1})
    b1 = mono(tb, 8, 6, {"b1": 1})
    img = t + b1 * t ** 2
    f = t ** 2 + t ** 3
    g = t - t ** 2
    lhs = (f * g).substitute({"t": img})
    rhs = f.substitute({"t": img}) * g.substitute({"t": img})
    assert lhs == rhs


def test_substitute_makes_at_most_degree_products(monkeypatch):
    # Horner's rule: one product per degree, no powers of the image
    tb = table_tb()
    t = mono(tb, 8, 6, {"t": 1})
    b1 = mono(tb, 8, 6, {"b1": 1})
    f = GradedSeries.zero(tb, 8, 6)
    for k in range(7):
        f = f + mono(tb, 8, 6, {"t": k}, k + 1) + b1 * t ** k
    img = t + b1 * t ** 2
    calls = []
    mul, add_products = GradedSeries.__mul__, GradedSeries.add_products

    def counted_add_products(self, pairs):
        pairs = list(pairs)
        calls.extend(pairs)
        return add_products(self, pairs)
    # a product counts whether `*` forms it or `add_products` adds it
    monkeypatch.setattr(GradedSeries, "__mul__",
                        lambda a, b: calls.append(b) or mul(a, b))
    monkeypatch.setattr(GradedSeries, "add_products", counted_add_products)
    f.substitute({"t": img})
    assert 0 < len(calls) <= f.max_degree("t") == 6


def test_mul_inverse_geometric():
    tb = table_tb()
    one = GradedSeries.one(tb, 8, 6)
    t = mono(tb, 8, 6, {"t": 1})
    inv = (one - t).mul_inverse()
    for k in range(9):
        assert inv.coeff({"t": k}) == 1


def test_mul_inverse_laurent_unit():
    tb = VariableTable(
        [Variable("t", 1, laurent_floor=-6), Variable("h", 1)],
        degree_caps=[("h", 1)],
    )
    t = mono(tb, 6, 0, {"t": 1})
    h = mono(tb, 6, 0, {"h": 1})
    inv = (t + 2 * h).mul_inverse()
    assert inv.coeff({"t": -1}) == 1
    assert inv.coeff({"t": -2, "h": 1}) == -2
    assert (inv * (t + 2 * h)) == GradedSeries.one(tb, 6, 0)


def test_mul_inverse_keeps_the_top_degree_when_the_lead_lowers_it():
    # t^-1 lowers the degree by one, so the top degree needs (tv)^3 of
    # degree 6 from the Neumann series before t^-1 brings it back to 5
    tb = VariableTable([Variable("t", 1, laurent_floor=-3), Variable("v", 1)])
    t = mono(tb, 5, 0, {"t": 1})
    v = mono(tb, 5, 0, {"v": 1})
    inv = (t + t * t * v).mul_inverse()
    assert inv.coeff({"t": 2, "v": 3}) == -1
    assert inv == (mono(tb, 5, 0, {"t": -1}) - v + t * v * v
                   - mono(tb, 5, 0, {"t": 2, "v": 3}))


def test_mul_inverse_rejects_non_unit():
    tb = VariableTable([Variable("x", 1)])
    x = mono(tb, 6, 0, {"x": 1})
    with pytest.raises(NonUnitLowest):
        x.mul_inverse()


def test_exact_divide_basic():
    tb = table_tb()
    t = mono(tb, 8, 6, {"t": 1})
    num = t ** 2 + 2 * t ** 3
    q = num.exact_divide(t)
    assert q == t + 2 * t ** 2


def test_exact_divide_integral_flag():
    tb = table_tb()
    t = mono(tb, 8, 6, {"t": 1})
    two = GradedSeries.const(tb, 8, 6, 2)
    f = 2 * t + t ** 2
    q = f.exact_divide(two)
    assert q.coeff({"t": 2}) == Fraction(1, 2)
    with pytest.raises(NotDivisible) as err:
        f.exact_divide(two, integral=True)
    assert err.value.monomial == "t^2"


def test_exact_divide_monomial_obstruction():
    tb = VariableTable([Variable("x", 1), Variable("y", 1)])
    x = mono(tb, 6, 0, {"x": 1})
    y = mono(tb, 6, 0, {"y": 1})
    with pytest.raises(NotDivisible):
        (x + y).exact_divide(x)
    # in a Laurent direction the same shape divides cleanly
    tbl = table_tb()
    t = mono(tbl, 8, 6, {"t": 1})
    b1 = mono(tbl, 8, 6, {"b1": 1})
    q = (t + b1).exact_divide(t)
    assert q.coeff({"b1": 1, "t": -1}) == 1


def test_exact_divide_drops_products_past_a_bound_or_a_cap():
    """As in a product, a term past a bound or a cap is dropped before the
    floor check: (t^-1*x^2)^2 lies below the t floor, and past trunc_plus
    in the first table and past the x cap in the second, so t^-1*x^2
    divided by 1 + t^-1*x^2 is t^-1*x^2."""
    for caps, tp in (((), 1), ([("x", 3)], 10)):
        tb = VariableTable([Variable("t", 1, laurent_floor=-1),
                            Variable("x", 1)], degree_caps=caps)
        f = mono(tb, tp, 0, {"t": -1, "x": 2})
        assert f.exact_divide(GradedSeries.one(tb, tp, 0) + f) == f


def test_divisible_by_difference_examples():
    tb = VariableTable([Variable("x", 1), Variable("y", 1), Variable("z", 2),
                        Variable("b", -1)])
    x, y, z, b = (mono(tb, 9, 3, {n: 1}) for n in "xyzb")
    d = x - y
    f = d ** 3 * (x * z + b + GradedSeries.const(tb, 9, 3, 2))
    assert [f.divisible_by_difference("x", "y", k) for k in range(6)] == [
        True, True, True, True, False, False]
    # the same factor read from y, and y - x, its negative
    assert f.divisible_by_difference("y", "x", 3)
    assert not f.divisible_by_difference("y", "x", 4)
    # x^2 - y^2 has no factor (x - y)^2: its first derivative is 2y at x = y
    assert (x * x - y * y).divisible_by_difference("x", "y", 1)
    assert not (x * x - y * y).divisible_by_difference("x", "y", 2)
    assert not (f + z).divisible_by_difference("x", "y", 1)
    assert f.scale(3).divisible_by_difference("x", "y", 3)
    # divisible over the rationals, but the quotient is not integral
    assert not f.scale(Fraction(1, 2)).divisible_by_difference("x", "y", 1)
    assert S(tb, 9, 3).divisible_by_difference("x", "y", 4)
    # z has another weight; a negative floor or a cap on x or y breaks the
    # grading that the truncation keeps
    for u, v, k in (("x", "z", 1), ("x", "x", 1), ("x", "y", -1)):
        with pytest.raises(SeriesError):
            f.divisible_by_difference(u, v, k)
    laurent = VariableTable([Variable("x", 1, laurent_floor=-2),
                             Variable("y", 1)])
    capped = VariableTable([Variable("x", 1), Variable("y", 1)],
                           degree_caps=[("y", 3)])
    for table in (laurent, capped):
        with pytest.raises(SeriesError):
            S(table, 6, 0).divisible_by_difference("x", "y", 1)


def test_divisible_by_difference_fields_hold_every_order_sum():
    """x^8 - y^8 has the factor x - y but not (x - y)^2: at the key y^8
    its order-0 sum is 1 - 1 = 0 and its order-1 sum is 8 - 0 = 8.  The
    certificate packs both orders of a term into one integer, in fields of
    w = bitlen(2) + bitlen(8) + 1 = 7 bits.  Fields without the
    (k - 1) * bitlen(top) term would be bitlen(2) + 1 = 3 bits wide, and
    8 = 2^3 fills one exactly: it would read as 0, and k = 2 would pass."""
    tb = VariableTable([Variable("x", 1), Variable("y", 1)])
    f = mono(tb, 8, 0, {"x": 8}) - mono(tb, 8, 0, {"y": 8})
    assert f.divisible_by_difference("x", "y", 1)
    assert not f.divisible_by_difference("x", "y", 2)
    assert not f.divisible_by_difference("y", "x", 2)


def test_compositional_inverse():
    tb = table_tb()
    t = mono(tb, 8, 6, {"t": 1})
    f = 2 * t + t ** 2
    g = f.compositional_inverse("t")
    assert g.coeff({"t": 1}) == Fraction(1, 2)
    assert g.coeff({"t": 2}) == Fraction(-1, 8)
    assert f.substitute({"t": g}, poly_vars=("t",)) == t


def test_compositional_inverse_makes_at_most_two_products_per_degree(
        monkeypatch):
    # Lagrange inversion: one mul_inverse and one power per t-degree
    ctx = Context(8, 8)
    exp_t = ctx.exp_t
    calls = []
    mul = GradedSeries.__mul__
    monkeypatch.setattr(GradedSeries, "__mul__",
                        lambda a, b: calls.append(b) or mul(a, b))
    log_t = exp_t.compositional_inverse("t")
    assert 0 < len(calls) <= 2 * ctx.trunc_plus
    monkeypatch.undo()
    assert exp_t.substitute({"t": log_t}, poly_vars=("t",)) == ctx.var("t")


def test_diff_residue_split():
    tb = table_tb()
    t = mono(tb, 8, 6, {"t": 1})
    s = t ** 3 + 2 * t
    assert s.diff("t") == 3 * t ** 2 + GradedSeries.const(tb, 8, 6, 2)
    lau = mono(tb, 8, 6, {"t": -1}, c=5) + t
    assert lau.coeff_of("t", -1).constant() == 5
    lo, hi = lau.split_parts("t")
    assert lo.coeff({"t": -1}) == 5
    assert hi == t


def test_weight_homogeneity():
    tb = table_tb()
    t = mono(tb, 8, 6, {"t": 1})
    b1t2 = mono(tb, 8, 6, {"b1": 1, "t": 2})
    assert (t + b1t2).weight() == 1
    assert (t + t ** 2).weight() is None


def test_json_roundtrip():
    tb = table_tb()
    s = (mono(tb, 8, 6, {"t": -2}, c=Fraction(3, 7))
         + mono(tb, 8, 6, {"b2": 1, "t": 1}))
    doc = s.to_json_dict()
    back = series_from_json(json.dumps(doc))
    assert back == s
    # deterministic text form
    assert s.to_json() == series_from_json(s.to_json()).to_json()


def test_value_equal_tables_key_a_term_alike():
    # series compare by table value, so two value-equal tables must give a
    # term one key at one bounds, whichever bounds each was first asked for
    def table():
        return VariableTable([Variable("t", 1, laurent_floor=-3),
                              Variable("x", 1), Variable("b", -1)])
    ta, tb = table(), table()
    ta.layout(6, 2)
    tb.layout(10, 2)
    terms = {(-1, 1, 0): 3, (0, 2, 1): Fraction(1, 2), (1, 0, 0): -1}
    a, b = S(ta, 6, 2, terms), S(tb, 6, 2, terms)
    assert a == b
    # no pair leaves the bounds or goes below the floor
    want = {}
    for ea, ca in terms.items():
        for eb, cb in terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            want[e] = want.get(e, 0) + Fraction(ca) * cb
    assert dict((a * b).sorted_terms()) == {e: c for e, c in want.items() if c}
    # the reader builds another table object, asked first for these bounds
    deep = S(ta, 10, 2, terms)
    assert series_from_json(deep.to_json()) == deep


def test_json_terms_sorted_canonically():
    tb = table_tb()
    s = mono(tb, 8, 6, {"t": 2}) + mono(tb, 8, 6, {"t": 1})
    doc = s.to_json_dict()
    exps = [tuple(t["exp"]) for t in doc["terms"]]
    assert exps == sorted(exps, key=lambda e: (sum(e), e))


def test_render():
    tb = table_tb()
    t = mono(tb, 8, 6, {"t": 1})
    b1 = mono(tb, 8, 6, {"b1": 1})
    s = 2 * b1 * t - t ** 2
    assert s.render() == "2*t*b1 - t^2"
    assert GradedSeries.zero(tb, 8, 6).render() == "0"


def random_series(rng, table, tp, tm, nterms=5):
    names = table.names()
    out = GradedSeries.zero(table, tp, tm)
    for _ in range(nterms):
        exps = {}
        exps["t"] = rng.randint(-2, 3)
        if rng.random() < 0.5:
            exps["b1"] = rng.randint(0, 2)
        if rng.random() < 0.3:
            exps["b2"] = rng.randint(0, 1)
        c = rng.randint(-4, 4)
        if c == 0:
            continue
        out = out + GradedSeries.monomial(table, tp, tm, exps, coeff=c)
    return out


def test_ring_axioms_randomized():
    tb = table_tb()
    rng = random.Random(20260814)
    one = GradedSeries.one(tb, 8, 6)
    for _ in range(40):
        a = random_series(rng, tb, 8, 6)
        b = random_series(rng, tb, 8, 6)
        c = random_series(rng, tb, 8, 6)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * one == a


def test_inverse_randomized():
    tb = table_tb()
    rng = random.Random(77)
    one = GradedSeries.one(tb, 8, 6)
    for _ in range(15):
        u = one + random_series(rng, tb, 8, 6).shift_var("t", 3)
        assert u * u.mul_inverse() == one


def test_exact_divide_randomized_roundtrip():
    tb = table_tb()
    rng = random.Random(99)
    t = mono(tb, 8, 6, {"t": 1})
    for _ in range(15):
        q = random_series(rng, tb, 8, 6)
        g = t + 3 * t ** 2
        prod = q * g
        if prod.is_zero:
            continue
        # quotient agrees with q up to the truncation of the product
        assert (prod.exact_divide(g) - q).min_degree("t") in (None, 6, 7, 8)
