import gc
import hashlib
import json
import random
import weakref
from fractions import Fraction

import pytest

from cobcalc import fgl
from cobcalc import operations as op
from cobcalc import verify
from cobcalc.actions import FalsificationError, ShiftAction
from cobcalc.quotient import FormalP, coeffs_mod_p, formal_p
from cobcalc.series import GradedSeries, SeriesError, vp


@pytest.fixture(scope="module")
def ctx2():
    return op.make_context(2, deg=6, bweight=6)


@pytest.fixture(scope="module")
def st2(ctx2):
    return op.quillen_steenrod(ctx2, 2, (1,))


@pytest.fixture(scope="module")
def p1(ctx2):
    return op._ambient_class(ctx2, 1, 0)


def test_gamma_digits_p2(ctx2, st2):
    g = st2.gamma
    assert g.coeff_of("x", 1) == ctx2.var("t")
    x2 = g.coeff_of("x", 2)
    assert x2.coeff_of("t", 0) == ctx2.one()
    assert x2.coeff_of("t", 1) == ctx2.var("b1").scale(2)
    b1, b2 = ctx2.var("b1"), ctx2.var("b2")
    assert x2.coeff_of("t", 2) == b2.scale(3) - (b1 * b1).scale(2)
    assert g.coeff_of("x", 3).coeff_of("t", 1) == b2.scale(3) - (b1 * b1).scale(2)
    # at t=0 only the p-th power survives
    assert g.kill_vars(("t",)) == ctx2.mono({"x": 2})


def test_btilde_oracle_p2(ctx2, st2):
    bt1 = st2.btilde(1)
    b1, b2 = ctx2.var("b1"), ctx2.var("b2")
    assert bt1.coeff_of("t", -2) == ctx2.one()
    assert bt1.coeff_of("t", -1) == b1.scale(3)
    assert bt1.coeff_of("t", 0) == b2.scale(3) - (b1 * b1).scale(2)


def test_twisted_exponential_normalized(ctx2, st2):
    e = st2.twisted_exponential()
    assert e.coeff_of("s", 1) == ctx2.one()
    assert e.coeff_of("s", 0).is_zero


def test_unnormalized_twisted_exponential_is_falsified(ctx2, st2):
    # with c doubled, gamma(B(s/2c)) has s^1 coefficient 1/2: an identity
    # fails (exit 3), not an argument (exit 2), and the witness is 1/2 - 1
    bad = op.OperationDescriptor(ctx2, 2, st2.gamma, reps=st2.reps)
    bad.c = st2.c.scale(2)
    with pytest.raises(FalsificationError) as info:
        bad.twisted_exponential()
    assert info.value.witness == ctx2.const(Fraction(-1, 2)).render()
    with pytest.raises(FalsificationError):
        bad.apply(ctx2.var("b1"))


def test_descriptor_rejects_bad_gamma(ctx2):
    with pytest.raises(SeriesError):
        op.OperationDescriptor(ctx2, 2, ctx2.one())
    with pytest.raises(SeriesError):
        op.OperationDescriptor(ctx2, 2, ctx2.mono({"x": 2}))


def test_rep_validation(ctx2):
    with pytest.raises(SeriesError):
        op.quillen_steenrod(ctx2, 2, (2,))
    with pytest.raises(SeriesError):
        op.quillen_steenrod(ctx2, 2, (1, 1))


def test_rep_choices_are_valid():
    for p in (2, 3, 5):
        for label, reps in op.rep_choices(p):
            fgl._validate_reps(p, reps)
            assert len(reps) == p - 1


def test_st_p1_is_minus_two_btilde1(ctx2, st2, p1):
    assert st2.apply(p1) == st2.btilde(1).scale(-2)


def test_apply_is_multiplicative_on_carriers(ctx2, st2):
    z = ctx2.var("z1")
    assert st2.apply(z) == st2.gamma_at("z1")
    assert st2.apply(z * z) == st2.gamma_at("z1") ** 2
    assert st2.apply(ctx2.one()) == ctx2.one()


def test_symmetric_operation_oracle_p2(ctx2, st2, p1):
    s_series = p1 ** 2 - st2.apply(p1)
    neg, _pos = s_series.split_parts("t")
    want_s = (ctx2.mono({"t": -2}, coeff=2)
              + ctx2.mono({"t": -1, "b1": 1}, coeff=6)
              + ctx2.mono({"b2": 1}, coeff=6))
    assert neg == want_s
    phi = op.symmetric_operation(st2, p1)
    assert phi == ctx2.mono({"t": -2}) + ctx2.mono({"t": -1, "b1": 1}, coeff=2)
    assert op.slice_phi(ctx2, phi, ctx2.mono({"t": 2})) == ctx2.one()


def test_phi_vanishes_on_cells(ctx2, st2):
    assert op.symmetric_operation(st2, ctx2.one()).is_zero
    z = ctx2.var("z1")
    for k in range(1, 5):
        assert op.symmetric_operation(st2, z ** k).is_zero


def test_phi_postconditions_hold(ctx2, st2, p1):
    z = ctx2.var("z1")
    fp = FormalP(ctx2, 2)
    for e in (p1, p1 * z, p1 + z):
        phi = op.symmetric_operation(st2, e)
        s_series = e ** 2 - st2.apply(e)
        resid = s_series - fp.g * phi
        assert phi.max_degree("t") is None or phi.max_degree("t") <= 0
        assert resid.is_zero or resid.min_degree("t") >= 1


def test_slice_respects_linearity(ctx2, st2, p1):
    z = ctx2.var("z1")
    pa = op.symmetric_operation(st2, p1)
    pb = op.symmetric_operation(st2, p1 * z)
    q = ctx2.var("t")
    lhs = op.slice_phi(ctx2, pa + pb, q)
    assert lhs == op.slice_phi(ctx2, pa, q) + op.slice_phi(ctx2, pb, q)


def test_f1_slice_matches_chow_eta_p5():
    ctx = op.make_context(5, deg=6, bweight=6)
    st = op.quillen_steenrod(ctx, 5, (1, 2, 3, 4))
    p3 = op._ambient_class(ctx, 3, 0)
    phi = op.symmetric_operation(st, p3)
    got = op.slice_phi(ctx, phi, ctx.mono({"t": 15}))
    assert got == ctx.const(fgl.ChowModel(3).eta(5, (1, 2, 3, 4)))


def test_landweber_novikov_total():
    ctx = op.make_context(1, deg=4, bweight=3, with_primes=True)
    ln = op.landweber_novikov(ctx)
    z = ctx.var("z1")
    want = z
    for i in range(1, 4):
        want = want + ctx.mono({"z1": i + 1, "bp%d" % i: 1})
    assert ln.apply(z) == want
    assert ln.btilde(1) == ctx.var("b1") + ctx.var("bp1")
    assert ln.c == ctx.one()
    p2 = op._ambient_class(ctx, 2, 0)
    out = ln.apply(p2)
    assert out.kill_vars(ctx.bp_names) == p2
    # killing b instead transports the class to the primed alphabet
    traced = out.kill_vars(ctx.b_names)
    swapped = {}
    for exp, c in p2.terms.items():
        new = list(exp)
        for i in range(1, ctx.bweight + 1):
            bi = ctx.table.index["b%d" % i]
            bpi = ctx.table.index["bp%d" % i]
            new[bpi], new[bi] = new[bi], new[bpi]
        swapped[tuple(new)] = c
    assert dict(traced.terms) == swapped


def test_st_is_not_stable(st2):
    assert st2.c != st2.ctx.one()


def _joint_part(series, names, bound):
    slots = [series.table.index[n] for n in names]
    kept = {exp: c for exp, c in series.terms.items()
            if sum(exp[i] for i in slots) <= bound}
    return kept


def test_morphism_invariant_small():
    # phi_hat is only faithful on coefficients of b-weight <= bweight, so the
    # group-law morphism identity is compared through joint degree bweight+1
    for p in (2, 3):
        ctx = op.make_context(p, deg=4, bweight=3)
        st = op.quillen_steenrod(ctx, p, tuple(range(1, p)))
        F = ctx.fgl()
        lhs = st.phi_hat(F).substitute(
            {"x": st.gamma, "y": st.gamma.substitute(
                {"x": ctx.var("y")}, poly_vars=("x",))},
            poly_vars=("x", "y"))
        rhs = st.gamma.substitute({"x": F}, poly_vars=("x",))
        bound = ctx.bweight + 1
        assert _joint_part(lhs, ("x", "y"), bound) == \
            _joint_part(rhs, ("x", "y"), bound)


def test_composition_with_total_operation():
    ctx = op.make_context(2, deg=4, bweight=3, with_primes=True)
    st = op.quillen_steenrod(ctx, 2, (1,))
    ln = op.landweber_novikov(ctx)
    # St after LN: gamma = phi_St(gamma_LN)(gamma_St)
    gamma = st.phi_hat(ln.gamma).substitute({"x": st.gamma}, poly_vars=("x",))
    comp = op.OperationDescriptor(ctx, 2, gamma)
    for e in (ctx.var("z1"), op._ambient_class(ctx, 1, 0)):
        assert st.apply(ln.apply(e)) == comp.apply(e)


def test_tom_dieck_sq_p2(ctx2):
    z = ctx2.var("z1")
    nf = op.tom_dieck_sq(ctx2, 2, z)
    assert nf.coeff_of("t", 0) == z * z
    lo = nf.min_degree("t")
    assert lo is None or lo >= 0
    assert all(0 <= c < 2 for c in nf.terms.values())
    assert op.tom_dieck_sq(ctx2, 2, ctx2.one()) == ctx2.one()
    with pytest.raises(FalsificationError):
        op.tom_dieck_sq(ctx2, 2, ctx2.mono({"z1": 1}, Fraction(1, 2)))


def test_tom_dieck_sq_tzero_is_pth_power():
    for p in (2, 3):
        ctx = op.make_context(p, deg=6, bweight=6)
        e = op._ambient_class(ctx, 1, 0) * ctx.var("z1")
        nf = op.tom_dieck_sq(ctx, p, e)
        assert nf.coeff_of("t", 0) == coeffs_mod_p(e ** p, p)


def test_omega_che_line_bundle(ctx2):
    z = ctx2.var("z1")
    che = op.omega_che(ctx2, (1,))
    assert che == ctx2.formal_sum(z, ctx2.var("t"))


def test_chow_trace_kills_ambient(ctx2, p1):
    z = ctx2.var("z1")
    assert op.chow_trace(ctx2, p1 * z).is_zero
    assert op.chow_trace(ctx2, z + p1) == z


def _by_monomial(series):
    return {series.table.monomial_str(exp): c
            for exp, c in series.terms.items()}


def test_grid_classes_match_base_context():
    base = fgl.base_context(8, 6)
    want = {"P1": fgl.pn_class(base, 1), "P2": fgl.pn_class(base, 2),
            "P3": fgl.pn_class(base, 3),
            "H(3,3)": fgl.hypersurface_class(base, 3, 3)}
    for p in (2, 3):
        grid = {label: e for label, e, _dim in
                op.grid_elements(op.make_context(p, deg=6, bweight=6))}
        for label, elem in want.items():
            assert _by_monomial(grid[label]) == _by_monomial(elem.series), \
                (p, label)


def test_classes_past_bweight_raise():
    ctx = op.make_context(2, deg=6, bweight=2)
    with pytest.raises(SeriesError):
        op._ambient_class(ctx, 3)
    with pytest.raises(SeriesError):
        op._ambient_class(ctx, 4, 2)


def test_quillen_steenrod_is_cached_on_the_context(ctx2):
    st = op.quillen_steenrod(ctx2, 2, (1,))
    assert op.quillen_steenrod(ctx2, 2, [1]) is st


def test_tom_dieck_sq_shares_the_canonical_steenrod(monkeypatch):
    built = []
    init = op.OperationDescriptor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(op.OperationDescriptor, "__init__", counting_init)
    monkeypatch.setattr(op, "_CTX_CACHE", {})  # a context no test has used
    ctx = op.make_context(3, deg=4, bweight=3)
    op.tom_dieck_sq(ctx, 3, ctx.var("z1"))
    st = op.quillen_steenrod(ctx, 3, (1, 2))
    assert built == [st]


def test_transient_context_is_freed_with_its_caches(monkeypatch):
    monkeypatch.setattr(op, "_CTX_CACHE", {})
    ctx = op.make_context(2, deg=2, bweight=2)
    op._CTX_CACHE.clear()  # the test now holds the only reference
    st = op.quillen_steenrod(ctx, 2, (1,))
    assert op.quillen_steenrod(ctx, 2, (1,)) is st
    p1 = op._ambient_class(ctx, 1)
    assert not op.symmetric_operation(st, p1).is_zero
    assert not st.apply(p1 * ctx.var("z1")).is_zero
    assert not ShiftAction(ctx, 2).pi_power(2).is_zero
    ref = weakref.ref(ctx)
    del ctx, st, p1
    gc.collect()
    assert ref() is None


def test_shift_action_shares_the_orbit_product_with_st(monkeypatch):
    monkeypatch.setattr(op, "_CTX_CACHE", {})  # a context no test has used
    ctx = op.make_context(3, deg=4, bweight=3)
    action = ShiftAction(ctx, 3)
    assert action.pi_power(1) == op.quillen_steenrod(ctx, 3, (1, 2)).gamma
    assert action.fp is formal_p(ctx, 3)


def test_st_case_loop_reports_failing_checks(monkeypatch):
    monkeypatch.setattr(op, "symmetric_operation",
                        lambda st, e: st.ctx.one())
    report = verify.verify_emb(p=2)
    cases = report["cases"]
    assert report["summary"] == {"pass": 0, "fail": 15}
    assert all(c["verdict"] == "fail" and c["witness"] == "1" for c in cases)
    assert all(c["p"] == 2 for c in cases)
    assert [c["reps"] for c in cases] == [list(reps) for _, reps
                                          in op.rep_choices(2)
                                          for _ in range(5)]


def test_rr_reports_a_che_class_of_one(monkeypatch):
    monkeypatch.setattr(op, "omega_che", lambda ctx, reps: ctx.one())
    cases = verify.verify_rr(p=2)["cases"]
    assert any(c["verdict"] == "fail" and c["witness"] for c in cases)


def test_fglaxioms_reports_a_perturbed_law(monkeypatch):
    law = fgl.Context.fgl
    monkeypatch.setattr(fgl.Context, "fgl", lambda self: law(self) + self.mono(
        {"x": 1, "y": 1, "b1": 1}))
    cases = {c["input"]: c for c in verify.verify_fglaxioms()["cases"]}
    assert cases["a11"]["verdict"] == "fail" and cases["a11"]["witness"]


def test_addphi_reports_a_doubled_defect(monkeypatch):
    """Phi is additive up to f_p(u,v) exactly: twice the defect fails."""
    assert verify.verify_addphi(p=2, deg=4, bweight=4)["summary"]["fail"] == 0
    defect = verify._binomial_defect
    monkeypatch.setattr(verify, "_binomial_defect",
                        lambda ctx, p, u, v: defect(ctx, p, u, v).scale(2))
    cases = verify.verify_addphi(p=2, deg=4, bweight=4)["cases"]
    failed = [c for c in cases if c["verdict"] == "fail"]
    assert failed and all(c["witness"] for c in failed)
    # f_2(1,1) = 1, so Phi(2) - 2 Phi(1) is 1, not 2
    assert (cases[0]["input"], cases[0]["witness"]) == ("1,1", "-1")


def test_multphi_reports_a_doubled_phi(monkeypatch):
    """2 Phi misses the product rule by nonpos(2 Phi(u) Phi(v) g)."""
    assert verify.verify_multphi(p=2, deg=4, bweight=6)["summary"]["fail"] == 0
    phi = op.symmetric_operation
    monkeypatch.setattr(op, "symmetric_operation",
                        lambda st, e: phi(st, e).scale(2))
    cases = verify.verify_multphi(p=2, deg=4, bweight=6)["cases"]
    failed = [c for c in cases if c["verdict"] == "fail"]
    assert failed and all(c["witness"] for c in failed)
    assert {c["reps"][0] for c in failed if c["input"] == "P1,P1"} == {
        reps[0] for _, reps in op.rep_choices(2)}


def test_operations_forwards_the_registry_to_verify():
    assert op.VERIFIERS is verify.VERIFIERS
    assert op.run_verifier is verify.run_verifier
    with pytest.raises(AttributeError):
        op.verify_sop


def test_run_verifier_dispatch():
    with pytest.raises(SeriesError):
        verify.run_verifier("nope")
    rep = verify.run_verifier("il3")
    assert rep["summary"]["fail"] == 0
    assert rep["prop"] == "il3"


def test_reports_name_the_primes_their_cases_ran():
    names = sorted(set(verify.VERIFIERS) - {"minors"})
    reports = [verify.run_verifier(name, deg=4, bweight=4) for name in names]
    for name, report in zip(names, reports):
        if name == "fglaxioms":
            continue
        primes = sorted({case["p"] for case in report["cases"]})
        p = report["p"]
        assert (p if isinstance(p, list) else [p]) == primes, name
    # every case, label and witness of these reports, pinned
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode())
    assert digest.hexdigest() == ("3aeac2804cf0ca673038c4b626ce0e05"
                                  "096c005ce5d94a2c2d82688f5c787a39")


def test_registry_fills_defaults_and_drops_unread_options():
    assert verify.VERIFIERS["il3"].reads == ()
    assert verify.VERIFIERS["sop"].reads == ("p", "deg", "bweight", "seed")
    assert verify.run_verifier("il3", p=5, deg=3, bweight=3, seed=1) \
        == verify.run_verifier("il3")
    with pytest.raises(SeriesError, match="not in verification grid"):
        verify.verify_multphi(p=5)
    report = verify.verify_tomdieck(p=2, deg=4, bweight=4, seed=99)
    assert report["p"] == 2 and report["reps"] == "canonical"
    assert report == verify.run_verifier("tomdieck", p=2, deg=4, bweight=4)


def _assert_clean(report):
    assert report["summary"]["fail"] == 0, report


def test_verifier_fglaxioms():
    _assert_clean(verify.verify_fglaxioms(deg=6, bweight=6))


def test_verifier_sop_p2():
    _assert_clean(verify.verify_sop(p=2))


def test_verifier_emb_p3():
    _assert_clean(verify.verify_emb(p=3))


def test_verifier_addphi_p2():
    _assert_clean(verify.verify_addphi(p=2))


def test_verifier_multphi_p2():
    _assert_clean(verify.verify_multphi(p=2))


def test_verifier_rr_p2():
    _assert_clean(verify.verify_rr(p=2))


def test_verifier_uv_p3():
    _assert_clean(verify.verify_uv(p=3))


def test_verifier_grad_p3():
    _assert_clean(verify.verify_grad(p=3))


def test_verifier_diagram_p2():
    _assert_clean(verify.verify_diagram(p=2))


def test_verifier_soold():
    _assert_clean(verify.verify_soold())


def test_verifier_f1_and_il1():
    _assert_clean(verify.verify_f1())
    _assert_clean(verify.verify_il1())


def test_verifier_tomdieck_p2():
    _assert_clean(verify.verify_tomdieck(p=2))


# ----- the operation as one substitution, against the grouped loop ----------

def _reference_phi_hat(desc, u, products):
    """The per-term coefficient map: the b-part of each term goes to its
    product of btildes (kept in products), the rest stays passive."""
    ctx = desc.ctx
    bslots = [u.table.index[n] for n in ctx.b_names]
    out = ctx.zero()
    for exp, c in u.terms.items():
        bexp = tuple(exp[i] for i in bslots)
        rest = tuple(0 if i in bslots else k for i, k in enumerate(exp))
        if bexp not in products:
            prod = ctx.one()
            for i, k in enumerate(bexp, 1):
                for _ in range(k):
                    prod = prod * desc.btilde(i)
            products[bexp] = prod
        out = out + GradedSeries(u.table, u.trunc_plus, u.trunc_minus,
                                 {rest: c}) * products[bexp]
    return out


def _reference_apply(desc, e):
    """sum_a phi_hat(u_a) prod_i gamma(z_i)^a_i over the z-exponents a of e."""
    ctx = desc.ctx
    zslots = [ctx.table.index[n] for n in ctx.z_names]
    groups = {}
    for exp, c in e.terms.items():
        zexp = tuple(exp[i] for i in zslots)
        rest = tuple(0 if i in zslots else k for i, k in enumerate(exp))
        groups.setdefault(zexp, {})[rest] = c
    out = ctx.zero()
    products = {}
    for zexp, terms in groups.items():
        part = _reference_phi_hat(desc, GradedSeries(
            ctx.table, e.trunc_plus, e.trunc_minus, terms), products)
        for name, k in zip(ctx.z_names, zexp):
            if k:
                part = part * desc.gamma_at(name) ** k
        out = out + part
    return out


def _oracle_inputs(ctx):
    """The grid, t*P1, z^3 + P2*z, and one input with every b."""
    z = ctx.var("z1")
    every_b = ctx.zero()
    for name in ctx.b_names:
        every_b = every_b + ctx.var(name)
    return [e for _label, e, _dim in op.grid_elements(ctx)] + [
        ctx.var("t") * op._ambient_class(ctx, 1),
        z ** 3 + op._ambient_class(ctx, 2) * z, every_b * z + every_b]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_st_apply_and_phi_hat_match_the_grouped_reference(p):
    ctx = op.make_context(p, deg=6, bweight=6)
    inputs = _oracle_inputs(ctx)
    for _rlabel, reps in op.rep_choices(p):
        st = op.quillen_steenrod(ctx, p, reps)
        for e in inputs:
            assert st.apply(e) == _reference_apply(st, e), (reps, e.render())
            assert st.phi_hat(e) == _reference_phi_hat(st, e, {})


def test_ln_apply_and_phi_hat_match_the_grouped_reference():
    ctx = op.make_context(1, deg=6, bweight=6, with_primes=True)
    ln = op.landweber_novikov(ctx)
    for e in _oracle_inputs(ctx):
        assert ln.apply(e) == _reference_apply(ln, e), e.render()
        assert ln.phi_hat(e) == _reference_phi_hat(ln, e, {})


def test_st_apply_product_terms_ceiling(monkeypatch):
    # output terms of every product St.apply makes over the grid at p = 3,
    # each choice of reps: 6,341 with each monomial's image built once from
    # the image of a smaller monomial (7,373 with Horner's rule, carriers
    # outermost, and an apply memo by input)
    monkeypatch.setattr(op, "_CTX_CACHE", {})  # a context no test has used
    ctx = op.make_context(3, deg=6, bweight=6)
    grid = op.grid_elements(ctx)
    sts = [op.quillen_steenrod(ctx, 3, reps) for _, reps in op.rep_choices(3)]
    terms = [0]
    mul = GradedSeries.__mul__

    def counting_mul(a, b):
        out = mul(a, b)
        terms[0] += len(out.sorted_terms())
        return out
    monkeypatch.setattr(GradedSeries, "__mul__", counting_mul)
    for st in sts:
        for _label, e, _dim in grid:
            st.apply(e)
    assert terms[0] <= 6341


def test_st_apply_of_a_sum_reuses_the_monomial_images(monkeypatch):
    # once St has mapped every grid element, u + v has no monomial whose
    # image is not cached, so apply makes no series product
    monkeypatch.setattr(op, "_CTX_CACHE", {})
    ctx = op.make_context(3, deg=6, bweight=6)
    grid = [e for _label, e, _dim in op.grid_elements(ctx)]
    sts = [op.quillen_steenrod(ctx, 3, reps) for _, reps in op.rep_choices(3)]
    for st in sts:
        for e in grid:
            st.apply(e)
    products = [0]
    mul = GradedSeries.__mul__

    def counting_mul(a, b):
        products[0] += 1
        return mul(a, b)
    monkeypatch.setattr(GradedSeries, "__mul__", counting_mul)
    for st in sts:
        for u in grid:
            for v in grid:
                st.apply(u + v)
    assert products[0] == 0


def test_products_never_build_the_tuple_view(monkeypatch):
    # log_t at (8, 8) and St.apply over the p = 3 grid stay packed: no
    # series builds its exponent-tuple view, and every product still goes
    # through GradedSeries.__mul__
    monkeypatch.setattr(op, "_CTX_CACHE", {})
    views, products = [], [0]
    build = GradedSeries._tuple_view
    monkeypatch.setattr(GradedSeries, "_tuple_view",
                        lambda s: views.append(s) or build(s))
    mul = GradedSeries.__mul__

    def counting_mul(a, b):
        products[0] += 1
        return mul(a, b)
    monkeypatch.setattr(GradedSeries, "__mul__", counting_mul)
    fgl.Context(8, 8).log_t
    ctx = op.make_context(3, deg=6, bweight=6)
    for _, reps in op.rep_choices(3):
        st = op.quillen_steenrod(ctx, 3, reps)
        for _label, e, _dim in op.grid_elements(ctx):
            st.apply(e)
    assert products[0] > 100
    assert views == []


def _reference_in_generator_ideal(ginv, diff, p):
    """Membership in (g) as p-integrality of diff * g^-1."""
    ratio = diff * ginv
    for exp, c in sorted(ratio.terms.items()):
        if vp(c, p) < 0:
            return False, (exp, c)
    return True, None


def _random_series(ctx, rng, nterms):
    monos = [{}, {"b1": 1}, {"b2": 1}, {"b1": 2}, {"z1": 1},
             {"z1": 1, "b1": 1}]
    out = ctx.zero()
    for _ in range(nterms):
        exps = dict(rng.choice(monos), t=rng.randint(-3, 3))
        c = Fraction(rng.randint(-9, 9), rng.choice([1, 1, 5, 7]))
        out = out + ctx.mono(exps, coeff=c)
    return out


def _numerators_mod_p(s, p):
    """s with each coefficient c replaced by c.numerator mod p, or 1."""
    return GradedSeries(s.table, s.trunc_plus, s.trunc_minus,
                        {e: c.numerator % p or 1 for e, c in s.sorted_terms()})


@pytest.mark.parametrize("p", [2, 3])
def test_ideal_membership_is_p_divisibility(p):
    ctx = op.make_context(p, deg=4, bweight=4)
    fp = formal_p(ctx, p)
    ginv = fp.g.mul_inverse()
    rng = random.Random(p)
    ti = ctx.table.index["t"]
    failures = 0
    for _ in range(12):
        h = _random_series(ctx, rng, 5)
        member = fp.g * h
        assert verify._in_generator_ideal(member, p) == (True, None)
        assert _reference_in_generator_ideal(ginv, member, p)[0]
        for f in (member + _numerators_mod_p(_random_series(ctx, rng, 1), p),
                  _random_series(ctx, rng, 4)):
            ok, witness = verify._in_generator_ideal(f, p)
            want, _ = _reference_in_generator_ideal(ginv, f, p)
            assert ok == want
            if ok:
                continue
            failures += 1
            # the witness names the lowest t-degree at which f * g^-1 is not
            # p-integral, and a monomial that is not p-integral there
            bad = {(exp[ti], ctx.table.monomial_str(
                exp[:ti] + (0,) + exp[ti + 1:]))
                for exp, c in (f * ginv).terms.items() if vp(c, p) < 0}
            j = min(k for k, _m in bad)
            assert witness.startswith("t^%d * " % j)
            assert (j, witness.split(" * ")[1].split(" (")[0]) in bad
    assert failures >= 12
