import gc
import hashlib
import json
import operator
import random
import re
import weakref
from fractions import Fraction

import pytest

from cobcalc import actions, fgl
from cobcalc import operations as op
from cobcalc import verify
from cobcalc.actions import FalsificationError, ShiftAction
from cobcalc.quotient import (FormalP, PDivisibilityError, coeffs_mod_p,
                              formal_p)
from cobcalc.series import Geometry, GradedSeries, SeriesError, vp


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


@pytest.mark.parametrize("p", [2, 3])
def test_slices_match_their_full_products_on_the_grid(p):
    """slice_phi, st_slice and proj_pushforward read one degree of a
    product from slices; each equals that degree of the full product."""
    ctx = op.make_context(p)
    qs = [ctx.one(), ctx.var("t"), ctx.mono({"t": 2}) + ctx.var("z1"),
          ctx.mono({"t": -p})]
    for _rlabel, reps in op.rep_choices(p):
        st = op.quillen_steenrod(ctx, p, reps)
        for _label, e, _dim in verify._grid(ctx):
            phi = op.symmetric_operation(st, e)
            ste = st.apply(e)
            for q in qs:
                assert op.slice_phi(ctx, phi, q) == (
                    q * phi * ctx.omega).coeff_of("t", 0)
                assert op.st_slice(ctx, st, e, q) == op.chow_trace(
                    ctx, (q * ste).coeff_of("t", 0))
    to_x = {"t": ctx.var("x")}
    omega_x = ctx.omega.substitute(to_x)
    for n in (1, 2, 3):
        for f in (ctx.one(), ctx.var("x") + ctx.var("z1"),
                  ctx.nseries(3).substitute(to_x)):
            assert fgl.proj_pushforward(ctx, f, n) == (
                f * omega_x).coeff_of("x", n)


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
    for exp, c in p2.sorted_terms():
        new = list(exp)
        for i in range(1, ctx.bweight + 1):
            bi = ctx.table.index["b%d" % i]
            bpi = ctx.table.index["bp%d" % i]
            new[bpi], new[bi] = new[bi], new[bpi]
        swapped[tuple(new)] = c
    assert dict(traced.sorted_terms()) == swapped


def test_st_is_not_stable(st2):
    assert st2.c != st2.ctx.one()


def _joint_part(series, names, bound):
    slots = [series.table.index[n] for n in names]
    kept = {exp: c for exp, c in series.sorted_terms()
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
    assert all(0 <= c < 2 for _e, c in nf.sorted_terms())
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
            for exp, c in series.sorted_terms()}


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


def test_sop_reports_a_quotient_that_fails_its_certificate(monkeypatch):
    """u^-1 + t^6 lifts the t^-6 digit of St(m) to t^0 as well: only the
    monomials of P3 reach t^-6, so only P3's quotients are wrong, and only
    at t^0, where the remainder must be strictly positive."""
    monkeypatch.setattr(op, "_CTX_CACHE", {})  # a context no test has used
    ctx = op.make_context(2, 4, 4)
    fp = formal_p(ctx, 2)
    fp.u_inv = fp.u_inv + GradedSeries.monomial(
        ctx.table, fp.u_inv.trunc_plus, fp.u_inv.trunc_minus, {"t": 6})
    cases = verify.verify_sop(p=2, deg=4, bweight=4)["cases"]
    assert len(cases) == 24
    failed = [c for c in cases if c["verdict"] == "fail"]
    assert [c["input"] for c in failed] == ["P3"] * 3
    assert all(c["witness"] for c in failed)
    st = op.quillen_steenrod(ctx, 2, (1,))
    with pytest.raises(FalsificationError, match="not strictly positive"):
        op.symmetric_operation(st, op._ambient_class(ctx, 3))


def test_sop_reports_a_perturbed_cached_quotient(monkeypatch):
    """N(z) + 1 leaves p * Phi(z) = -1, which 2 does not divide: z fails
    with the term as its witness, and z^2 and the classes still pass.
    Phi is kept on its descriptor, so the clean run takes one fresh
    context and the perturbed run another, whose N(z) is built and
    perturbed before any Phi is."""
    monkeypatch.setattr(op, "_CTX_CACHE", {})  # a context no test has used
    assert verify.verify_sop(p=2, deg=4, bweight=4)["summary"]["fail"] == 0
    monkeypatch.setattr(op, "_CTX_CACHE", {})
    ctx = op.make_context(2, 4, 4)
    z = ctx.var("z1")
    (z_exp, _c), = z.sorted_terms()
    for _rlabel, reps in op.rep_choices(2):
        st = op.quillen_steenrod(ctx, 2, reps)
        st.lifted_image(z)  # builds and caches N(z), and no Phi
        quotients = st.memo("quotients", dict)
        quotients[z_exp] = quotients[z_exp] + ctx.one()
    cases = verify.verify_sop(p=2, deg=4, bweight=4)["cases"]
    failed = [(c["input"], c["witness"]) for c in cases
              if c["verdict"] == "fail"]
    assert failed == [("z", "t^0 * 1")] * 3
    assert len(cases) == 24


@pytest.mark.parametrize("name, target", [
    ("emb", "z"), ("addphi", "P1*z"), ("multphi", "P1*z"), ("rr", "P1*z"),
    ("uv", "P1*z"), ("soold", "P1*z"), ("f1", "P1")])
def test_a_refused_phi_fails_only_the_cases_that_read_it(monkeypatch, name,
                                                         target):
    """With Phi refused on one grid input, each case that reads that Phi
    fails with the refusal's witness, and the suite still reports every
    other case, passing."""
    def run():
        return verify.run_verifier(name, p=2, deg=4, bweight=4)["cases"]
    clean = run()
    phi = op.symmetric_operation

    def refusing(st, e):
        grid = {label: x for label, x, _dim in verify._grid(st.ctx)}
        if e == grid[target]:
            raise FalsificationError("refused", witness="no Phi(%s)" % target)
        return phi(st, e)
    monkeypatch.setattr(op, "symmetric_operation", refusing)
    cases = run()
    assert len(cases) == len(clean)
    failed = [c for c in cases if c["verdict"] == "fail"]
    assert failed
    assert len(failed) < len(cases)
    assert all(c["witness"] == "no Phi(%s)" % target for c in failed)
    assert all(c["verdict"] in ("pass", "outside") for c in cases
               if c not in failed)


def _perturb_the_second_image(monkeypatch, term):
    """Fresh contexts whose image x +_F [2]t gains term(ctx, name); at p = 3
    only the canonical reps (1, 2) read it."""
    monkeypatch.setattr(op, "_CTX_CACHE", {})
    image = fgl.Context.shift_image
    monkeypatch.setattr(fgl.Context, "shift_image", lambda self, name, k: (
        image(self, name, k) + term(self, name) if k == 2
        else image(self, name, k)))


def _names_a_term(witness):
    """A witness of `is_integral_mod_ideal`: the term and its coefficient."""
    return re.fullmatch(r"t\^-?\d+ \* \S+ \(coefficient \S+\)", witness)


def test_diagram_reports_a_perturbed_shift_image(monkeypatch):
    """x +_F [2]t + x^2 b1 keeps gamma of weight 3 and makes the canonical
    St differ from the +-1 St by z^4 b1, not a multiple of 3.  The term
    x t^9 has weight 10: St refuses that gamma, which the suite reports as
    one failing St case at p = 3, and p = 2, which never reads the image,
    still passes."""
    assert verify.verify_diagram(p=3, deg=4, bweight=4)["summary"][
        "fail"] == 0
    _perturb_the_second_image(
        monkeypatch, lambda ctx, name: ctx.mono({name: 2, "b1": 1}))
    cases = {c["input"]: c for c in verify.verify_diagram(
        p=3, deg=4, bweight=4)["cases"]}
    assert (cases["z reps"]["verdict"], cases["z reps"]["witness"]) == (
        "fail", "t^0 * z1^4*b1 (coefficient 1)")
    _perturb_the_second_image(
        monkeypatch, lambda ctx, name: ctx.mono({name: 1, "t": 9}))
    cases = verify.verify_diagram(deg=4, bweight=4)["cases"]
    assert all(c["verdict"] == "pass" for c in cases if c["p"] == 2)
    assert [c for c in cases if c["p"] == 3] == [
        {"input": "St", "verdict": "fail", "witness": "t^9*x^3",
         "reps": [1, 2], "p": 3}]


def test_tomdieck_reports_a_perturbed_shift_image(monkeypatch):
    """x +_F [2]t + x makes gamma 2x^3 at t = 0, so Sq(z) at t^0 is 2z^3,
    not z^3."""
    assert verify.verify_tomdieck(p=3, deg=4, bweight=4)["summary"][
        "fail"] == 0
    _perturb_the_second_image(monkeypatch, lambda ctx, name: ctx.var(name))
    cases = {c["input"]: c for c in verify.verify_tomdieck(
        p=3, deg=4, bweight=4)["cases"]}
    assert (cases["z"]["verdict"], cases["z"]["witness"]) == ("fail",
                                                              "2*z1^3")
    assert cases["1"]["verdict"] == "pass"
    # Sq of P1 and P3 is not integral: the witness is the term that is not
    for label in ("P1", "P3"):
        assert cases[label]["verdict"] == "fail"
        assert _names_a_term(cases[label]["witness"]), label


def test_diagram_reports_a_non_integral_sq_lift(monkeypatch):
    """x +_F [2]t + x makes Sq of P1, P3 and P1*z non-integral: their
    sq-lift cases fail with the term, and the suite still reports."""
    _perturb_the_second_image(monkeypatch, lambda ctx, name: ctx.var(name))
    report = verify.verify_diagram(p=3, deg=4, bweight=4)
    lifts = {c["input"]: c["witness"] for c in report["cases"]
             if c["input"].endswith("sq-lift") and c["verdict"] == "fail"}
    assert sorted(lifts) == ["P1 sq-lift", "P1*z sq-lift", "P3 sq-lift"]
    assert all(_names_a_term(w) for w in lifts.values()), lifts


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


def test_multphi_pairs_past_bweight_are_outside():
    """A pair whose b-weights sum past bweight would be cut on formation:
    its verdict is "outside", naming the bound, and it counts neither as a
    pass nor as a fail."""
    report = verify.run_verifier("multphi", p=2, deg=4, bweight=4)
    assert report["summary"] == {"pass": 99, "fail": 0, "outside": 9}
    outside = [c for c in report["cases"] if c["verdict"] == "outside"]
    assert {c["input"] for c in outside} == {"P2,P3", "P3,P3", "P3,H(3,3)"}
    assert {c["bound"] for c in outside} == {"b-weight 5 > bweight 4",
                                             "b-weight 6 > bweight 4"}
    summary = verify.run_verifier("multphi", p=2, deg=4, bweight=3)[
        "summary"]
    assert (summary["fail"], summary["outside"]) == (0, 24)


def test_multphi_reports_a_doubled_phi_inside_a_low_bweight(monkeypatch):
    """Outside pairs hide no failure of the pairs checked."""
    phi = op.symmetric_operation
    monkeypatch.setattr(op, "symmetric_operation",
                        lambda st, e: phi(st, e).scale(2))
    summary = verify.run_verifier("multphi", p=2, deg=4, bweight=4)[
        "summary"]
    assert summary["fail"] > 0 and summary["outside"] == 9


def _perturb_the_cached_image_of_z(ctx, p, term, choices=None):
    """Each St at p over ctx and the reps of choices (by default every rep
    choice), its caches full, with image(z) + term: only a direct read of
    the image of z sees it."""
    (z_exp, _c), = ctx.var("z1").sorted_terms()
    for reps in choices or [reps for _rlabel, reps in op.rep_choices(p)]:
        st = op.quillen_steenrod(ctx, p, reps)
        images = st.memo("monomials", dict)
        images[z_exp] = images[z_exp] + term


def test_grad_reports_a_perturbed_cached_image(monkeypatch):
    """image(z) + z1 adds 1 to the leading z-form of St(z): z^1*1 fails at
    each reps with the witness 1, and every other case still passes."""
    monkeypatch.setattr(op, "_CTX_CACHE", {})  # a context no test has used
    ctx = op.make_context(2, 4, 4)
    assert verify.verify_grad(p=2, deg=4, bweight=4)["summary"]["fail"] == 0
    _perturb_the_cached_image_of_z(ctx, 2, ctx.var("z1"))
    cases = verify.verify_grad(p=2, deg=4, bweight=4)["cases"]
    failed = [(c["input"], c["witness"]) for c in cases
              if c["verdict"] == "fail"]
    assert failed == [("z^1*1", "1")] * 3
    assert len(cases) == 21


def test_uv_reports_a_perturbed_cached_image(monkeypatch):
    """image(z) + z1 t^2 changes the t^2 coefficient of St(z), which the
    slice of u = P1, q = 1 reads at p = 2 (f = t^-2): that case fails at
    each reps with minus the term times eta(P1) (1, 1 and 1/9) as its
    witness, and every other case still passes."""
    monkeypatch.setattr(op, "_CTX_CACHE", {})  # a context no test has used
    ctx = op.make_context(2, 4, 4)
    assert verify.verify_uv(p=2, deg=4, bweight=4)["summary"]["fail"] == 0
    _perturb_the_cached_image_of_z(ctx, 2, ctx.mono({"z1": 1, "t": 2}))
    cases = verify.verify_uv(p=2, deg=4, bweight=4)["cases"]
    failed = [(c["input"], c["witness"]) for c in cases
              if c["verdict"] == "fail"]
    assert failed == [("u=P1,v=z^1,q=1", w)
                      for w in ("-z1", "-z1", "-1/9*z1")]


def test_soold_reports_a_perturbed_cached_image(monkeypatch):
    """image(z) + z1 changes St(z) but not the cached quotient Phi reads:
    the slices of e = z at q = 1 and q = 1 + t, the two whose constant
    term is 1, miss by z1, and every other case still passes."""
    monkeypatch.setattr(op, "_CTX_CACHE", {})  # a context no test has used
    ctx = op.make_context(2, 4, 4)
    assert verify.verify_soold(deg=4, bweight=4)["summary"]["fail"] == 0
    _perturb_the_cached_image_of_z(ctx, 2, ctx.var("z1"), [(-1,)])
    cases = verify.verify_soold(deg=4, bweight=4)["cases"]
    failed = [(c["input"], c["witness"]) for c in cases
              if c["verdict"] == "fail"]
    assert failed == [("z,q=1", "z1"), ("z,q=1+t", "z1")]
    assert len(cases) == 32


def test_il3_reports_a_class_scaled_by_p(monkeypatch):
    """p times [H(p^r, p)] keeps chi divisible by p, but chi / p is then
    divisible by p too: each case fails with its chi as the witness."""
    hypersurface = fgl.hypersurface_class
    monkeypatch.setattr(fgl, "hypersurface_class", lambda ctx, n, d: (
        fgl.LazardElement(ctx, hypersurface(ctx, n, d).series.scale(d),
                          n - 1, "H(%d,%d)" % (n, d))))
    cases = verify.verify_il3()["cases"]
    assert [(c["input"], c["verdict"], c["witness"]) for c in cases] == [
        ("H(2,2)", "fail", "chi=-4"), ("H(3,3)", "fail", "chi=45"),
        ("H(4,2)", "fail", "chi=-20")]


def test_f1_and_il1_report_an_eta_failure_with_its_witness(monkeypatch):
    """che / p leaves deg of its zero-dimensional component indivisible by
    p: an eta case fails with a witness naming the class, the reps and
    that deg, and the suites still report."""
    che = fgl.ChowModel.chern_che
    monkeypatch.setattr(fgl.ChowModel, "chern_che", lambda self, p, reps: (
        che(self, p, reps).scale(Fraction(1, p))))
    f1 = [c for c in verify.verify_f1()["cases"] if c["input"] == "P1"]
    assert [(c["verdict"], c["witness"]) for c in f1] == [
        ("fail", "P1 at reps [1]: deg -1"),
        ("fail", "P1 at reps [-1]: deg -1"),
        ("fail", "P1 at reps [-3]: deg -1/9")]
    il1 = {(c["p"], c["input"]): c for c in verify.verify_il1()["cases"]}
    assert (il1[2, "P1"]["verdict"], il1[2, "P1"]["witness"]) == (
        "fail", "P1 at reps [1]: deg -1")
    assert il1[3, "H(3,3)"]["witness"] == "H(3,3) at reps [1, 2]: deg -1/2"


def test_thmg_reports_a_perturbed_reconstruction(monkeypatch):
    """A reconstruction that doubles the coefficient of pi^1 hands the
    decomposition an invariant whose power 1 is not the one drawn."""
    reconstruct = actions.reconstruct
    monkeypatch.setattr(actions, "reconstruct", lambda action, psi: (
        reconstruct(action, {k: q.scale(2) if k == 1 else q
                             for k, q in psi.items()})))
    (case,) = verify.verify_thmg(p=2)["cases"]
    assert (case["verdict"], case["witness"]) == (
        "fail", "case 0 power 1 mismatch")


def test_xy_reports_a_twisted_law_of_a_perturbed_orbit_product(monkeypatch):
    """alpha = pi(x) + t x^2 still gives x^3 at t = 0, but its twisted law
    is not integral."""
    twisted_context = actions.twisted_context

    def perturbed(p, deg=6, bweight=6):
        ctx = twisted_context(p, deg=deg, bweight=bweight)
        orbit = ctx.orbit_product
        monkeypatch.setattr(ctx, "orbit_product", lambda name, reps: (
            orbit(name, reps) + ctx.mono({name: 2, "t": 1})))
        return ctx
    monkeypatch.setattr(actions, "twisted_context", perturbed)
    cases = {c["input"]: c for c in verify.verify_xy(p=3)["cases"]}
    assert cases["integral coefficients"]["verdict"] == "pass"
    law = cases["twisted law"]
    assert law["verdict"] == "fail"
    assert law["witness"].startswith("coefficient u^1 v^1: ")


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
    # every case, label and witness of these reports, pinned; multphi's
    # pairs past bweight 4 are "outside", not falsified
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode())
    assert digest.hexdigest() == ("d019535938dfd51dc7d9931274d26715"
                                  "50c4f4e27ffb8f385538ab289ab052eb")


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
    report = verify.verify_multphi(p=2)
    _assert_clean(report)
    # at the defaults no pair passes bweight
    assert "outside" not in report["summary"]


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


def test_il1_tests_the_classes_in_each_ideal():
    """il1 tests the classes whose coefficients p divides, and only those."""
    tested = {}
    for c in verify.verify_il1()["cases"]:
        if c["input"] != "nonempty":
            tested.setdefault(c["p"], []).append(c["input"])
    assert tested == {2: ["P1", "P3", "H(3,2)", "H(4,3)"],
                      3: ["P2", "H(4,3)", "H(3,3)"], 5: ["P4"]}


def test_verifier_tomdieck_p2():
    _assert_clean(verify.verify_tomdieck(p=2))


# ----- the operation as one substitution, against the grouped loop ----------

def _reference_phi_hat(desc, u, products):
    """The per-term coefficient map: the b-part of each term goes to its
    product of btildes (kept in products), the rest stays passive."""
    ctx = desc.ctx
    bslots = [u.table.index[n] for n in ctx.b_names]
    out = ctx.zero()
    for exp, c in u.sorted_terms():
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
    for exp, c in e.sorted_terms():
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
def test_phi_matches_the_division_of_the_whole_input(p):
    """Phi sums cached per-monomial quotients; dividing e^p - St(e) whole
    must give the same series, or fail with the same error.  The inputs
    with t^-1 reach e^p's own lift: p t^-1 z has a Phi, t^-1 has none."""
    ctx = op.make_context(p, deg=6, bweight=6)
    fp = formal_p(ctx, p)
    z, tinv = ctx.var("z1"), ctx.mono({"t": -1})
    inputs = _oracle_inputs(ctx) + [(tinv * z).scale(p), tinv]

    def outcome(compute):
        try:
            return compute()
        except FalsificationError as exc:
            return type(exc), str(exc), exc.witness
    for _rlabel, reps in op.rep_choices(p):
        st = op.quillen_steenrod(ctx, p, reps)
        got = [outcome(lambda: op.symmetric_operation(st, e))
               for e in inputs]
        want = [outcome(lambda: fp.divide_by_formal_p(e ** p - st.apply(e)))
                for e in inputs]
        assert got == want, reps
        assert isinstance(got[-2], GradedSeries)
        assert got[-1][0] is PDivisibilityError


def test_phi_is_kept_by_input_and_its_power_by_context(monkeypatch):
    """Phi(e) is kept on its descriptor: a second call, with e or with an
    equal series, returns the same object.  e^p is kept on the context:
    the three choices of reps of one context find the one their first
    Phi built, and keep no other."""
    monkeypatch.setattr(op, "_CTX_CACHE", {})  # a context no test has used
    ctx = op.make_context(3, 4, 4)
    e = op._ambient_class(ctx, 1) * ctx.var("z1")
    key = ("power", 3, e)
    power = None
    for _rlabel, reps in op.rep_choices(3):
        st = op.quillen_steenrod(ctx, 3, reps)
        phi = op.symmetric_operation(st, e)
        assert op.symmetric_operation(st, e) is phi
        assert op.symmetric_operation(st, e + ctx.zero()) is phi
        if power is None:
            power = ctx._memo[key]
        assert ctx._memo[key] is power
    assert power == e ** 3
    assert [k for k in ctx._memo if k[:1] == ("power",)] == [key]


@pytest.mark.parametrize("p", [2, 3])
def test_st_and_phi_multiply_the_weight_by_p(p):
    """The grading of the Lazard ring: gamma has weight p, btilde_i weight
    -p*i, and St and Phi take weight w to p*w (Phi(z) is 0)."""
    ctx = op.make_context(p, deg=6, bweight=6)
    z, p1 = ctx.var("z1"), op._ambient_class(ctx, 1)
    inputs = [p1, op._ambient_class(ctx, 2), z, p1 * z]
    for _rlabel, reps in op.rep_choices(p):
        st = op.quillen_steenrod(ctx, p, reps)
        assert st.gamma.weight() == p
        assert [st.btilde(i).weight() for i in (1, 2, 3)] == [
            -p, -2 * p, -3 * p]
        for e in inputs:
            w = e.weight()
            assert st.apply(e).weight() == p * w, e.render()
            phi = op.symmetric_operation(st, e)
            assert phi.weight() == p * w or (phi.is_zero and e == z), \
                e.render()


@pytest.mark.parametrize("p, witness", [(2, "x^3"), (3, "2*x^4")])
def test_st_refuses_a_gamma_of_another_weight(monkeypatch, p, witness):
    """The cached image x +_F t plus x^2, of weight 2, gives gamma a term
    of weight p + 1 under every rep choice (each image is the first at
    t = [i]t): St is not built, and the witness is that term."""
    monkeypatch.setattr(op, "_CTX_CACHE", {})  # a context no test has used
    ctx = op.make_context(p, 4, 4)
    key = ("shift", "x", 1)
    ctx._memo[key] = ctx.shift_image("x", 1) + ctx.mono({"x": 2})
    for _rlabel, reps in op.rep_choices(p):
        with pytest.raises(FalsificationError) as exc:
            op.quillen_steenrod(ctx, p, reps)
        assert exc.value.witness == witness, reps


def test_a_refused_st_is_one_failing_case_and_the_suite_runs_on(
        monkeypatch):
    """x +_F [-1]t + x t^9 gives every St with the rep -1 a gamma of
    another weight.  emb (through `_st_cases`), f1 and soold each report
    one failing "St" case per refused (p, reps), tagged with both and with
    the term as witness, and check every other St."""
    monkeypatch.setattr(op, "_CTX_CACHE", {})
    image = fgl.Context.shift_image
    monkeypatch.setattr(fgl.Context, "shift_image", lambda self, name, k: (
        image(self, name, k) + self.mono({name: 1, "t": 9}) if k == -1
        else image(self, name, k)))

    def split(report):
        refused = [(c["p"], c["reps"], c["witness"])
                   for c in report["cases"] if c["input"] == "St"]
        rest = [c for c in report["cases"] if c["input"] != "St"]
        assert all(c["verdict"] == "pass" for c in rest), rest
        return refused, rest
    # at p = 3 only the +-1 reps (1, -1) read the image
    refused, rest = split(verify.verify_emb(p=3, deg=4, bweight=4))
    assert refused == [(3, [1, -1], "t^9*x^3")]
    # five inputs for each of the other two St
    assert len(rest) == 5 * 2
    refused, rest = split(verify.verify_f1(deg=4, bweight=4))
    assert refused == [(2, [-1], "t^9*x^2"), (3, [1, -1], "t^9*x^3")]
    assert len(rest) == 2 * len(verify._F1_CLASSES)
    refused, rest = split(verify.verify_soold(deg=4, bweight=4))
    assert (refused, rest) == ([(2, [-1], "t^9*x^2")], [])


def test_btilde_refuses_a_term_of_another_weight(monkeypatch):
    """s^2 t in the twisted exponential gives btilde_1 the term t, of
    weight 1: Phi(P1) under St (btilde_1 of weight -2 at p = 2) and LN(P1)
    (weight -1) are refused with that term."""
    monkeypatch.setattr(op, "_CTX_CACHE", {})
    twisted = op.OperationDescriptor.twisted_exponential
    monkeypatch.setattr(op.OperationDescriptor, "twisted_exponential",
                        lambda self: twisted(self)
                        + self.ctx.mono({"s": 2, "t": 1}))
    ctx = op.make_context(2, deg=4, bweight=3, with_primes=True)
    p1 = op._ambient_class(ctx, 1)
    st = op.quillen_steenrod(ctx, 2, (1,))
    with pytest.raises(FalsificationError, match="btilde_1 is not of "
                       "weight -2") as exc:
        op.symmetric_operation(st, p1)
    assert exc.value.witness == "t"
    with pytest.raises(FalsificationError, match="btilde_1 is not of "
                       "weight -1") as exc:
        op.landweber_novikov(ctx).apply(p1)
    assert exc.value.witness == "t"


@pytest.mark.parametrize("p", [2, 3, 5])
def test_st_apply_and_phi_hat_match_the_grouped_reference(p):
    ctx = op.make_context(p, deg=6, bweight=6)
    inputs = _oracle_inputs(ctx)
    for _rlabel, reps in op.rep_choices(p):
        st = op.quillen_steenrod(ctx, p, reps)
        for e in inputs:
            assert st.apply(e) == _reference_apply(st, e), (reps, e.render())
            assert st.phi_hat(e) == _reference_phi_hat(st, e, {})


def _exact_image(desc, exp, names):
    """The image of the monomial exp under the ring map that sends each of
    names to its image and fixes the other variables, as the exactly
    truncated product.  The factors go passive monomial first, then the
    carriers, then the b-tildes from the highest down, an order whose
    products at trunc_plus lose terms.  Here every product is formed at
    trunc_plus raised by the most the factors can lower a degree, and cut
    back once.  Each factor is homogeneous of weight at most p, so it has
    no term near trunc_plus for its own truncation to have dropped."""
    ctx = desc.ctx
    index = ctx.table.index
    factors = [desc.gamma_at(n) for n in ctx.z_names if n in names
               for _ in range(exp[index[n]])]
    factors += [desc.btilde(i) for i, n in reversed(list(enumerate(
        ctx.b_names, 1))) if n in names for _ in range(exp[index[n]])]
    mapped = {index[n] for n in names}
    rest = tuple(0 if i in mapped else k for i, k in enumerate(exp))
    wplus = [max(v.weight, 0) for v in ctx.table.variables]
    margin = sum(max(0, -min(sum(map(operator.mul, e, wplus))
                             for e, _c in f.sorted_terms()))
                 for f in factors)
    top = ctx.trunc_plus + margin
    out = GradedSeries(ctx.table, top, ctx.trunc_minus, {rest: 1})
    for f in factors:
        out = out * f.retruncate(top, ctx.trunc_minus)
    return out.retruncate(ctx.trunc_plus, ctx.trunc_minus)


def _pairs_inside_bweight(ctx):
    """(u, v) for every ordered pair of grid inputs whose product
    truncation does not cut."""
    grid = [e for _label, e, _dim in op.grid_elements(ctx)]
    return [(u, v) for u in grid for v in grid
            if u.max_bweight() + v.max_bweight() <= ctx.bweight]


def _assert_exact_images(st, exps):
    ctx = st.ctx
    for exp in exps:
        m = GradedSeries(ctx.table, ctx.trunc_plus, ctx.trunc_minus, {exp: 1})
        assert st.apply(m) == _exact_image(st, exp, st.image_names), (
            st.reps, m.render())
        assert st.phi_hat(m) == _exact_image(st, exp, ctx.b_names), (
            st.reps, m.render())


@pytest.mark.parametrize("p", [2, 3, 5])
def test_st_and_phi_hat_give_the_exactly_truncated_monomial_images(p):
    """On every monomial of the grid, of the grid-pair products inside
    bweight, and of t^k * {P1^2, P2, P1 P2, P1 z, P1 z^2} for k from 0 to
    trunc_plus, St and phi_hat equal the exactly truncated products.  A
    chain that starts from t^k loses terms there: t^k * btilde_j passes
    trunc_plus before a later btilde_i would bring it back."""
    ctx = op.make_context(p, deg=6, bweight=6)
    pairs = _pairs_inside_bweight(ctx)
    z, p1, p2 = (ctx.var("z1"), op._ambient_class(ctx, 1),
                 op._ambient_class(ctx, 2))
    passive = [p1 * p1, p2, p1 * p2, p1 * z, p1 * z * z]
    exps = sorted({exp for u, v in pairs for e in (u, v, u * v)
                   for exp, _c in e.sorted_terms()}
                  | {exp for k in range(ctx.trunc_plus + 1) for e in passive
                     for exp, _c in e.shift_var("t", k).sorted_terms()})
    for _rlabel, reps in op.rep_choices(p):
        st = op.quillen_steenrod(ctx, p, reps)
        assert st.image_names == ctx.b_names + ctx.z_names
        _assert_exact_images(st, exps)


def test_st_of_t26_b1_squared_keeps_the_terms_its_b_tildes_bring_back():
    """St(t^26 b1^2) at p = 2, deg = bweight = 8, reps (1,): the chain
    t^26 * btilde_1 * btilde_1 at trunc_plus = 30 loses 37 of its terms."""
    ctx = op.make_context(2, deg=8, bweight=8)
    st = op.quillen_steenrod(ctx, 2, (1,))
    m = ctx.mono({"t": 26, "b1": 2})
    (exp, _c), = m.sorted_terms()
    _assert_exact_images(st, [exp])
    chain = m.coeff_of("b1", 2) * st.btilde(1) * st.btilde(1)
    diff = st.apply(m) - chain
    assert len(diff.sorted_terms()) == 37


@pytest.mark.parametrize("p", [2, 3])
def test_product_rule_matches_its_four_products(p):
    """multphi's right side, Phi(u) tail(v) + St(u) Phi(v) with tail(v) =
    St(v) + Phi(v) g, equals its four products formed one at a time, on
    every ordered grid pair inside bweight."""
    ctx = op.make_context(p, deg=6, bweight=6)
    g = formal_p(ctx, p).g
    for _rlabel, reps in op.rep_choices(p):
        st = op.quillen_steenrod(ctx, p, reps)
        rule = verify._product_rule(st)
        for u, v in _pairs_inside_bweight(ctx):
            pu = op.symmetric_operation(st, u)
            pv = op.symmetric_operation(st, v)
            want = (pu * st.apply(v) + st.apply(u) * pv) + (pu * pv) * g
            assert rule(u, v) == want, (reps, u.render(), v.render())


def test_ln_apply_and_phi_hat_match_the_grouped_reference():
    ctx = op.make_context(1, deg=6, bweight=6, with_primes=True)
    ln = op.landweber_novikov(ctx)
    for e in _oracle_inputs(ctx):
        assert ln.apply(e) == _reference_apply(ln, e), e.render()
        assert ln.phi_hat(e) == _reference_phi_hat(ln, e, {})


def test_st_apply_product_terms_ceiling(monkeypatch):
    # output terms of every product St.apply makes over the grid at p = 3,
    # by `*` or inside `add_products`, each choice of reps: 5,930 with each
    # monomial's image built once from the image of a smaller monomial, b
    # first, in one cache (the grid has no passive factor to multiply
    # last; 7,373 with Horner's rule, carriers outermost, and an apply
    # memo by input)
    monkeypatch.setattr(op, "_CTX_CACHE", {})  # a context no test has used
    ctx = op.make_context(3, deg=6, bweight=6)
    grid = op.grid_elements(ctx)
    sts = [op.quillen_steenrod(ctx, 3, reps) for _, reps in op.rep_choices(3)]
    terms = [0]
    mul, add_products = GradedSeries.__mul__, GradedSeries.add_products

    def counting_mul(a, b):
        out = mul(a, b)
        terms[0] += len(out.sorted_terms())
        return out

    def counting_add_products(self, pairs):
        # the terms each product in the sum has on its own
        pairs = list(pairs)
        terms[0] += sum(len(mul(a, b).sorted_terms()) for a, b in pairs)
        return add_products(self, pairs)
    monkeypatch.setattr(GradedSeries, "__mul__", counting_mul)
    monkeypatch.setattr(GradedSeries, "add_products", counting_add_products)
    for st in sts:
        for _label, e, _dim in grid:
            st.apply(e)
    assert terms[0] <= 5930


def test_st_apply_of_a_sum_reuses_the_monomial_images(monkeypatch):
    # once St has mapped every grid element, u + v has no monomial whose
    # image is not cached, so apply makes no series product, by `*` or
    # inside `add_products`
    monkeypatch.setattr(op, "_CTX_CACHE", {})
    ctx = op.make_context(3, deg=6, bweight=6)
    grid = [e for _label, e, _dim in op.grid_elements(ctx)]
    sts = [op.quillen_steenrod(ctx, 3, reps) for _, reps in op.rep_choices(3)]
    for st in sts:
        for e in grid:
            st.apply(e)
    products = [0]
    mul, add_products = GradedSeries.__mul__, GradedSeries.add_products

    def counting_mul(a, b):
        products[0] += 1
        return mul(a, b)

    def counting_add_products(self, pairs):
        pairs = list(pairs)
        products[0] += len(pairs)
        return add_products(self, pairs)
    monkeypatch.setattr(GradedSeries, "__mul__", counting_mul)
    monkeypatch.setattr(GradedSeries, "add_products", counting_add_products)
    for st in sts:
        for u in grid:
            for v in grid:
                st.apply(u + v)
    assert products[0] == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cli_context_keys_fit_in_120_bits(p):
    # four 30-bit digits hold every field of the CLI's default geometry,
    # up to the negative degree of the widest sum of two operands on top
    ctx = op.make_context(p, 8, 8)
    table, lay = ctx.table, ctx.one()._lay
    mfloor = sum(-w * (f or 0) for w, f in zip(table.weights, table.floors)
                 if w < 0)
    assert lay.mshift + (6 * (lay.depth[1] - mfloor)).bit_length() <= 120


def test_products_never_unpack_a_key(monkeypatch):
    # log_t at (8, 8) and St.apply over the p = 3 grid multiply packed
    # keys: no product unpacks a key into an exponent tuple, and every
    # product still goes through GradedSeries.__mul__ or add_products
    monkeypatch.setattr(op, "_CTX_CACHE", {})
    unpacked, products, inside = [], [0], [0]
    unpack = Geometry.unpack
    monkeypatch.setattr(Geometry, "unpack", lambda lay, key: (
        inside[0] and unpacked.append(key)) or unpack(lay, key))
    mul, add_products = GradedSeries.__mul__, GradedSeries.add_products

    def counting(kernel, count):
        def counted(a, b):
            products[0] += count(b)
            inside[0] += 1
            try:
                return kernel(a, b)
            finally:
                inside[0] -= 1
        return counted
    monkeypatch.setattr(GradedSeries, "__mul__", counting(mul, lambda b: 1))
    monkeypatch.setattr(GradedSeries, "add_products",
                        counting(add_products, len))
    fgl.Context(8, 8).log_t
    ctx = op.make_context(3, deg=6, bweight=6)
    for _, reps in op.rep_choices(3):
        st = op.quillen_steenrod(ctx, 3, reps)
        for _label, e, _dim in op.grid_elements(ctx):
            st.apply(e)
    assert products[0] > 100
    assert unpacked == []


def _reference_in_generator_ideal(ginv, diff, p):
    """Membership in (g) as p-integrality of diff * g^-1."""
    ratio = diff * ginv
    for exp, c in sorted(ratio.sorted_terms()):
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
                for exp, c in (f * ginv).sorted_terms() if vp(c, p) < 0}
            j = min(k for k, _m in bad)
            assert witness.startswith("t^%d * " % j)
            assert (j, witness.split(" * ")[1].split(" (")[0]) in bad
    assert failures >= 12
