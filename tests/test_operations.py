import gc
import weakref

import pytest

from cobcalc import fgl
from cobcalc import operations as op
from cobcalc.actions import FalsificationError
from cobcalc.quotient import FormalP, coeffs_mod_p
from cobcalc.series import SeriesError


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
    assert ln.is_stable
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
    assert not st2.is_stable


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
        F = ctx.fgl("x", "y")
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
    comp = op.compose(st, ln)
    for e in (ctx.var("z1"), op._ambient_class(ctx, 1, 0)):
        assert st.apply(ln.apply(e)) == comp.apply(e)


def test_tom_dieck_sq_p2(ctx2):
    z = ctx2.var("z1")
    nf, cert = op.tom_dieck_sq(ctx2, 2, z)
    assert cert["integral"]
    assert nf.coeff_of("t", 0) == z * z
    lo = nf.min_degree("t")
    assert lo is None or lo >= 0
    one, _ = op.tom_dieck_sq(ctx2, 2, ctx2.one())
    assert one == ctx2.one()


def test_tom_dieck_sq_tzero_is_pth_power():
    for p in (2, 3):
        ctx = op.make_context(p, deg=6, bweight=6)
        e = op._ambient_class(ctx, 1, 0) * ctx.var("z1")
        nf, _ = op.tom_dieck_sq(ctx, p, e)
        assert nf.coeff_of("t", 0) == coeffs_mod_p(e ** p, p)


def test_omega_che_line_bundle(ctx2):
    z = ctx2.var("z1")
    che = op.omega_che(ctx2, 2, (1,), roots=(z,))
    assert che == ctx2.formal_sum(z, ctx2.var("t"))
    virt = op.omega_che(ctx2, 2, (1,), roots=(z,), minus_roots=(z,))
    assert virt == ctx2.one()


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


def test_transient_context_is_freed_with_its_caches():
    ctx = fgl.Context(3, 2, extra_vars=("x",))
    st = op.quillen_steenrod(ctx, 2, (1,))
    assert op.quillen_steenrod(ctx, 2, (1,)) is st
    ref = weakref.ref(ctx)
    del ctx, st
    gc.collect()
    assert ref() is None


def test_run_verifier_dispatch():
    with pytest.raises(SeriesError):
        op.run_verifier("nope")
    rep = op.run_verifier("il3")
    assert rep["summary"]["fail"] == 0
    assert rep["prop"] == "il3"


def _assert_clean(report):
    assert report["summary"]["fail"] == 0, report


def test_verifier_fglaxioms():
    _assert_clean(op.verify_fglaxioms(deg=6, bweight=6))


def test_verifier_sop_p2():
    _assert_clean(op.verify_sop(p=2))


def test_verifier_emb_p3():
    _assert_clean(op.verify_emb(p=3))


def test_verifier_addphi_p2():
    _assert_clean(op.verify_addphi(p=2))


def test_verifier_multphi_p2():
    _assert_clean(op.verify_multphi(p=2))


def test_verifier_rr_p2():
    _assert_clean(op.verify_rr(p=2))


def test_verifier_uv_p3():
    _assert_clean(op.verify_uv(p=3))


def test_verifier_grad_p3():
    _assert_clean(op.verify_grad(p=3))


def test_verifier_diagram_p2():
    _assert_clean(op.verify_diagram(p=2))


def test_verifier_soold():
    _assert_clean(op.verify_soold())


def test_verifier_f1_and_il1():
    _assert_clean(op.verify_f1())
    _assert_clean(op.verify_il1())


def test_verifier_tomdieck_p2():
    _assert_clean(op.verify_tomdieck(p=2))
