"""The verifier suites: the identities St, Phi and Sq satisfy, checked by
exact equality on the grid of standard inputs.

Each suite is registered in VERIFIERS by `_suite` with the options it
reads, the primes it runs and its report labels; `cobcalc verify` reads
them from there, and `run_verifier` runs one suite by name.  Only this
module imports `actions`, so a query that runs no suite never loads it.

The suites reach the operations layer through the module attribute
(`ops.symmetric_operation`, `ops.grid_elements`, ...), never through a
name bound at import, so a wrapper installed on `operations` (as
perfbench's tracer does) sees every call a suite makes.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import actions, fgl
from . import operations as ops
from .quotient import coeffs_mod_p, formal_p, lowest_indivisible
from .series import FalsificationError, SeriesError, mod_p

VERIFIERS = {}


def _suite(name, primes=(2, 3, 5), reps="all-choices"):
    """Register the suite under name; primes is the tuple of primes it
    runs, or what its report says instead when it reads no p.

    The options a suite reads are its parameters.  The registered function
    takes p, deg, bweight and seed, fills those left None from
    operations.DEFAULTS, refuses a p not in primes, passes the suite the
    ones it reads (p as the list of primes to run) and returns the report
    {"prop", "p", "reps", "cases", "summary"}.
    """
    def register(suite):
        reads = suite.__code__.co_varnames[:suite.__code__.co_argcount]

        def report(p=None, deg=None, bweight=None, seed=None):
            label = list(primes) if isinstance(primes, tuple) else primes
            if p is not None and "p" in reads:
                if p not in primes:
                    raise SeriesError("prime %r not in verification grid %r"
                                      % (p, primes))
                label = p
            given = {"p": label if p is None else [p], "deg": deg,
                     "bweight": bweight, "seed": seed}
            cases = suite(**{k: ops.DEFAULTS[k] if given[k] is None
                             else given[k] for k in reads})
            summary = {v: sum(1 for c in cases if c["verdict"] == v)
                       for v in ("pass", "fail")}
            outside = len(cases) - summary["pass"] - summary["fail"]
            if outside:
                summary["outside"] = outside
            return {"prop": name, "p": label, "reps": reps, "cases": cases,
                    "summary": summary}
        report.__name__ = report.__qualname__ = suite.__name__
        report.__doc__ = suite.__doc__
        report.reads, report.primes = reads, primes
        VERIFIERS[name] = report
        return report
    return register


def _case(label, ok, witness=None, **extra):
    case = {"input": label, "verdict": "pass" if ok else "fail"}
    if witness is not None and not ok:
        case["witness"] = witness
    case.update(extra)
    return case


def _falsified(label, exc, **extra):
    """A failing case whose witness is the error's, or else its message."""
    return _case(label, False, witness=exc.witness or str(exc), **extra)


def _outside(label, bound):
    """A case whose input truncation cut, so it checks nothing: its verdict
    "outside" names the bound and is neither a pass nor a fail."""
    return {"input": label, "verdict": "outside", "bound": bound}


def _compare(label, got, want):
    """An exact comparison; got - want is rendered only when they differ."""
    ok = got == want
    return _case(label, ok, witness=None if ok else (got - want).render())


def _as_case(item, **tags):
    """A finished case, or (label, got, want) compared exactly; tagged."""
    case = item if isinstance(item, dict) else _compare(*item)
    case.update(tags)
    return case


def _suite_case(label, rep, counted=True):
    """A case from the report of an actions suite, with its case count."""
    case = _case(label, rep["verdict"], witness=rep.get("witness"))
    if counted:
        case["count"] = rep["cases"]
    return case


def _cases(check, primes, **tags):
    """The cases check(q) yields at each prime q, each tagged p=q and tags."""
    return [_as_case(item, p=q, **tags) for q in primes for item in check(q)]


def _once(fn):
    """fn of one argument, each result kept by argument for as long as the
    returned function lives: a check that reads Phi or St of one input
    twice builds it once, and the library keeps no result by input.  A
    hit hashes e once: a series hashes all its terms."""
    seen = {}

    def once(e):
        out = seen.get(e)
        if out is None:
            out = seen[e] = fn(e)
        return out
    return once


def _phi_of(st):
    """Phi at st, once per input (`_once`), through the module attribute."""
    return _once(lambda e: ops.symmetric_operation(st, e))


def _grid(ctx):
    """The grid inputs over ctx, built once per context."""
    return ctx.memo("grid", lambda: ops.grid_elements(ctx))


def _st_or_refusal(ctx, q, reps):
    """(St(reps), None), or (None, a failing case "St" tagged with reps)."""
    try:
        return ops.quillen_steenrod(ctx, q, reps), None
    except FalsificationError as exc:
        return None, _falsified("St", exc, reps=list(reps))


def _st_cases(check, p, deg, bweight, seed):
    """The cases of check(ctx, st, rlabel) for St at each choice of reps,
    tagged with the reps and the prime; a refused St is one failing case."""
    def at(q):
        ctx = ops.make_context(q, deg, bweight)
        for rlabel, reps in ops.rep_choices(q, seed):
            st, refused = _st_or_refusal(ctx, q, reps)
            for item in [refused] if refused else check(ctx, st, rlabel):
                yield _as_case(item, reps=list(reps))
    return _cases(at, p)


@_suite("fglaxioms", primes="n/a", reps="n/a")
def verify_fglaxioms(deg, bweight):
    """Unit, commutativity, associativity, and the low structure constants."""
    ctx = fgl.Context(deg, bweight, extra_vars=("x", "y", "w"))
    # a_coeff names the bound that a small deg or bweight misses, before
    # b2 is looked up
    a11, a21 = ctx.a_coeff(1, 1), ctx.a_coeff(2, 1)
    b1, b2 = ctx.var("b1"), ctx.var("b2")
    x, y, w = ctx.var("x"), ctx.var("y"), ctx.var("w")
    F = ctx.fgl()
    swapped = F.substitute({"x": y, "y": x}, poly_vars=("x", "y"))
    Fyw = F.substitute({"x": y, "y": w}, poly_vars=("x", "y"))
    left = F.substitute({"x": F, "y": w}, poly_vars=("x", "y"))
    right = F.substitute({"y": Fyw}, poly_vars=("y",))
    return [_compare("unit", F.kill_vars(("y",)), x),
            _compare("commutativity", swapped, F),
            _compare("a11", a11, b1.scale(2)),
            _compare("a21", a21, b2.scale(3) - (b1 * b1).scale(2)),
            _compare("associativity@%d" % deg, left, right)]


@_suite("sop")
def verify_sop(p, deg, bweight, seed):
    """Every grid input admits the exact division defining Phi."""
    def check(ctx, st, rlabel):
        for label, e, _dim in _grid(ctx):
            try:
                phi = ops.symmetric_operation(st, e)
            except FalsificationError as exc:
                yield _falsified(label, exc)
                continue
            if st.p == 2 and rlabel == "canonical" and label == "P1":
                yield label, phi, (ctx.mono({"t": -2})
                                   + ctx.mono({"t": -1, "b1": 1}, coeff=2))
            else:
                yield _case(label, True)
    return _st_cases(check, p, deg, bweight, seed)


@_suite("emb")
def verify_emb(p, deg, bweight, seed):
    """Phi vanishes on 1 and on powers of the cellular carrier."""
    def check(ctx, st, _rlabel):
        z = ctx.var("z1")
        yield "1", ops.symmetric_operation(st, ctx.one()), ctx.zero()
        for k in range(1, 5):
            yield "z^%d" % k, ops.symmetric_operation(st, z ** k), ctx.zero()
    return _st_cases(check, p, deg, bweight, seed)


def _binomial_defect(ctx, p, u, v):
    """f_p(u,v) = sum_l C(p,l)/p u^l v^{p-l}, the p-typical defect."""
    return ctx.zero().add_products(
        [((u ** l).scale(Fraction(math.comb(p, l), p)), v ** (p - l))
         for l in range(1, p)])


def _grid_pairs(ctx):
    """("a,b", u, v) for the grid inputs u, v with u at or before v."""
    grid = _grid(ctx)
    for i, (la, u, _) in enumerate(grid):
        for lb, v, _ in grid[i:]:
            yield "%s,%s" % (la, lb), u, v


@_suite("addphi")
def verify_addphi(p, deg, bweight, seed):
    """Phi(u+v) - Phi(u) - Phi(v) equals the binomial defect f_p(u,v)."""
    def check(ctx, st, _rlabel):
        phi = _phi_of(st)
        for label, u, v in _grid_pairs(ctx):
            got = phi(u + v) - phi(u) - phi(v)
            yield label, got, _binomial_defect(ctx, st.p, u, v)
    return _st_cases(check, p, deg, bweight, seed)


def _product_rule(st, phi):
    """(u, v) -> Phi(u) St(v) + St(u) Phi(v) + Phi(u) Phi(v) g, the right
    side of multphi before nonpos, with phi the Phi of st (`_phi_of`).

    It is formed as Phi(u) tail(v) + St(u) Phi(v), tail(v) = St(v) +
    Phi(v) g kept once per input (`_once`): two products per pair, not
    four.  The value is the same: (Phi(u) Phi(v)) g and Phi(u) (Phi(v) g)
    could differ only by a term an intermediate product drops at
    trunc_plus, and none reaches it.  The argument is the one of
    `OperationDescriptor._monomial_image`: St and Phi of a grid input of
    weight w have weight p * w, and g has weight 0.
    """
    g = formal_p(st.ctx, st.p).g
    st_of = _once(st.apply)
    tail = _once(lambda v: st_of(v) + phi(v) * g)
    return lambda u, v: st.ctx.zero().add_products(
        [(phi(u), tail(v)), (st_of(u), phi(v))])


@_suite("multphi", primes=(2, 3))
def verify_multphi(p, deg, bweight, seed):
    """Phi(uv) = nonpos(Phi(u) St(v) + St(u) Phi(v) + Phi(u) Phi(v) g).

    g = [p]_F(t)/t is the quotient generator: expanding St = (.)^p - g Phi - R
    shows the g-weighted cross term is what cancels the doubled g Phi Phi.
    The right side is formed in two products per pair (`_product_rule`).
    A pair whose b-weights sum past bweight is "outside": truncation would
    cut uv on formation, so it is not checked.
    """
    def check(ctx, st, _rlabel):
        phi = _phi_of(st)
        rule = _product_rule(st, phi)
        for label, u, v in _grid_pairs(ctx):
            weight = u.max_bweight() + v.max_bweight()
            if weight > bweight:
                yield _outside(label, "b-weight %d > bweight %d"
                               % (weight, bweight))
                continue
            want, _pos = rule(u, v).split_parts("t")
            yield label, phi(u * v), want
    return _st_cases(check, p, deg, bweight, seed)


@_suite("rr")
def verify_rr(p, deg, bweight, seed):
    """Projection formula for slices against che(O(1)) twists."""
    def check(ctx, st, _rlabel):
        z = ctx.var("z1")
        p1 = ops._ambient_class(ctx, 1)
        qs = [("1", ctx.one()), ("t", ctx.var("t")),
              ("t^2", ctx.mono({"t": 2})), ("P1*t", p1 * ctx.var("t"))]
        gs = [("1", ctx.one()), ("z", z), ("P1*z", p1 * z)]
        che = ops.omega_che(ctx, st.reps)
        phi = _phi_of(st)
        for ql, qser in qs:
            twisted = qser * che
            for gl, gser in gs:
                lhs = ops.slice_phi(ctx, phi(z * gser), qser)
                rhs = z * ops.slice_phi(ctx, phi(gser), twisted)
                yield "q=%s,g=%s" % (ql, gl), lhs, rhs
    return _st_cases(check, p, deg, bweight, seed)


_F1_CLASSES = (
    (2, "P1", 1, 0, 1),
    (2, "P3", 3, 0, 3),
    (3, "P2", 2, 0, 2),
    (2, "H(3,2)", 3, 2, 2),
    (3, "H(4,3)", 4, 3, 3),
)


@_suite("f1", primes=(2, 3))
def verify_f1(deg, bweight, seed):
    """deg of the t^{p dim} slice of Phi([U]) equals the Chow-side eta,
    over a fixed table of (prime, class)."""
    cases, refused = [], {}
    for q, label, n, d, dim in _F1_CLASSES:
        ctx = ops.make_context(q, deg, bweight)
        u = ops._ambient_class(ctx, n, d)
        model = fgl.ChowModel(n, d)
        for rlabel, reps in ops.rep_choices(q, seed):
            st, case = _st_or_refusal(ctx, q, reps)
            if case:  # one case per refused St, not one per class
                refused[q, reps] = _as_case(case, p=q)
                continue
            phi = ops.symmetric_operation(st, u)
            got = ops.slice_phi(ctx, phi, ctx.mono({"t": q * dim}))
            try:
                eta = model.eta(q, reps)
            except fgl.EtaDivisibilityError as exc:
                cases.append(_falsified(label, exc, p=q, reps=list(reps)))
                continue
            ok = got == ctx.const(eta)
            if q == 2 and label == "P1" and rlabel == "canonical":
                ok = ok and eta == 1
            if q == 3 and label == "P2" and rlabel == "canonical":
                ok = ok and eta == -1
            cases.append(_case(label, ok,
                               witness=None if ok else
                               "slice %s vs eta %s" % (got.render(), eta),
                               p=q, reps=list(reps)))
    return cases + list(refused.values())


@_suite("uv")
def verify_uv(p, deg, bweight, seed):
    """Slices of Phi on u*v against eta-weighted St slices of v."""
    def check(ctx, st, _rlabel):
        q, reps = st.p, st.reps
        z = ctx.var("z1")
        us = [("P1", ops._ambient_class(ctx, 1), 1),
              ("P2", ops._ambient_class(ctx, 2), 2)]
        qs = [("1", ctx.one()), ("t", ctx.var("t"))]
        i_s = math.prod(reps)
        for ulabel, u, du in us:
            eta = fgl.ChowModel(du).eta(q, reps)
            for k in (1, 2):
                v = z ** k
                phi = ops.symmetric_operation(st, u * v)
                for ql, qser in qs:
                    lhs = ops.chow_trace(ctx, ops.slice_phi(ctx, phi, qser))
                    f = qser * ctx.mono({"t": -q * du})
                    yield ("u=%s,v=z^%d,q=%s" % (ulabel, k, ql), lhs,
                           ops.st_slice(ctx, st, v, f).scale(eta))
                kexp = q * du - (q - 1) * k
                if kexp > 0:
                    lhs = ops.chow_trace(ctx, ops.slice_phi(ctx, phi,
                                                    ctx.mono({"t": kexp})))
                    yield ("special u=%s,v=z^%d" % (ulabel, k), lhs,
                           (z ** k).scale(eta * Fraction(i_s) ** k))
    return _st_cases(check, p, deg, bweight, seed)


@_suite("grad", primes=(2, 3))
def verify_grad(p, deg, bweight, seed):
    """Leading z-form of St on z^r u, and the shape of c below its unit."""
    def check(ctx, st, _rlabel):
        q = st.p
        z = ctx.var("z1")
        us = [("1", ctx.one()), ("P1", ops._ambient_class(ctx, 1)),
              ("P2", ops._ambient_class(ctx, 2))]
        tail = st.c - ctx.mono({"t": q - 1}, coeff=math.prod(st.reps))
        ti = ctx.table.index["t"]
        bslots = [ctx.table.index[nm] for nm in ctx.b_names]
        shape_ok = all(exp[ti] > q - 1 and sum(exp[i] for i in bslots) != 0
                       for exp, _c in tail.sorted_terms())
        yield _case("c-shape", shape_ok,
                    witness=None if shape_ok else tail.render())
        for ulabel, u in us:
            for r in (1, 2):
                lead = st.apply(z ** r * u).coeff_of("z1", r)
                yield "z^%d*%s" % (r, ulabel), lead, st.c ** r * st.phi_hat(u)
    return _st_cases(check, p, deg, bweight, seed)


def _in_generator_ideal(diff, p):
    """Membership in ([p]_F/t) = (p): p divides every coefficient."""
    bad = lowest_indivisible(diff, p)
    return bad is None, bad and "t^%d * %s (coefficient %s)" % bad


@_suite("diagram", primes=(2, 3))
def verify_diagram(p, deg, bweight):
    """St for different representatives agree with the Sq lift mod ([p]t)."""
    def check(q):
        ctx = ops.make_context(q, deg, bweight)
        # the canonical and the +-1 choices, which no seed changes
        pair = [_st_or_refusal(ctx, q, reps)
                for _rlabel, reps in ops.rep_choices(q)[:2]]
        refused = [case for _st, case in pair if case]
        if refused:
            yield from refused
            return
        (st1, _), (st2, _) = pair
        for label, e, _dim in _grid(ctx):
            a1 = st1.apply(e)
            ok, wit = _in_generator_ideal(a1 - st2.apply(e), q)
            yield _case("%s reps" % label, ok, witness=wit)
            try:
                sq = ops.tom_dieck_sq(ctx, q, e)
            except FalsificationError as exc:
                yield _falsified("%s sq-lift" % label, exc)
                continue
            ok, wit = _in_generator_ideal(a1 - sq, q)
            yield _case("%s sq-lift" % label, ok, witness=wit)
    return _cases(check, p)


@_suite("tomdieck", reps="canonical")
def verify_tomdieck(p, deg, bweight):
    """Sq lands in the quotient and reduces to p-th powers at t^0."""
    def check(q):
        ctx = ops.make_context(q, deg, bweight)
        for label, e, _dim in _grid(ctx):
            try:
                nf = ops.tom_dieck_sq(ctx, q, e)
            except FalsificationError as exc:
                yield _falsified(label, exc)
                continue
            ok = nf.coeff_of("t", 0) == coeffs_mod_p(e ** q, q)
            if label == "1":
                ok = ok and nf == ctx.one()
            yield _case(label, ok,
                        witness=None if ok else nf.coeff_of("t", 0).render())
    return _cases(check, p)


_IL1_CLASSES = (("P1", 1, 0), ("P2", 2, 0), ("P3", 3, 0), ("P4", 4, 0),
                ("H(3,2)", 3, 2), ("H(4,3)", 4, 3), ("H(3,3)", 3, 3))


@_suite("il1")
def verify_il1(p, seed):
    """eta mod p does not depend on the representative choice on I(p)."""
    fic = fgl.base_context(8, 6)

    def check(q):
        # the classes in I(q): q divides every coefficient
        tested = [(label, n, d) for label, n, d in _IL1_CLASSES
                  if coeffs_mod_p(ops._ambient_class(fic, n, d), q).is_zero]
        for label, n, d in tested:
            model = fgl.ChowModel(n, d)
            try:
                values = [mod_p(model.eta(q, reps), q)
                          for _rlabel, reps in ops.rep_choices(q, seed)]
            except fgl.EtaDivisibilityError as exc:
                yield _falsified(label, exc)
                continue
            ok = len(set(values)) == 1
            yield _case(label, ok, witness=None if ok else "etas %r" % values)
        yield _case("nonempty", bool(tested),
                    witness=None if tested else "no I(%d) classes" % q)
    return _cases(check, p)


_IL3_CASES = ((2, 1), (3, 1), (2, 2))


@_suite("il3", primes=(2, 3), reps="n/a")
def verify_il3():
    """chi_{b_{p-1}^d}([H_{p,p^r}])/p is a unit mod p of binomial size."""
    cases = []
    fic = fgl.base_context(8, 6)
    for q, r in _IL3_CASES:
        n = q ** r
        dexp = (q ** r - 1) // (q - 1)
        elem = fgl.hypersurface_class(fic, n, q)
        chi = elem.char_number({"b%d" % (q - 1): dexp})
        binom = math.comb((q ** (r + 1) - 1) // (q - 1), dexp) % q
        ok = chi % q == 0
        quotient = chi // q if ok else None
        sign = None
        if ok:
            m = quotient % q
            ok = m != 0
            if ok:
                if m == binom:
                    sign = 1
                elif (-quotient) % q == binom:
                    sign = -1
                else:
                    ok = False
        extra = {"p": q, "r": r, "chi": chi, "binom_mod_p": binom}
        if sign is not None:
            extra["sign"] = sign
        cases.append(_case("H(%d,%d)" % (q ** r, q), ok,
                           witness=None if ok else "chi=%r" % chi, **extra))
    return cases


@_suite("soold", primes=2, reps=[-1])
def verify_soold(deg, bweight):
    """[p]-multiplied slices of Phi against q(0) e^p minus the St residue."""
    def check(q):
        ctx = ops.make_context(q, deg, bweight)
        g = formal_p(ctx, q).g
        st, refused = _st_or_refusal(ctx, q, (-1,))
        if refused:
            yield refused
            return
        qs = [("1", ctx.one()), ("t", ctx.var("t")),
              ("t^2", ctx.mono({"t": 2})), ("1+t", ctx.one() + ctx.var("t"))]
        for label, e, _dim in _grid(ctx):
            phi = ops.symmetric_operation(st, e)
            ste = st.apply(e)
            for ql, qser in qs:
                lhs = ops.slice_phi(ctx, phi, g * qser)
                rhs = (e ** q).scale(qser.constant()) \
                    - ops.slice_phi(ctx, ste, qser)
                yield "%s,q=%s" % (label, ql), lhs, rhs
    return _cases(check, [2], reps=[-1])


@_suite("minors", primes="n/a", reps="n/a")
def verify_minors():
    """The confluent Vandermonde determinant identity and its minors."""
    return [_suite_case("determinant and minors grid", actions.minors_suite())]


@_suite("thmG")
def verify_thmg(p, deg, bweight, seed):
    """Random invariants round-trip through their decomposition in pi."""
    return _cases(lambda q: [_suite_case(
        "random invariants", actions.theorem_g_suite(
            q, deg=deg, bweight=bweight, seed=seed))], p)


@_suite("xy")
def verify_xy(p, deg, bweight):
    """The addition series G and the twisted group law are integral."""
    def check(q):
        yield _suite_case("integral coefficients",
                          actions.prop_xy_series(q, deg=deg,
                                                 bweight=bweight)[1])
        yield _suite_case("twisted law", actions.twisted_fgl_alpha(
            q, deg=deg, bweight=bweight)[1], counted=False)
    return _cases(check, p)


def run_verifier(name, p=None, deg=None, bweight=None, seed=None):
    """The report of one verifier; a parameter left None keeps its default,
    one the verifier does not read is dropped."""
    if name not in VERIFIERS:
        raise SeriesError("unknown verifier %r" % name)
    return VERIFIERS[name](p=p, deg=deg, bweight=bweight, seed=seed)
