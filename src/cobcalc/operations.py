"""Multiplicative operations on cellular models L[[z1..zl]].

An operation is a descriptor (p, representatives, gamma) acting on series by
the multiplicative rule: z_i maps to gamma(z_i) and a coefficient u in ambient
b-coordinates maps through the twisted exponential, b_i going to the
coefficient of s^(i+1) in gamma(B(s/c)) with c = gamma'(0).  The module
builds Quillen-Steenrod St(reps), the total Landweber-Novikov operation, the
tom Dieck Sq (through the faithful Laurent quotient), Symmetric operations
Phi = divide-by-formal-p of the nonpositive part of e^p - St(e), residue
slices, Chow traces, and the verifier suite for the identities these satisfy.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import fgl
from .actions import FalsificationError
from .quotient import FormalP, PDivisibilityError, coeffs_mod_p
from .series import GradedSeries, SeriesError, vp

_CTX_CACHE = {}


def make_context(p, deg=6, bweight=6, nz=1, with_primes=False, tfloor=None):
    """Laurent-t context with carriers z1..z_nz, x, and the weight-p slot s.

    x and s only ever receive cap-monotone substitutions (x -> z_i, or
    x -> B(s/c) which raises s-degree per x-power), so plain degree caps on
    them are sound.  z's share one cap: cellular inputs live at z-degree <= deg.
    """
    if tfloor is None:
        tfloor = -(2 * p * (bweight + 2) + 8)
    key = (p, deg, bweight, nz, with_primes, tfloor)
    if key not in _CTX_CACHE:
        xcap = max(deg, bweight + 2)
        znames = tuple("z%d" % i for i in range(1, nz + 1))
        extras = [(n, 1) for n in znames] + [("x", 1), ("y", 1), ("s", p)]
        caps = [(znames, deg), ("x", xcap), ("y", xcap), ("s", bweight + 2)]
        tp = max(p * deg + bweight + p + 4, p * (bweight + 2) + 2)
        ctx = fgl.Context(deg, bweight, tfloor=tfloor,
                          extra_vars=tuple(extras), degree_caps=tuple(caps),
                          with_primes=with_primes, trunc_plus=tp)
        ctx.z_names = znames
        _CTX_CACHE[key] = ctx
    return _CTX_CACHE[key]


def _ambient_class(ctx, n, d=0):
    """The series of [P^n] (d = 0) or of a degree-d hypersurface in P^n."""
    def build():
        if d == 0:
            return fgl.pn_class(ctx, n).series
        return fgl.hypersurface_class(ctx, n, d).series
    return ctx.memo(("class", n, d), build)


def _formal_p(ctx, p):
    return ctx.memo(("formal_p", p), lambda: FormalP(ctx, p))


def grid_elements(ctx):
    """The standard verification inputs as series over ctx, with dimensions."""
    z = ctx.var("z1")
    p1 = _ambient_class(ctx, 1)
    return [("1", ctx.one(), 0), ("z", z, None), ("z^2", z * z, None),
            ("P1", p1, 1), ("P2", _ambient_class(ctx, 2), 2),
            ("P3", _ambient_class(ctx, 3), 3), ("P1*z", p1 * z, None),
            ("H(3,3)", _ambient_class(ctx, 3, 3), 2)]


def _grid(ctx):
    return ctx.memo("grid", lambda: grid_elements(ctx))


def rep_choices(p, seed=20260814):
    """canonical residues, the symmetric +-1.. choice, one seeded random."""
    canonical = tuple(range(1, p))
    if p == 2:
        pm = (-1,)
    else:
        pm = tuple(x for j in range(1, (p + 1) // 2) for x in (j, -j))[:p - 1]
    rng = random.Random(seed * 100 + p)
    randomized = tuple(j + p * rng.randint(-2, 2) for j in range(1, p))
    return [("canonical", canonical), ("pm", pm), ("random", randomized)]


class OperationDescriptor:
    """A multiplicative operation, given by its prime and gamma series."""

    def __init__(self, ctx, p, gamma, reps=None, name=""):
        if gamma.constant() != 0:
            raise SeriesError("gamma must have zero constant term")
        self.ctx = ctx
        self.p = p
        self.gamma = gamma
        self.reps = tuple(reps) if reps is not None else None
        self.name = name
        self.c = gamma.coeff_of("x", 1)
        if self.c.is_zero:
            raise SeriesError("gamma'(0) must be invertible")
        self._cinv = None
        self._exponential = None
        self._btilde = None
        self._gamma_at = {}
        self._bt_products = {}
        self._apply_memo = {}
        self._phi_memo = {}

    @property
    def is_stable(self):
        """b0 = 1: gamma = x + O(x^2)."""
        return self.c == self.ctx.one()

    @property
    def c_inverse(self):
        if self._cinv is None:
            self._cinv = self.c.mul_inverse()
        return self._cinv

    def twisted_exponential(self):
        """gamma(B(s/c)): the exponential of the target group law in s."""
        if self._exponential is None:
            ctx = self.ctx
            arg = ctx.var("s") * self.c_inverse
            bs = ctx.B_of(arg)
            self._exponential = self.gamma.substitute({"x": bs},
                                                      poly_vars=("x",))
            if self._exponential.coeff_of("s", 1) != ctx.one():
                raise SeriesError("twisted exponential is not normalized")
        return self._exponential

    def btilde(self, i):
        """Image of the ambient generator b_i."""
        if self._btilde is None:
            e = self.twisted_exponential()
            self._btilde = [e.coeff_of("s", i + 1)
                            for i in range(self.ctx.bweight + 1)]
        return self._btilde[i]

    def _bt_product(self, bexp):
        if bexp not in self._bt_products:
            ctx = self.ctx
            out = ctx.one()
            for i, e in enumerate(bexp):
                for _ in range(e):
                    out = out * self.btilde(i + 1)
            self._bt_products[bexp] = out
        return self._bt_products[bexp]

    def phi_hat(self, u):
        """Coefficient map: substitute b_i -> btilde_i, all else passive."""
        ctx = self.ctx
        table = u.table
        bslots = [table.index[n] for n in ctx.b_names]
        bset = set(bslots)
        out = ctx.zero()
        for exp, c in u.terms.items():
            bexp = tuple(exp[i] for i in bslots)
            rest = tuple(0 if i in bset else e for i, e in enumerate(exp))
            passive = GradedSeries(table, u.trunc_plus, u.trunc_minus,
                                   {rest: c}, validate=False)
            out = out + passive * self._bt_product(bexp)
        return out

    def gamma_at(self, name):
        """gamma evaluated on a carrier variable (first Chern class rule)."""
        if name not in self._gamma_at:
            self._gamma_at[name] = self.gamma.substitute(
                {"x": self.ctx.var(name)}, poly_vars=("x",))
        return self._gamma_at[name]

    def apply(self, e):
        """Multiplicative extension: sum phi_hat(u_a) prod gamma(z_i)^a_i."""
        key = frozenset(e.terms.items())
        if key in self._apply_memo:
            return self._apply_memo[key]
        ctx = self.ctx
        zslots = [ctx.table.index[n] for n in ctx.z_names]
        zset = set(zslots)
        groups = {}
        for exp, c in e.terms.items():
            zexp = tuple(exp[i] for i in zslots)
            rest = tuple(0 if i in zset else v for i, v in enumerate(exp))
            groups.setdefault(zexp, {})[rest] = c
        out = ctx.zero()
        for zexp, terms in groups.items():
            u = GradedSeries(ctx.table, e.trunc_plus, e.trunc_minus, terms,
                             validate=False)
            part = self.phi_hat(u)
            for slot, k in zip(ctx.z_names, zexp):
                if k:
                    part = part * self.gamma_at(slot) ** k
            out = out + part
        self._apply_memo[key] = out
        return out


def quillen_steenrod(ctx, p, reps):
    """St(reps): gamma = x * prod_j (x +_F [i_j]t), target Laurent in t.

    One descriptor per (ctx, p, reps), cached on ctx with its apply memo.
    """
    reps = fgl._validate_reps(p, reps)

    def build():
        gamma = ctx.var("x")
        for i in reps:
            gamma = gamma * ctx.formal_sum(ctx.var("x"), ctx.nseries(i))
        return OperationDescriptor(ctx, p, gamma, reps=reps, name="st")
    return ctx.memo(("st", p, reps), build)


def landweber_novikov(ctx):
    """The total operation: gamma = x + bp1 x^2 + bp2 x^3 + ..."""
    if not ctx.bp_names:
        raise SeriesError("landweber_novikov needs a context with primes")
    gamma = ctx.var("x")
    for i in range(1, ctx.bweight + 1):
        gamma = gamma + ctx.mono({"x": i + 1, "bp%d" % i: 1})
    return OperationDescriptor(ctx, 1, gamma, name="ln")


def compose(outer, inner):
    """Descriptor of outer after inner: gamma = phi_outer(gamma_in)(gamma_out)."""
    mapped = outer.phi_hat(inner.gamma)
    gamma = mapped.substitute({"x": outer.gamma}, poly_vars=("x",))
    return OperationDescriptor(outer.ctx, outer.p, gamma,
                               reps=outer.reps,
                               name="%s.%s" % (outer.name, inner.name))


def tom_dieck_sq(ctx, p, e):
    """Sq(e) through the faithful Laurent quotient; certified integral.

    Applies the canonical-representative St in the Laurent ring, checks the
    class has a representative without negative t-powers or p-denominators,
    and returns (normal form, certificate).  An integrality failure raises
    FalsificationError.
    """
    st = quillen_steenrod(ctx, p, tuple(range(1, p)))
    return _sq_from_st(ctx, p, st, e)


def _sq_from_st(ctx, p, st, e):
    raw = st.apply(e)
    fp = _formal_p(ctx, p)
    ok, rep, witness = fp.is_integral_mod_ideal(raw)
    if not ok:
        raise FalsificationError("tom Dieck operation not integral",
                                 witness=witness)
    nf = fp.normal_form(rep)
    certificate = {"integral": True, "witness": None}
    return nf, certificate


def symmetric_operation(st, e):
    """Phi(reps)(e): the exact quotient of nonpos(e^p - St(e)) by [p]_F/t."""
    key = frozenset(e.terms.items())
    memo = st._phi_memo
    if key in memo:
        return memo[key]
    ctx = st.ctx
    p = st.p
    s_series = e ** p - st.apply(e)
    fp = _formal_p(ctx, p)
    phi = fp.divide_by_formal_p(s_series)
    hi = phi.max_degree("t")
    if hi is not None and hi > 0:
        raise FalsificationError("Phi has positive t-powers")
    resid = s_series - fp.g * phi
    lo = resid.min_degree("t")
    if lo is not None and lo < 1:
        raise FalsificationError("remainder of the Phi division is not "
                                 "strictly positive in t")
    memo[key] = phi
    return phi


def slice_phi(ctx, phi, q):
    """Residue slice: the t^0 component of q * phi * omega."""
    return (q * phi * ctx.omega).coeff_of("t", 0)


def chow_trace(ctx, series):
    """Classifying map to the additive law: every ambient b_i -> 0."""
    return series.kill_vars(ctx.b_names)


def st_slice(ctx, st, e, f):
    """st(reps)^f(e): Chow trace of the t^0 part of f * St(e) * omega."""
    return chow_trace(ctx, (f * st.apply(e) * ctx.omega).coeff_of("t", 0))


def omega_che(ctx, p, reps, roots=(), minus_roots=()):
    """che class prod_j c(N)([i_j]t) from the bundle's weight-1 roots."""
    out = ctx.one()
    for i in reps:
        it = ctx.nseries(i)
        for lam in roots:
            out = out * ctx.formal_sum(it, lam)
        for lam in minus_roots:
            out = out * ctx.formal_sum(it, lam).mul_inverse()
    return out


# ----- verifier suite --------------------------------------------------------

GRID_PRIMES = (2, 3, 5)


def _case(label, ok, witness=None, **extra):
    case = {"input": label, "verdict": "pass" if ok else "fail"}
    if witness is not None and not ok:
        case["witness"] = witness
    case.update(extra)
    return case


def _report(prop, cases, p=None, reps=None):
    npass = sum(1 for c in cases if c["verdict"] == "pass")
    return {"prop": prop,
            "p": p if p is not None else list(GRID_PRIMES),
            "reps": reps if reps is not None else "all-choices",
            "cases": cases,
            "summary": {"pass": npass, "fail": len(cases) - npass}}


def _primes(p, allowed=GRID_PRIMES):
    if p is None:
        return list(allowed)
    if p not in allowed:
        raise SeriesError("prime %r not in verification grid %r" % (p, allowed))
    return [p]


def _steenrod_grid(p, deg, bweight, seed, allowed=GRID_PRIMES):
    """(q, ctx, rlabel, reps, St(reps)) per prime, then per rep choice."""
    for q in _primes(p, allowed):
        ctx = make_context(q, deg, bweight)
        for rlabel, reps in rep_choices(q, seed):
            yield q, ctx, rlabel, reps, quillen_steenrod(ctx, q, reps)


def verify_fglaxioms(deg=8, bweight=8):
    """Unit, commutativity, associativity, and the low structure constants."""
    ctx = fgl.Context(deg, bweight, extra_vars=("x", "y", "w"),
                      trunc_plus=deg + 1)
    F = ctx.fgl("x", "y")
    cases = []
    cases.append(_case("unit", F.kill_vars(("y",)) == ctx.var("x")))
    swapped = F.substitute({"x": ctx.var("y"), "y": ctx.var("x")},
                           poly_vars=("x", "y"))
    cases.append(_case("commutativity", swapped == F))
    b1, b2 = ctx.var("b1"), ctx.var("b2")
    cases.append(_case("a11", ctx.a_coeff(1, 1) == b1.scale(2)))
    cases.append(_case("a21", ctx.a_coeff(2, 1) == b2.scale(3) - (b1 * b1).scale(2)))
    Fyw = F.substitute({"x": ctx.var("y"), "y": ctx.var("w")},
                       poly_vars=("x", "y"))
    left = F.substitute({"x": F, "y": ctx.var("w")}, poly_vars=("x", "y"))
    right = F.substitute({"y": Fyw}, poly_vars=("y",))
    diff = left - right
    cases.append(_case("associativity@%d" % deg, diff.is_zero,
                       witness=None if diff.is_zero else diff.render()))
    return _report("fglaxioms", cases, p="n/a", reps="n/a")


def verify_sop(p=None, deg=6, bweight=6, seed=20260814):
    """Every grid input admits the exact division defining Phi."""
    cases = []
    for q, ctx, rlabel, reps, st in _steenrod_grid(p, deg, bweight, seed):
        for label, e, _dim in _grid(ctx):
            try:
                phi = symmetric_operation(st, e)
            except (PDivisibilityError, FalsificationError) as exc:
                cases.append(_case(label, False, witness=str(exc),
                                   p=q, reps=list(reps)))
                continue
            ok = True
            wit = None
            if q == 2 and rlabel == "canonical" and label == "P1":
                want = ctx.mono({"t": -2}) + ctx.mono({"t": -1, "b1": 1},
                                                      coeff=2)
                ok = phi == want
                wit = None if ok else phi.render()
            cases.append(_case(label, ok, witness=wit,
                               p=q, reps=list(reps)))
    return _report("sop", cases, p=p)


def verify_emb(p=None, deg=6, bweight=6, seed=20260814):
    """Phi vanishes on 1 and on powers of the cellular carrier."""
    cases = []
    for q, ctx, _rlabel, reps, st in _steenrod_grid(p, deg, bweight, seed):
        z = ctx.var("z1")
        inputs = [("1", ctx.one())] + [("z^%d" % k, z ** k)
                                       for k in range(1, 5)]
        for label, e in inputs:
            phi = symmetric_operation(st, e)
            cases.append(_case(label, phi.is_zero,
                               witness=None if phi.is_zero else phi.render(),
                               p=q, reps=list(reps)))
    return _report("emb", cases, p=p)


def _binomial_defect(ctx, p, u, v):
    """f_p(u,v) = sum_l C(p,l)/p u^l v^{p-l}, the p-typical defect."""
    out = ctx.zero()
    for l in range(1, p):
        out = out + (u ** l * v ** (p - l)).scale(Fraction(math.comb(p, l), p))
    return out


def verify_addphi(p=None, deg=6, bweight=6, seed=20260814):
    """Phi(u+v) - Phi(u) - Phi(v) equals the binomial defect f_p(u,v)."""
    cases = []
    for q, ctx, _rlabel, reps, st in _steenrod_grid(p, deg, bweight, seed):
        grid = _grid(ctx)
        for i in range(len(grid)):
            for j in range(i, len(grid)):
                la, u, _ = grid[i]
                lb, v, _ = grid[j]
                got = (symmetric_operation(st, u + v)
                       - symmetric_operation(st, u)
                       - symmetric_operation(st, v))
                want = _binomial_defect(ctx, q, u, v)
                ok = got == want
                cases.append(_case("%s,%s" % (la, lb), ok,
                                   witness=None if ok else (got - want).render(),
                                   p=q, reps=list(reps)))
    return _report("addphi", cases, p=p)


def verify_multphi(p=None, deg=6, bweight=6, seed=20260814):
    """Phi(uv) = nonpos(Phi(u) St(v) + St(u) Phi(v) + Phi(u) Phi(v) g).

    g = [p]_F(t)/t is the quotient generator: expanding St = (.)^p - g Phi - R
    shows the g-weighted cross term is what cancels the doubled g Phi Phi.
    """
    cases = []
    for q, ctx, _rlabel, reps, st in _steenrod_grid(p, deg, bweight, seed,
                                                    allowed=(2, 3)):
        grid = _grid(ctx)
        pmult = _formal_p(ctx, q).g
        for i in range(len(grid)):
            for j in range(i, len(grid)):
                la, u, _ = grid[i]
                lb, v, _ = grid[j]
                pu = symmetric_operation(st, u)
                pv = symmetric_operation(st, v)
                rhs = pu * st.apply(v) + st.apply(u) * pv + pu * pv * pmult
                want, _pos = rhs.split_parts("t")
                got = symmetric_operation(st, u * v)
                ok = got == want
                cases.append(_case("%s,%s" % (la, lb), ok,
                                   witness=None if ok else (got - want).render(),
                                   p=q, reps=list(reps)))
    return _report("multphi", cases, p=p if p is not None else [2, 3])


def verify_rr(p=None, deg=6, bweight=6, seed=20260814):
    """Projection formula for slices against che(O(1)) twists."""
    cases = []
    for q, ctx, _rlabel, reps, st in _steenrod_grid(p, deg, bweight, seed):
        z = ctx.var("z1")
        p1 = _ambient_class(ctx, 1)
        qs = [("1", ctx.one()), ("t", ctx.var("t")),
              ("t^2", ctx.mono({"t": 2})), ("P1*t", p1 * ctx.var("t"))]
        gs = [("1", ctx.one()), ("z", z), ("P1*z", p1 * z)]
        che = omega_che(ctx, q, reps, roots=(z,))
        for ql, qser in qs:
            for gl, gser in gs:
                lhs = slice_phi(ctx, symmetric_operation(st, z * gser), qser)
                rhs = z * slice_phi(ctx, symmetric_operation(st, gser),
                                    qser * che)
                ok = lhs == rhs
                cases.append(_case("q=%s,g=%s" % (ql, gl), ok,
                                   witness=None if ok else (lhs - rhs).render(),
                                   p=q, reps=list(reps)))
    return _report("rr", cases, p=p)


_F1_CLASSES = (
    (2, "P1", 1, 0, 1),
    (2, "P3", 3, 0, 3),
    (3, "P2", 2, 0, 2),
    (2, "H(3,2)", 3, 2, 2),
    (3, "H(4,3)", 4, 3, 3),
)


def verify_f1(deg=6, bweight=6, seed=20260814):
    """deg of the t^{p dim} slice of Phi([U]) equals the Chow-side eta."""
    cases = []
    for q, label, n, d, dim in _F1_CLASSES:
        ctx = make_context(q, deg, bweight)
        u = _ambient_class(ctx, n, d)
        model = fgl.ChowModel(n, d)
        for rlabel, reps in rep_choices(q, seed):
            st = quillen_steenrod(ctx, q, reps)
            phi = symmetric_operation(st, u)
            got = slice_phi(ctx, phi, ctx.mono({"t": q * dim}))
            try:
                eta = model.eta(q, reps)
            except fgl.EtaDivisibilityError as exc:
                cases.append(_case(label, False, witness=str(exc),
                                   p=q, reps=list(reps)))
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
    return _report("f1", cases, p=[2, 3])


def verify_uv(p=None, deg=6, bweight=6, seed=20260814):
    """Slices of Phi on u*v against eta-weighted St slices of v."""
    cases = []
    for q, ctx, _rlabel, reps, st in _steenrod_grid(p, deg, bweight, seed):
        z = ctx.var("z1")
        us = [("P1", _ambient_class(ctx, 1), 1),
              ("P2", _ambient_class(ctx, 2), 2)]
        qs = [("1", ctx.one()), ("t", ctx.var("t"))]
        i_s = math.prod(reps)
        for ulabel, u, du in us:
            eta = fgl.ChowModel(du).eta(q, reps)
            for k in (1, 2):
                v = z ** k
                phi = symmetric_operation(st, u * v)
                for ql, qser in qs:
                    lhs = chow_trace(ctx, slice_phi(ctx, phi, qser))
                    f = qser * ctx.mono({"t": -q * du})
                    rhs = st_slice(ctx, st, v, f).scale(eta)
                    ok = lhs == rhs
                    cases.append(_case(
                        "u=%s,v=z^%d,q=%s" % (ulabel, k, ql), ok,
                        witness=None if ok else (lhs - rhs).render(),
                        p=q, reps=list(reps)))
                kexp = q * du - (q - 1) * k
                if kexp > 0:
                    lhs = chow_trace(ctx, slice_phi(ctx, phi,
                                                    ctx.mono({"t": kexp})))
                    rhs = (z ** k).scale(eta * Fraction(i_s) ** k)
                    ok = lhs == rhs
                    cases.append(_case(
                        "special u=%s,v=z^%d" % (ulabel, k), ok,
                        witness=None if ok else (lhs - rhs).render(),
                        p=q, reps=list(reps)))
    return _report("uv", cases, p=p)


def verify_grad(p=None, deg=6, bweight=6, seed=20260814):
    """Leading z-form of St on z^r u, and the shape of c below its unit."""
    cases = []
    for q, ctx, _rlabel, reps, st in _steenrod_grid(p, deg, bweight, seed,
                                                    allowed=(2, 3)):
        z = ctx.var("z1")
        us = [("1", ctx.one()), ("P1", _ambient_class(ctx, 1)),
              ("P2", _ambient_class(ctx, 2))]
        i_s = math.prod(reps)
        tail = st.c - ctx.mono({"t": q - 1}, coeff=i_s)
        shape_ok = True
        for exp, c in tail.terms.items():
            texp = exp[ctx.table.index["t"]]
            bsum = sum(exp[ctx.table.index[nm]] for nm in ctx.b_names)
            if texp <= q - 1 or bsum == 0:
                shape_ok = False
        cases.append(_case("c-shape", shape_ok,
                           witness=None if shape_ok else tail.render(),
                           p=q, reps=list(reps)))
        for ulabel, u in us:
            for r in (1, 2):
                lead = st.apply(z ** r * u).coeff_of("z1", r)
                want = st.c ** r * st.phi_hat(u)
                ok = lead == want
                cases.append(_case("z^%d*%s" % (r, ulabel), ok,
                                   witness=None if ok else
                                   (lead - want).render(),
                                   p=q, reps=list(reps)))
    return _report("grad", cases, p=p)


def _in_generator_ideal(fp, ginv, diff, p):
    """Membership in ([p]_F/t) over the Laurent ring: p-integrality after g."""
    if diff.is_zero:
        return True, None
    ratio = diff * ginv
    for exp, c in sorted(ratio.terms.items()):
        if vp(c, p) < 0:
            return False, "exponent %r carries %s after dividing by g" % (exp, c)
    return True, None


def verify_diagram(p=None, deg=6, bweight=6, seed=20260814):
    """St for different representatives agree with the Sq lift mod ([p]t)."""
    cases = []
    for q in _primes(p, allowed=(2, 3)):
        ctx = make_context(q, deg, bweight)
        fp = _formal_p(ctx, q)
        ginv = fp.g.mul_inverse()
        choices = rep_choices(q, seed)[:2]
        st1 = quillen_steenrod(ctx, q, choices[0][1])
        st2 = quillen_steenrod(ctx, q, choices[1][1])
        for label, e, _dim in _grid(ctx):
            a1 = st1.apply(e)
            a2 = st2.apply(e)
            ok, wit = _in_generator_ideal(fp, ginv, a1 - a2, q)
            cases.append(_case("%s reps" % label, ok, witness=wit, p=q))
            nf, cert = _sq_from_st(ctx, q, st1, e)
            ok, wit = _in_generator_ideal(fp, ginv, a1 - nf, q)
            cases.append(_case("%s sq-lift" % label, ok, witness=wit, p=q))
    return _report("diagram", cases, p=p if p else [2, 3])


def verify_tomdieck(p=None, deg=6, bweight=6):
    """Sq lands in the quotient and reduces to p-th powers at t^0."""
    cases = []
    for q in _primes(p):
        ctx = make_context(q, deg, bweight)
        for label, e, _dim in _grid(ctx):
            try:
                nf, cert = tom_dieck_sq(ctx, q, e)
            except FalsificationError as exc:
                cases.append(_case(label, False, witness=str(exc), p=q))
                continue
            want = coeffs_mod_p(e ** q, q)
            ok = cert["integral"] and nf.coeff_of("t", 0) == want
            if label == "1":
                ok = ok and nf == ctx.one()
            cases.append(_case(label, ok,
                               witness=None if ok else nf.coeff_of("t", 0).render(),
                               p=q))
    return _report("tomdieck", cases, p=p, reps="canonical")


_IL1_CLASSES = (("P1", 1, 0), ("P2", 2, 0), ("P3", 3, 0), ("P4", 4, 0),
                ("H(3,2)", 3, 2), ("H(4,3)", 4, 3), ("H(3,3)", 3, 3))


def verify_il1(p=None, seed=20260814):
    """eta mod p does not depend on the representative choice on I(p)."""
    cases = []
    fic = fgl.base_context(8, 6)
    for q in _primes(p):
        tested = 0
        for label, n, d in _IL1_CLASSES:
            if d == 0:
                elem = fgl.pn_class(fic, n)
            else:
                elem = fgl.hypersurface_class(fic, n, d)
            if not elem.in_Ip(q):
                continue
            tested += 1
            model = fgl.ChowModel(n, d)
            values = []
            wit = None
            try:
                for rlabel, reps in rep_choices(q, seed):
                    values.append(fgl.mod_p(model.eta(q, reps), q))
            except fgl.EtaDivisibilityError as exc:
                wit = str(exc)
            ok = wit is None and len(set(values)) == 1
            cases.append(_case(label, ok,
                               witness=wit or ("etas %r" % values if not ok
                                               else None), p=q))
        cases.append(_case("nonempty", tested > 0, p=q,
                           witness=None if tested else "no I(%d) classes" % q))
    return _report("il1", cases, p=p)


_IL3_CASES = ((2, 1), (3, 1), (2, 2))


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
    return _report("il3", cases, p=[2, 3], reps="n/a")


def verify_soold(deg=6, bweight=6, seed=20260814):
    """[p]-multiplied slices of Phi against q(0) e^p minus the St residue."""
    q = 2
    ctx = make_context(q, deg, bweight)
    fp = _formal_p(ctx, q)
    st = quillen_steenrod(ctx, q, (-1,))
    qs = [("1", ctx.one()), ("t", ctx.var("t")), ("t^2", ctx.mono({"t": 2})),
          ("1+t", ctx.one() + ctx.var("t"))]
    cases = []
    for label, e, _dim in _grid(ctx):
        phi = symmetric_operation(st, e)
        ste = st.apply(e)
        for ql, qser in qs:
            lhs = slice_phi(ctx, phi, fp.g * qser)
            rhs = (e ** q).scale(qser.constant()) \
                - (qser * ste * ctx.omega).coeff_of("t", 0)
            ok = lhs == rhs
            cases.append(_case("%s,q=%s" % (label, ql), ok,
                               witness=None if ok else (lhs - rhs).render(),
                               p=q, reps=[-1]))
    return _report("soold", cases, p=q, reps=[-1])


# ----- dispatch ---------------------------------------------------------------

def verify_minors(deg=None, bweight=None, seed=None, p=None):
    from . import actions
    rep = actions.minors_suite()
    case = _case("determinant and minors grid", rep["verdict"],
                 witness=rep.get("witness"))
    case["count"] = rep["cases"]
    return _report("minors", [case], p="n/a", reps="n/a")


def verify_thmg(p=None, deg=6, bweight=6, seed=20260814):
    from . import actions
    cases = []
    for q in _primes(p):
        rep = actions.theorem_g_suite(q, deg=deg, bweight=bweight, seed=seed)
        case = _case("random invariants", rep["verdict"],
                     witness=rep.get("witness"), p=q)
        case["count"] = rep["cases"]
        cases.append(case)
    return _report("thmG", cases, p=p)


def verify_xy(p=None, deg=6, bweight=6, seed=20260814):
    from . import actions
    cases = []
    for q in _primes(p):
        _, rep = actions.prop_xy_series(q, deg=deg, bweight=bweight)
        case = _case("integral coefficients", rep["verdict"],
                     witness=rep.get("witness"), p=q)
        case["count"] = rep["cases"]
        cases.append(case)
        _, trep = actions.twisted_fgl_alpha(q, deg=deg, bweight=bweight)
        cases.append(_case("twisted law", trep["verdict"],
                           witness=trep.get("witness"), p=q))
    return _report("xy", cases, p=p)


VERIFIERS = {
    "fglaxioms": verify_fglaxioms,
    "minors": verify_minors,
    "thmG": verify_thmg,
    "xy": verify_xy,
    "tomdieck": verify_tomdieck,
    "sop": verify_sop,
    "emb": verify_emb,
    "addphi": verify_addphi,
    "multphi": verify_multphi,
    "grad": verify_grad,
    "uv": verify_uv,
    "rr": verify_rr,
    "f1": verify_f1,
    "il1": verify_il1,
    "il3": verify_il3,
    "diagram": verify_diagram,
    "soold": verify_soold,
}


def run_verifier(name, **params):
    if name not in VERIFIERS:
        raise SeriesError("unknown verifier %r" % name)
    import inspect
    fn = VERIFIERS[name]
    accepted = set(inspect.signature(fn).parameters)
    return fn(**{k: v for k, v in params.items()
                 if k in accepted and v is not None})
