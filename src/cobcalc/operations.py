"""Multiplicative operations on cellular models L[[z1..zl]].

An operation is a descriptor (p, representatives, gamma) acting on series as
one ring map, a single `substitute`: z_i maps to gamma(z_i) and each ambient
b_i to the coefficient of s^(i+1) in the twisted exponential gamma(B(s/c)),
c = gamma'(0).  The module builds Quillen-Steenrod St(reps), the total
Landweber-Novikov operation, the tom Dieck Sq (through the faithful Laurent
quotient), Symmetric operations Phi = divide-by-formal-p of the nonpositive
part of e^p - St(e), residue slices, Chow traces, and the verifier suites
for the identities these satisfy, each registered in VERIFIERS by `_suite`
with the options it reads, the primes it runs and its report labels, for
the CLI to read.

Caches: what depends on the context alone (classes, the grid, FormalP, the
orbit product that is St's gamma, St descriptors) is cached on the Context
through `Context.memo`; what a descriptor derives (the twisted exponential,
b-tilde, gamma on a carrier, apply and Phi by input) is cached on the
descriptor through the same `memo`, so descriptors built ad hoc take their
caches with them.  `_CTX_CACHE` keeps one Laurent context per normalized
`make_context` argument tuple for the process.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import actions, fgl
from .actions import FalsificationError
from .quotient import (PDivisibilityError, coeffs_mod_p, formal_p,
                       lowest_indivisible)
from .series import SeriesError

_CTX_CACHE = {}
# what a verifier option left None, or the seed of rep_choices, falls back to
DEFAULTS = {"deg": 6, "bweight": 6, "seed": 20260814}


def make_context(p, deg=6, bweight=6, with_primes=False, tfloor=None):
    """Laurent-t context with the carrier z1, x, and the weight-p slot s.

    x and s only ever receive cap-monotone substitutions (x -> z1, or
    x -> B(s/c) which raises s-degree per x-power), so plain degree caps on
    them are sound.  z1 is capped at deg: cellular inputs live at z-degree
    <= deg.
    """
    if tfloor is None:
        tfloor = -(2 * p * (bweight + 2) + 8)
    key = (p, deg, bweight, with_primes, tfloor)
    if key not in _CTX_CACHE:
        xcap = max(deg, bweight + 2)
        extras = (("z1", 1), ("x", 1), ("y", 1), ("s", p))
        caps = (("z1", deg), ("x", xcap), ("y", xcap), ("s", bweight + 2))
        tp = max(p * deg + bweight + p + 4, p * (bweight + 2) + 2)
        ctx = fgl.Context(deg, bweight, tfloor=tfloor, extra_vars=extras,
                          degree_caps=caps, with_primes=with_primes,
                          trunc_plus=tp)
        ctx.z_names = ("z1",)
        _CTX_CACHE[key] = ctx
    return _CTX_CACHE[key]


def _ambient_class(ctx, n, d=0):
    """The series of [P^n] (d = 0) or of a degree-d hypersurface in P^n."""
    def build():
        if d == 0:
            return fgl.pn_class(ctx, n).series
        return fgl.hypersurface_class(ctx, n, d).series
    return ctx.memo(("class", n, d), build)


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


def rep_choices(p, seed=None):
    """canonical residues, the symmetric +-1.. choice, one seeded random."""
    if seed is None:
        seed = DEFAULTS["seed"]
    canonical = tuple(range(1, p))
    if p == 2:
        pm = (-1,)
    else:
        pm = tuple(x for j in range(1, (p + 1) // 2) for x in (j, -j))[:p - 1]
    rng = random.Random(seed * 100 + p)
    randomized = tuple(j + p * rng.randint(-2, 2) for j in range(1, p))
    return [("canonical", canonical), ("pm", pm), ("random", randomized)]


class OperationDescriptor(fgl.Memo):
    """A multiplicative operation, given by its prime and gamma series.

    Everything derived from gamma is cached on the descriptor (`memo`).
    """

    def __init__(self, ctx, p, gamma, reps=None, name=""):
        super().__init__()
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

    def twisted_exponential(self):
        """gamma(B(s/c)): the exponential of the target group law in s."""
        def build():
            ctx = self.ctx
            bs = ctx.B_of(ctx.var("s") * self.c.mul_inverse())
            out = self.gamma.substitute({"x": bs}, poly_vars=("x",))
            if out.coeff_of("s", 1) != ctx.one():
                raise SeriesError("twisted exponential is not normalized")
            return out
        return self.memo("exponential", build)

    def btilde(self, i):
        """Image of the ambient generator b_i."""
        def build():
            e = self.twisted_exponential()
            return [e.coeff_of("s", k + 1) for k in range(self.ctx.bweight + 1)]
        return self.memo("btilde", build)[i]

    def _substitute(self, e, names):
        """e with each of names that occurs in it sent to its image: a
        carrier z to gamma(z), b_i to btilde_i; names[0] is Horner's outer
        variable."""
        images = {}
        for n in names:
            if e.involves(n):
                images[n] = (self.gamma_at(n) if n in self.ctx.z_names
                             else self.btilde(self.ctx.b_names.index(n) + 1))
        return e.substitute(images, poly_vars=names)

    def phi_hat(self, u):
        """Coefficient map: substitute b_i -> btilde_i, all else passive."""
        return self._substitute(u, self.ctx.b_names)

    def gamma_at(self, name):
        """gamma evaluated on a carrier variable (first Chern class rule)."""
        return self.memo(("gamma_at", name), lambda: self.gamma.substitute(
            {"x": self.ctx.var(name)}, poly_vars=("x",)))

    def apply(self, e):
        """The ring map z -> gamma(z), b_i -> btilde_i, carriers outermost
        (binding the b's first makes larger products)."""
        return self.memo(("apply", e),
                         lambda: self._substitute(
                             e, self.ctx.z_names + self.ctx.b_names))


def quillen_steenrod(ctx, p, reps):
    """St(reps): gamma = x * prod_j (x +_F [i_j]t), target Laurent in t.

    One descriptor per (ctx, p, reps), cached on ctx; gamma is the context's
    orbit product of x over reps.
    """
    reps = fgl._validate_reps(p, reps)
    return ctx.memo(("st", p, reps), lambda: OperationDescriptor(
        ctx, p, ctx.orbit_product("x", reps), reps=reps, name="st"))


def landweber_novikov(ctx):
    """The total operation: gamma = x + bp1 x^2 + bp2 x^3 + ..."""
    if not ctx.bp_names:
        raise SeriesError("landweber_novikov needs a context with primes")
    gamma = ctx.var("x")
    for i in range(1, ctx.bweight + 1):
        gamma = gamma + ctx.mono({"x": i + 1, "bp%d" % i: 1})
    return OperationDescriptor(ctx, 1, gamma, name="ln")


def tom_dieck_sq(ctx, p, e):
    """Sq(e) through the faithful Laurent quotient; certified integral.

    Applies the canonical-representative St in the Laurent ring and returns
    the normal form of a representative of its class without negative
    t-powers or p-denominators; when there is none, FalsificationError.
    """
    raw = quillen_steenrod(ctx, p, tuple(range(1, p))).apply(e)
    fp = formal_p(ctx, p)
    ok, rep, witness = fp.is_integral_mod_ideal(raw)
    if not ok:
        raise FalsificationError("tom Dieck operation not integral",
                                 witness=witness)
    return fp.normal_form(rep)


def symmetric_operation(st, e):
    """Phi(reps)(e): the exact quotient of nonpos(e^p - St(e)) by [p]_F/t."""
    def build():
        s_series = e ** st.p - st.apply(e)
        fp = formal_p(st.ctx, st.p)
        phi = fp.divide_by_formal_p(s_series)
        hi = phi.max_degree("t")
        if hi is not None and hi > 0:
            raise FalsificationError("Phi has positive t-powers")
        resid = s_series - fp.g * phi
        lo = resid.min_degree("t")
        if lo is not None and lo < 1:
            raise FalsificationError("remainder of the Phi division is not "
                                     "strictly positive in t")
        return phi
    return st.memo(("phi", e), build)


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

VERIFIERS = {}


def _suite(name, reads="p deg bweight seed", primes=(2, 3, 5),
           reps="all-choices"):
    """Register the suite under name; primes is the tuple of primes it
    runs, or what its report says instead when it reads no p.

    The registered function takes p, deg, bweight and seed, fills those
    left None from DEFAULTS, refuses a p not in primes, passes the suite
    the ones it reads (p as the list of primes to run) and returns the
    report {"prop", "p", "reps", "cases", "summary"}.
    """
    reads = tuple(reads.split())

    def register(suite):
        def report(p=None, deg=None, bweight=None, seed=None):
            label = list(primes) if isinstance(primes, tuple) else primes
            if p is not None and "p" in reads:
                if p not in primes:
                    raise SeriesError("prime %r not in verification grid %r"
                                      % (p, primes))
                label = p
            given = {"p": label if p is None else [p], "deg": deg,
                     "bweight": bweight, "seed": seed}
            cases = suite(**{k: DEFAULTS[k] if given[k] is None else given[k]
                             for k in reads})
            npass = sum(1 for c in cases if c["verdict"] == "pass")
            return {"prop": name, "p": label, "reps": reps, "cases": cases,
                    "summary": {"pass": npass, "fail": len(cases) - npass}}
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


def _st_cases(check, p, deg, bweight, seed):
    """The cases of check(ctx, st, rlabel) for St at each choice of reps,
    tagged with the reps and the prime."""
    def at(q):
        ctx = make_context(q, deg, bweight)
        for rlabel, reps in rep_choices(q, seed):
            st = quillen_steenrod(ctx, q, reps)
            for item in check(ctx, st, rlabel):
                yield _as_case(item, reps=list(reps))
    return _cases(at, p)


@_suite("fglaxioms", reads="deg bweight", primes="n/a", reps="n/a")
def verify_fglaxioms(deg, bweight):
    """Unit, commutativity, associativity, and the low structure constants."""
    ctx = fgl.Context(deg, bweight, extra_vars=("x", "y", "w"),
                      trunc_plus=deg + 1)
    # a_coeff names the bound that a small deg or bweight misses, before
    # b2 is looked up
    a11, a21 = ctx.a_coeff(1, 1), ctx.a_coeff(2, 1)
    b1, b2 = ctx.var("b1"), ctx.var("b2")
    x, y, w = ctx.var("x"), ctx.var("y"), ctx.var("w")
    F = ctx.fgl("x", "y")
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
                phi = symmetric_operation(st, e)
            except (PDivisibilityError, FalsificationError) as exc:
                yield _case(label, False, witness=str(exc))
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
        yield "1", symmetric_operation(st, ctx.one()), ctx.zero()
        for k in range(1, 5):
            yield "z^%d" % k, symmetric_operation(st, z ** k), ctx.zero()
    return _st_cases(check, p, deg, bweight, seed)


def _binomial_defect(ctx, p, u, v):
    """f_p(u,v) = sum_l C(p,l)/p u^l v^{p-l}, the p-typical defect."""
    out = ctx.zero()
    for l in range(1, p):
        out = out + (u ** l * v ** (p - l)).scale(Fraction(math.comb(p, l), p))
    return out


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
        for label, u, v in _grid_pairs(ctx):
            got = (symmetric_operation(st, u + v)
                   - symmetric_operation(st, u)
                   - symmetric_operation(st, v))
            yield label, got, _binomial_defect(ctx, st.p, u, v)
    return _st_cases(check, p, deg, bweight, seed)


@_suite("multphi", primes=(2, 3))
def verify_multphi(p, deg, bweight, seed):
    """Phi(uv) = nonpos(Phi(u) St(v) + St(u) Phi(v) + Phi(u) Phi(v) g).

    g = [p]_F(t)/t is the quotient generator: expanding St = (.)^p - g Phi - R
    shows the g-weighted cross term is what cancels the doubled g Phi Phi.
    """
    def check(ctx, st, _rlabel):
        g = formal_p(ctx, st.p).g
        for label, u, v in _grid_pairs(ctx):
            pu = symmetric_operation(st, u)
            pv = symmetric_operation(st, v)
            rhs = pu * st.apply(v) + st.apply(u) * pv + pu * pv * g
            want, _pos = rhs.split_parts("t")
            yield label, symmetric_operation(st, u * v), want
    return _st_cases(check, p, deg, bweight, seed)


@_suite("rr")
def verify_rr(p, deg, bweight, seed):
    """Projection formula for slices against che(O(1)) twists."""
    def check(ctx, st, _rlabel):
        z = ctx.var("z1")
        p1 = _ambient_class(ctx, 1)
        qs = [("1", ctx.one()), ("t", ctx.var("t")),
              ("t^2", ctx.mono({"t": 2})), ("P1*t", p1 * ctx.var("t"))]
        gs = [("1", ctx.one()), ("z", z), ("P1*z", p1 * z)]
        che = omega_che(ctx, st.p, st.reps, roots=(z,))
        for ql, qser in qs:
            for gl, gser in gs:
                lhs = slice_phi(ctx, symmetric_operation(st, z * gser), qser)
                rhs = z * slice_phi(ctx, symmetric_operation(st, gser),
                                    qser * che)
                yield "q=%s,g=%s" % (ql, gl), lhs, rhs
    return _st_cases(check, p, deg, bweight, seed)


_F1_CLASSES = (
    (2, "P1", 1, 0, 1),
    (2, "P3", 3, 0, 3),
    (3, "P2", 2, 0, 2),
    (2, "H(3,2)", 3, 2, 2),
    (3, "H(4,3)", 4, 3, 3),
)


@_suite("f1", reads="deg bweight seed", primes=(2, 3))
def verify_f1(deg, bweight, seed):
    """deg of the t^{p dim} slice of Phi([U]) equals the Chow-side eta,
    over a fixed table of (prime, class)."""
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
    return cases


@_suite("uv")
def verify_uv(p, deg, bweight, seed):
    """Slices of Phi on u*v against eta-weighted St slices of v."""
    def check(ctx, st, _rlabel):
        q, reps = st.p, st.reps
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
                    yield ("u=%s,v=z^%d,q=%s" % (ulabel, k, ql), lhs,
                           st_slice(ctx, st, v, f).scale(eta))
                kexp = q * du - (q - 1) * k
                if kexp > 0:
                    lhs = chow_trace(ctx, slice_phi(ctx, phi,
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
        us = [("1", ctx.one()), ("P1", _ambient_class(ctx, 1)),
              ("P2", _ambient_class(ctx, 2))]
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


@_suite("diagram", reads="p deg bweight", primes=(2, 3))
def verify_diagram(p, deg, bweight):
    """St for different representatives agree with the Sq lift mod ([p]t)."""
    def check(q):
        ctx = make_context(q, deg, bweight)
        # the canonical and the +-1 choices, which no seed changes
        choices = rep_choices(q)[:2]
        st1 = quillen_steenrod(ctx, q, choices[0][1])
        st2 = quillen_steenrod(ctx, q, choices[1][1])
        for label, e, _dim in _grid(ctx):
            a1 = st1.apply(e)
            ok, wit = _in_generator_ideal(a1 - st2.apply(e), q)
            yield _case("%s reps" % label, ok, witness=wit)
            ok, wit = _in_generator_ideal(a1 - tom_dieck_sq(ctx, q, e), q)
            yield _case("%s sq-lift" % label, ok, witness=wit)
    return _cases(check, p)


@_suite("tomdieck", reads="p deg bweight", reps="canonical")
def verify_tomdieck(p, deg, bweight):
    """Sq lands in the quotient and reduces to p-th powers at t^0."""
    def check(q):
        ctx = make_context(q, deg, bweight)
        for label, e, _dim in _grid(ctx):
            try:
                nf = tom_dieck_sq(ctx, q, e)
            except FalsificationError as exc:
                yield _case(label, False, witness=str(exc))
                continue
            ok = nf.coeff_of("t", 0) == coeffs_mod_p(e ** q, q)
            if label == "1":
                ok = ok and nf == ctx.one()
            yield _case(label, ok,
                        witness=None if ok else nf.coeff_of("t", 0).render())
    return _cases(check, p)


_IL1_CLASSES = (("P1", 1, 0), ("P2", 2, 0), ("P3", 3, 0), ("P4", 4, 0),
                ("H(3,2)", 3, 2), ("H(4,3)", 4, 3), ("H(3,3)", 3, 3))


@_suite("il1", reads="p seed")
def verify_il1(p, seed):
    """eta mod p does not depend on the representative choice on I(p)."""
    fic = fgl.base_context(8, 6)

    def check(q):
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
            yield _case(label, ok, witness=wit or ("etas %r" % values
                                                   if not ok else None))
        yield _case("nonempty", tested > 0,
                    witness=None if tested else "no I(%d) classes" % q)
    return _cases(check, p)


_IL3_CASES = ((2, 1), (3, 1), (2, 2))


@_suite("il3", reads="", primes=(2, 3), reps="n/a")
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


@_suite("soold", reads="deg bweight", primes=2, reps=[-1])
def verify_soold(deg, bweight):
    """[p]-multiplied slices of Phi against q(0) e^p minus the St residue."""
    def check(q):
        ctx = make_context(q, deg, bweight)
        g = formal_p(ctx, q).g
        st = quillen_steenrod(ctx, q, (-1,))
        qs = [("1", ctx.one()), ("t", ctx.var("t")),
              ("t^2", ctx.mono({"t": 2})), ("1+t", ctx.one() + ctx.var("t"))]
        for label, e, _dim in _grid(ctx):
            phi = symmetric_operation(st, e)
            ste = st.apply(e)
            for ql, qser in qs:
                lhs = slice_phi(ctx, phi, g * qser)
                rhs = (e ** q).scale(qser.constant()) \
                    - (qser * ste * ctx.omega).coeff_of("t", 0)
                yield "%s,q=%s" % (label, ql), lhs, rhs
    return _cases(check, [2], reps=[-1])


@_suite("minors", reads="", primes="n/a", reps="n/a")
def verify_minors():
    """The confluent Vandermonde determinant identity and its minors."""
    return [_suite_case("determinant and minors grid", actions.minors_suite())]


@_suite("thmG")
def verify_thmg(p, deg, bweight, seed):
    """Random invariants round-trip through their decomposition in pi."""
    return _cases(lambda q: [_suite_case(
        "random invariants", actions.theorem_g_suite(
            q, deg=deg, bweight=bweight, seed=seed))], p)


@_suite("xy", reads="p deg bweight")
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
