"""Multiplicative operations on cellular models L[[z1..zl]].

An operation is a descriptor (p, representatives, gamma) acting on series as
one ring map, a single `substitute`: z_i maps to gamma(z_i) and each ambient
b_i to the coefficient of s^(i+1) in the twisted exponential gamma(B(s/c)),
c = gamma'(0).  The module builds Quillen-Steenrod St(reps), the total
Landweber-Novikov operation, the tom Dieck Sq (through the faithful Laurent
quotient), Symmetric operations Phi = divide-by-formal-p of the nonpositive
part of e^p - St(e), residue slices and Chow traces.  The verifier suites
for the identities these satisfy live in `verify`; `VERIFIERS` and
`run_verifier` stay importable from here for one release, through the
module `__getattr__`, which imports `verify` on first use.

Caches: what depends on the context alone (classes, the grid, FormalP, the
orbit product that is St's gamma, St descriptors) is cached on the Context
through `Context.memo`; what a descriptor derives (the twisted exponential,
b-tilde, gamma on a carrier, apply and Phi by input) is cached on the
descriptor through the same `memo`, so descriptors built ad hoc take their
caches with them.  `_CTX_CACHE` keeps one Laurent context per normalized
`make_context` argument tuple for the process.
"""

from __future__ import annotations

import random

from . import fgl
from .quotient import formal_p
from .series import FalsificationError, SeriesError

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


def __getattr__(name):
    """VERIFIERS and run_verifier, from `verify`, where the suites live."""
    if name in ("VERIFIERS", "run_verifier"):
        from . import verify
        return getattr(verify, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
