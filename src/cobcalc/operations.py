"""Multiplicative operations on cellular models L[[z1..zl]].

An operation is a descriptor (p, representatives, gamma) acting on series as
one ring map: z_i maps to gamma(z_i) and each ambient b_i to the coefficient
of s^(i+1) in the twisted exponential gamma(B(s/c)), c = gamma'(0).  The map
is linear, so a series goes to the sum of its coefficients times the images
of its monomials.  The module builds Quillen-Steenrod St(reps), the total
Landweber-Novikov operation, the tom Dieck Sq (through the faithful Laurent
quotient), Symmetric operations Phi = divide-by-formal-p of the nonpositive
part of e^p - St(e) (the division is linear, so St's part of it is summed
from per-monomial quotients), residue slices and Chow traces.  A residue
slice is one t-degree of a product, read with `GradedSeries.product_coeff`
from the t-slices of the factors whose degrees sum to it.  The verifier suites
for the identities these satisfy live in `verify`; the module `__getattr__`
forwards `VERIFIERS` and `run_verifier` from there only for `perfbench`.

Caches: what depends on the context alone (classes, the grid, shift
images, FormalP, St descriptors, whose gamma is the orbit product) is cached
on the Context through `Context.memo`; what a descriptor derives (b-tilde,
gamma on a carrier, the image of each monomial in z and b alone, which
`apply` and `phi_hat` share, and the certified quotient D(St m) of each
monomial that Phi reads) is cached on the descriptor through the same
`memo`, so descriptors built ad hoc take their caches with them.  Such a
monomial's image is built from the image of the monomial with one b_i
fewer, or, with no b left, one z fewer: each new image multiplies by a
small btilde_i, and the powers of gamma(z) are shared by every z^a * B.
The map fixes t, so a passive factor such as t^k multiplies the image
last (`_images`).
Neither `apply` nor `symmetric_operation` keeps a result by input: an
input whose monomials are all cached costs St only scalings and sums,
and Phi those plus the lift of e^p (none for a t-free e) and its
p-divisibility check.  A verifier that reads Phi or St of one input
twice keeps them for its own check.  The twisted exponential is not
cached: only b-tilde reads it, once.  `_CTX_CACHE` keeps one Laurent
context per normalized `make_context` argument tuple for the process.
"""

from __future__ import annotations

from operator import mul
import random

from . import fgl
from .quotient import formal_p
from .series import FalsificationError, GradedSeries, SeriesError

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

    def __init__(self, ctx, p, gamma, reps=None):
        super().__init__()
        if gamma.constant() != 0:
            raise SeriesError("gamma must have zero constant term")
        self.ctx = ctx
        self.p = p
        self.gamma = gamma
        self.reps = tuple(reps) if reps is not None else None
        self.c = gamma.coeff_of("x", 1)
        if self.c.is_zero:
            raise SeriesError("gamma'(0) must be invertible")
        # the variables `apply` maps, in the order `_monomial_image` strips
        # them from a monomial: b first, so a new image
        # multiplies by one btilde_i (at most 30 terms at p = 2, 3 and the
        # default bounds) rather than by gamma(z) (110-167 terms), and the
        # images of the z-powers are shared by every z^a * B
        self.image_names = ctx.b_names + ctx.z_names

    def twisted_exponential(self):
        """gamma(B(s/c)): the exponential of the target group law in s."""
        ctx = self.ctx
        bs = ctx.B_of(ctx.var("s") * self.c.mul_inverse())
        out = self.gamma.substitute({"x": bs}, poly_vars=("x",))
        # witness: the s^1 coefficient minus the 1 it must be
        excess = out.coeff_of("s", 1) - ctx.one()
        if not excess.is_zero:
            raise FalsificationError("twisted exponential is not normalized",
                                     witness=excess.render())
        return out

    def btilde(self, i):
        """Image of the ambient generator b_i."""
        def build():
            e = self.twisted_exponential()
            return [e.coeff_of("s", k + 1) for k in range(self.ctx.bweight + 1)]
        return self.memo("btilde", build)[i]

    def _images(self, names):
        """m -> its image under the ring map that sends each of names to its
        image (a carrier z to gamma(z), b_i to btilde_i) and fixes every
        other variable.

        The map fixes the passive rest r of m (a power of t, say), so
        image(m) is the image of m / r, read from the one chain cache
        (`_monomial_image`), times r: one key shift, skipped when r is 1.
        That shift is the whole truncated product, so no term of the image
        is lost to an intermediate cut.  A truncated product keeps each
        term by its key alone, so it is bilinear, and the sum of c *
        image(m) over the terms c * m of an input (`_linear`) is the image
        of the input.  A monomial in b alone has one image under `apply`
        and `phi_hat`, so the two share the cache.
        """
        ctx = self.ctx
        mapped = {ctx.table.index[n] for n in names}

        def image(exp):
            head = tuple(k if i in mapped else 0 for i, k in enumerate(exp))
            img = self._monomial_image(head)
            if head == exp:
                return img
            rest = tuple(0 if i in mapped else k for i, k in enumerate(exp))
            return img * GradedSeries(ctx.table, ctx.trunc_plus,
                                      ctx.trunc_minus, {rest: 1})
        return image

    def _monomial_image(self, exp):
        """image(m) = image(m / v) * image(v), m a monomial in z and b
        alone and v the first of `image_names` that divides it; the image
        of 1 is 1.  Each image is cached on the descriptor.

        The image of z^a * B is gamma(z)^a times one btilde_i after
        another.  Truncated products are bilinear, and they fail to
        associate only where an intermediate product drops a term at
        trunc_plus (the degree caps and the b-weight cut are ideals).  No
        term here reaches it: every factor is homogeneous, gamma(z) of
        weight p and btilde_i of weight -p*i, so the image of a monomial
        m' of weight w has weight p * w
        (`test_st_and_phi_multiply_the_weight_by_p`), and a term of
        b-weight <= bweight has positive degree <= p * deg + bweight,
        below the trunc_plus of `make_context`.  So the chain gives the
        exactly truncated image, in any order.
        """
        images = self.memo("monomials", dict)
        img = images.get(exp)
        if img is not None:
            return img
        ctx = self.ctx
        for n in self.image_names:
            i = ctx.table.index[n]
            if exp[i] > 0:
                rest = exp[:i] + (exp[i] - 1,) + exp[i + 1:]
                img = self._monomial_image(rest) * (
                    self.gamma_at(n) if n in ctx.z_names
                    else self.btilde(ctx.b_names.index(n) + 1))
                break
        else:
            img = GradedSeries(ctx.table, ctx.trunc_plus, ctx.trunc_minus,
                               {exp: 1})
        images[exp] = img
        return img

    def phi_hat(self, u):
        """Coefficient map: substitute b_i -> btilde_i, all else passive."""
        return _linear(u, self._images(self.ctx.b_names))

    def gamma_at(self, name):
        """gamma evaluated on a carrier variable (first Chern class rule)."""
        return self.memo(("gamma_at", name), lambda: self.gamma.substitute(
            {"x": self.ctx.var(name)}, poly_vars=("x",)))

    def apply(self, e):
        """The ring map z -> gamma(z), b_i -> btilde_i, as a linear
        combination of the cached images of e's monomials."""
        return _linear(e, self._images(self.image_names))

    def lifted_image(self, e):
        """D(apply(e)), D the lift of `FormalP.lift` at p: the sum of
        c * N(m) over the terms c * m of e, N(m) = D(apply(m)).

        D is linear, so this is exact.  Each N(m) is certified when it is
        built and cached on the descriptor next to the monomial images, so
        inputs that share monomials share their divisions.
        """
        image = self._images(self.image_names)
        quotients = self.memo("quotients", dict)
        lift = formal_p(self.ctx, self.p).lift

        def quotient(exp):
            n = quotients.get(exp)
            if n is None:
                n = quotients[exp] = lift(image(exp))
            return n
        return _linear(e, quotient)


def _linear(e, image):
    """The sum of c * image(m) over the terms c * m of e."""
    out = e.scale(0)
    for exp, c in e.sorted_terms():
        out = out + image(exp).scale(c)
    return out


def quillen_steenrod(ctx, p, reps):
    """St(reps): gamma = x * prod_j (x +_F [i_j]t), target Laurent in t.

    One descriptor per (ctx, p, reps), cached on ctx; gamma is the context's
    orbit product of x over reps.  The Lazard ring is graded and F and
    [i]t are homogeneous in it, so gamma has weight p; any other weight is
    a FalsificationError whose witness is the first term of another weight.
    """
    reps = fgl._validate_reps(p, reps)

    def build():
        gamma = ctx.orbit_product("x", reps)
        if gamma.weight() != p:
            weights = ctx.table.weights
            exp, c = next((e, c) for e, c in gamma.sorted_terms()
                          if sum(map(mul, weights, e)) != p)
            term = GradedSeries(ctx.table, gamma.trunc_plus,
                                gamma.trunc_minus, {exp: c})
            raise FalsificationError("gamma is not of weight %d" % p,
                                     witness=term.render())
        return OperationDescriptor(ctx, p, gamma, reps=reps)
    return ctx.memo(("st", p, reps), build)


def landweber_novikov(ctx):
    """The total operation: gamma = x + bp1 x^2 + bp2 x^3 + ..."""
    if not ctx.bp_names:
        raise SeriesError("landweber_novikov needs a context with primes")
    gamma = ctx.var("x")
    for i in range(1, ctx.bweight + 1):
        gamma = gamma + ctx.mono({"x": i + 1, "bp%d" % i: 1})
    return OperationDescriptor(ctx, 1, gamma)


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
    """Phi(reps)(e): the exact quotient of nonpos(e^p - St(e)) by [p]_F/t.

    That quotient is D(e^p - St(e))/p, D the lift of `FormalP.lift`, and
    D is linear: p * Phi(e) = D(e^p) - D(St(e)).  Only e^p is not linear
    in e; D(St(e)) is summed from the descriptor's cached, certified
    quotients of e's monomials (`lifted_image`).  A t-free e^p lifts to
    itself.  The positive-t and p-divisibility checks run on the sum.
    """
    fp = formal_p(st.ctx, st.p)
    q = fp.lift(e ** st.p) - st.lifted_image(e)
    hi = q.max_degree("t")
    if hi is not None and hi > 0:
        raise FalsificationError("Phi has positive t-powers")
    return fp.over_p(q)


def slice_phi(ctx, phi, q):
    """Residue slice: the t^0 component of q * phi * omega, read from the
    t-slices of q * phi and omega whose degrees sum to 0
    (`GradedSeries.product_coeff`); the rest of the product is not formed."""
    return (q * phi).product_coeff(ctx.omega, "t", 0)


def chow_trace(ctx, series):
    """Classifying map to the additive law: every ambient b_i -> 0."""
    return series.kill_vars(ctx.b_names)


def st_slice(ctx, st, e, f):
    """st(reps)^f(e): Chow trace of the t^0 part of f * St(e) * omega.

    omega is left out: the trace is the ring map b_i -> 0, it commutes with
    coeff_of("t", 0), and omega = 1 + sum_n [P^n] t^n has every [P^n] in (b),
    so the trace sends omega to 1.  The t^0 part of f * St(e) is read from
    their t-slices alone (`GradedSeries.product_coeff`).
    """
    return chow_trace(ctx, f.product_coeff(st.apply(e), "t", 0))


def omega_che(ctx, reps):
    """che class prod_j c(O(1))([i_j]t): the shift product of z1 over reps."""
    return ctx.shift_product("z1", reps)


def __getattr__(name):
    """VERIFIERS and run_verifier, from `verify`, where the suites live."""
    if name in ("VERIFIERS", "run_verifier"):
        from . import verify
        return getattr(verify, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
