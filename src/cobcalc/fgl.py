"""Universal formal group law over the ambient polynomial ring Z[b1,b2,...].

The engine works in Hurewitz coordinates: the exponential is the polynomial
B(t) = t + b1*t^2 + b2*t^3 + ... and everything else is derived from it:
the logarithm (its compositional inverse), the group law
F(x,y) = B(B^-1(x) + B^-1(y)), integer multiples [n](t), the shift images
x +_F [k]t (each F(x, t) at t = [k]t), the invariant form omega = (B^-1)',
projective-space and hypersurface classes, characteristic numbers and the
I(p)/nu_r predicates.  A Context owns one variable table and one pair of
truncation bounds; contexts at different truncations coexist.
"""

from __future__ import annotations

from fractions import Fraction
import math

from .series import (
    FalsificationError,
    GradedSeries,
    SeriesError,
    Variable,
    VariableTable,
    coeffs_mod_p,
    vp,
)


class Memo:
    """One dict of derived values, each built on first use and kept as long
    as its owner lives."""

    def __init__(self):
        self._memo = {}

    def memo(self, key, build):
        """The value cached under key, from build() on first use."""
        try:
            return self._memo[key]
        except KeyError:
            pass
        value = self._memo[key] = build()
        return value


class Context(Memo):
    """Shared variable table plus everything derived from it.

    extra_vars lists weight-1 carriers (or (name, weight) pairs) inserted
    after t; b1..b_{bweight} of weight -i always follow; with_primes adds a
    second alphabet bp1..bp_{bweight} for total-operation targets.

    Derived objects (series, classes, shift images, FormalP, St descriptors)
    are cached on the context through `memo`, keyed by value, and die with it.
    """

    def __init__(self, deg, bweight, *, tfloor=None, extra_vars=(),
                 degree_caps=(), with_primes=False, trunc_plus=None):
        super().__init__()
        self.deg = int(deg)
        self.bweight = int(bweight)
        variables = [Variable("t", 1, laurent_floor=tfloor)] + [
            Variable(*e) if isinstance(e, tuple) else Variable(e, 1)
            for e in extra_vars]
        self.b_names = tuple("b%d" % i for i in range(1, self.bweight + 1))
        self.bp_names = (tuple("bp" + n[1:] for n in self.b_names)
                         if with_primes else ())
        for names in (self.b_names, self.bp_names):
            variables += [Variable(n, -i) for i, n in enumerate(names, 1)]
        self.table = VariableTable(variables, degree_caps=degree_caps)
        self.trunc_plus = int(trunc_plus) if trunc_plus is not None else self.deg + 1
        self.trunc_minus = self.bweight
        # log_t keeps an attribute of its own: perfbench/tracer.py reads
        # _log_t to count the reversions it builds
        self._log_t = None

    # ----- constructors over this context --------------------------------

    def zero(self):
        return GradedSeries.zero(self.table, self.trunc_plus, self.trunc_minus)

    def one(self):
        return GradedSeries.one(self.table, self.trunc_plus, self.trunc_minus)

    def const(self, c):
        return GradedSeries.const(self.table, self.trunc_plus,
                                  self.trunc_minus, c)

    def mono(self, exps, coeff=1):
        return GradedSeries.monomial(self.table, self.trunc_plus,
                                     self.trunc_minus, exps, coeff=coeff)

    def var(self, name):
        return self.mono({name: 1})

    # ----- the exponential and its relatives ------------------------------

    @property
    def exp_t(self):
        """B(t) = t + b1*t^2 + ... + b_{bweight}*t^(bweight+1)."""
        def build():
            out = self.var("t")
            for i in range(1, self.bweight + 1):
                out = out + self.mono({"t": i + 1, "b%d" % i: 1})
            return out
        return self.memo("exp_t", build)

    @property
    def log_t(self):
        """B^-1(t) = sum m_n t^(n+1).  m_n has b-weight n, so no term passes
        t^(bweight+1) and the reversion stops there; raising the bounds
        back keeps the key geometry and so shares the rows."""
        if self._log_t is None:
            tp, tm = self.trunc_plus, self.trunc_minus
            self._log_t = self.exp_t.retruncate(
                min(tp, self.bweight + 1), tm).compositional_inverse(
                "t").retruncate(tp, tm)
        return self._log_t

    @property
    def omega(self):
        """Invariant form omega = (B^-1)'(t) = sum [P^n] t^n."""
        return self.memo("omega", lambda: self.log_t.diff("t"))

    def B_of(self, u):
        # B has true t-degree bweight+1; only then may callers vouch for it
        if self.trunc_plus >= self.bweight + 1:
            return self.exp_t.substitute({"t": u}, poly_vars=("t",))
        return self.exp_t.substitute({"t": u})

    def formal_sum(self, a, b):
        log = self.log_t
        return self.B_of(log.substitute({"t": a}) + log.substitute({"t": b}))

    def nseries(self, n):
        """[n]_F(t) = B(n * B^-1(t)); negative n through the same formula."""
        n = int(n)

        def build():
            if n == 0:
                return self.zero()
            if n == 1:
                return self.var("t")
            return self.B_of(self.log_t.scale(n))
        return self.memo(("nseries", n), build)

    def shift_image(self, name, k):
        """name +_F [k]t: the carrier name under the k-th shift.  The first
        image is F(name, t); every other one is that image at t = [k]t."""
        def build():
            if k == 1:
                return self.formal_sum(self.var(name), self.var("t"))
            return self.shift_image(name, 1).substitute(
                {"t": self.nseries(k)})
        return self.memo(("shift", name, k), build)

    def shift_product(self, name, reps):
        """prod_{i in reps} (name +_F [i]t), not cached.  Power-series factors
        only raise degrees and cap sums, so any order keeps the same terms."""
        return math.prod((self.shift_image(name, i) for i in reps),
                         start=self.one())

    def orbit_product(self, name, reps):
        """pi = name * prod_{i in reps} (name +_F [i]t), not cached."""
        return self.var(name) * self.shift_product(name, reps)

    def fgl(self):
        return self.memo("fgl", lambda: self.formal_sum(self.var("x"),
                                                         self.var("y")))

    def a_coeff(self, i, j):
        """FGL structure constant a_{i,j} as an ambient polynomial."""
        if i < 0 or j < 0:
            raise SeriesError("a_%d,%d needs i, j >= 0" % (i, j))
        if i + j - 1 > self.bweight:
            raise SeriesError("a_%d,%d has b-weight %d, past bweight %d"
                              % (i, j, i + j - 1, self.bweight))
        if i + j > self.trunc_plus:
            raise SeriesError("a_%d,%d needs trunc_plus >= %d, have %d"
                              % (i, j, i + j, self.trunc_plus))
        return self.fgl().coeff_of("x", i).coeff_of("y", j)

    def m_coeff(self, n):
        """Logarithm coefficient m_n (coefficient of t^{n+1} in B^-1)."""
        if n + 1 > self.trunc_plus:
            raise SeriesError("m_%d needs trunc_plus >= %d" % (n, n + 1))
        return self.log_t.coeff_of("t", n + 1)


class LazardElement:
    """Homogeneous coefficient-ring element in ambient b-coordinates."""

    __slots__ = ("ctx", "series", "dimension", "provenance")

    def __init__(self, ctx, series, dimension, provenance):
        for name in ctx.table.names():
            if name in ctx.b_names or name in ctx.bp_names:
                continue
            if series.max_degree(name) not in (None, 0):
                raise SeriesError("coefficient-ring element involves %s" % name)
        if not series.is_zero and series.weight() != -dimension:
            raise SeriesError("dimension %d does not match weight" % dimension)
        self.ctx = ctx
        self.series = series
        self.dimension = dimension
        self.provenance = provenance

    def is_integral(self):
        return self.series.denominator == 1

    def char_number(self, monomial):
        """Coefficient at the b-monomial (dict name -> exponent)."""
        if not self.is_integral():
            raise SeriesError("characteristic numbers need integer ambient "
                              "coefficients")
        return self.series.coeff(monomial)

    def s_number(self):
        """Coefficient of m_d after rewriting in logarithm coordinates."""
        d = self.dimension
        if d <= 0:
            raise SeriesError("s-number defined for positive dimension only")
        ctx = self.ctx
        # an element of dimension d involves b_1..b_d only
        bindings = {"b%d" % i: ctx.m_coeff(i)
                    for i in range(1, min(d, ctx.bweight) + 1)}
        rewritten = self.series.substitute(bindings, poly_vars=ctx.b_names)
        return rewritten.coeff({"b%d" % d: 1})

    def in_Ip(self, p):
        if not self.is_integral():
            raise SeriesError("I(p) test needs integer ambient coefficients")
        return coeffs_mod_p(self.series, p).is_zero

    def is_nu_r(self, p, r):
        if self.dimension != p ** r - 1:
            raise SeriesError("nu_%d at p=%d needs dimension %d, got %d"
                              % (r, p, p ** r - 1, self.dimension))
        if not self.in_Ip(p):
            return False
        return self.s_number() % (p * p) != 0

    def __repr__(self):
        return "<L_%d %s (%s)>" % (self.dimension, self.series.render(),
                                   self.provenance)


def _check_dimension(ctx, dim, what):
    # a class of dimension dim has b-weight dim; past bweight it truncates to 0
    if dim > ctx.bweight:
        raise SeriesError("%s has dimension %d, past bweight %d"
                          % (what, dim, ctx.bweight))


def pn_class(ctx, n):
    """[P^n] = (n+1) * m_n."""
    if n < 0:
        raise SeriesError("projective space dimension must be >= 0")
    _check_dimension(ctx, n, "P^%d" % n)
    if n == 0:
        return LazardElement(ctx, ctx.one(), 0, "P^0")
    return LazardElement(ctx, ctx.m_coeff(n).scale(n + 1), n, "P^%d" % n)


def proj_pushforward(ctx, f, n):
    """Pushforward along P^n -> point: the x^n coefficient of f * omega(x),
    read from the x-slices whose degrees sum to n."""
    if (f.min_degree("x") or 0) < 0:
        raise SeriesError("pushforward input must be a power series in x")
    return f.product_coeff(ctx.omega.substitute({"t": ctx.var("x")}), "x", n)


def hypersurface_class(ctx, n, d):
    """Class of a degree-d hypersurface in P^n."""
    if n < 1 or d < 1:
        raise SeriesError("hypersurface needs n >= 1, d >= 1")
    _check_dimension(ctx, n - 1, "H(%d,%d)" % (n, d))
    f = ctx.nseries(d).substitute({"t": ctx.var("x")})
    return LazardElement(ctx, proj_pushforward(ctx, f, n), n - 1,
                         "H(%d,%d)" % (n, d))


def base_context(deg=8, bweight=8):
    """Default context for class and FGL computations: carriers t, x, y."""
    return Context(deg, bweight, extra_vars=("x", "y"))


class EtaDivisibilityError(FalsificationError):
    """deg of the zero-dimensional che component is not divisible by p; the
    witness names the class, the reps and that deg."""


def _validate_reps(p, reps):
    if p < 2 or any(p % k == 0 for k in range(2, math.isqrt(p) + 1)):
        raise SeriesError("p must be a prime, got %r" % (p,))
    reps = tuple(int(i) for i in reps)
    if len(reps) != p - 1:
        raise SeriesError("need %d coset representatives for p=%d"
                          % (p - 1, p))
    seen = set()
    for i in reps:
        r = i % p
        if r == 0:
            raise SeriesError("representative %d is zero mod %d" % (i, p))
        if r in seen:
            raise SeriesError("representatives repeat mod %d" % p)
        seen.add(r)
    return reps


class ChowModel(Memo):
    """P^n or a degree-d hypersurface in it, on the Chow side.

    Gives the total Chern series of the tangent bundle as a polynomial in
    t and the hyperplane class h (nilpotent beyond the dimension), and the
    degree functional deg(h^dim) = d (1 for P^n itself).  The t floor is
    what the model computes at p: c(-T) is homogeneous of degree -dim in t
    and h, with h^dim at most, so chern_che's product of p - 1 scaled
    copies bottoms out at t^(-p*dim); the hypersurface inverse
    (t^2 + d*t*h)^-1 reaches t^(-2-dim).  `chern_series(p)` builds the
    pair over a `Context` with that t floor, h capped at dim and bounds
    (n + 2, 0), on first use, and keeps it in `memo`.
    """

    def __init__(self, n, d=0):
        super().__init__()
        if n < 1:
            raise SeriesError("ambient projective dimension must be >= 1")
        if d < 0 or d == 1:
            # d = 1 is a hyperplane: use ChowModel(n-1) directly
            raise SeriesError("hypersurface degree must be 0 (= P^n) or >= 2")
        self.n = n
        self.d = d
        self.dim = n if d == 0 else n - 1
        if self.dim < 1:
            raise SeriesError("model dimension must be positive")

    def chern_series(self, p):
        """(c(T), c(-T)) over a t floor deep enough for chern_che at p."""
        n, d, dim = self.n, self.d, self.dim
        floor = -max(p * dim, 2 + dim)

        def build():
            ctx = Context(n + 1, 0, tfloor=floor, extra_vars=("h",),
                          degree_caps=[("h", dim)])
            t, h = ctx.var("t"), ctx.var("h")
            th = (t + h) ** (n + 1)
            if d == 0:
                c = th.shift_var("t", -1)
            else:
                c = th * (t * t + t * h.scale(d)).mul_inverse()
                if c.min_degree("t") < 0:
                    raise SeriesError("tangent Chern series not polynomial")
            return c, c.mul_inverse()
        return self.memo(("chern", floor), build)

    def chern_che(self, p, reps):
        """Product over ī of c(-T)(i_j * t)."""
        first, *rest = _validate_reps(p, reps)
        c_minus = self.chern_series(p)[1]
        out = c_minus.scale_var("t", first)
        for i in rest:
            out = out * c_minus.scale_var("t", i)
        return out

    def eta(self, p, reps):
        """-deg of the t^{-p dim} component of chern_che, divided by p."""
        che = self.chern_che(p, reps)
        comp = che.coeff_of("t", -p * self.dim)
        val = Fraction(comp.coeff({"h": self.dim}) * (self.d or 1))
        rep_prod = math.prod(abs(int(i)) for i in reps)
        label = ("P%d" % self.n if not self.d
                 else "H(%d,%d)" % (self.n, self.d))
        witness = "%s at reps %s: deg %s" % (label, list(reps), val)
        if math.gcd(val.denominator, p) != 1:
            raise EtaDivisibilityError(
                "eta denominator shares a factor with p", witness=witness)
        if val != 0 and vp(val, p) < 1:
            raise EtaDivisibilityError(
                "deg of the zero-dimensional component is %s, not divisible "
                "by %d" % (val, p), witness=witness)
        den = val.denominator
        while den > 1:
            g = math.gcd(den, rep_prod)
            if g == 1:
                raise EtaDivisibilityError(
                    "eta has denominators outside Z[1/reps]", witness=witness)
            den //= g
        return -val / p
