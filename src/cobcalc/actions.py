"""Cyclic shift actions on B[[x]] and confluent Vandermonde identities.

B = L[[t]]/([p]_F(t)/t) carries the order-p automorphism x -> x +_F t.  This
module builds the confluent Vandermonde matrices A(n_1..n_r; m) and checks
their determinant identity, constructs the shift automorphism, decomposes
invariant series as power series in pi(x) = prod_i (x +_F [i]t) with exact
divisibility certificates at every stripping step, and derives the
two-variable consequences: the addition series G(u,v) with
prod(x +_F y +_F [i]t) = G(pi(x), pi(y)), and the twisted group law
F^alpha(u,v) = alpha(F(beta(u), beta(v))) with integral coefficients.
Invariance is decided in B/(p), since (g) = (p): the shift runs on the normal
form and reduces it mod p after each Horner product.

A ShiftAction holds no cache of its own: the shift images
(`Context.shift_image`), the powers of pi, the unit inverse of c(t) and the
FormalP are all cached on the context under value keys, so two actions on
one context share them and they die with the context.
"""

from __future__ import annotations

import itertools
import math
import random

from .fgl import Context
from .quotient import formal_p
from .series import (FalsificationError, GradedSeries, NotDivisible,
                     SeriesError, Variable, VariableTable)


# ---------------------------------------------------------------------------
# confluent Vandermonde matrices


class ConfluentMatrix:
    """A(n_1,...,n_r; m) with entries binom(v-1, ubar) * t_i^(v-1-ubar).

    Rows are grouped in blocks: block i contributes n_i rows indexed by
    ubar = 0..n_i-1, all in the symbol t_i; columns are v = 1..m.
    """

    __slots__ = ("blocks", "width", "table", "trunc_plus", "rows")

    def __init__(self, blocks, width):
        self.blocks = tuple(int(n) for n in blocks)
        self.width = int(width)
        if not self.blocks or any(n < 1 for n in self.blocks) or self.width < 1:
            raise SeriesError("blocks must be positive and width >= 1")
        n_total = sum(self.blocks)
        variables = [Variable("t%d" % (i + 1), 1)
                     for i in range(len(self.blocks))]
        self.table = VariableTable(variables)
        # every intermediate is itself a minor, of degree below
        # n_total * width, so no term reaches this bound
        self.trunc_plus = 2 * n_total * self.width + 4
        rows = []
        for i, n in enumerate(self.blocks):
            for ubar in range(n):
                row = []
                for v in range(1, self.width + 1):
                    coeff = math.comb(v - 1, ubar)
                    if coeff == 0:
                        row.append(self._zero())
                    else:
                        row.append(GradedSeries.monomial(
                            self.table, self.trunc_plus, 0,
                            {"t%d" % (i + 1): v - 1 - ubar}, coeff=coeff))
                rows.append(tuple(row))
        self.rows = tuple(rows)

    def _zero(self):
        return GradedSeries.zero(self.table, self.trunc_plus, 0)

    def one(self):
        return GradedSeries.one(self.table, self.trunc_plus, 0)


def maximal_minors(rows, one):
    """All maximal minors of an n x m matrix (n <= m), by Laplace expansion
    along one row at a time.

    Yields (columns, minor) in itertools.combinations(range(m), n) order.
    Level k holds the minor on rows 0..k-1 and columns S for every k-subset
    S, and comes from level k-1 by expanding along row k-1:
    M(S) = sum (-1)^(k-1+i) a_{k-1,j} M(S minus j), j the i-th column of S.
    It forms only sums and products with single entries, never a division,
    so an entry with one term makes each product a key shift.  The last
    level is built lazily, so a caller that stops early skips the rest.
    """
    n = len(rows)
    m = len(rows[0]) if rows else 0
    if n == 0 or any(len(r) != m for r in rows) or m < n:
        raise SeriesError("maximal minors need a nonempty n x m matrix "
                          "with n <= m")
    zero = one - one

    def expand(k, cols, level):
        out = zero
        for i, j in enumerate(cols):
            entry, sub = rows[k - 1][j], level[cols[:i] + cols[i + 1:]]
            if entry.is_zero or sub.is_zero:
                continue
            term = entry * sub
            out = out - term if (k - 1 + i) % 2 else out + term
        return out

    def walk():
        level = {(): one}
        for k in range(1, n):
            level = {cols: expand(k, cols, level)
                     for cols in itertools.combinations(range(m), k)}
        for cols in itertools.combinations(range(m), n):
            yield cols, expand(n, cols, level)

    return walk()


def bareiss_det(rows, one):
    """Determinant of a square matrix, its one maximal minor.  The name is
    kept for the benchmark's tracer, which wraps it."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise SeriesError("determinant of a non-square matrix")
    (_, det), = maximal_minors(rows, one)
    return det


def vandermonde_product(matrix):
    """prod_{i>j} (t_i - t_j)^(n_i * n_j) over the matrix's symbols."""
    out = matrix.one()
    blocks = matrix.blocks
    for i in range(len(blocks)):
        for j in range(i):
            ti = GradedSeries.monomial(matrix.table, matrix.trunc_plus, 0,
                                       {"t%d" % (i + 1): 1})
            tj = GradedSeries.monomial(matrix.table, matrix.trunc_plus, 0,
                                       {"t%d" % (j + 1): 1})
            out = out * (ti - tj) ** (blocks[i] * blocks[j])
    return out


def compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def check_minor_determinant(blocks, exhaustive_minors=False):
    """Square determinant identity, optionally all maximal minors of the
    matrix two columns wider.

    Returns a report dict; a failed identity is a falsification and sets
    verdict False with the offending minor as witness.
    """
    blocks = tuple(blocks)
    n_total = sum(blocks)
    m = n_total + 2
    if exhaustive_minors:
        # the square matrix is the wide one's first n_total columns, so its
        # determinant is the first maximal minor
        wide = ConfluentMatrix(blocks, m)
        prod = vandermonde_product(wide)
        minors = maximal_minors(wide.rows, wide.one())
        _cols, det = next(minors)
    else:
        square = ConfluentMatrix(blocks, n_total)
        det = bareiss_det(square.rows, square.one())
        prod = vandermonde_product(square)
    verdict = det == prod
    witness = None
    cases = 1
    if not verdict:
        witness = "det A(%s;%d) != product" % (",".join(map(str, blocks)),
                                               n_total)
    elif exhaustive_minors:
        # the first minor equals the product, so the product divides it
        cases += 1
        for cols, sub in minors:
            cases += 1
            try:
                sub.exact_divide(prod, integral=True)
            except NotDivisible:
                verdict = False
                witness = "minor columns %s of A(%s;%d)" % (
                    cols, ",".join(map(str, blocks)), m)
                break
    return {"statement": "minors", "blocks": list(blocks),
            "cases": cases, "verdict": verdict, "witness": witness}


def minors_suite(max_square=6, max_minor=5):
    """The determinant identity for all compositions, then all wide minors."""
    cases = 0
    for n_total in range(1, max_square + 1):
        for blocks in compositions(n_total):
            rep = check_minor_determinant(blocks,
                                          exhaustive_minors=n_total <= max_minor)
            cases += rep["cases"]
            if not rep["verdict"]:
                rep["cases"] = cases
                return rep
    return {"statement": "minors", "blocks": None, "cases": cases,
            "verdict": True, "witness": None}


# ---------------------------------------------------------------------------
# the shift automorphism and invariant decomposition


class ShiftAction:
    """The order-p cyclic action generated by var -> var +_F t."""

    def __init__(self, ctx, p, var="x"):
        self.ctx = ctx
        self.p = int(p)
        self.var = var
        self.fp = formal_p(ctx, p)

    def pi_power(self, n):
        """pi^n, for the orbit product pi(x) = prod_{i<p} (x +_F [i]t)."""
        ctx = self.ctx

        def build():
            if n == 0:
                return ctx.one()
            if n == 1:
                return ctx.orbit_product(self.var, range(1, self.p))
            return self.pi_power(n - 1) * self.pi_power(1)
        return ctx.memo(("pi_power", self.var, self.p, n), build)

    def unit_inverse(self):
        """Inverse of c(t)/t^(p-1), c(t) = prod_{i<p} [i]_F(t) the lowest
        coefficient of pi; a unit with constant (p-1)!."""
        def build():
            c = self.ctx.one()
            for i in range(1, self.p):
                c = c * self.ctx.nseries(i)
            return c.shift_var("t", -(self.p - 1)).mul_inverse()
        return self.ctx.memo(("c_unit_inverse", self.p), build)


def invariant_decompose(phi, action):
    """Write an invariant series as a polynomial in the orbit product.

    Returns (psi, certificates): psi maps n to the coefficient of pi^n, each
    extracted after certifying that the lowest coefficient is divisible by
    c(t)^n (t-order at least n(p-1) modulo the ideal); certificates record
    those exact divisibilities.  Raises SeriesError on input with p in a
    denominator or not invariant modulo p; a divisibility failure raises
    FalsificationError.
    """
    fp = action.fp
    var = action.var
    p = action.p
    # invariance is decided in B/(p): the normal form is a ring map that
    # commutes with truncated sums and products, so it can run first
    f = fp.normal_form(phi)
    shifted = f.substitute(
        {var: fp.normal_form(action.ctx.shift_image(var, 1))},
        reduce=fp.normal_form)
    if not fp.normal_form(shifted - f).is_zero:
        raise SeriesError("series is not invariant under the shift")
    psi = {}
    certificates = []
    while not f.is_zero:
        n = f.min_degree(var)
        alpha = f.coeff_of(var, n)
        need = n * (p - 1)
        if n == 0:
            q = alpha
        else:
            d = alpha
            uinv = action.unit_inverse()
            for _ in range(n):
                d = d * uinv
            nf = fp.normal_form(d)
            lo = nf.min_degree("t")
            if lo is not None and lo < need:
                raise FalsificationError(
                    "coefficient of %s^%d is not divisible by c(t)^%d" %
                    (var, n, n),
                    witness="t-order %d < %d at level %d" % (lo, need, n))
            q = nf.shift_var("t", -need)
        certificates.append({"power": n, "t_order": need})
        psi[n] = q
        f = fp.normal_form(f - q * action.pi_power(n))
        if not f.is_zero and f.min_degree(var) <= n:
            raise SeriesError("stripping failed to raise the lowest degree")
    return psi, certificates


def reconstruct(action, psi):
    out = action.ctx.zero()
    for n, q in psi.items():
        out = out + q * action.pi_power(n)
    return out


def _random_coefficient(ctx, rng):
    picks = [{}, {"b1": 1}, {"b2": 1}, {"b1": 2}, {"b3": 1},
             {"b1": 1, "b2": 1}]
    out = ctx.zero()
    for _ in range(3):
        exps = dict(picks[rng.randrange(len(picks))])
        exps["t"] = rng.randint(0, 4)
        out = out + ctx.mono(exps, coeff=rng.randint(-9, 9))
    return out


def theorem_g_suite(p, deg=6, bweight=6, count=20, seed=20260814):
    """Randomized round trips psi -> phi -> psi through the decomposition."""
    kmax = max(1, min(3, deg // 2))
    # the level-kmax coefficient must stay fully visible: its digits reach
    # t^(kmax*(p-1) + deg) times b-monomials, behind x^kmax
    ctx = Context(deg, bweight, extra_vars=("x",),
                  trunc_plus=p * kmax + deg + bweight + 4)
    action = ShiftAction(ctx, p, "x")
    fp = action.fp
    rng = random.Random(seed + p)
    checked = 0
    for case in range(count):
        truth = {k: _random_coefficient(ctx, rng) for k in range(kmax + 1)}
        phi = reconstruct(action, truth)
        psi, _certs = invariant_decompose(phi, action)
        for k in range(kmax + 1):
            got = psi.get(k, ctx.zero())
            if not fp.normal_form(got - truth[k]).is_zero:
                return {"statement": "thmG", "p": p, "cases": checked,
                        "verdict": False,
                        "witness": "case %d power %d mismatch" % (case, k)}
        extra = [k for k in psi if k > kmax
                 and not fp.normal_form(psi[k]).is_zero]
        if extra:
            return {"statement": "thmG", "p": p, "cases": checked,
                    "verdict": False,
                    "witness": "case %d spurious powers %s" % (case, extra)}
        if not fp.normal_form(phi - reconstruct(action, psi)).is_zero:
            return {"statement": "thmG", "p": p, "cases": checked,
                    "verdict": False,
                    "witness": "case %d reconstruction mismatch" % case}
        checked += 1
    return {"statement": "thmG", "p": p, "cases": checked, "verdict": True,
            "witness": None}


# ---------------------------------------------------------------------------
# two-variable consequences


def xy_context(p, deg=6, bweight=6):
    # x, y are cut by weight (trunc_plus bounds the joint x,y,t-degree), not
    # by a degree cap: x -> x +_F t preserves total weight, so the weight cut
    # is substitution-sound while a cap on x alone is not.
    return Context(deg, bweight, extra_vars=("x", "y"),
                   trunc_plus=deg + p + bweight + 4)


def prop_xy_series(p, deg=6, bweight=6):
    """The addition series G with prod(x +_F y +_F [i]t) = G(pi(x), pi(y)).

    Found by stripping first in x (y passive), then each coefficient in y.
    Returns (G, report); G maps (k, l) to the coefficient of u^k v^l, each
    certified integral modulo the ideal.
    """
    ctx = xy_context(p, deg=deg, bweight=bweight)
    ax = ShiftAction(ctx, p, "x")
    ay = ShiftAction(ctx, p, "y")
    fp = ax.fp
    s = ctx.formal_sum(ctx.var("x"), ctx.var("y"))
    phi = s
    for i in range(1, p):
        phi = phi * ctx.formal_sum(s, ctx.nseries(i))
    inner, _ = invariant_decompose(phi, ax)
    coefficients = {}
    for k, r_k in inner.items():
        outer, _ = invariant_decompose(r_k, ay)
        for l, q in outer.items():
            if not fp.normal_form(q).is_zero:
                coefficients[(k, l)] = q
    witness = None
    for key, q in coefficients.items():
        ok, _rep, wit = fp.is_integral_mod_ideal(q)
        if not ok:
            witness = "G[%s]: %s" % (key, wit)
            break
    verdict = witness is None
    if verdict:
        recon = ctx.zero()
        for (k, l), q in coefficients.items():
            recon = recon + q * ax.pi_power(k) * ay.pi_power(l)
        if not fp.normal_form(phi - recon).is_zero:
            verdict = False
            witness = "G does not reproduce the orbit product"
    if verdict:
        # specializing v = 0 must give back u
        for (k, l), q in coefficients.items():
            if l == 0:
                want = ctx.one() if k == 1 else ctx.zero()
                if not fp.normal_form(q - want).is_zero:
                    verdict = False
                    witness = "G(u,0) deviates from u at power %d" % k
                    break
    report = {"statement": "xy", "p": p, "cases": len(coefficients),
              "verdict": verdict, "witness": witness}
    return coefficients, report


def twisted_context(p, deg=6, bweight=6):
    cap = deg
    # beta powers each carry c(t)^-1 with ord c = p - 1, so the floor has
    # to cover roughly 2(p-1)(cap+1) before the integrality check prunes
    return Context(deg, bweight, tfloor=-(2 * p * (cap + 2) + 8),
                   extra_vars=("x", "y", "u", "v", "w"),
                   degree_caps=((("x", "y", "u", "v", "w"), cap),),
                   trunc_plus=deg + p + 4)


def twisted_fgl_alpha(p, deg=6, bweight=6):
    """F^alpha(u,v) = alpha(F(beta(u), beta(v))) for alpha = pi(x).

    beta is the compositional inverse of alpha over B[c(t)^-1].  Returns
    (F^alpha, report) after checking coefficient integrality and the group-law
    axioms at truncation, plus alpha|_{t=0} = x^p.
    """
    ctx = twisted_context(p, deg=deg, bweight=bweight)
    fp = formal_p(ctx, p)
    alpha = ctx.orbit_product("x", range(1, p))
    beta = alpha.compositional_inverse("x")
    bu = beta.substitute({"x": ctx.var("u")})
    bv = beta.substitute({"x": ctx.var("v")})
    mid = ctx.fgl().substitute({"x": bu, "y": bv}, poly_vars=("x", "y"))
    f_alpha = alpha.substitute({"x": mid}, poly_vars=("x",))

    witness = None
    if alpha.kill_vars(("t",)) != ctx.mono({"x": p}):
        witness = "alpha at t=0 is not x^p"
    if witness is None:
        for i in range(0, deg + 1):
            for j in range(0, deg + 1 - i):
                coeff = f_alpha.coeff_of("u", i).coeff_of("v", j)
                if coeff.is_zero:
                    continue
                ok, _rep, wit = fp.is_integral_mod_ideal(coeff)
                if not ok:
                    witness = "coefficient u^%d v^%d: %s" % (i, j, wit)
                    break
            if witness:
                break
    if witness is None:
        if f_alpha.kill_vars(("v",)) != ctx.var("u"):
            witness = "unit axiom fails"
        elif f_alpha.substitute({"u": ctx.var("v"), "v": ctx.var("u")}) != f_alpha:
            witness = "commutativity fails"
        else:
            f_vw = f_alpha.substitute({"u": ctx.var("v"), "v": ctx.var("w")})
            # every term of f_alpha has u,v-degree >= 1, so nesting it is
            # monotone for the group cap and the clipped tail stays clipped
            left = f_alpha.substitute({"u": f_alpha, "v": ctx.var("w")},
                                      poly_vars=("u",))
            right = f_alpha.substitute({"v": f_vw}, poly_vars=("v",))
            if left != right:
                witness = "associativity fails"
    report = {"statement": "twisted-fgl", "p": p,
              "cases": (deg + 1) * (deg + 2) // 2,
              "verdict": witness is None, "witness": witness}
    return f_alpha, report
