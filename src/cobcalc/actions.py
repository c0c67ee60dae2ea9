"""Cyclic shift actions on B[[x]] and confluent Vandermonde identities.

B = L[[t]]/([p]_F(t)/t) carries the order-p automorphism x -> x +_F t.  This
module builds the rows of the confluent Vandermonde matrices A(n_1..n_r; m)
and checks their determinant identity and the divisibility of their wide
minors on one walk over the compositions, decomposes invariant series as
power series in pi(x) = x prod_i (x +_F [i]t), checking exact divisibility
at every stripping step, and derives the two-variable consequences: the
addition series G(u,v) with pi(x +_F y) = G(pi(x), pi(y)), and the twisted
group law F^alpha(u,v) = alpha(F(beta(u), beta(v))) with integral
coefficients.  Invariance is decided in B/(p), since (g) = (p): the shifted
series is the sum of each x-digit of the normal form times the normal form
of the matching power of x +_F t.

No shift image is built here: they come from `Context.shift_image`, pi is
`Context.orbit_product`, c(t) = prod_i [i](t) is pi's x^1 coefficient, and
the orbit product that G decomposes is pi at x = F(x, y).  A ShiftAction
holds no cache of its own: the powers of pi and of x +_F t, the unit
inverse of c(t) and the FormalP are cached on the context under value keys,
so two actions on one context share them and they die with the context.
"""

from __future__ import annotations

import itertools
import math
import random

from .fgl import Context
from .quotient import formal_p
from .series import (FalsificationError, GradedSeries, SeriesError,
                     Variable, VariableTable)


# ---------------------------------------------------------------------------
# confluent Vandermonde matrices


def confluent_rows(n_total, width):
    """The rows of every A(n_1,...,n_r; width) with n_1 + ... + n_r =
    n_total, over one table t1..tn: {(i, ubar): row}, row ubar of block i
    having entries binom(v-1, ubar) * t_(i+1)^(v-1-ubar), v = 1..width.

    The rows of A(blocks; width) are rows[i, ubar] for ubar < n_i, block by
    block; block i of a composition has at most n_total - i rows.
    """
    if n_total < 1 or width < 1:
        raise SeriesError("n_total and width must be positive")
    table = VariableTable([Variable("t%d" % (i + 1), 1)
                           for i in range(n_total)])
    # every intermediate is itself a minor, of degree below
    # n_total * width, so no term reaches this bound
    trunc_plus = 2 * n_total * width + 4
    zero = GradedSeries.zero(table, trunc_plus, 0)
    return {(i, ubar): tuple(
        GradedSeries.monomial(table, trunc_plus, 0,
                              {"t%d" % (i + 1): v - 1 - ubar},
                              coeff=math.comb(v - 1, ubar))
        if v > ubar else zero for v in range(1, width + 1))
        for i in range(n_total) for ubar in range(n_total - i)}


def laplace_step(level, row, zero):
    """The minors on one more row, by Laplace expansion along it.

    level maps every (k-1)-subset of columns, in combinations order, to the
    minor on the first k-1 rows; row is row k.  Returns the level of every
    k-subset S, in itertools.combinations order:
    M(S) = sum (-1)^(k-1+i) a_{k-1,j} M(S minus j), j the i-th column of S.
    Each minor is one `GradedSeries.add_products` over its cofactors, which
    skips those with a zero factor; the row and its negation are built
    once per step.  It forms only sums and products with single entries,
    never a division, so an entry with one term makes each product a key
    shift.
    """
    k = len(next(iter(level))) + 1
    signed = (row, tuple(-entry for entry in row))
    out = {}
    for cols in itertools.combinations(range(len(row)), k):
        out[cols] = zero.add_products(
            [(signed[(k - 1 + i) % 2][j], level[cols[:i] + cols[i + 1:]])
             for i, j in enumerate(cols)])
    return out


def bareiss_det(rows, one):
    """Determinant of a square matrix, one `laplace_step` per row.  The
    name is kept for the benchmark's tracer, which wraps it."""
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise SeriesError("determinant of an empty or non-square matrix")
    level = {(): one}
    for row in rows:
        level = laplace_step(level, row, one - one)
    return level[tuple(range(n))]


def _composition_walk(n_total, width):
    """(blocks, product, minors) for every composition of n_total, in
    lexicographic order: the product prod_{i>j} (t_i - t_j)^(n_i n_j) and
    the maximal minors of A(blocks; width) by columns.

    Depth first: the rows of a composition begin with those of each of its
    prefixes, so a node adds one row, ubar = 0 of a new block first, then
    the next ubar of the last block, and its level is its parent's by one
    `laplace_step`.  Either child grows the last block i by one, so its
    product is its parent's times prod_{j<i} (t_i - t_j)^(n_j).  Only the
    levels and products on the current path are kept.
    """
    rows = confluent_rows(n_total, width)
    one = rows[0, 0][0]  # binom(0, 0) * t1^0
    zero = one - one
    t = [GradedSeries.monomial(one.table, one.trunc_plus, 0,
                               {"t%d" % (i + 1): 1}) for i in range(n_total)]

    def visit(blocks, product, level):
        if sum(blocks) == n_total:
            yield blocks, product, level
            return
        children = [(blocks + (1,), rows[len(blocks), 0])]
        if blocks:
            children.append((blocks[:-1] + (blocks[-1] + 1,),
                             rows[len(blocks) - 1, blocks[-1]]))
        for child, row in children:
            i, grown = len(child) - 1, product
            for j in range(i):
                grown = grown * (t[i] - t[j]) ** child[j]
            yield from visit(child, grown, laplace_step(level, row, zero))

    return visit((), one, {(): one})


def _check_minors(blocks, width, product, minors):
    """(verdict, cases, witness) of criterion 02 on A(blocks; width) from
    its Vandermonde product and its maximal minors, (columns, minor) in
    combinations order: the first is det A(blocks; n) and must equal the
    product, and for width > n every other must be divisible by it.

    The factors (t_i - t_j)^(n_i n_j) are pairwise coprime, so the product
    divides a minor when each factor does (`divisible_by_difference`, which
    also asks for integer coefficients); it is primitive, so by Gauss's
    lemma the quotient of an integral minor is integral.
    """
    name = ",".join(map(str, blocks))
    it = iter(minors)
    _cols, det = next(it)
    if det != product:
        return False, 1, "det A(%s;%d) != product" % (name, sum(blocks))
    # with width > n the first minor is the product, so the product divides it
    cases = 1 if width == sum(blocks) else 2
    factors = [("t%d" % (i + 1), "t%d" % (j + 1), blocks[i] * blocks[j])
               for i in range(len(blocks)) for j in range(i)]
    for cols, sub in it:
        cases += 1
        if not all(sub.divisible_by_difference(x, y, k)
                   for x, y, k in factors):
            witness = "minor columns %s of A(%s;%d)" % (cols, name, width)
            return False, cases, witness
    return True, cases, None


def minors_suite(max_square=6, max_minor=5):
    """The determinant identity for all compositions, then all wide minors,
    one depth-first walk per n_total."""
    cases = 0
    for n_total in range(1, max_square + 1):
        width = n_total + 2 if n_total <= max_minor else n_total
        for blocks, product, minors in _composition_walk(n_total, width):
            verdict, leaf_cases, witness = _check_minors(
                blocks, width, product, minors.items())
            cases += leaf_cases
            if not verdict:
                return {"statement": "minors", "blocks": list(blocks),
                        "cases": cases, "verdict": False, "witness": witness}
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

    def image_power(self, k):
        """The normal form of (var +_F t)^k, each power from the one below."""
        ctx, nf = self.ctx, self.fp.normal_form

        def build():
            if k == 0:
                return ctx.one()
            if k == 1:
                return nf(ctx.shift_image(self.var, 1))
            return nf(self.image_power(k - 1) * self.image_power(1))
        return ctx.memo(("image_power", self.var, self.p, k), build)

    def shift(self, f):
        """The normal form of f(var +_F t): one `add_products` of
        digit_k * image_power(k) over the var-digits of f's normal form,
        then one normal form.

        Without a Laurent floor truncation is a quotient by an ideal and the
        normal form a ring map, so this equals the normal form of
        `substitute`'s Horner value; truncated Laurent products are not
        associative, so a table with a floor is refused.  The digits and
        the powers are normal forms, so every product is p-integral and one
        normal form of the sum equals the sum of theirs.
        """
        if any(floor is not None for floor in self.ctx.table.floors):
            raise SeriesError("the shift is summed over powers of its image, "
                              "which needs a table without Laurent floors")
        nf = self.fp.normal_form
        f = nf(f)
        f.check_bindings({self.var: self.image_power(1)})
        return nf(self.ctx.zero().add_products(
            [(digit, self.image_power(k))
             for k, digit in f.as_poly_in(self.var).items()]))

    def unit_inverse(self):
        """Inverse of c(t)/t^(p-1), c(t) = prod_{i<p} [i]_F(t) read as the
        var^1 coefficient of pi; a unit with constant (p-1)!."""
        def build():
            c = self.pi_power(1).coeff_of(self.var, 1)
            return c.shift_var("t", -(self.p - 1)).mul_inverse()
        return self.ctx.memo(("c_unit_inverse", self.p), build)


def invariant_decompose(phi, action):
    """Write an invariant series as a polynomial in the orbit product.

    Returns psi, which maps n to the coefficient of pi^n, each extracted
    after certifying that the lowest coefficient is divisible by c(t)^n
    (t-order at least n(p-1) modulo the ideal); a divisibility failure
    raises FalsificationError.  Raises SeriesError on input with p in a
    denominator or not invariant modulo p.
    """
    fp = action.fp
    var = action.var
    p = action.p
    # invariance is decided in B/(p)
    f = fp.normal_form(phi)
    if action.shift(f) != f:
        raise SeriesError("series is not invariant under the shift")
    psi = {}
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
        psi[n] = q
        f = fp.normal_form(f - q * action.pi_power(n))
        if not f.is_zero and f.min_degree(var) <= n:
            raise SeriesError("stripping failed to raise the lowest degree")
    return psi


def reconstruct(action, psi):
    return action.ctx.zero().add_products(
        [(q, action.pi_power(n)) for n, q in psi.items()])


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
    checked, witness = 0, None
    for case in range(count):
        truth = {k: _random_coefficient(ctx, rng) for k in range(kmax + 1)}
        phi = reconstruct(action, truth)
        psi = invariant_decompose(phi, action)
        wrong = next((k for k in range(kmax + 1) if not fp.normal_form(
            psi.get(k, ctx.zero()) - truth[k]).is_zero), None)
        extra = [k for k in psi if k > kmax
                 and not fp.normal_form(psi[k]).is_zero]
        if wrong is not None:
            witness = "case %d power %d mismatch" % (case, wrong)
        elif extra:
            witness = "case %d spurious powers %s" % (case, extra)
        elif not fp.normal_form(phi - reconstruct(action, psi)).is_zero:
            witness = "case %d reconstruction mismatch" % case
        if witness:
            break
        checked += 1
    return {"statement": "thmG", "p": p, "cases": checked,
            "verdict": witness is None, "witness": witness}


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
    # pi(x) at x = F(x, y) is the orbit product of x +_F y
    phi = ax.pi_power(1).substitute({"x": ctx.fgl()})
    inner = invariant_decompose(phi, ax)
    coefficients = {}
    for k, r_k in inner.items():
        outer = invariant_decompose(r_k, ay)
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
        recon = ctx.zero().add_products(
            [(q * ax.pi_power(k), ay.pi_power(l))
             for (k, l), q in coefficients.items()])
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
