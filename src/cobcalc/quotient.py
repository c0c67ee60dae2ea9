"""Arithmetic modulo the formal p.

For a prime p, g(t) = [p]_F(t)/t generates R[[t]]/(g) and R((t))/(g).  In
the Hurewitz coordinates R = Z[b1, b2, ...], B(t) = t + b1*t^2 + ... and so
log(t) are integral, and p divides every term of [p]_F(t) = sum_i b_i
(p*log t)^(i+1).  Hence g = p*u with u(0) = 1 a unit, and (g) = (p) (Adams,
Stable Homotopy and Generalised Homology, II; Ravenel, Complex Cobordism,
A2).  FormalP certifies g = p*u and g = p mod t, so u = u^-1 = 1 mod t,
and keeps u^-1.  Every question is then one about coefficients in Z_(p),
where a denominator prime to p is a unit, so coefficients stay the
rationals they are: the normal form is mod_p of each coefficient,
num * den^-1 mod p; Phi = D(S)/p, where the lift
D(x) = nonpos(nonpos(x)*u^-1) is linear in x and, as u^-1 = 1 mod t, is
x's t^0 digit plus the lift of its negative digits; and f reduces to
f - g*Q, Q = neg(f*u^-1)/p.
Integrality is certified in Z_(p)[b] (no p in a denominator), not in L.
"""

from __future__ import annotations

from fractions import Fraction

# coeffs_mod_p is imported from here too, as the normal form's rule
from .series import (FalsificationError, GradedSeries, SeriesError,
                     coeffs_mod_p, vp)


class PDivisibilityError(FalsificationError):
    """An exact division by p hit a coefficient p does not divide."""


def formal_p(ctx, p):
    """The FormalP of ctx at p, built once and cached on the context."""
    return ctx.memo(("formal_p", p), lambda: FormalP(ctx, p))


def lowest_indivisible(series, p):
    """(j, monomial, coefficient) of the least term p does not divide."""
    # p divides every coefficient exactly when series/p keeps no p in its
    # common denominator
    if series.scale(Fraction(1, p)).denominator % p:
        return None
    ti = series.table.index["t"]
    bad = min(((e[ti], sum(e) - e[ti], e[:ti] + (0,) + e[ti + 1:], c)
               for e, c in series.sorted_terms()
               if (c % p if type(c) is int else vp(c, p) < 1)), default=None)
    return bad and (bad[0], series.table.monomial_str(bad[2]), bad[3])


class FormalP:
    """g = [p]_F(t)/t = p*u; `formal_p` caches it, holding no context."""

    def __init__(self, ctx, p):
        if p < 2:
            raise SeriesError("p must be a prime >= 2")
        self._certify(ctx.nseries(p).shift_var("t", -1), int(p))

    def _certify(self, g, p):
        # g = p mod t: u^-1 = 1 mod t, so a t^0 digit lifts to itself
        if g.split_parts("t")[0] != GradedSeries.const(
                g.table, g.trunc_plus, g.trunc_minus, p):
            raise SeriesError("generator must be p modulo t")
        u = g.scale(Fraction(1, p))
        if u.denominator != 1:
            e, c = next((e, c) for e, c in g.sorted_terms()
                        if type(c) is not int or c % p)
            raise SeriesError("p = %d does not divide the coefficient %s "
                              "of %s in [p](t)/t"
                              % (p, c, g.table.monomial_str(e)))
        ti = g.table.index["t"]
        floor = g.table.floors[ti] or 0
        if floor and any(ti in idxs for idxs, _bound in g.table.caps):
            raise SeriesError("a degree cap on t is no ideal below t^0")
        self.p, self.g, self.u, self._t_floor = p, g, u, floor
        # as deep as the t floor, so f*u^-1 misses no term t^-k brings back
        self.u_inv = u.retruncate(
            g.trunc_plus - floor, g.trunc_minus).mul_inverse()
        return self

    def _low_digits(self, f, top):
        """The digits of f*u^-1 at t-degrees <= top, at f's truncation."""
        f._compat(self.g)
        deep = f.retruncate(self.u_inv.trunc_plus, f.trunc_minus) * self.u_inv
        return deep.split_parts("t", top)[0].retruncate(f.trunc_plus,
                                                        f.trunc_minus)

    def normal_form(self, f):
        """mod_p of every coefficient: the normal form, as (g) = (p)."""
        f._compat(self.g)
        # without a t floor the table already refuses negative t-powers
        if self._t_floor:
            lo = f.min_degree("t")
            if lo is not None and lo < 0:
                raise SeriesError("normal form expects no negative t-powers")
        return coeffs_mod_p(f, self.p)

    def is_integral_mod_ideal(self, f):
        """(verdict, representative, witness) for f's class lying in the
        nonnegative p-integral part.  The representative f - g*Q, Q =
        neg(f*u^-1)/p, has no negative t-powers and no p in a denominator
        when the verdict holds."""
        p = self.p
        if (f.min_degree("t") or 0) < 0:
            q = self._low_digits(f, -1)
            bad = lowest_indivisible(q, p)
            if bad is not None:
                return False, None, "t^%d * %s (coefficient %s)" % bad
            f = f - self.g * q.scale(Fraction(1, p))
        if f.denominator % p == 0:
            exp, c = next((e, c) for e, c in f.sorted_terms()
                          if type(c) is not int and c.denominator % p == 0)
            return False, None, "%s (coefficient %s)" % (
                f.table.monomial_str(exp), c)
        return True, f, None

    def lift(self, f):
        """D(f) = nonpos(nonpos(f)*u^-1), the Q with t-degrees <= 0 and
        f - u*Q strictly positive in t, certified: FalsificationError, with
        the remainder's terms at t^0 and below as witness, if it is not.

        The t^0 digit of f passes through, so the division and the
        certificate each make one product, on the negative digits alone;
        a series without negative t-powers costs no product.
        """
        neg, zero = f.split_parts("t")[0].split_parts("t", -1)
        if neg.is_zero:
            return zero
        q = self._low_digits(neg, 0)
        rest = neg - self.u * q
        lo = rest.min_degree("t")
        if lo is not None and lo < 1:
            raise FalsificationError(
                "remainder of the division by [p](t)/t is not strictly "
                "positive in t", witness=rest.split_parts("t")[0].render())
        return zero + q

    def over_p(self, q):
        """q/p; PDivisibilityError, naming the least term p does not divide,
        if there is one: it falsifies the claim behind Symmetric
        operations.  q is scaled once, and that quotient's denominator is
        the test; only a failing q is scanned for its least such term."""
        out = q.scale(Fraction(1, self.p))
        if out.denominator % self.p == 0:
            bad = lowest_indivisible(q, self.p)
            raise PDivisibilityError(
                "p-divisibility violated at t^%d on %s (coefficient %s)" % bad,
                witness="t^%d * %s" % bad[:2])
        return out

    def divide_by_formal_p(self, S):
        """The unique Phi with t-degrees <= 0 and S - g*Phi strictly positive,
        D(S)/p (`over_p`) in one product, uncertified; PDivisibilityError if
        p does not divide a digit."""
        neg, zero = S.split_parts("t")[0].split_parts("t", -1)
        return self.over_p(zero + self._low_digits(neg, 0))
