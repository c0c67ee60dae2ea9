"""Arithmetic modulo the formal p.

For a prime p, g(t) = [p]_F(t)/t generates R[[t]]/(g) and R((t))/(g).  In
the Hurewitz coordinates R = Z[b1, b2, ...], B(t) = t + b1*t^2 + ... and so
log(t) are integral, and p divides every term of [p]_F(t) = sum_i b_i
(p*log t)^(i+1).  Hence g = p*u with u(0) = 1 a unit, and (g) = (p) (Adams,
Stable Homotopy and Generalised Homology, II; Ravenel, Complex Cobordism,
A2).  FormalP certifies g = p*u and keeps u^-1.  Every question is then one
about coefficients in Z_(p), where a denominator prime to p is a unit, so
coefficients stay the rationals they are: the normal form is mod_p of each
coefficient, num * den^-1 mod p; Phi = nonpos(nonpos(S)*u^-1)/p; and f
reduces to f - g*Q, Q = neg(f*u^-1)/p.  Integrality is certified in
Z_(p)[b] (no p in a denominator), not in L.
"""

from __future__ import annotations

from fractions import Fraction

# coeffs_mod_p is imported from here too, as the normal form's rule
from .series import FalsificationError, SeriesError, coeffs_mod_p, vp


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

    @classmethod
    def from_generator(cls, g, p):
        """The FormalP of a given g, certified as FormalP(ctx, p) is."""
        return cls.__new__(cls)._certify(g, p)

    def _certify(self, g, p):
        if g.constant() != p:
            raise SeriesError("generator must have constant term p")
        if g.scale(Fraction(1, p)).denominator != 1:
            e, c = next((e, c) for e, c in g.sorted_terms()
                        if type(c) is not int or c % p)
            raise SeriesError("p = %d does not divide the coefficient %s "
                              "of %s in [p](t)/t"
                              % (p, c, g.table.monomial_str(e)))
        ti = g.table.index["t"]
        floor = g.table.floors[ti] or 0
        if floor and any(ti in idxs for idxs, _bound in g.table.caps):
            raise SeriesError("a degree cap on t is no ideal below t^0")
        self.p, self.g, self._t_floor = p, g, floor
        # as deep as the t floor, so f*u^-1 misses no term t^-k brings back
        self.u_inv = g.scale(Fraction(1, p)).retruncate(
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

    def divide_by_formal_p(self, S):
        """The unique Phi with t-degrees <= 0 and S - g*Phi strictly positive,
        nonpos(nonpos(S)*u^-1)/p; PDivisibilityError if p does not divide a
        digit, which falsifies the claim behind Symmetric operations."""
        phi = self._low_digits(S.split_parts("t")[0], 0)
        bad = lowest_indivisible(phi, self.p)
        if bad is not None:
            raise PDivisibilityError(
                "p-divisibility violated at t^%d on %s (coefficient %s)" % bad,
                witness="t^%d * %s" % bad[:2])
        return phi.scale(Fraction(1, self.p))
