"""Arithmetic modulo the formal p.

For a prime p the series g(t) = [p]_F(t)/t = p + c1*t + c2*t^2 + ... generates
the quotients R[[t]]/(g) and, on the Laurent side, R[[t]][1/t]/([p]_F * t).
This module provides canonical normal forms (every integer digit reduced into
[0, p) by the rewrite p -> -(c1*t + ...), which strictly raises t-order and so
terminates at finite truncation), an integrality decision procedure for
Laurent series with rational coefficients, and the exact triangular division
by g that produces Symmetric operations.
"""

from __future__ import annotations

from fractions import Fraction

from .series import GradedSeries, SeriesError, vp


class PDivisibilityError(SeriesError):
    """An exact division by p hit a coefficient p does not divide."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def coeffs_mod_p(series, p):
    """Reduce every integer coefficient into [0, p)."""
    def red(c):
        if not isinstance(c, int):
            raise SeriesError("mod-p reduction needs integer coefficients")
        return c % p
    return series.map_coefficients(red)


class FormalP:
    """The generator g = [p]_F(t)/t over a context's ambient ring."""

    def __init__(self, ctx, p):
        if p < 2:
            raise SeriesError("p must be a prime >= 2")
        self.ctx = ctx
        self.p = int(p)
        pt = ctx.nseries(p)
        if ctx.additive:
            # [p](t) = p*t, so g is the constant p
            self.g = ctx.const(p)
        else:
            self.g = pt.shift_var("t", -1)
        if self.g.constant() != self.p:
            raise SeriesError("generator must have constant term p")
        self._tails = None

    def _tail_digits(self, up_to):
        if self._tails is None or len(self._tails) <= up_to:
            self._tails = [self.g.coeff_of("t", k) for k in range(up_to + 1)]
        return self._tails

    # ----- denominator clearing -------------------------------------------

    def _big_exponent(self):
        ctx = self.ctx
        floor = ctx.table.floors[ctx.table.index["t"]] or 0
        return ctx.trunc_plus - floor + ctx.trunc_minus + 4

    def clear_coprime_denominators(self, f):
        """Replace denominators prime to p by modular inverses.

        p is topologically nilpotent at truncation (p^(D+1) lies in the ideal
        plus terms beyond t^D), so adding multiples of p^BIG never changes the
        class of f; after this pass all denominators are powers of p.
        """
        p = self.p
        big = self._big_exponent()
        pbig = p ** big
        out = {}
        for exp, c in f.terms.items():
            c = Fraction(c)
            den = c.denominator
            e = 0
            while den % p == 0:
                den //= p
                e += 1
            if den == 1:
                out[exp] = c
                continue
            inv = pow(den, -1, pbig)
            num = (c.numerator * inv) % (pbig * p ** e)
            out[exp] = Fraction(num, p ** e)
        return GradedSeries(f.table, f.trunc_plus, f.trunc_minus, out)

    # ----- normal forms -----------------------------------------------------

    def normal_form(self, f):
        """Unique representative with every digit coefficient in [0, p)."""
        lo = f.min_degree("t")
        if lo is not None and lo < 0:
            raise SeriesError("normal form expects no negative t-powers")
        p = self.p
        t_axis = f.table.axis("t")
        ti = f.table.index["t"]
        for k in range(0, f.trunc_plus + 1):
            digit = f.coeff_of("t", k)
            if digit.is_zero:
                continue
            carry = {}
            for exp, c in digit.terms.items():
                if not isinstance(c, int):
                    raise SeriesError("normal form expects integer "
                                      "coefficients, got %r" % (c,))
                q = c // p
                if q:
                    carry[exp] = q
            if not carry:
                continue
            carry_series = GradedSeries(f.table, f.trunc_plus, f.trunc_minus,
                                        carry, validate=False)
            f = f - (carry_series.shift_var("t", k)) * self.g
        return f

    # ----- Laurent-side reduction -------------------------------------------

    def laurent_reduce(self, f):
        """Clear all negative t-digits using multiples of g.

        At each negative degree the multiplier is forced: the digit must be
        exactly divisible by p.  Returns (ok, reduced, witness).
        """
        p = self.p
        lo = f.min_degree("t")
        if lo is None or lo >= 0:
            return True, f, None
        for j in range(lo, 0):
            digit = f.coeff_of("t", j)
            if digit.is_zero:
                continue
            for exp, c in digit.terms.items():
                if vp(c, p) < 1:
                    witness = "t^%d * %s (coefficient %s)" % (
                        j, digit.table.monomial_str(exp), c)
                    return False, f, witness
            h = digit.scale(Fraction(1, p)).shift_var("t", j)
            f = f - h * self.g
        return True, f, None

    def is_integral_mod_ideal(self, f):
        """Decide membership of f's class in the nonnegative integral part.

        Returns (verdict, representative, witness): the representative has no
        negative t-powers and no p in any denominator when the verdict holds.
        """
        cleared = self.clear_coprime_denominators(f)
        ok, reduced, witness = self.laurent_reduce(cleared)
        if not ok:
            return False, None, witness
        for exp, c in reduced.terms.items():
            if not isinstance(c, int) and Fraction(c).denominator != 1:
                return False, None, "%s (coefficient %s)" % (
                    reduced.table.monomial_str(exp), c)
        return True, reduced.map_coefficients(int), None

    # ----- the defining division ---------------------------------------------

    def divide_by_formal_p(self, S):
        """Unique Phi with t-degrees <= 0 and S - g*Phi strictly positive.

        Triangular solve from the lowest t-degree up; every step divides by p
        and must be exact (per monomial), otherwise the divisibility claim
        behind Symmetric operations is falsified.  Positive t-digits of S do
        not enter the solve (the result depends on nonpos(S) only) and the
        residual S - g*Phi has strictly positive t-degrees by construction.
        """
        S, _pos = S.split_parts("t")
        if S.is_zero:
            return S
        p = self.p
        digits = S.as_poly_in("t")
        low = min(digits)
        tails = self._tail_digits(-low)
        phi = {}
        zero = GradedSeries.zero(S.table, S.trunc_plus, S.trunc_minus)
        for j in range(low, 1):
            val = digits.get(j, zero)
            for m, phim in phi.items():
                k = j - m
                if 1 <= k <= -low:
                    val = val - phim * tails[k]
            if val.is_zero:
                continue
            for exp, c in val.terms.items():
                if vp(c, p) < 1:
                    raise PDivisibilityError(
                        "p-divisibility violated at t^%d on %s "
                        "(coefficient %s)" % (j, val.table.monomial_str(exp),
                                              c),
                        witness="t^%d * %s" % (j,
                                               val.table.monomial_str(exp)))
            phi[j] = val.scale(Fraction(1, p))
        out = zero
        for j, coeff in phi.items():
            out = out + coeff.shift_var("t", j)
        return out

