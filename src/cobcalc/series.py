"""Sparse multivariate series with exact rational coefficients.

Everything downstream (formal group laws, quotient rings, operations) is
built on one container: a finitely supported map from exponent vectors to
nonzero rationals, carrying a shared variable table and explicit truncation
bounds.  Truncation is part of the ring: two series may be combined only if
their tables and bounds agree, and every result is re-truncated to the same
bounds.  Variables of negative weight (the ambient polynomial generators
b1, b2, ...) are truncated by total weight independently of the ordinary
variables, so a series can be a Laurent polynomial in t with polynomial
coefficients in the b's at the same time.

The product is one sparse kernel in the manner of Monagan and Pearce
(Sparse polynomial multiplication and division in Maple 14, 2009).  Each
term is packed into one int holding its exponents, its positive degree and
its negative-weight degree, in fields whose offsets and widths are worked
out on each call from the exponent ranges of the two operands, so Laurent
floors and exponents of any size need no width setting.  Packed keys add
like exponent vectors, and sorting them buckets the terms by negative
degree and orders each bucket by positive degree; both truncations then
end their loops with a break, so only admissible pairs are visited.  Each
operand's common denominator is cleared on entry, so the pair loop adds and
multiplies plain ints; each output term is unpacked and divided once.
Exact division keeps its remainder in a heap in graded-lexicographic order
and subtracts each shifted divisor term by term.  Substitution is Horner's
rule (Brent and Kung, J. ACM 1978): degree K in one variable costs K products.
Reversion is Lagrange inversion: one inverse, then one product per degree.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from heapq import heapify, heappop, heappush
import json
from math import lcm
from operator import add, itemgetter, mul, sub
import re


class SeriesError(Exception):
    """Base class for series arithmetic failures."""


class TableMismatch(SeriesError):
    pass


class TruncationMismatch(SeriesError):
    pass


class LaurentUnderflow(SeriesError):
    pass


class NotDivisible(SeriesError):
    def __init__(self, message, monomial=None):
        super().__init__(message)
        self.monomial = monomial


class NonUnitLowest(SeriesError):
    pass


class SubstitutionOrder(SeriesError):
    pass


_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")


def _norm_coeff(c):
    """Coerce to int when possible, keep exact Fraction otherwise."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise SeriesError("coefficients must be int or Fraction, got %r" % (c,))


def vp(value, p):
    """p-adic valuation of a nonzero rational."""
    value = Fraction(value)
    if value == 0:
        raise ValueError("valuation of zero is undefined")
    v = 0
    n = value.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = value.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


class Variable(namedtuple("Variable", "name weight laurent_floor",
                          defaults=(None,))):
    """One generator: weight grades it, laurent_floor permits negative powers."""

    __slots__ = ()

    def __new__(cls, name, weight, laurent_floor=None):
        if not _NAME_RE.match(name):
            raise SeriesError("bad variable name %r" % (name,))
        if weight == 0:
            raise SeriesError("variable weight must be nonzero")
        if laurent_floor is not None and laurent_floor > 0:
            raise SeriesError("laurent_floor must be <= 0")
        return super().__new__(cls, name, weight, laurent_floor)


class VariableTable:
    """Ordered variable list shared by all series of one computation.

    degree_caps is a collection of (names, bound) pairs; a term is discarded
    once the exponent sum over the named variables exceeds the bound.  Each
    cap generates a monomial ideal, so capping is an exact ring quotient
    (unlike the plus-truncation, which is a precision cut).
    """

    __slots__ = ("variables", "index", "weights", "floors", "caps",
                 "_pos_plain", "_neg", "_laurent", "_tp_inactive_bound",
                 "_wplus", "_wminus")

    def __init__(self, variables, degree_caps=()):
        self.variables = tuple(variables)
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise SeriesError("duplicate variable names")
        self.index = {v.name: i for i, v in enumerate(self.variables)}
        self.weights = tuple(v.weight for v in self.variables)
        # per-variable weight in the positive and in the negative degree
        self._wplus = tuple(max(w, 0) for w in self.weights)
        self._wminus = tuple(max(-w, 0) for w in self.weights)
        self.floors = tuple(v.laurent_floor for v in self.variables)
        caps = []
        for entry in degree_caps:
            group, bound = entry
            if isinstance(group, str):
                group = (group,)
            idxs = tuple(sorted(self.index[n] for n in group))
            if bound < 0:
                raise SeriesError("degree cap must be >= 0")
            caps.append((idxs, int(bound)))
        self.caps = tuple(caps)
        self._pos_plain = tuple(i for i, v in enumerate(self.variables)
                                if v.weight > 0 and v.laurent_floor is None)
        self._neg = tuple(i for i, v in enumerate(self.variables) if v.weight < 0)
        self._laurent = tuple(i for i, v in enumerate(self.variables)
                              if v.laurent_floor is not None)
        # Largest positive degree any admissible term can reach, or None if
        # unbounded.  Used to decide whether trunc_plus actually clips.
        bound = 0
        ok = True
        for i, v in enumerate(self.variables):
            if v.weight <= 0:
                continue
            per = [b for (idxs, b) in self.caps if i in idxs]
            if not per:
                ok = False
                break
            bound += v.weight * min(per)
        self._tp_inactive_bound = bound if ok else None

    def names(self):
        return tuple(v.name for v in self.variables)

    def zero_exp(self):
        return (0,) * len(self.variables)

    def admit(self, exp):
        """None if the term is dropped by a cap, True otherwise."""
        for idxs, bound in self.caps:
            s = 0
            for i in idxs:
                s += exp[i]
            if s > bound:
                return None
        return True

    def degrees(self, exp):
        """(positive-weight degree, negative-weight degree) of a term."""
        return sum(map(mul, exp, self._wplus)), sum(map(mul, exp, self._wminus))

    def monomial_str(self, exp):
        parts = []
        for i, e in enumerate(exp):
            if e == 0:
                continue
            name = self.variables[i].name
            parts.append(name if e == 1 else "%s^%d" % (name, e))
        return "*".join(parts) if parts else "1"

    def __eq__(self, other):
        return (isinstance(other, VariableTable)
                and self.variables == other.variables
                and self.caps == other.caps)

    def __hash__(self):
        return hash((self.variables, self.caps))

    def __repr__(self):
        return "VariableTable(%s)" % (", ".join(self.names()),)


def _order_key(exp):
    return (sum(exp), exp)


def _pack(terms, scale, low):
    """One operand of a product as sorted [(packed key, int coefficient)],
    and the common denominator cleared from its coefficients."""
    den = lcm(*{c.denominator for c in terms.values() if type(c) is not int})
    bias = sum(map(mul, low, scale))
    rows = []
    for e, c in terms.items():
        if type(c) is not int:
            c = c.numerator * (den // c.denominator)
        elif den != 1:
            c *= den
        rows.append((sum(map(mul, e, scale)) - bias, c))
    rows.sort(key=itemgetter(0))
    return rows, den


class GradedSeries:
    """Finitely supported exact series over a VariableTable.

    Terms whose positive degree exceeds trunc_plus or whose negative weight
    exceeds trunc_minus are discarded on construction; exponents below a
    Laurent floor (or negative without one) raise.
    """

    __slots__ = ("table", "trunc_plus", "trunc_minus", "terms")

    def __init__(self, table, trunc_plus, trunc_minus, terms, validate=True):
        self.table = table
        self.trunc_plus = int(trunc_plus)
        self.trunc_minus = int(trunc_minus)
        if self.trunc_minus < 0 or self.trunc_plus < 0:
            raise SeriesError("truncation bounds must be >= 0")
        if not validate:
            self.terms = terms
            return
        floors = table.floors
        kept = {}
        for exp, c in terms.items():
            c = _norm_coeff(c)
            if c == 0:
                continue
            if len(exp) != len(floors):
                raise SeriesError("exponent arity mismatch")
            if table.admit(exp) is None:
                continue
            dp, dm = table.degrees(exp)
            if dp > self.trunc_plus or dm > self.trunc_minus:
                continue
            for i, e in enumerate(exp):
                if e < 0:
                    f = floors[i]
                    if f is None or e < f:
                        raise LaurentUnderflow(
                            "exponent %d of %s below floor" %
                            (e, table.variables[i].name))
            kept[tuple(exp)] = c
        self.terms = kept

    # ----- constructors -------------------------------------------------

    @classmethod
    def zero(cls, table, trunc_plus, trunc_minus):
        return cls(table, trunc_plus, trunc_minus, {}, validate=False)

    @classmethod
    def const(cls, table, trunc_plus, trunc_minus, c):
        c = _norm_coeff(c)
        terms = {} if c == 0 else {table.zero_exp(): c}
        return cls(table, trunc_plus, trunc_minus, terms, validate=False)

    @classmethod
    def one(cls, table, trunc_plus, trunc_minus):
        return cls.const(table, trunc_plus, trunc_minus, 1)

    @classmethod
    def monomial(cls, table, trunc_plus, trunc_minus, exps, coeff=1):
        """exps maps variable names to integer exponents."""
        e = [0] * len(table.variables)
        for name, k in exps.items():
            e[table.index[name]] = int(k)
        return cls(table, trunc_plus, trunc_minus, {tuple(e): coeff})

    # ----- basic structure ----------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def _compat(self, other):
        if self.table != other.table:
            raise TableMismatch("series over different variable tables")
        if (self.trunc_plus != other.trunc_plus
                or self.trunc_minus != other.trunc_minus):
            raise TruncationMismatch(
                "mixed truncations (%d,%d) vs (%d,%d)" %
                (self.trunc_plus, self.trunc_minus,
                 other.trunc_plus, other.trunc_minus))

    def _make(self, terms, validate=True):
        return GradedSeries(self.table, self.trunc_plus, self.trunc_minus,
                            terms, validate=validate)

    def __eq__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return (self.table == other.table
                and self.trunc_plus == other.trunc_plus
                and self.trunc_minus == other.trunc_minus
                and self.terms == other.terms)

    __hash__ = None

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _order_key(kv[0]))

    def constant(self):
        return self.terms.get(self.table.zero_exp(), 0)

    def coeff(self, exps):
        e = [0] * len(self.table.variables)
        for name, k in exps.items():
            e[self.table.index[name]] = int(k)
        return self.terms.get(tuple(e), 0)

    def as_poly_in(self, name):
        """Split into {exponent of name: series with that variable cleared}."""
        i = self.table.index[name]
        out = {}
        for exp, c in self.terms.items():
            k = exp[i]
            rest = exp[:i] + (0,) + exp[i + 1:]
            out.setdefault(k, {})[rest] = c
        return {k: self._make(d, validate=False) for k, d in sorted(out.items())}

    def coeff_of(self, name, k):
        i = self.table.index[name]
        out = {}
        for exp, c in self.terms.items():
            if exp[i] == k:
                out[exp[:i] + (0,) + exp[i + 1:]] = c
        return self._make(out, validate=False)

    def min_degree(self, name):
        i = self.table.index[name]
        return min((exp[i] for exp in self.terms), default=None)

    def max_degree(self, name):
        i = self.table.index[name]
        return max((exp[i] for exp in self.terms), default=None)

    def weight(self):
        """Common weighted degree of all terms, or None if inhomogeneous."""
        w = None
        weights = self.table.weights
        for exp in self.terms:
            d = sum(weights[i] * e for i, e in enumerate(exp) if e)
            if w is None:
                w = d
            elif w != d:
                return None
        return w

    # ----- ring operations ----------------------------------------------

    def __add__(self, other):
        self._compat(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for exp, c in other.terms.items():
            v = out.get(exp)
            if v is None:
                out[exp] = c
            else:
                v = v + c
                if v:
                    out[exp] = _norm_coeff(v)
                else:
                    del out[exp]
        return self._make(out, validate=False)

    def __neg__(self):
        return self._make({e: -c for e, c in self.terms.items()}, validate=False)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = _norm_coeff(Fraction(c) if not isinstance(c, (int, Fraction)) else c)
        if c == 0:
            return self._make({}, validate=False)
        if c == 1:
            return self
        return self._make({e: _norm_coeff(v * c) for e, v in self.terms.items()},
                          validate=False)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._compat(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return self._make({}, validate=False)
        if len(a) > len(b):
            a, b = b, a
        table = self.table
        wplus, wminus = table._wplus, table._wminus
        alo, blo = list(map(min, zip(*a))), list(map(min, zip(*b)))
        lo = list(map(add, alo, blo))
        hi = list(map(add, map(max, zip(*a)), map(max, zip(*b))))
        # A packed key holds, from the low end, each exponent less its lowest
        # value in the product, then the positive degree, then the negative
        # degree, each less its lowest value and each field as wide as its
        # range over the product needs.  So keys add like exponents, and
        # sorted keys are sorted by negative and then by positive degree.
        fields = []
        off = 0
        for low, high in zip(lo, hi):
            width = (high - low).bit_length()
            fields.append((off, (1 << width) - 1, low))
            off += width
        pshift = off
        plo = sum(map(mul, lo, wplus))
        mshift = pshift + (sum(map(mul, hi, wplus)) - plo).bit_length()
        pmask = (1 << (mshift - pshift)) - 1
        scale = [(1 << f[0]) + (wp << pshift) + (wm << mshift)
                 for f, wp, wm in zip(fields, wplus, wminus)]
        arows, da = _pack(a, scale, alo)
        brows, db = _pack(b, scale, blo)
        # the truncations as bounds on the degree fields of a product key
        pmax = self.trunc_plus - plo
        mmax = self.trunc_minus - sum(map(mul, lo, wminus))
        bkeys = [r[0] for r in brows]
        buckets = []
        start = 0
        while start < len(bkeys):
            fm = bkeys[start] >> mshift
            end = bisect_left(bkeys, (fm + 1) << mshift, start)
            buckets.append((fm, fm << mshift, bkeys[start:end],
                            brows[start:end]))
            start = end
        acc = {}
        get = acc.get
        for ka, ca in arows:
            mlim = mmax - (ka >> mshift)
            plim = (pmax - ((ka >> pshift) & pmask) + 1) << pshift
            for fm, mbase, keys, rows in buckets:
                if fm > mlim:
                    break
                n = bisect_left(keys, mbase + plim)
                for kb, cb in (rows if n == len(rows) else rows[:n]):
                    k = ka + kb
                    acc[k] = get(k, 0) + ca * cb
        den = da * db
        caps = table.caps
        admit = table.admit
        # variables some product term could carry below their floor
        low_vars = [(i, f or 0) for i, f in enumerate(table.floors)
                    if lo[i] < (f or 0)]
        out = {}
        for k, v in acc.items():
            if not v:
                continue
            exp = tuple([((k >> o) & m) + low for o, m, low in fields])
            if caps and admit(exp) is None:
                continue
            for i, f in low_vars:
                if exp[i] < f:
                    raise LaurentUnderflow(
                        "exponent %d of %s below floor" %
                        (exp[i], table.variables[i].name))
            out[exp] = v if den == 1 else _norm_coeff(Fraction(v, den))
        return self._make(out, validate=False)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise SeriesError("powers must be nonnegative integers")
        result = GradedSeries.one(self.table, self.trunc_plus, self.trunc_minus)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def _times_monomial(self, exp, c):
        """self * (c * monomial exp) without the product kernel."""
        return self._make({tuple(map(add, e, exp)): v * c
                           for e, v in self.terms.items()})

    # ----- variable-level operations --------------------------------------

    def scale_var(self, name, c):
        """Substitute name -> c*name for a nonzero scalar c."""
        c = Fraction(c)
        if c == 0:
            raise SeriesError("scale_var requires a nonzero scalar")
        i = self.table.index[name]
        out = {}
        for exp, v in self.terms.items():
            e = exp[i]
            out[exp] = _norm_coeff(v * c ** e) if e else v
        return self._make(out, validate=False)

    def shift_var(self, name, k):
        """Multiply by name**k (k may be negative under a Laurent floor)."""
        if k == 0:
            return self
        i = self.table.index[name]
        out = {}
        for exp, v in self.terms.items():
            out[exp[:i] + (exp[i] + k,) + exp[i + 1:]] = v
        return self._make(out)

    def rename_var(self, old, new):
        """Move every exponent of old onto new (same weight required)."""
        io = self.table.index[old]
        im = self.table.index[new]
        vo, vn = self.table.variables[io], self.table.variables[im]
        if vo.weight != vn.weight:
            raise SeriesError("rename across different weights")
        out = {}
        for exp, v in self.terms.items():
            if exp[im] != 0 and exp[io] != 0:
                raise SeriesError("rename collision on %s" %
                                  self.table.monomial_str(exp))
            e = list(exp)
            e[im] += e[io]
            e[io] = 0
            out[tuple(e)] = v
        return self._make(out)

    def kill_vars(self, names):
        """Project away all terms that involve any of the named variables."""
        idxs = [self.table.index[n] for n in names]
        out = {e: c for e, c in self.terms.items()
               if all(e[i] == 0 for i in idxs)}
        return self._make(out, validate=False)

    def map_coefficients(self, fn):
        out = {}
        for e, c in self.terms.items():
            v = _norm_coeff(fn(c))
            if v:
                out[e] = v
        return self._make(out, validate=False)

    # ----- substitution ----------------------------------------------------

    def _binding_self_sufficient(self, img):
        """True when substituting img for a variable cannot resurrect terms
        this series already truncated away.  Each image term must (a) keep
        total positive degree >= 1 when trunc_plus clips at all, and (b)
        carry positive degree in capped/minus-graded directions."""
        table = self.table
        tp_idle = (table._tp_inactive_bound is not None
                   and table._tp_inactive_bound <= self.trunc_plus)
        for exp in img.terms:
            dp, dm = table.degrees(exp)
            if not tp_idle and dp < 1:
                return False
            dpnl = sum(table.weights[i] * exp[i] for i in table._pos_plain if exp[i])
            if dpnl + dm >= 1:
                continue
            # remaining option: a pure positive power of Laurent variables
            if all(exp[i] >= 0 for i in table._laurent) and \
                    any(exp[i] > 0 for i in table._laurent):
                continue
            return False
        return True

    def substitute(self, bindings, poly_vars=()):
        """Simultaneously replace variables by series over the same table,
        by Horner's rule in each variable (`_horner`).

        A replaced variable must either receive a self-sufficient image (see
        above) or be listed in poly_vars, asserting that this series is an
        exact polynomial in it (its support was never clipped in that
        direction), e.g. an ambient polynomial in the b's.
        """
        if not bindings:
            return self
        poly_vars = set(poly_vars)
        idxs = []
        for n, img in bindings.items():
            self._compat(img)
            idxs.append(self.table.index[n])
            if n not in poly_vars and not self._binding_self_sufficient(img):
                raise SubstitutionOrder(
                    "substitution for %s may need terms beyond truncation" % n)
        if any(exp[i] < 0 for exp in self.terms for i in idxs):
            raise SeriesError("cannot substitute into a negative power")
        return self._horner(list(bindings), bindings)

    def _horner(self, names, bindings):
        """Horner's rule in names[0]; each coefficient, which is free of it,
        takes the remaining bindings first, so the images are never
        substituted into and the substitution stays simultaneous."""
        digits = self.as_poly_in(names[0]) if names else None
        if not digits:
            return self
        img, rest, top = bindings[names[0]], names[1:], max(digits)
        acc = digits[top]._horner(rest, bindings)
        for k in range(top - 1, -1, -1):
            acc = acc * img
            if k in digits:
                acc = acc + digits[k]._horner(rest, bindings)
        return acc

    # ----- inverses and division -------------------------------------------

    def _lowest(self):
        if not self.terms:
            raise SeriesError("zero series has no lowest term")
        e = min(self.terms, key=_order_key)
        return e, self.terms[e]

    def mul_inverse(self):
        """Multiplicative inverse when some term is an invertible monomial
        dominating the rest (the remainder must be nilpotent under the
        truncation: higher degree, capped, or growing negative weight)."""
        if not self.terms:
            raise SeriesError("zero series has no inverse")
        table = self.table
        candidates = []
        for e in self.terms:
            inv_exp = tuple(-k for k in e)
            ok = True
            for i, k in enumerate(inv_exp):
                if k < 0 and (table.floors[i] is None or k < table.floors[i]):
                    ok = False
                    break
            if ok:
                candidates.append(e)
        if not candidates:
            e0 = min(self.terms, key=_order_key)
            raise NonUnitLowest("no invertible term in %s"
                                % table.monomial_str(e0))
        candidates.sort(key=_order_key)
        bound = self.trunc_plus + self.trunc_minus + 4
        for idxs, b in table.caps:
            bound += b
        for i in table._laurent:
            f = table.floors[i]
            if f is not None:
                bound -= f
        for e0 in candidates:
            inv_exp = tuple(-k for k in e0)
            c_inv = Fraction(1, 1) / Fraction(self.terms[e0])
            # the lead's inverse lowers the degree by lift, so the Neumann
            # series runs lift deeper and is cut back after it
            lift = max(table.degrees(e0)[0], 0)
            deep = GradedSeries(table, self.trunc_plus + lift,
                                self.trunc_minus, self.terms, validate=False)
            one = GradedSeries.one(table, deep.trunc_plus, self.trunc_minus)
            try:
                w = deep._times_monomial(inv_exp, c_inv) - one
                acc = one
                pw = one
                for step in range(bound + lift):
                    if pw.is_zero:
                        break
                    pw = pw * w
                    acc = acc + (pw if step % 2 == 1 else -pw)
                if pw.is_zero:
                    return self._make(
                        acc._times_monomial(inv_exp, c_inv).terms)
            except LaurentUnderflow:
                continue
        raise NonUnitLowest("no term of %s dominates the rest at this "
                            "truncation" % self.render())

    def exact_divide(self, g, integral=False):
        """Quotient q with self = q*g (within truncation), else NotDivisible.

        Works from the lowest term upward in graded-lexicographic order, so
        truncated high-order tails never obstruct the division.  With
        integral=True every coefficient quotient must be an integer.
        """
        if g.is_zero:
            raise SeriesError("division by the zero series")
        self._compat(g)
        table = self.table
        degrees = table.degrees
        admit = table.admit
        floors = table.floors
        tp, tm = self.trunc_plus, self.trunc_minus
        eg, cg = g._lowest()
        # divisor terms by positive degree, so the truncation ends the loop
        grows = sorted(((*degrees(e), e, c) for e, c in g.terms.items()),
                       key=itemgetter(0))
        rem = dict(self.terms)
        heap = [_order_key(e) for e in rem]
        heapify(heap)
        q = {}
        while heap:
            er = heappop(heap)[1]
            cr = rem.get(er)
            if cr is None:
                continue
            e = tuple(map(sub, er, eg))
            for i, k in enumerate(e):
                if k < 0 and (floors[i] is None or k < floors[i]):
                    raise NotDivisible("monomial %s not divisible by %s"
                                       % (table.monomial_str(er),
                                          table.monomial_str(eg)),
                                       monomial=table.monomial_str(er))
            c = _norm_coeff(Fraction(cr) / Fraction(cg))
            if integral and not isinstance(c, int):
                raise NotDivisible("coefficient of %s not divisible"
                                   % table.monomial_str(er),
                                   monomial=table.monomial_str(er))
            q[e] = c
            # rem -= c * e * g; every term lies at or above er in the order
            pe, me = degrees(e)
            for pg, mg, eh, ch in grows:
                if pe + pg > tp:
                    break
                if me + mg > tm:
                    continue
                exp = tuple(map(add, e, eh))
                if admit(exp) is None:
                    continue
                for i, k in enumerate(exp):
                    if k < 0 and (floors[i] is None or k < floors[i]):
                        raise LaurentUnderflow(
                            "exponent %d of %s below floor" %
                            (k, table.variables[i].name))
                v = rem.get(exp)
                if v is None:
                    rem[exp] = -c * ch
                    heappush(heap, _order_key(exp))
                else:
                    v -= c * ch
                    if v:
                        rem[exp] = v
                    else:
                        del rem[exp]
        return self._make(q)

    def compositional_inverse(self, name):
        """Series g with self(g) = name, for self = c1*name + higher order,
        by Lagrange inversion: [name^n] g = (1/n) [name^(n-1)] (name/self)^n,
        one product per degree after one mul_inverse.

        The linear coefficient c1 may be any invertible series in the other
        variables (for instance a Laurent unit in t).
        """
        table = self.table
        i = table.index[name]
        if any(exp[i] < 1 for exp in self.terms):
            raise SeriesError("compositional inverse needs order >= 1 in %s"
                              % name)
        if self.coeff_of(name, 1).is_zero:
            raise NonUnitLowest("no linear term in %s" % name)
        # the highest power of name an admissible term can carry: Laurent
        # powers of the other variables may lower the positive degree
        w = table.weights[i]
        if w > 0:
            top = (self.trunc_plus - sum(f * table.weights[j]
                                         for j, f in enumerate(table.floors)
                                         if f and j != i
                                         and table.weights[j] > 0)) // w
        else:
            top = self.trunc_minus // -w
        for idxs, b in table.caps:
            if i in idxs:
                top = min(top, b)
        h = self.shift_var(name, -1).mul_inverse()
        power = h
        out = {}
        for n in range(1, top + 1):
            if n > 1:
                power = power * h
            for exp, c in power.terms.items():
                if exp[i] == n - 1:
                    out[exp[:i] + (n,) + exp[i + 1:]] = Fraction(c) / n
        return self._make(out)

    # ----- calculus ---------------------------------------------------------

    def diff(self, name):
        i = self.table.index[name]
        out = {}
        for exp, c in self.terms.items():
            k = exp[i]
            if k == 0:
                continue
            out[exp[:i] + (k - 1,) + exp[i + 1:]] = c * k
        return self._make(out)

    def residue(self, name):
        """Coefficient of name**-1, as a series in the remaining variables."""
        return self.coeff_of(name, -1)

    def split_parts(self, name):
        """(terms with exponent of name <= 0, terms with exponent > 0)."""
        i = self.table.index[name]
        lo, hi = {}, {}
        for exp, c in self.terms.items():
            (lo if exp[i] <= 0 else hi)[exp] = c
        return self._make(lo, validate=False), self._make(hi, validate=False)

    # ----- serialization ------------------------------------------------------

    def to_json_dict(self):
        vars_out = []
        for v in self.table.variables:
            vars_out.append({"name": v.name, "weight": v.weight,
                             "laurent_floor": v.laurent_floor})
        doc = {
            "vars": vars_out,
            "trunc_plus": self.trunc_plus,
            "trunc_minus": self.trunc_minus,
            "terms": [
                {"exp": list(exp),
                 "num": str(Fraction(c).numerator),
                 "den": str(Fraction(c).denominator)}
                for exp, c in self.sorted_terms()
            ],
        }
        if self.table.caps:
            doc["degree_caps"] = [
                [[self.table.variables[i].name for i in idxs], bound]
                for idxs, bound in self.table.caps
            ]
        return doc

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, doc):
        variables = [Variable(d["name"], d["weight"], d.get("laurent_floor"))
                     for d in doc["vars"]]
        caps = [(tuple(names), bound)
                for names, bound in doc.get("degree_caps", [])]
        table = VariableTable(variables, degree_caps=caps)
        terms = {}
        for t in doc["terms"]:
            c = Fraction(int(t["num"]), int(t["den"]))
            terms[tuple(t["exp"])] = c
        return cls(table, doc["trunc_plus"], doc["trunc_minus"], terms)

    @classmethod
    def from_json(cls, text):
        return cls.from_json_dict(json.loads(text))

    # ----- display -------------------------------------------------------------

    def _coeff_str(self, c):
        c = Fraction(c)
        if c.denominator == 1:
            return str(c.numerator)
        return "%d/%d" % (c.numerator, c.denominator)

    def render(self):
        if not self.terms:
            return "0"
        pieces = []
        for exp, c in self.sorted_terms():
            mono = self.table.monomial_str(exp)
            cs = self._coeff_str(c)
            if mono == "1":
                text = cs
            elif cs == "1":
                text = mono
            elif cs == "-1":
                text = "-" + mono
            else:
                text = "%s*%s" % (cs, mono)
            pieces.append(text)
        out = pieces[0]
        for t in pieces[1:]:
            out += (" - " + t[1:]) if t.startswith("-") else (" + " + t)
        return out

    def __repr__(self):
        body = self.render()
        if len(body) > 160:
            body = body[:157] + "..."
        return "<GradedSeries %s>" % body
