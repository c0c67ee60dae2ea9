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

Series stay packed.  Each (table, trunc_plus, trunc_minus) has one key
layout, built once and cached on the table (`VariableTable.layout`): from
the low end, a field per exponent (the first variable highest), the plain
exponent sum, a field per degree cap, the positive degree and, on top, the
negative-weight degree.  A key is an affine function of the exponent vector,
so the key of a product is the sum of the keys less the key of 1, and every
field is wide enough for the sum of two admissible terms and for the
difference that exact division forms.  Sorted keys bucket by negative degree
and order each bucket by positive degree; keys masked to their sum and
exponent fields order terms graded-lexicographically.  A series holds a dict
from sorted keys to int numerators and one common denominator in lowest
terms, as FLINT's fmpq_poly keeps one content per polynomial; `terms`, a
read-only view by exponent tuple, is built only when something reads it.

The product is one sparse kernel in the manner of Monagan and Pearce
(Sparse polynomial multiplication and division in Maple 14, 2009): both
truncations end their loops with a break, so only admissible pairs are
visited; the pair loop adds and multiplies plain ints, and one mask on each
output key drops the terms past a degree cap and finds those below a
Laurent floor.  Exact division keeps its remainder in a heap of int keys in
graded-lexicographic order and subtracts each shifted divisor term by term.
A series changes layout only when its truncation changes (`retruncate`).
Substitution is Horner's rule (Brent and Kung, J. ACM 1978): degree K in one
variable costs K products.  Reversion is Lagrange inversion: one inverse,
then one product per degree.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from heapq import heapify, heappop, heappush
import json
from math import gcd, lcm
from operator import itemgetter, mul
import re
from types import MappingProxyType


class SeriesError(Exception):
    """Base class for series arithmetic failures."""


class FalsificationError(SeriesError):
    """A verified identity failed on concrete data; carries the witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


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


def _exact_scalar(c):
    if not isinstance(c, (int, Fraction)):
        raise SeriesError("scalars must be int or Fraction, got %r" % (c,))
    return _norm_coeff(c)


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


class Layout:
    """The packed key layout of one (table, trunc_plus, trunc_minus).

    A field holds an affine function of the exponents (one exponent, the
    exponent sum, a cap group's sum, the positive or the negative degree)
    plus a constant.  Over admissible terms a function ranges over [lo, hi],
    and over a digit of a negative power (`coeff_of`), which may lie past
    the bounds, over [2lo - hi, 2hi - lo].  A field holds [5lo - 4hi,
    5hi - 4lo], which covers the sum of two such terms and the er - eg + eh
    of exact division, so those keys never carry between fields; digits
    keep every exponent in [lo, hi], so an exponent field needs only
    [2lo - hi, 2hi - lo].  An exponent field's constant sets its guard bit
    exactly when the exponent is at or above its floor; a cap field's sets
    its guard bit exactly when the group's sum is past the cap.
    """

    __slots__ = ("fields", "scale", "base", "order", "capbits", "floorbits",
                 "expbits", "caps", "pshift", "pmask", "pconst", "ptop",
                 "mshift", "mconst", "mtop", "width")

    def __init__(self, table, trunc_plus, trunc_minus):
        if trunc_plus < 0 or trunc_minus < 0:
            raise SeriesError("truncation bounds must be >= 0")
        weights = table.weights
        floors = [f or 0 for f in table.floors]
        pfloor = sum(w * f for w, f in zip(weights, floors) if w > 0)
        mfloor = sum(-w * f for w, f in zip(weights, floors) if w < 0)
        his = []
        for i, (w, f) in enumerate(zip(weights, floors)):
            hi = ((trunc_plus - pfloor + w * f) // w if w > 0
                  else (trunc_minus - mfloor - w * f) // -w)
            for idxs, bound in table.caps:
                if i in idxs:
                    hi = min(hi, bound - sum(floors[j] for j in idxs) + f)
            his.append(hi)
        # from the low end; base accumulates the key of exponent zero
        fields = [None] * len(weights)
        off = base = 0
        self.floorbits = self.expbits = 0
        for i in reversed(range(len(weights))):
            lo, g = floors[i], (2 * (his[i] - floors[i])).bit_length()
            fields[i] = (off, (2 << g) - 1, (1 << g) - lo)
            base += fields[i][2] << off
            self.expbits |= 1 << off + g
            if lo:
                self.floorbits |= 1 << off + g
            off += g + 1
        self.fields = tuple(fields)
        lo, hi = sum(floors), sum(his)
        soff = off
        base += (4 * hi - 5 * lo) << off
        off += (9 * (hi - lo)).bit_length()
        self.order = (1 << off) - 1
        caps = []
        self.capbits = 0
        for idxs, bound in table.caps:
            g = (5 * (bound - sum(floors[j] for j in idxs))).bit_length()
            caps.append((idxs, off, (2 << g) - 1, (1 << g) - 1))
            base += ((1 << g) - 1 - bound) << off
            self.capbits |= 1 << off + g
            off += g + 1
        self.caps = tuple(caps)
        self.pshift, self.pconst = off, 4 * trunc_plus - 5 * pfloor
        base += self.pconst << off
        off += (9 * (trunc_plus - pfloor)).bit_length()
        self.pmask = (1 << off - self.pshift) - 1
        self.ptop = trunc_plus + self.pconst
        self.mshift, self.mconst = off, 4 * trunc_minus - 5 * mfloor
        self.mtop = trunc_minus + self.mconst
        self.width = off + (9 * (trunc_minus - mfloor)).bit_length()
        self.base = base + (self.mconst << off)
        self.scale = tuple(
            (1 << fields[i][0]) + (1 << soff)
            + sum(1 << c[1] for c in caps if i in c[0])
            + (max(w, 0) << self.pshift) + (max(-w, 0) << self.mshift)
            for i, w in enumerate(weights))

    def key(self, exp):
        return self.base + sum(map(mul, exp, self.scale))

    def unpack(self, key):
        return tuple([((key >> o) & m) - c for o, m, c in self.fields])

    def admissible(self, key):
        """Within both truncations and every cap (a key in range)."""
        return ((key >> self.pshift) & self.pmask <= self.ptop
                and key >> self.mshift <= self.mtop
                and not key & self.capbits)


class VariableTable:
    """Ordered variable list shared by all series of one computation.

    degree_caps is a collection of (names, bound) pairs; a term is discarded
    once the exponent sum over the named variables exceeds the bound.  Each
    cap generates a monomial ideal, so capping is an exact ring quotient
    (unlike the plus-truncation, which is a precision cut).
    """

    __slots__ = ("variables", "index", "weights", "floors", "caps",
                 "_pos_plain", "_laurent", "_tp_inactive_bound",
                 "_wplus", "_wminus", "_layouts")

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
        self._layouts = {}

    def layout(self, trunc_plus, trunc_minus):
        """The key layout of series at these bounds, built once."""
        lay = self._layouts.get((trunc_plus, trunc_minus))
        if lay is None:
            lay = self._layouts[trunc_plus, trunc_minus] = Layout(
                self, trunc_plus, trunc_minus)
        return lay

    def names(self):
        return tuple(v.name for v in self.variables)

    def monomial_str(self, exp):
        parts = []
        for i, e in enumerate(exp):
            if e == 0:
                continue
            name = self.variables[i].name
            parts.append(name if e == 1 else "%s^%d" % (name, e))
        return "*".join(parts) if parts else "1"

    def __eq__(self, other):
        return self is other or (isinstance(other, VariableTable)
                                 and self.variables == other.variables
                                 and self.caps == other.caps)

    def __hash__(self):
        return hash((self.variables, self.caps))

    def __repr__(self):
        return "VariableTable(%s)" % (", ".join(self.names()),)


def _outside(table, trunc_plus, trunc_minus, exp):
    """True when a term at exp is past a cap or a truncation bound."""
    return (any(sum(exp[i] for i in idxs) > bound
                for idxs, bound in table.caps)
            or sum(map(mul, exp, table._wplus)) > trunc_plus
            or sum(map(mul, exp, table._wminus)) > trunc_minus)


def _content(rows, den):
    """(rows, den) in lowest terms: no prime divides den and all rows."""
    if den != 1:
        g = gcd(den, *rows.values())
        if g != 1:
            return {k: v // g for k, v in rows.items()}, den // g
    return rows, den


class GradedSeries:
    """Finitely supported exact series over a VariableTable.

    Terms whose positive degree exceeds trunc_plus or whose negative weight
    exceeds trunc_minus are discarded on construction; exponents below a
    Laurent floor (or negative without one) raise.
    """

    __slots__ = ("table", "trunc_plus", "trunc_minus", "_lay", "_rows",
                 "_den", "_view")

    def __init__(self, table, trunc_plus, trunc_minus, terms):
        self.table = table
        self.trunc_plus = tp = int(trunc_plus)
        self.trunc_minus = tm = int(trunc_minus)
        lay = self._lay = table.layout(tp, tm)
        self._view = None
        floors = table.floors
        kept = {}
        for exp, c in terms.items():
            c = _norm_coeff(c)
            if c == 0:
                continue
            if len(exp) != len(floors):
                raise SeriesError("exponent arity mismatch")
            if _outside(table, tp, tm, exp):
                continue
            for i, e in enumerate(exp):
                if e < 0:
                    f = floors[i]
                    if f is None or e < f:
                        raise LaurentUnderflow(
                            "exponent %d of %s below floor" %
                            (e, table.variables[i].name))
            kept[lay.key(exp)] = c
        self._rows, self._den = _from_values(dict(sorted(kept.items())))

    # ----- constructors -------------------------------------------------

    @classmethod
    def _packed(cls, table, trunc_plus, trunc_minus, rows, den=1, lay=None):
        """A series from rows sorted by key at the table's layout for these
        bounds; den is reduced against the numerators."""
        s = cls.__new__(cls)
        s.table, s.trunc_plus, s.trunc_minus = table, trunc_plus, trunc_minus
        s._lay = lay or table.layout(trunc_plus, trunc_minus)
        s._rows, s._den = _content(rows, den)
        s._view = None
        return s

    @classmethod
    def zero(cls, table, trunc_plus, trunc_minus):
        return cls.const(table, trunc_plus, trunc_minus, 0)

    @classmethod
    def const(cls, table, trunc_plus, trunc_minus, c):
        tp, tm = int(trunc_plus), int(trunc_minus)
        lay = table.layout(tp, tm)
        c = _norm_coeff(c)
        return cls._packed(table, tp, tm,
                           *_from_values({lay.base: c} if c else {}), lay)

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
        return not self._rows

    @property
    def denominator(self):
        """The least common denominator of the coefficients."""
        return self._den

    @property
    def terms(self):
        """Read-only map from exponent tuples to int or Fraction."""
        if self._view is None:
            self._view = self._tuple_view()
        return self._view

    def _tuple_view(self):
        return MappingProxyType(dict(self._items()))

    def _value(self, num):
        den = self._den
        if den == 1:
            return num
        return num // den if num % den == 0 else Fraction(num, den)

    def _items(self):
        """(exponent tuple, coefficient) in key order, built term by term."""
        unpack, value = self._lay.unpack, self._value
        return ((unpack(k), value(v)) for k, v in self._rows.items())

    def _compat(self, other):
        if self.table != other.table:
            raise TableMismatch("series over different variable tables")
        if (self.trunc_plus != other.trunc_plus
                or self.trunc_minus != other.trunc_minus):
            raise TruncationMismatch(
                "mixed truncations (%d,%d) vs (%d,%d)" %
                (self.trunc_plus, self.trunc_minus,
                 other.trunc_plus, other.trunc_minus))

    def _make(self, rows, den=1):
        return GradedSeries._packed(self.table, self.trunc_plus,
                                    self.trunc_minus, rows, den, self._lay)

    def __eq__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return (self.table == other.table
                and self.trunc_plus == other.trunc_plus
                and self.trunc_minus == other.trunc_minus
                and self._den == other._den
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self.trunc_plus, self.trunc_minus, self._den,
                     tuple(self._rows.items())))

    def sorted_terms(self):
        """(exponent tuple, coefficient) in graded-lexicographic order."""
        order, unpack = self._lay.order, self._lay.unpack
        rows, value = self._rows, self._value
        return [(unpack(k), value(rows[k]))
                for k in sorted(rows, key=lambda k: k & order)]

    def constant(self):
        return self._value(self._rows.get(self._lay.base, 0))

    def coeff(self, exps):
        table = self.table
        e = [0] * len(table.variables)
        for name, k in exps.items():
            e[table.index[name]] = int(k)
        if (any(k < (f or 0) for k, f in zip(e, table.floors))
                or _outside(table, self.trunc_plus, self.trunc_minus, e)):
            return 0
        return self._value(self._rows.get(self._lay.key(e), 0))

    def _field(self, name):
        return self._lay.fields[self.table.index[name]]

    def as_poly_in(self, name):
        """Split into {exponent of name: series with that variable cleared}."""
        off, mask, c = self._field(name)
        step = self._lay.scale[self.table.index[name]]
        out = {}
        for k, v in self._rows.items():
            e = ((k >> off) & mask) - c
            digit = out.get(e)
            if digit is None:
                digit = out[e] = {}
            digit[k - e * step] = v
        return {e: self._make(d, self._den) for e, d in sorted(out.items())}

    def coeff_of(self, name, k):
        off, mask, c = self._field(name)
        shift = k * self._lay.scale[self.table.index[name]]
        return self._make({key - shift: v for key, v in self._rows.items()
                           if (key >> off) & mask == k + c}, self._den)

    def min_degree(self, name):
        off, mask, c = self._field(name)
        if not self._rows:
            return None
        return min((k >> off) & mask for k in self._rows) - c

    def max_degree(self, name):
        off, mask, c = self._field(name)
        if not self._rows:
            return None
        return max((k >> off) & mask for k in self._rows) - c

    def involves(self, name):
        """True when some term carries a nonzero power of name."""
        off, mask, c = self._field(name)
        return any((k >> off) & mask != c for k in self._rows)

    def weight(self):
        """Common weighted degree of all terms, or None if inhomogeneous."""
        lay = self._lay
        ps, pm, pc = lay.pshift, lay.pmask, lay.pconst
        ms, mc = lay.mshift, lay.mconst
        degrees = {((k >> ps) & pm) - pc - (k >> ms) + mc for k in self._rows}
        return degrees.pop() if len(degrees) == 1 else None

    # ----- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        self._compat(other)
        if not other._rows:
            return self
        if not self._rows:
            return other
        da, db = self._den, other._den
        den = lcm(da, db)
        fa, fb = den // da, den // db
        out = dict(self._rows) if fa == 1 else {
            k: v * fa for k, v in self._rows.items()}
        get = out.get
        appended = False
        for k, v in other._rows.items():
            w = get(k)
            if fb != 1:
                v *= fb
            if w is None:
                out[k] = v
                appended = True
            else:
                w += v
                if w:
                    out[k] = w
                else:
                    del out[k]
        if appended:
            out = dict(sorted(out.items()))
        return self._make(out, den)

    def __neg__(self):
        return self._make({k: -v for k, v in self._rows.items()}, self._den)

    def __sub__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        c = _exact_scalar(c)
        if c == 0:
            return self._make({})
        if c == 1:
            return self
        n, d = (c, 1) if type(c) is int else (c.numerator, c.denominator)
        rows = self._rows if n == 1 else {k: v * n for k, v in
                                          self._rows.items()}
        return self._make(rows, self._den * d)

    def __mul__(self, other):
        if not isinstance(other, GradedSeries):
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            return NotImplemented
        self._compat(other)
        a, b = self._rows, other._rows
        if not a or not b:
            return self._make({})
        if len(a) > len(b):
            a, b = b, a
        lay = self._lay
        pshift, pmask, mshift = lay.pshift, lay.pmask, lay.mshift
        # the truncations as bounds on the degree fields of two keys' sum
        pmax, mmax = lay.ptop + lay.pconst, lay.mtop + lay.mconst
        base, capbits = lay.base, lay.capbits
        bkeys = list(b)
        brows = list(b.items())
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
        for ka, ca in a.items():
            mlim = mmax - (ka >> mshift)
            plim = (pmax - ((ka >> pshift) & pmask) + 1) << pshift
            ka -= base
            for fm, mbase, keys, rows in buckets:
                if fm > mlim:
                    break
                n = bisect_left(keys, mbase + plim)
                for kb, cb in (rows if n == len(rows) else rows[:n]):
                    k = ka + kb
                    # a pair past a cap never reaches the accumulator
                    if k & capbits:
                        continue
                    acc[k] = get(k, 0) + ca * cb
        # a kept key with a guard bit clear lies below a Laurent floor
        floorbits = lay.floorbits
        out = {k: v for k, v in sorted(acc.items())
               if v and k & floorbits == floorbits}
        if len(out) < len(acc) and floorbits:
            for k, v in acc.items():
                if v and k & floorbits != floorbits:
                    self._underflow(k)
        return self._make(out, self._den * other._den)

    __rmul__ = __mul__

    def _underflow(self, key):
        """Raise for the first exponent of key below its floor."""
        for e, v, f in zip(self._lay.unpack(key), self.table.variables,
                           self.table.floors):
            if e < (f or 0):
                raise LaurentUnderflow("exponent %d of %s below floor"
                                       % (e, v.name))

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
        """self * (c * monomial exp) without the product kernel; terms that
        leave the truncations or pass a cap are dropped."""
        lay = self._lay
        table = self.table
        dp = sum(map(mul, exp, table._wplus))
        dm = sum(map(mul, exp, table._wminus))
        caps = []
        for idxs, off, mask, lim in lay.caps:
            s = sum(exp[i] for i in idxs)
            if s:
                caps.append((off, mask, lim - s))
        lows = [(lay.fields[i], f or 0, d, v.name)
                for i, (d, f, v) in enumerate(zip(exp, table.floors,
                                                  table.variables)) if d < 0]
        pshift, pmask, mshift = lay.pshift, lay.pmask, lay.mshift
        ptop, mtop = lay.ptop - dp, lay.mtop - dm
        delta = lay.key(exp) - lay.base
        c = Fraction(c)
        n, d = c.numerator, c.denominator
        out = {}
        for k, v in self._rows.items():
            if ((k >> pshift) & pmask > ptop or k >> mshift > mtop
                    or any((k >> o) & m > lim for o, m, lim in caps)):
                continue
            for (o, m, fc), f, dd, name in lows:
                e = ((k >> o) & m) - fc + dd
                if e < f:
                    raise LaurentUnderflow("exponent %d of %s below floor"
                                           % (e, name))
            out[k + delta] = v * n
        return self._make(out, self._den * d)

    # ----- variable-level operations --------------------------------------

    def scale_var(self, name, c):
        """Substitute name -> c*name for a nonzero scalar c."""
        c = _exact_scalar(c)
        if c == 0:
            raise SeriesError("scale_var requires a nonzero scalar")
        off, mask, fc = self._field(name)
        c = Fraction(c)
        return self._make_values({
            k: self._value(v) * c ** (((k >> off) & mask) - fc)
            for k, v in self._rows.items()})

    def _make_values(self, values):
        """A series from {key: int or Fraction} in key order."""
        return self._make(*_from_values(values))

    def shift_var(self, name, k):
        """Multiply by name**k (k may be negative under a Laurent floor)."""
        if k == 0:
            return self
        e = [0] * len(self.table.variables)
        e[self.table.index[name]] = k
        return self._times_monomial(e, 1)

    def rename_var(self, old, new):
        """Move every exponent of old onto new (same weight required)."""
        io = self.table.index[old]
        im = self.table.index[new]
        vo, vn = self.table.variables[io], self.table.variables[im]
        if vo.weight != vn.weight:
            raise SeriesError("rename across different weights")
        out = {}
        for exp, v in self._items():
            if exp[im] != 0 and exp[io] != 0:
                raise SeriesError("rename collision on %s" %
                                  self.table.monomial_str(exp))
            e = list(exp)
            e[im] += e[io]
            e[io] = 0
            out[tuple(e)] = v
        return GradedSeries(self.table, self.trunc_plus, self.trunc_minus, out)

    def kill_vars(self, names):
        """Project away all terms that involve any of the named variables."""
        fields = [self._field(n) for n in names]
        return self._make({k: v for k, v in self._rows.items()
                           if all((k >> o) & m == c for o, m, c in fields)},
                          self._den)

    def map_coefficients(self, fn):
        value = self._value
        out = {}
        for k, v in self._rows.items():
            v = _norm_coeff(fn(value(v)))
            if v:
                out[k] = v
        return self._make_values(out)

    def retruncate(self, trunc_plus, trunc_minus):
        """The same terms at other bounds, in that layout; terms past the
        new bounds are dropped."""
        if (trunc_plus, trunc_minus) == (self.trunc_plus, self.trunc_minus):
            return self
        old, new = self._lay, self.table.layout(trunc_plus, trunc_minus)
        ptop = trunc_plus + old.pconst
        mtop = trunc_minus + old.mconst
        # key order does not depend on the layout, so rows stay sorted
        out = {new.key(old.unpack(k)): v for k, v in self._rows.items()
               if (k >> old.pshift) & old.pmask <= ptop
               and k >> old.mshift <= mtop}
        return GradedSeries._packed(self.table, trunc_plus, trunc_minus, out,
                                    self._den, new)

    # ----- substitution ----------------------------------------------------

    def _binding_self_sufficient(self, img):
        """True when substituting img for a variable cannot resurrect terms
        this series already truncated away.  Each image term must (a) keep
        total positive degree >= 1 when trunc_plus clips at all, and (b)
        carry positive degree in capped/minus-graded directions."""
        table = self.table
        tp_idle = (table._tp_inactive_bound is not None
                   and table._tp_inactive_bound <= self.trunc_plus)
        for exp, _c in img._items():
            dp = sum(map(mul, exp, table._wplus))
            dm = sum(map(mul, exp, table._wminus))
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
        for n, img in bindings.items():
            self._compat(img)
            if n not in poly_vars and not self._binding_self_sufficient(img):
                raise SubstitutionOrder(
                    "substitution for %s may need terms beyond truncation" % n)
        if any((self.min_degree(n) or 0) < 0 for n in bindings):
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

    def mul_inverse(self):
        """Multiplicative inverse when some term is an invertible monomial
        dominating the rest (the remainder must be nilpotent under the
        truncation: higher degree, capped, or growing negative weight)."""
        if not self._rows:
            raise SeriesError("zero series has no inverse")
        table, lay = self.table, self._lay
        floors = [f or 0 for f in table.floors]
        candidates = [k for k in self._rows
                      if all(-e >= f for e, f in zip(lay.unpack(k), floors))]
        if not candidates:
            e0 = lay.unpack(min(self._rows, key=lambda k: k & lay.order))
            raise NonUnitLowest("no invertible term in %s"
                                % table.monomial_str(e0))
        candidates.sort(key=lambda k: k & lay.order)
        bound = self.trunc_plus + self.trunc_minus + 4
        for idxs, b in table.caps:
            bound += b
        for i in table._laurent:
            f = table.floors[i]
            if f is not None:
                bound -= f
        for k0 in candidates:
            inv_exp = tuple(-k for k in lay.unpack(k0))
            if GradedSeries(table, self.trunc_plus, self.trunc_minus,
                            {inv_exp: 1}).is_zero:
                # the inverse of this lead lies past the bounds: no inverse
                # here starts with it
                continue
            c_inv = Fraction(1, 1) / Fraction(self._value(self._rows[k0]))
            # the lead's inverse lowers either degree by its lift, so the
            # Neumann series runs that much deeper and is cut back after it
            lift = max(((k0 >> lay.pshift) & lay.pmask) - lay.pconst, 0)
            mlift = max((k0 >> lay.mshift) - lay.mconst, 0)
            deep = self.retruncate(self.trunc_plus + lift,
                                   self.trunc_minus + mlift)
            one = GradedSeries.one(table, deep.trunc_plus, deep.trunc_minus)
            try:
                w = deep._times_monomial(inv_exp, c_inv) - one
                acc = one
                pw = one
                for step in range(bound + lift + mlift):
                    if pw.is_zero:
                        break
                    pw = pw * w
                    acc = acc + (pw if step % 2 == 1 else -pw)
                if pw.is_zero:
                    return acc._times_monomial(inv_exp, c_inv).retruncate(
                        self.trunc_plus, self.trunc_minus)
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
        lay = self._lay

        def mono(k):
            return self.table.monomial_str(lay.unpack(k))
        base, order, width = lay.base, lay.order, lay.width
        full = (1 << width) - 1
        pshift, pmask, mshift = lay.pshift, lay.pmask, lay.mshift
        pmax, mtop = lay.ptop + lay.pconst, lay.mtop
        capbits, expbits, floorbits = lay.capbits, lay.expbits, lay.floorbits
        kg = min(g._rows, key=lambda k: k & order)
        cg = g._value(g._rows[kg])
        # divisor terms by positive degree, so the truncation ends the loop
        grows = sorted((((k >> pshift) & pmask, k - base, g._value(v))
                        for k, v in g._rows.items()), key=itemgetter(0))
        rem = {k: self._value(v) for k, v in self._rows.items()}
        # a heap entry is the order key above the key itself
        heap = [(k & order) << width | k for k in rem]
        heapify(heap)
        q = {}
        while heap:
            kr = heappop(heap) & full
            cr = rem.get(kr)
            if cr is None:
                continue
            # the quotient term er - eg, which must respect every floor
            ke = kr - kg + base
            if ke & expbits != expbits:
                raise NotDivisible("monomial %s not divisible by %s"
                                   % (mono(kr), mono(kg)), monomial=mono(kr))
            if type(cr) is int and type(cg) is int and not cr % cg:
                c = cr // cg
            else:
                c = _norm_coeff(Fraction(cr) / Fraction(cg))
                if integral and not isinstance(c, int):
                    raise NotDivisible("coefficient of %s not divisible"
                                       % mono(kr), monomial=mono(kr))
            q[ke] = c
            # rem -= c * e * g; every term lies at or above er in the order
            pe = (ke >> pshift) & pmask
            for ph, kh, ch in grows:
                if pe + ph > pmax:
                    break
                k = ke + kh
                if k >> mshift > mtop or k & capbits:
                    continue
                if k & floorbits != floorbits:
                    self._underflow(k)
                v = rem.get(k)
                if v is None:
                    rem[k] = -c * ch
                    heappush(heap, (k & order) << width | k)
                else:
                    v -= c * ch
                    if v:
                        rem[k] = v
                    else:
                        del rem[k]
        admissible = lay.admissible
        return self._make_values({k: q[k] for k in sorted(q)
                                  if admissible(k)})

    def compositional_inverse(self, name):
        """Series g with self(g) = name, for self = c1*name + higher order,
        by Lagrange inversion: [name^n] g = (1/n) [name^(n-1)] (name/self)^n,
        one product per degree after one mul_inverse.

        The linear coefficient c1 may be any invertible series in the other
        variables (for instance a Laurent unit in t).
        """
        table = self.table
        i = table.index[name]
        lo = self.min_degree(name)
        if lo is not None and lo < 1:
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
        out = self._make({})
        unit = [0] * len(table.variables)
        for n in range(1, top + 1):
            if n > 1:
                power = power * h
            unit[i] = n
            out = out + power.coeff_of(name, n - 1)._times_monomial(
                unit, Fraction(1, n))
        return out

    # ----- calculus ---------------------------------------------------------

    def diff(self, name):
        i = self.table.index[name]
        out = {}
        for exp, c in self._items():
            k = exp[i]
            if k == 0:
                continue
            out[exp[:i] + (k - 1,) + exp[i + 1:]] = c * k
        return GradedSeries(self.table, self.trunc_plus, self.trunc_minus, out)

    def residue(self, name):
        """Coefficient of name**-1, as a series in the remaining variables."""
        return self.coeff_of(name, -1)

    def split_parts(self, name, at=0):
        """(terms with exponent of name <= at, terms with exponent > at)."""
        off, mask, c = self._field(name)
        lim = at + c
        lo, hi = {}, {}
        for k, v in self._rows.items():
            (lo if (k >> off) & mask <= lim else hi)[k] = v
        return self._make(lo, self._den), self._make(hi, self._den)

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
        if not self._rows:
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


def _from_values(values):
    """({key: int numerator}, common denominator) of {key: int or Fraction}."""
    dens = {c.denominator for c in values.values() if type(c) is not int}
    if not dens:
        return values, 1
    den = lcm(*dens)
    return {k: c * den if type(c) is int
            else c.numerator * (den // c.denominator)
            for k, c in values.items()}, den
