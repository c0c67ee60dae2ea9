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

Series stay packed.  Each table value has one key geometry (`Geometry`):
from the low end, a field per degree cap, a field per exponent (the first
variable lowest), the positive degree and, on top, the negative-weight degree.
A key is an affine function of the exponent vector, so the key of a product
is the sum of the keys less the key of 1, and every field holds the sums the
kernels form.  The geometry has headroom past the first bounds the table is
asked for, and every series at bounds within it keys its terms by it
(`VariableTable.layout`), so a term has one key at all those bounds, as in
the fixed-field packed monomials of Monagan and Pearce (Sparse polynomial
division using a heap, J. Symb. Comp. 2011).  A kernel reads the bounds
from the series itself: trunc_plus + pconst and trunc_minus + mconst top the
degree fields.  Sorted keys bucket by negative degree and order each bucket
by positive degree; terms are ordered graded-lexicographically by exponent
tuple (`_grlex`).  A series holds a dict from sorted keys to int numerators
and one common denominator in lowest terms, as FLINT's fmpq_poly keeps one
content per polynomial; `terms`, a read-only view by exponent tuple, is
built anew on each read and never kept.

The product is one sparse kernel in the manner of Monagan and Pearce
(Sparse polynomial multiplication and division in Maple 14, 2009): both
truncations end their loops with a break, so only admissible pairs are
visited; the pair loop (`_pairs_into`) adds and multiplies plain ints into
a dict it is given, and skips the pairs past a degree cap by one mask on
each key.  A one-term operand needs no pair loop: the product is one key
shift of the other operand's rows (`_shift_into`); `shift_var`, `diff` and
the inverses multiply by a monomial the same way.  One finish (`_finish`)
sorts the keys, drops the zero sums and raises for a kept term below a
Laurent floor.  As Monagan and Pearce accumulate a whole sum of products in
one structure, `add_products` adds seed + sum a*b into one dict over one
denominator and finishes once: a product followed by a sum, or a Laplace
expansion of many cofactors, builds no series per product.  One degree of
a product (`product_coeff`) groups each operand's rows by their exponent of
the variable, each row keeping its full key, and runs one `add_products`
over the pairs of slices whose exponents sum to that degree: the rest of
the product is never formed, and bounds, caps and floors act on the keys
as in `*`.

Exact division forms no key: it keeps its remainder by exponent tuple in a
heap in graded-lexicographic order, subtracts each quotient term times the
divisor's other terms under the ring's rules, and builds the quotient
through the exponent-tuple constructor.  A series changes its bounds only
through `retruncate`, which within one geometry filters its keys.
Substitution is Horner's rule (Brent and Kung, J. ACM 1978): degree K in
one variable costs K products, each added onto its digit by `add_products`,
and before each product the accumulator and the image drop the terms that
the products left push past a degree cap (`_horner`).  Reversion is
Lagrange inversion: one inverse, then one product per degree.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from heapq import heapify, heappop, heappush
import json
from math import gcd, lcm
from operator import add, mul, sub
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


def mod_p(value, p):
    """num * den^-1 mod p, in [0, p): the residue in Z_(p)/(p) = F_p of a
    rational with no p in its denominator."""
    if type(value) is int:
        return value % p
    value = Fraction(value)
    if value.denominator % p == 0:
        raise SeriesError("%s has p = %d in its denominator" % (value, p))
    return value.numerator * pow(value.denominator, -1, p) % p


def coeffs_mod_p(series, p):
    """mod_p of every coefficient.  The coefficients share one denominator
    den, so each is its numerator times den^-1 mod p."""
    den = series.denominator
    if den % p == 0:
        for _e, c in series.sorted_terms():
            mod_p(c, p)  # raises at the least one with p in its denominator
    inv = pow(den, -1, p)
    return series._make({k: r for k, v in series._rows.items()
                         if (r := v * inv % p)})


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


def _floors(table):
    """(the floors with None as 0, the positive and the negative degree of
    the floor monomial)."""
    floors = [f or 0 for f in table.floors]
    return (floors,
            sum(w * f for w, f in zip(table.weights, floors) if w > 0),
            sum(-w * f for w, f in zip(table.weights, floors) if w < 0))


def _highest(table, trunc_plus, trunc_minus):
    """The highest exponent of each variable over admissible terms."""
    floors, pfloor, mfloor = _floors(table)
    his = []
    for i, (w, f) in enumerate(zip(table.weights, floors)):
        hi = ((trunc_plus - pfloor + w * f) // w if w > 0
              else (trunc_minus - mfloor - w * f) // -w)
        for idxs, bound in table.caps:
            if i in idxs:
                hi = min(hi, bound - sum(floors[j] for j in idxs) + f)
        his.append(hi)
    return tuple(his)


class Geometry:
    """The packed key format of one table value, shared by its series at
    every bounds up to `depth`.

    A field holds an affine function of the exponents (one exponent, a cap
    group's sum, the positive or the negative degree) plus a constant.  Over
    admissible terms a function ranges over [lo, hi], lo <= 0 <= hi.  A
    kernel adds two keys less the key of 1; each operand is an admissible
    term, a digit of one (`coeff_of`, `as_poly_in`), in [lo, hi - lo], or a
    `_shift` monomial, whose positive and negative parts lie within `depth`,
    in [-hi, hi]: all in [2lo - hi, 2hi - lo], so a sum lies in [4lo - 2hi,
    4hi - 2lo].  No field carries into the next:
    - an exponent is in [lo, hi] but in a monomial, so sums stay in
      [2lo - hi, 2hi - lo]: g = (2(hi - lo)).bit_length() and g + 1 bits,
      with constant 2^g - lo, set the top (guard) bit exactly when the
      exponent is at or above its floor;
    - a cap b on a group of floor sum F: g + 1 bits with constant
      2^g - 1 - b set the guard bit exactly when the sum passes b, and
      hold [4F - 2b, 4b - 2F] when 2^g > 3b - 4F: g = (3b - 4F).bit_length();
    - a degree, with constant 2hi - 4lo, lies in [0, 6(hi - lo)]: the
      positive degree takes (6(hi - lo)).bit_length() bits and the
      negative degree, on top, needs no bound.

    The ranges are taken at `depth`, (trunc_plus - 2 pfloor, trunc_minus -
    2 mfloor) for the bounds the geometry is built at, with pfloor and
    mfloor the degrees of the floor monomial.  `VariableTable.layout` builds
    one at the first bounds a table value is asked for, and another only for
    bounds past every depth.  The headroom holds u^-1 of `quotient.FormalP`,
    kept deeper by the t floor, and one lead lift of `mul_inverse`, at most
    -pfloor and -mfloor.  A key means the same exponents at all bounds up to
    the depth; a series at bounds (trunc_plus, trunc_minus) keeps the keys
    whose degree fields are at most trunc_plus + pconst and trunc_minus +
    mconst and whose cap guard bits are clear.  `caps` holds each cap
    field's (offset, mask) for `GradedSeries._least_cap_sums`.
    """

    __slots__ = ("fields", "caps", "scale", "base", "capbits", "expbits",
                 "pshift", "pmask", "pconst", "mshift", "mconst", "depth")

    def __init__(self, table, trunc_plus, trunc_minus):
        weights = table.weights
        floors, pfloor, mfloor = _floors(table)
        trunc_plus -= 2 * pfloor
        trunc_minus -= 2 * mfloor
        self.depth = (trunc_plus, trunc_minus)
        his = _highest(table, trunc_plus, trunc_minus)
        # cap sums, then exponents from the first variable: a dict slots an
        # int by the low bits of its value mod 2^61 - 1, so the fields that
        # vary most sit lowest; base accumulates the key of exponent zero
        off = base = self.capbits = self.expbits = 0
        caps = []
        for idxs, bound in table.caps:
            g = (3 * bound - 4 * sum(floors[j] for j in idxs)).bit_length()
            caps.append((off, (2 << g) - 1))
            base += ((1 << g) - 1 - bound) << off
            self.capbits |= 1 << off + g
            off += g + 1
        fields = [None] * len(weights)
        for i in range(len(weights)):
            lo, g = floors[i], (2 * (his[i] - floors[i])).bit_length()
            fields[i] = (off, (2 << g) - 1, (1 << g) - lo)
            base += fields[i][2] << off
            self.expbits |= 1 << off + g
            off += g + 1
        self.fields, self.caps = tuple(fields), tuple(caps)
        self.pshift, self.pconst = off, 2 * trunc_plus - 4 * pfloor
        base += self.pconst << off
        off += (6 * (trunc_plus - pfloor)).bit_length()
        self.pmask = (1 << off - self.pshift) - 1
        self.mshift, self.mconst = off, 2 * trunc_minus - 4 * mfloor
        self.base = base + (self.mconst << off)
        self.scale = tuple(
            (1 << fields[i][0]) + sum(1 << o for (o, _m), (idxs, _b)
                                      in zip(caps, table.caps) if i in idxs)
            + (max(w, 0) << self.pshift) + (max(-w, 0) << self.mshift)
            for i, w in enumerate(weights))

    def covers(self, trunc_plus, trunc_minus):
        return trunc_plus <= self.depth[0] and trunc_minus <= self.depth[1]

    def key(self, exp):
        return self.base + sum(map(mul, exp, self.scale))

    def unpack(self, key):
        return tuple([((key >> o) & m) - c for o, m, c in self.fields])


# The geometry of each table value by bounds.  Tables compare by value, so
# value-equal tables must give a term one key at one bounds: their
# geometries live here, not on the table object.
_LAYOUTS = {}


class VariableTable:
    """Ordered variable list shared by all series of one computation.

    degree_caps is a collection of (names, bound) pairs; a term is discarded
    once the exponent sum over the named variables exceeds the bound.  Each
    cap generates a monomial ideal, so capping is an exact ring quotient
    (unlike the plus-truncation, which is a precision cut).
    """

    __slots__ = ("variables", "index", "weights", "floors", "caps",
                 "_pos_plain", "_laurent", "_wplus", "_wminus", "_layouts")

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
        self._layouts = _LAYOUTS.setdefault((self.variables, self.caps), {})

    def layout(self, trunc_plus, trunc_minus):
        """The key `Geometry` of series at these bounds: the first built for
        this table value that covers them."""
        lay = self._layouts.get((trunc_plus, trunc_minus))
        if lay is None:
            if trunc_plus < 0 or trunc_minus < 0:
                raise SeriesError("truncation bounds must be >= 0")
            lay = self._layouts[trunc_plus, trunc_minus] = next(
                (other for other in self._layouts.values()
                 if other.covers(trunc_plus, trunc_minus)),
                None) or Geometry(self, trunc_plus, trunc_minus)
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


def _grlex(exp):
    """The graded-lexicographic sort key of an exponent tuple: the exponent
    sum, then the exponents from the first variable on."""
    return sum(exp), exp


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
                 "_den")

    def __init__(self, table, trunc_plus, trunc_minus, terms):
        self.table = table
        self.trunc_plus = tp = int(trunc_plus)
        self.trunc_minus = tm = int(trunc_minus)
        lay = self._lay = table.layout(tp, tm)
        kept = {}
        for exp, c in terms.items():
            c = _norm_coeff(c)
            if c == 0:
                continue
            if len(exp) != len(table.floors):
                raise SeriesError("exponent arity mismatch")
            if _outside(table, tp, tm, exp):
                continue
            if min(exp, default=0) < 0:
                self._underflow(exp)
            kept[lay.key(exp)] = c
        self._rows, self._den = _from_values(dict(sorted(kept.items())))

    # ----- constructors -------------------------------------------------

    @classmethod
    def _packed(cls, table, trunc_plus, trunc_minus, rows, den=1, lay=None):
        """A series from rows sorted by key in the table's geometry for
        these bounds; den is reduced against the numerators."""
        s = cls.__new__(cls)
        s.table, s.trunc_plus, s.trunc_minus = table, trunc_plus, trunc_minus
        s._lay = lay or table.layout(trunc_plus, trunc_minus)
        s._rows, s._den = _content(rows, den)
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
        # identity first: most operands share one table object, and
        # VariableTable.__eq__ runs in Python
        if self.table is not other.table and self.table != other.table:
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
        return sorted(self._items(), key=lambda term: _grlex(term[0]))

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
        """{exponent of name: its digit, name cleared}, in one pass, rising."""
        off, mask, c = self._field(name)
        step = self._lay.scale[self.table.index[name]]
        out = {}
        for k, v in self._rows.items():
            e = ((k >> off) & mask) - c
            digit = out.get(e)
            if digit is None:
                digit = out[e] = {}
            digit[k - e * step] = v
        return {e: self._digit(d, e) for e, d in sorted(out.items())}

    def coeff_of(self, name, k):
        off, mask, c = self._field(name)
        shift = k * self._lay.scale[self.table.index[name]]
        return self._digit({key - shift: v for key, v in self._rows.items()
                            if (key >> off) & mask == k + c}, k)

    def _digit(self, rows, e):
        """The digit e of some variable from its rows.  Clearing a negative
        exponent raises degrees and cap sums: the constructor drops what
        then passes a bound or a cap."""
        s = self._make(rows, self._den)
        return s if e >= 0 else GradedSeries(
            self.table, self.trunc_plus, self.trunc_minus, dict(s._items()))

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

    def max_bweight(self):
        """The largest negative-weight degree (b-weight) of a term; 0 for 0."""
        lay = self._lay
        return max((k >> lay.mshift for k in self._rows),
                   default=lay.mconst) - lay.mconst

    def weight(self):
        """Common weighted degree of all terms, or None if inhomogeneous."""
        lay = self._lay
        ps, pm, pc = lay.pshift, lay.pmask, lay.pconst
        ms, mc = lay.mshift, lay.mconst
        degrees = {((k >> ps) & pm) - pc - (k >> ms) + mc for k in self._rows}
        return degrees.pop() if len(degrees) == 1 else None

    # ----- ring operations ----------------------------------------------

    def __add__(self, other):
        return self._merge(other, 1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def _merge(self, other, sign):
        """self + sign * other in one pass over other's rows."""
        if not isinstance(other, GradedSeries):
            return NotImplemented
        self._compat(other)
        if not other._rows:
            return self
        if not self._rows:
            return other if sign == 1 else -other
        da, db = self._den, other._den
        den = lcm(da, db)
        fa, fb = den // da, sign * (den // db)
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
        if len(self._rows) > len(other._rows):
            self, other = other, self
        if not self._rows:
            return self._make({})
        if len(self._rows) == 1:
            # one term: shift the other operand's keys, no pair loop
            (ka, ca), = self._rows.items()
            return other._shift(ka - self._lay.base, ca, self._den)
        acc = {}
        self._pairs_into(acc, other, 1)
        return self._finish(acc, self._den * other._den)

    __rmul__ = __mul__

    def add_products(self, pairs):
        """self + the sum of a * b over pairs (a, b) of series, in one dict.

        All terms share one denominator, the lcm of self's and of each
        den_a * den_b; the dict starts from self's rows, each product adds
        into it as `*` would form it (a pair loop, or a key shift for a
        one-term operand), and one sort ends it.  Each product keeps and
        drops terms exactly as `*` does, but the floor is checked once, on
        the sum: LaurentUnderflow is raised when the sum keeps a nonzero
        term below a floor, so a term that cancels across products raises
        nothing.
        """
        live = []
        for a, b in pairs:
            self._compat(a)
            self._compat(b)
            if a._rows and b._rows:
                live.append((a, b) if len(a._rows) <= len(b._rows)
                            else (b, a))
        if not live:
            return self
        den = lcm(self._den, *(a._den * b._den for a, b in live))
        f = den // self._den
        acc = dict(self._rows) if f == 1 else {
            k: v * f for k, v in self._rows.items()}
        base = self._lay.base
        for a, b in live:
            n = den // (a._den * b._den)
            if len(a._rows) == 1:
                (ka, ca), = a._rows.items()
                b._shift_into(acc, ka - base, ca * n)
            else:
                a._pairs_into(acc, b, n)
        return self._finish(acc, den)

    def product_coeff(self, other, name, k):
        """(self * other).coeff_of(name, k), without the rest of the product.

        Each operand's rows are grouped by their exponent of name, each row
        keeping its full key, and one `add_products` sums the slice pairs
        whose exponents add to k.  A truncated product keeps each term by
        its key alone, so it is bilinear, and a slice key still holds name:
        bounds, caps and floors act exactly as in `*`.  The one difference:
        LaurentUnderflow is raised only for a kept term of this degree.
        """
        self._compat(other)
        off, mask, c = self._field(name)

        def slices(s):
            """{exponent of name: the rows with it}, each in key order."""
            out = {}
            for key, v in s._rows.items():
                e = ((key >> off) & mask) - c
                rows = out.get(e)
                if rows is None:
                    rows = out[e] = {}
                rows[key] = v
            return out
        mine, theirs = slices(self), slices(other)
        pairs = [(self._make(rows, self._den), other._make(match, other._den))
                 for e, rows in mine.items()
                 if (match := theirs.get(k - e)) is not None]
        return self._make({}).add_products(pairs).coeff_of(name, k)

    def _pairs_into(self, acc, other, n):
        """Add n * ca * cb at key ka + kb - base into acc for every pair of
        rows of self and other inside both truncations: both truncations
        end their loops with a break, and a pair past a cap is skipped.
        The outer loop walks self, best the operand with fewer rows."""
        lay = self._lay
        pshift, pmask, mshift = lay.pshift, lay.pmask, lay.mshift
        # the truncations as bounds on the degree fields of two keys' sum
        pmax = self.trunc_plus + 2 * lay.pconst
        mmax = self.trunc_minus + 2 * lay.mconst
        base, capbits = lay.base, lay.capbits
        b = other._rows
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
        get = acc.get
        for ka, ca in self._rows.items():
            mlim = mmax - (ka >> mshift)
            plim = (pmax - ((ka >> pshift) & pmask) + 1) << pshift
            ka -= base
            ca *= n
            for fm, mbase, keys, rows in buckets:
                if fm > mlim:
                    break
                cut = bisect_left(keys, mbase + plim)
                for kb, cb in (rows if cut == len(rows) else rows[:cut]):
                    k = ka + kb
                    # a pair past a cap never reaches the accumulator
                    if k & capbits:
                        continue
                    acc[k] = get(k, 0) + ca * cb

    def _finish(self, acc, den, shifted=False):
        """The series of the rows acc accumulated over den: zero sums are
        dropped, the keys sorted, and a kept key with an exponent's guard
        bit clear, below a floor, raises LaurentUnderflow for the first such
        key.  shifted says acc is one key shift of nonzero rows into an
        empty dict: in key order, with no zero sum."""
        lay = self._lay
        expbits = lay.expbits
        if shifted:
            if all(k & expbits == expbits for k in acc):
                return self._make(acc, den)
            rows = acc.items()
        else:
            rows = sorted(acc.items())
        out = {k: v for k, v in rows if v and k & expbits == expbits}
        if len(out) < len(acc):
            for k, v in rows:
                if v and k & expbits != expbits:
                    self._underflow(lay.unpack(k))
        return self._make(out, den)

    def _underflow(self, exp):
        """Raise for the first exponent of exp below its floor, if any."""
        for e, v, f in zip(exp, self.table.variables, self.table.floors):
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

    def _shift(self, delta, n, d):
        """self * (n/d) * the monomial keyed base + delta (`_shift_into`)."""
        acc = {}
        self._shift_into(acc, delta, n)
        return self._finish(acc, self._den * d, shifted=True)

    def _shift_into(self, acc, delta, n):
        """Add n * v at key k + delta into acc for every row k: v of self,
        one key shift per term, skipping the terms past a bound or a cap.
        The fields must hold every shifted key, as they do when the
        monomial is a difference of two admissible terms."""
        lay = self._lay
        pshift, pmask, mshift = lay.pshift, lay.pmask, lay.mshift
        ptop = self.trunc_plus + lay.pconst
        mtop = self.trunc_minus + lay.mconst
        capbits = lay.capbits
        get = acc.get
        for k, v in self._rows.items():
            k += delta
            if ((k >> pshift) & pmask > ptop or k >> mshift > mtop
                    or k & capbits):
                continue
            acc[k] = get(k, 0) + v * n

    def _times_monomial(self, exp, c):
        """self * (c * monomial exp); terms that leave the truncations or
        pass a cap are dropped."""
        table, lay = self.table, self._lay
        c = Fraction(c)
        if (_outside(table, *lay.depth, [max(e, 0) for e in exp])
                or _outside(table, *lay.depth, [max(-e, 0) for e in exp])):
            # past the field ranges: the exponent-tuple constructor applies
            # the same rules
            return GradedSeries(self.table, self.trunc_plus, self.trunc_minus,
                                {tuple(map(add, e, exp)): v * c
                                 for e, v in self._items()})
        return self._shift(lay.key(exp) - lay.base, c.numerator,
                           c.denominator)

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

    def kill_vars(self, names):
        """Project away all terms that involve any of the named variables."""
        fields = [self._field(n) for n in names]
        return self._make({k: v for k, v in self._rows.items()
                           if all((k >> o) & m == c for o, m, c in fields)},
                          self._den)

    def retruncate(self, trunc_plus, trunc_minus):
        """The same terms at other bounds; terms past the new bounds are
        dropped.  Bounds within one geometry give a term one key, so between
        them this filters keys, and raising both bounds shares the rows."""
        if (trunc_plus, trunc_minus) == (self.trunc_plus, self.trunc_minus):
            return self
        old, new = self._lay, self.table.layout(trunc_plus, trunc_minus)
        if (old is new and trunc_plus >= self.trunc_plus
                and trunc_minus >= self.trunc_minus):
            # every term stays admissible and the rows in lowest terms
            s = GradedSeries.__new__(GradedSeries)
            s.table, s.trunc_plus, s.trunc_minus = (self.table, trunc_plus,
                                                    trunc_minus)
            s._lay, s._rows, s._den = new, self._rows, self._den
            return s
        ptop = trunc_plus + old.pconst
        mtop = trunc_minus + old.mconst
        rows = {k: v for k, v in self._rows.items()
                if (k >> old.pshift) & old.pmask <= ptop
                and k >> old.mshift <= mtop}
        if old is not new:
            # key order does not depend on the geometry, so rows stay sorted
            rows = {new.key(old.unpack(k)): v for k, v in rows.items()}
        return GradedSeries._packed(self.table, trunc_plus, trunc_minus, rows,
                                    self._den, new)

    # ----- substitution ----------------------------------------------------

    def _binding_self_sufficient(self, img):
        """True when substituting img for a variable cannot resurrect terms
        this series already truncated away.  Each image term must (a) have
        positive degree >= 1, and (b) carry positive degree in
        capped/minus-graded directions."""
        table = self.table
        for exp, _c in img._items():
            if sum(map(mul, exp, table._wplus)) < 1:
                return False
            dm = sum(map(mul, exp, table._wminus))
            dpnl = sum(table.weights[i] * exp[i] for i in table._pos_plain if exp[i])
            if dpnl + dm >= 1:
                continue
            # remaining option: a pure positive power of Laurent variables
            if all(exp[i] >= 0 for i in table._laurent) and \
                    any(exp[i] > 0 for i in table._laurent):
                continue
            return False
        return True

    def check_bindings(self, bindings, poly_vars=()):
        """Raise unless substituting bindings into this series is sound.

        A replaced variable must either receive a self-sufficient image (see
        above) or be listed in poly_vars, asserting that this series is an
        exact polynomial in it (its support was never clipped in that
        direction), e.g. an ambient polynomial in the b's; and no replaced
        variable may carry a negative power.
        """
        poly_vars = set(poly_vars)
        for n, img in bindings.items():
            self._compat(img)
            if n not in poly_vars and not self._binding_self_sufficient(img):
                raise SubstitutionOrder(
                    "substitution for %s may need terms beyond truncation" % n)
        if any((self.min_degree(n) or 0) < 0 for n in bindings):
            raise SeriesError("cannot substitute into a negative power")

    def substitute(self, bindings, poly_vars=()):
        """Simultaneously replace variables by series over the same table,
        by Horner's rule in each variable (`_horner`), after
        `check_bindings`.
        """
        if not bindings:
            return self
        self.check_bindings(bindings, poly_vars)
        return self._horner(list(bindings), bindings)

    def _horner(self, names, bindings):
        """Horner's rule in names[0]; each coefficient, which is free of it,
        takes the remaining bindings first, so the images are never
        substituted into and the substitution stays simultaneous.

        Before step k, which k more products follow, the accumulator drops
        the terms whose sum s in some cap group g has s + (k + 1) m_g past
        the cap, and the image those with s + k m_g past it; m_g is the
        group's least sum over the image (`_least_cap_sums`), which every
        product adds at least.  Exact: a truncated product keeps terms by
        key alone, so it is bilinear, and all a dropped term leads to ends
        past a cap, where a product drops it (raising no LaurentUnderflow).
        The image side needs the accumulator's sums >= 0: groups over a
        negative floor are left out.  One key offset tests every group:
        field g, s + 2^g - 1 - b in g + 1 bits, carries only when
        s + k m_g > b + 2^g, and the lowest field that carries got no
        carry, so a guard bit a carry sets marks a term past its cap.
        """
        digits = self.as_poly_in(names[0]) if names else None
        if not digits:
            return self
        img, rest, top = bindings[names[0]], names[1:], max(digits)
        step = img._least_cap_sums() if top else 0
        acc, zero = digits[top]._horner(rest, bindings), self._make({})
        for k in range(top - 1, -1, -1):
            digit = digits[k]._horner(rest, bindings) if k in digits else zero
            acc = digit.add_products([(acc._within_caps((k + 1) * step),
                                       img._within_caps(k * step))])
        return acc

    def _least_cap_sums(self):
        """The key offset that adds each cap group's least sum over these
        terms to its field, where positive and no variable has a floor."""
        table, step = self.table, 0
        for (off, mask), (idxs, bound) in zip(self._lay.caps, table.caps):
            if self._rows and not any(table.floors[i] for i in idxs):
                least = (min((k >> off) & mask for k in self._rows)
                         - (mask >> 1) + bound)
                step += max(least, 0) << off
        return step

    def _within_caps(self, offset):
        """The terms whose key plus offset sets no cap guard bit; self, with
        no dict built, when that is every term."""
        capbits = self._lay.capbits
        if not offset or not any((k + offset) & capbits for k in self._rows):
            return self
        return self._make({k: v for k, v in self._rows.items()
                           if not (k + offset) & capbits}, self._den)

    # ----- inverses and division -------------------------------------------

    def mul_inverse(self):
        """Multiplicative inverse from one lead, the graded-lexicographically
        least term whose inverse is admissible: the rest over the lead must
        be nilpotent under the truncation (higher degree, capped, or growing
        negative weight), else NonUnitLowest.  One lead is enough for every
        series the library inverts: u, c(t)/t^(p-1), gamma'(0), exp_t/t,
        alpha/x and the Chow series are homogeneous, and in a table whose
        only Laurent variable is t the only invertible term of weight w is
        c * t^w."""
        if not self._rows:
            raise SeriesError("zero series has no inverse")
        table, lay = self.table, self._lay
        tp, tm = self.trunc_plus, self.trunc_minus
        terms = sorted((_grlex(lay.unpack(k)), k) for k in self._rows)
        inverses = [(tuple(-x for x in e), k) for (_sum, e), k in terms
                    if all(-x >= (f or 0) for x, f in zip(e, table.floors))]
        if not inverses:
            raise NonUnitLowest("no invertible term in %s"
                                % table.monomial_str(terms[0][0][1]))
        # a lead whose inverse lies past the bounds starts no inverse here
        inv_exp, k0 = next(((e, k) for e, k in inverses
                            if not _outside(table, tp, tm, e)), (None, None))
        if k0 is not None:
            c_inv = Fraction(1, 1) / Fraction(self._value(self._rows[k0]))
            bound = tp + tm + 4 + sum(b for _idxs, b in table.caps) - sum(
                table.floors[i] for i in table._laurent)
            # the lead's inverse lowers either degree by its lift, so the
            # Neumann series runs that much deeper and is cut back after it
            lift = max(((k0 >> lay.pshift) & lay.pmask) - lay.pconst, 0)
            mlift = max((k0 >> lay.mshift) - lay.mconst, 0)
            deep = self.retruncate(tp + lift, tm + mlift)
            one = GradedSeries.one(table, deep.trunc_plus, deep.trunc_minus)
            try:
                w = deep._times_monomial(inv_exp, c_inv) - one
                acc = pw = one
                for step in range(bound + lift + mlift):
                    if pw.is_zero:
                        break
                    pw = pw * w
                    acc = acc + (pw if step % 2 == 1 else -pw)
                if pw.is_zero:
                    return acc._times_monomial(inv_exp, c_inv).retruncate(
                        tp, tm)
            except LaurentUnderflow:
                pass
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
        table, tp, tm = self.table, self.trunc_plus, self.trunc_minus
        mono = table.monomial_str
        floors = [f or 0 for f in table.floors]
        (eg, cg), *rest = g.sorted_terms()
        rem = dict(self._items())
        # the heap pops the terms in the order of sorted_terms
        heap = [_grlex(e) for e in rem]
        heapify(heap)
        q = {}
        while heap:
            er = heappop(heap)[1]
            cr = rem.pop(er, None)
            if cr is None:
                continue
            # the quotient term er - eg, which must respect every floor
            e = tuple(map(sub, er, eg))
            if any(k < f for k, f in zip(e, floors)):
                raise NotDivisible("monomial %s not divisible by %s"
                                   % (mono(er), mono(eg)), monomial=mono(er))
            c = q[e] = _norm_coeff(Fraction(cr) / cg)
            if integral and type(c) is not int:
                raise NotDivisible("coefficient of %s not divisible"
                                   % mono(er), monomial=mono(er))
            # rem -= c * e * (g - lead); every term lies above er in the order
            for eh, ch in rest:
                k = tuple(map(add, e, eh))
                if _outside(table, tp, tm, k):
                    continue
                self._underflow(k)
                if k not in rem:
                    heappush(heap, _grlex(k))
                v = rem.pop(k, 0) - c * ch
                if v:
                    rem[k] = v
        # the constructor keeps the quotient terms within the bounds and caps
        return GradedSeries(table, tp, tm, q)

    def divisible_by_difference(self, x, y, k):
        """True when (x - y)^k divides this series with an integral quotient.

        (x - y)^k divides a polynomial exactly when its Hasse derivatives of
        order m < k in x vanish on x = y (Hasse, J. reine angew. Math. 175,
        1936): x^e goes to C(e, m) y^(e-m), and every coefficient of the sum
        must be 0.  Each term is keyed once with x^e moved onto y^e, which
        relabels the terms of every order alike, so one pass adds each
        coefficient v times the Pascal row of its exponent at its moved key,
        and every order is summed at once.  For k = 1, order 0 alone, the
        row is 1.  For k >= 2 the row P[e] = (1 + 2^w)^e mod 2^(w*k) packs
        C(e, m), m < k, into fields of w bits (Kronecker's substitution),
        built as P[e+1] = P[e] * (2^w + 1) up to the highest exponent top.
        With w = bitlen(sum |v|) + (k - 1) * bitlen(top) + 1 the true sum
        of every order satisfies |sum C(e, m) v| <= sum |v| * top^m
        < 2^(w-1), so no field borrows from the next, and a packed sum is 0
        exactly when each of its orders is.  x - y is
        monic in x, so a quotient of integer coefficients is integral, and a
        series with a denominator has none.  x and y must share one weight
        and carry no negative floor and no cap: then (x - y)^k is
        homogeneous, and dividing within the truncation is dividing each
        kept homogeneous part.
        """
        table = self.table
        ix, iy = table.index[x], table.index[y]
        if (ix == iy or k < 0 or table.weights[ix] != table.weights[iy]
                or (table.floors[ix] or 0) < 0 or (table.floors[iy] or 0) < 0
                or any(ix in idxs or iy in idxs for idxs, _b in table.caps)):
            raise SeriesError("(%s - %s)^%d needs two variables of one weight "
                              "with no negative floor or cap" % (x, y, k))
        if self._den != 1:
            return False
        off, mask, c = self._lay.fields[ix]
        step = self._lay.scale[iy] - self._lay.scale[ix]
        rows = self._rows
        sums = {}
        get = sums.get
        if k == 1:
            # order 0 alone: one sum per moved key
            for key, v in rows.items():
                key += (((key >> off) & mask) - c) * step
                sums[key] = get(key, 0) + v
            return not any(sums.values())
        exps = [((key >> off) & mask) - c for key in rows]
        top = max(exps, default=0)
        w = (sum(map(abs, rows.values())).bit_length()
             + (k - 1) * top.bit_length() + 1)
        full = (1 << (w * k)) - 1
        pascal = [1 & full]  # k = 0 keeps no order
        for _ in range(top):
            row = pascal[-1]
            pascal.append((row + (row << w)) & full)
        for (key, v), e in zip(rows.items(), exps):
            key += e * step
            sums[key] = get(key, 0) + v * pascal[e]
        return not any(sums.values())

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
        h = self.shift_var(name, -1).mul_inverse()
        power = h
        out = self._make({})
        unit = [0] * len(table.variables)
        his = _highest(table, self.trunc_plus, self.trunc_minus)
        for n in range(1, his[i] + 1):
            if n > 1:
                power = power * h
            unit[i] = n
            out = out + power.coeff_of(name, n - 1)._times_monomial(
                unit, Fraction(1, n))
        return out

    # ----- calculus ---------------------------------------------------------

    def diff(self, name):
        """d/d name: each term times its exponent, shifted by name^-1."""
        off, mask, c = self._field(name)
        rows = {k: v * e for k, v in self._rows.items()
                if (e := ((k >> off) & mask) - c)}
        step = self._lay.scale[self.table.index[name]]
        return self._make(rows, self._den)._shift(-step, 1, 1)

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
        doc = {
            "vars": [{"name": v.name, "weight": v.weight,
                      "laurent_floor": v.laurent_floor}
                     for v in self.table.variables],
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
