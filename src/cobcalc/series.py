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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import json
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


@dataclass(frozen=True)
class Variable:
    """One generator: weight grades it, laurent_floor permits negative powers."""

    name: str
    weight: int
    laurent_floor: int | None = None

    def __post_init__(self):
        if not _NAME_RE.match(self.name):
            raise SeriesError("bad variable name %r" % (self.name,))
        if self.weight == 0:
            raise SeriesError("variable weight must be nonzero")
        if self.laurent_floor is not None and self.laurent_floor > 0:
            raise SeriesError("laurent_floor must be <= 0")


class VariableTable:
    """Ordered variable list shared by all series of one computation.

    degree_caps is a collection of (names, bound) pairs; a term is discarded
    once the exponent sum over the named variables exceeds the bound.  Each
    cap generates a monomial ideal, so capping is an exact ring quotient
    (unlike the plus-truncation, which is a precision cut).
    """

    __slots__ = ("variables", "index", "weights", "floors", "caps",
                 "_pos_plain", "_neg", "_laurent", "_tp_inactive_bound")

    def __init__(self, variables, degree_caps=()):
        self.variables = tuple(variables)
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise SeriesError("duplicate variable names")
        self.index = {v.name: i for i, v in enumerate(self.variables)}
        self.weights = tuple(v.weight for v in self.variables)
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

    def axis(self, name):
        e = [0] * len(self.variables)
        e[self.index[name]] = 1
        return tuple(e)

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
        dp = 0
        dm = 0
        for i, w in enumerate(self.weights):
            e = exp[i]
            if not e:
                continue
            if w > 0:
                dp += w * e
            else:
                dm -= w * e
        return dp, dm

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
        if not self.terms or not other.terms:
            return self._make({}, validate=False)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        table = self.table
        degrees = table.degrees
        tp, tm = self.trunc_plus, self.trunc_minus
        blist = sorted(((degrees(e)[0], degrees(e)[1], e, c)
                        for e, c in b.items()), key=lambda r: r[0])
        alist = [(degrees(e)[0], degrees(e)[1], e, c) for e, c in a.items()]
        out = {}
        for pa, ma, ea, ca in alist:
            plim = tp - pa
            mlim = tm - ma
            for pb, mb, eb, cb in blist:
                if pb > plim:
                    break
                if mb > mlim:
                    continue
                key = tuple(x + y for x, y in zip(ea, eb))
                v = out.get(key)
                if v is None:
                    out[key] = ca * cb
                else:
                    out[key] = v + ca * cb
        return self._make(out)

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
        """Simultaneously replace variables by series over the same table.

        A replaced variable must either receive a self-sufficient image (see
        above) or be listed in poly_vars, asserting that this series is an
        exact polynomial in it (its support was never clipped in that
        direction), e.g. an ambient polynomial in the b's.
        """
        if not bindings:
            return self
        poly_vars = set(poly_vars)
        names = list(bindings)
        idxs = []
        for n in names:
            img = bindings[n]
            self._compat(img)
            idxs.append(self.table.index[n])
            if n not in poly_vars and not self._binding_self_sufficient(img):
                raise SubstitutionOrder(
                    "substitution for %s may need terms beyond truncation" % n)
        idxset = set(idxs)
        groups = {}
        for exp, c in self.terms.items():
            prof = tuple(exp[i] for i in idxs)
            if any(k < 0 for k in prof):
                raise SeriesError("cannot substitute into a negative power")
            rest = tuple(0 if i in idxset else e for i, e in enumerate(exp))
            groups.setdefault(prof, {})[rest] = c
        pows = [{0: GradedSeries.one(self.table, self.trunc_plus, self.trunc_minus)}
                for _ in names]

        def power(i, k):
            cache = pows[i]
            if k not in cache:
                top = max(cache)
                cur = cache[top]
                img = bindings[names[i]]
                for j in range(top + 1, k + 1):
                    cur = cur * img
                    cache[j] = cur
            return cache[k]

        total = GradedSeries.zero(self.table, self.trunc_plus, self.trunc_minus)
        for prof in sorted(groups):
            part = self._make(groups[prof], validate=False)
            for i, k in enumerate(prof):
                if k:
                    part = part * power(i, k)
            total = total + part
        return total

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
        one = GradedSeries.one(table, self.trunc_plus, self.trunc_minus)
        for e0 in candidates:
            inv_exp = tuple(-k for k in e0)
            lead_inv = GradedSeries(
                table, self.trunc_plus, self.trunc_minus,
                {inv_exp: Fraction(1, 1) / Fraction(self.terms[e0])})
            try:
                w = self * lead_inv - one
                acc = one
                pw = one
                for step in range(bound):
                    if pw.is_zero:
                        return acc * lead_inv
                    pw = pw * w
                    acc = acc + (pw if step % 2 == 1 else -pw)
                if pw.is_zero:
                    return acc * lead_inv
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
        eg, cg = g._lowest()
        floors = table.floors
        rem = dict(self.terms)
        q = {}
        while rem:
            er = min(rem, key=_order_key)
            cr = rem[er]
            e = tuple(a - b for a, b in zip(er, eg))
            for i, k in enumerate(e):
                if k < 0 and floors[i] is None or \
                        (k < 0 and floors[i] is not None and k < floors[i]):
                    raise NotDivisible("monomial %s not divisible by %s"
                                       % (table.monomial_str(er),
                                          table.monomial_str(eg)),
                                       monomial=table.monomial_str(er))
            c = Fraction(cr) / Fraction(cg)
            c = _norm_coeff(c)
            if integral and not isinstance(c, int):
                raise NotDivisible("coefficient of %s not divisible"
                                   % table.monomial_str(er),
                                   monomial=table.monomial_str(er))
            q[e] = c
            piece = GradedSeries(table, self.trunc_plus, self.trunc_minus,
                                 {e: c}, validate=False)
            sub = piece * g
            for exp, v in sub.terms.items():
                r = rem.get(exp, 0) - v
                if r:
                    rem[exp] = r
                else:
                    rem.pop(exp, None)
        return self._make(q)

    def compositional_inverse(self, name, poly_vars=()):
        """Series g with self(g) = name, for self = c1*name + higher order.

        The linear coefficient c1 may be any invertible series in the other
        variables (for instance a Laurent unit in t).
        """
        i = self.table.index[name]
        if any(exp[i] < 1 for exp in self.terms):
            raise SeriesError("compositional inverse needs order >= 1 in %s"
                              % name)
        c1 = self.coeff_of(name, 1)
        if c1.is_zero:
            raise NonUnitLowest("no linear term in %s" % name)
        c1_inv = c1.mul_inverse()
        x = GradedSeries.monomial(self.table, self.trunc_plus,
                                  self.trunc_minus, {name: 1})
        g = x * c1_inv
        cap = self.trunc_plus + 2
        for idxs, b in self.table.caps:
            if i in idxs:
                cap = min(cap, b + 2)
        poly_vars = set(poly_vars) | {name}
        for _ in range(cap):
            err = self.substitute({name: g}, poly_vars=poly_vars) - x
            if err.is_zero:
                break
            g = g - err * c1_inv
        else:
            err = self.substitute({name: g}, poly_vars=poly_vars) - x
            if not err.is_zero:
                raise SeriesError("compositional inverse did not converge")
        return g

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

    def render(self, group_by=None):
        if not self.terms:
            return "0"
        if group_by is None:
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
        parts = []
        for k, coeff in sorted(self.as_poly_in(group_by).items()):
            if coeff.is_zero:
                continue
            cs = coeff.render()
            if k == 0:
                parts.append(cs)
                continue
            power = group_by if k == 1 else "%s^%d" % (group_by, k)
            if len(coeff.terms) > 1:
                parts.append("(%s) %s" % (cs, power))
            elif cs == "1":
                parts.append(power)
            elif cs == "-1":
                parts.append("-" + power)
            else:
                parts.append("%s %s" % (cs, power))
        out = parts[0]
        for t in parts[1:]:
            out += (" - " + t[1:]) if t.startswith("-") else (" + " + t)
        return out

    def __repr__(self):
        body = self.render()
        if len(body) > 160:
            body = body[:157] + "..."
        return "<GradedSeries %s>" % body
