"""Command line front end.

Subcommands: fgl (group-law series), class (ambient classes and their
characteristic numbers), op (operations applied to parsed elements), eta
(Chow-side invariant), verify (the named checker suites).  Exit codes: 0 on
success, 1 when a verifier reports failures, 2 on bad arguments, 3 when a
computation falsifies one of its postconditions.

A handler imports the layers it runs when it runs: `fgl`, `class` and
`eta` load `series` and `fgl` only, `op` adds `operations` and `quotient`,
and only `verify` loads the suites (`verify`) and `actions`.
"""

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import fgl
from .series import FalsificationError, SeriesError


def _nonnegative(value, source):
    if value < 0:
        raise SeriesError("%s must be >= 0, got %d" % (source, value))
    return value


def _default_deg(args, fallback):
    if args.deg is not None:
        return _nonnegative(args.deg, "--deg")
    env = os.environ.get("COBCALC_DEG")
    if env:
        try:
            return _nonnegative(int(env), "COBCALC_DEG")
        except ValueError:
            raise SeriesError("COBCALC_DEG must be an integer, got %r" % env)
    return fallback


def _default_bweight(args, fallback):
    if args.bweight is not None:
        return _nonnegative(args.bweight, "--bweight")
    return fallback


def _parse_reps(text, p):
    if text is None or text == "canonical":
        reps = tuple(range(1, p))
    else:
        try:
            reps = tuple(int(x) for x in text.split(",") if x.strip())
        except ValueError:
            raise SeriesError("cannot parse representatives %r" % text)
    fgl._validate_reps(p, reps)
    return reps


_ATOM_Z = re.compile(r"^z(\d*)(?:\^(-?\d+))?$")
_ATOM_T = re.compile(r"^t(?:\^(-?\d+))?$")
_ATOM_P = re.compile(r"^P(\d+)$")
# a hypersurface has degree d >= 1: H(n,0) is no alias of Pn
_ATOM_H = re.compile(r"^H\((\d+),([1-9]\d*)\)$")
_ATOM_INT = re.compile(r"^-?\d+$")


def parse_element(ctx, text):
    """Integer combinations of products of 1, z^k, t^k, Pn, and H(n,d)."""
    cleaned = text.replace(" ", "")
    if not cleaned:
        raise SeriesError("empty element")
    # a minus right after ^ is an exponent sign, not a term separator
    cleaned = re.sub(r"(?<!\^)-", "+-", cleaned)
    if cleaned.startswith("+"):
        cleaned = cleaned[1:]
    total = ctx.zero()
    for chunk in cleaned.split("+"):
        if not chunk:
            raise SeriesError("dangling sign in %r" % text)
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:]
        factor = ctx.const(sign)
        for atom in chunk.split("*"):
            factor = factor * _parse_atom(ctx, atom, text)
        total = total + factor
    return total


def _parse_atom(ctx, atom, full):
    if _ATOM_INT.match(atom):
        return ctx.const(int(atom))
    series = _atom_series(ctx, atom, full)
    if series.is_zero:
        raise SeriesError("%s in %r is past the bounds (deg %d, bweight %d, "
                          "trunc_plus %d) and truncates to zero"
                          % (atom, full, ctx.deg, ctx.bweight,
                             ctx.trunc_plus))
    return series


def _atom_series(ctx, atom, full):
    from . import operations as ops
    m = _ATOM_Z.match(atom)
    if m:
        name = "z%s" % (m.group(1) or "1")
        if name not in ctx.table.index:
            raise SeriesError("no carrier %s in this context" % name)
        return ctx.mono({name: int(m.group(2) or 1)})
    m = _ATOM_T.match(atom)
    if m:
        return ctx.mono({"t": int(m.group(1) or 1)})
    m = _ATOM_P.match(atom)
    if m:
        return ops._ambient_class(ctx, int(m.group(1)), 0)
    m = _ATOM_H.match(atom)
    if m:
        return ops._ambient_class(ctx, int(m.group(1)), int(m.group(2)))
    raise SeriesError("cannot parse %r in element %r" % (atom, full))


def _check_op_input(ctx, e, p, text):
    """St at p multiplies b-weight and z-degree by p; refuse an input whose
    image would pass --bweight or --deg, where truncation would zero it."""
    table = ctx.table
    zidx = [table.index[n] for n in ctx.z_names]
    for exp, _c in e.sorted_terms():
        bw = sum(-w * k for w, k in zip(table.weights, exp) if w < 0)
        if p * bw > ctx.bweight:
            raise SeriesError("input %r has b-weight %d; p * %d = %d is "
                              "past bweight %d"
                              % (text, bw, bw, p * bw, ctx.bweight))
        zd = sum(exp[i] for i in zidx)
        if p * zd > ctx.deg:
            raise SeriesError("input %r has z-degree %d; p * %d = %d is "
                              "past deg %d" % (text, zd, zd, p * zd, ctx.deg))


def _refuse_unread(args, command, options, reads):
    """A bad argument naming each of options given but not in reads."""
    unread = ["--" + k for k in options
              if getattr(args, k) is not None and k not in reads]
    if unread:
        raise SeriesError("%s does not read %s" % (command, ", ".join(unread)))


def _emit(args, text, doc):
    if args.format == "json":
        out = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        out = text if text.endswith("\n") else text + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(out)
        except OSError as exc:
            raise SeriesError("cannot write --out %s: %s"
                              % (args.out, exc.strerror or exc))
    else:
        sys.stdout.write(out)


def _frac_str(value):
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else str(f)


# ----- subcommand handlers ----------------------------------------------------

def _base_ctx(args, deg, bweight):
    if args.tfloor is not None:
        return fgl.Context(deg, bweight, tfloor=args.tfloor,
                           extra_vars=("x", "y"))
    return fgl.base_context(deg, bweight)


def _cmd_fgl(args):
    deg = _default_deg(args, 8)
    bweight = _default_bweight(args, 8)
    ctx = _base_ctx(args, deg, bweight)
    what = args.what
    if what == "F":
        series = ctx.fgl("x", "y")
    elif what == "[n]":
        if args.n is None:
            raise SeriesError("--what [n] needs --n")
        series = ctx.nseries(args.n)
    elif what == "a_ij":
        if args.i is None or args.j is None:
            raise SeriesError("--what a_ij needs --i and --j")
        series = ctx.a_coeff(args.i, args.j)
    elif what == "omega":
        series = ctx.omega
    else:
        series = ctx.iota
    doc = {"command": "fgl", "what": what, "deg": deg, "bweight": bweight,
           "result": series.to_json_dict()}
    _emit(args, series.render(), doc)
    return 0


def _cmd_class(args):
    deg = _default_deg(args, 8)
    bweight = _default_bweight(args, 8)
    ctx = _base_ctx(args, max(deg, args.n + 1), bweight)
    if args.kind == "Pn":
        elem = fgl.pn_class(ctx, args.n)
    else:
        if args.d is None:
            raise SeriesError("class hypersurface needs --d")
        elem = fgl.hypersurface_class(ctx, args.n, args.d)
    table = {ctx.table.monomial_str(exp): c
             for exp, c in elem.series.sorted_terms()}
    flags = {}
    for q in (2, 3, 5):
        flags["in_I%d" % q] = elem.in_Ip(q)
        r = round(math.log(elem.dimension + 1, q)) if elem.dimension > 0 else 0
        if r >= 1 and q ** r - 1 == elem.dimension:
            flags["nu_%d_at_%d" % (r, q)] = elem.is_nu_r(q, r)
    lines = ["%s  (dimension %d)" % (elem.provenance, elem.dimension),
             "class: %s" % elem.series.render()]
    for mono, c in table.items():
        lines.append("  chi[%s] = %s" % (mono, _frac_str(c)))
    if elem.dimension > 0:
        lines.append("s-number: %s" % _frac_str(elem.s_number()))
    for k in sorted(flags):
        lines.append("%s: %s" % (k, flags[k]))
    doc = {"command": "class", "kind": args.kind, "n": args.n, "d": args.d,
           "dimension": elem.dimension,
           "char_numbers": {k: _frac_str(v) for k, v in table.items()},
           "flags": flags,
           "result": elem.series.to_json_dict()}
    if elem.dimension > 0:
        doc["s_number"] = _frac_str(elem.s_number())
    _emit(args, "\n".join(lines), doc)
    return 0


# the options of op each kind reads, besides --deg, --bweight and --tfloor
_OP_READS = {"st": ("p", "reps"), "sq": ("p",), "phi": ("p", "reps"),
             "slice": ("p", "reps", "q"), "ln": ()}


def _cmd_op(args):
    from . import operations as ops
    _refuse_unread(args, "op " + args.kind, ("p", "reps", "q"),
                   _OP_READS[args.kind])
    deg = _default_deg(args, 8)
    bweight = _default_bweight(args, 8)
    if args.kind == "ln":
        ctx = ops.make_context(1, deg, bweight, with_primes=True,
                               tfloor=args.tfloor)
        desc = ops.landweber_novikov(ctx)
        e = parse_element(ctx, args.input)
        series = desc.apply(e)
        doc = {"command": "op", "kind": "ln", "input": args.input,
               "result": series.to_json_dict()}
        _emit(args, series.render(), doc)
        return 0
    p = 2 if args.p is None else args.p
    reps = _parse_reps(args.reps, p)
    ctx = ops.make_context(p, deg, bweight, tfloor=args.tfloor)
    e = parse_element(ctx, args.input)
    _check_op_input(ctx, e, p, args.input)
    st = ops.quillen_steenrod(ctx, p, reps)
    doc = {"command": "op", "kind": args.kind, "p": p, "reps": list(reps),
           "input": args.input, "deg": deg, "bweight": bweight}
    if args.kind == "st":
        series = st.apply(e)
    elif args.kind == "sq":
        # a class that is not integral raises instead
        series = ops.tom_dieck_sq(ctx, p, e)
        doc["certificate"] = {"integral": True, "witness": None}
    elif args.kind == "phi":
        series = ops.symmetric_operation(st, e)
    else:
        phi = ops.symmetric_operation(st, e)
        q = parse_element(ctx, args.q) if args.q else ctx.one()
        series = ops.slice_phi(ctx, phi, q)
        doc["q"] = args.q or "1"
    doc["result"] = series.to_json_dict()
    _emit(args, series.render(), doc)
    return 0


def _cmd_eta(args):
    p = args.p
    reps = _parse_reps(args.reps, p)
    text = args.U.replace(" ", "")
    m = _ATOM_P.match(text)
    if m:
        n, d = int(m.group(1)), 0
    else:
        m = _ATOM_H.match(text)
        if not m:
            raise SeriesError("--U must be Pn or H(n,d), got %r" % args.U)
        n, d = int(m.group(1)), int(m.group(2))
    model = fgl.ChowModel(n, d)
    value = model.eta(p, reps)
    doc = {"command": "eta", "U": text, "p": p, "reps": list(reps),
           "eta": _frac_str(value)}
    _emit(args, "eta_%d(%s) = %s" % (p, text, _frac_str(value)), doc)
    return 0


def _cmd_verify(args):
    from . import verify
    from .operations import DEFAULTS
    suites = verify.VERIFIERS
    names = sorted(suites) if args.name == "all" else [args.name]
    if args.name != "all":
        _refuse_unread(args, "verify " + args.name,
                       ("p", "deg", "bweight", "seed"),
                       suites[args.name].reads)
    if args.p is not None:
        refused = [n for n in names if "p" in suites[n].reads
                   and args.p not in suites[n].primes]
        if refused:
            raise SeriesError("prime %d is not run by verify %s"
                              % (args.p, ", ".join(refused)))
    values = {"p": args.p, "deg": _default_deg(args, DEFAULTS["deg"]),
              "bweight": _default_bweight(args, DEFAULTS["bweight"]),
              "seed": DEFAULTS["seed"] if args.seed is None else args.seed}
    reports = []
    failed = 0
    lines = []
    for name in names:
        report = verify.run_verifier(name, **{k: values[k] for k in
                                              suites[name].reads})
        reports.append(report)
        s = report["summary"]
        failed += s["fail"]
        lines.append("%-10s pass=%d fail=%d" % (name, s["pass"], s["fail"]))
        for case in report["cases"]:
            if case["verdict"] == "fail":
                lines.append("  FAIL %s: %s" % (case["input"],
                                                case.get("witness", "")))
    doc = {"command": "verify", "name": args.name, "p": args.p,
           "seed": values["seed"], "reports": reports}
    _emit(args, "\n".join(lines), doc)
    return 1 if failed else 0


class _SuiteNames:
    """The names verify accepts, the registered suites and all; the
    registry is imported only when a name is checked or listed."""

    def __contains__(self, name):
        from .verify import VERIFIERS
        return name == "all" or name in VERIFIERS

    def __iter__(self):
        from .verify import VERIFIERS
        return iter(sorted(VERIFIERS) + ["all"])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cobcalc",
        description="formal group law calculator with symmetric operations")
    sub = parser.add_subparsers(dest="command", required=True)

    options = {
        "--p": dict(type=int, default=2),
        "--reps": dict(help="comma separated residues, default canonical"),
        "--deg": dict(type=int, help="degree truncation (env COBCALC_DEG)"),
        "--bweight": dict(type=int),
        "--tfloor": dict(type=int),
        "--seed": dict(type=int),
    }

    def common(sp, *names):
        """The named shared options, then --format and --out."""
        for name in names:
            sp.add_argument(name, **options[name])
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--out", metavar="FILE")

    sp = sub.add_parser("fgl", help="group law series")
    sp.add_argument("--what", choices=("F", "[n]", "a_ij", "omega", "inverse"),
                    default="F")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--i", type=int, default=None)
    sp.add_argument("--j", type=int, default=None)
    common(sp, "--deg", "--bweight", "--tfloor")
    sp.set_defaults(func=_cmd_fgl)

    sp = sub.add_parser("class", help="ambient classes and their numbers")
    sp.add_argument("kind", choices=("Pn", "hypersurface"))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, default=None)
    common(sp, "--deg", "--bweight", "--tfloor")
    sp.set_defaults(func=_cmd_class)

    sp = sub.add_parser("op", help="apply an operation to an element")
    sp.add_argument("kind", choices=("st", "sq", "phi", "ln", "slice"))
    sp.add_argument("--input", required=True)
    sp.add_argument("--q", default=None, help="slice weight series")
    common(sp, "--p", "--reps", "--deg", "--bweight", "--tfloor")
    sp.set_defaults(func=_cmd_op, p=None)

    sp = sub.add_parser("eta", help="Chow-side eta invariant")
    sp.add_argument("--U", required=True, help="Pn or H(n,d)")
    common(sp, "--p", "--reps")
    sp.set_defaults(func=_cmd_eta)

    sp = sub.add_parser("verify", help="run a checker suite")
    # with a metavar, argparse lists the choices only in help and errors
    sp.add_argument("name", choices=_SuiteNames(), metavar="name",
                    help="a suite (%(choices)s)")
    common(sp, "--p", "--deg", "--bweight", "--seed")
    sp.set_defaults(func=_cmd_verify, p=None)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FalsificationError as exc:
        sys.stderr.write("falsified: %s\n" % exc)
        if exc.witness:
            sys.stderr.write("witness: %s\n" % exc.witness)
        return 3
    except SeriesError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
