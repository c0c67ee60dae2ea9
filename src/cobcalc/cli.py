"""Command line front end.

Subcommands: fgl (group-law series), class (ambient classes and their
characteristic numbers), op (operations applied to parsed elements), eta
(Chow-side invariant), verify (the named checker suites).  Exit codes: 0 on
success, 1 when a verifier reports failures, 2 on bad arguments, 3 when a
computation falsifies one of its postconditions.
"""

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import fgl
from . import operations as ops
from .actions import FalsificationError
from .quotient import PDivisibilityError
from .series import SeriesError


def _default_deg(args, fallback):
    if args.deg is not None:
        return args.deg
    env = os.environ.get("COBCALC_DEG")
    if env:
        try:
            return int(env)
        except ValueError:
            raise SeriesError("COBCALC_DEG must be an integer, got %r" % env)
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
_ATOM_H = re.compile(r"^H\((\d+),(\d+)\)$")
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


def _emit(args, text, doc):
    if args.format == "json":
        out = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        out = text if text.endswith("\n") else text + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
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
    bweight = args.bweight if args.bweight is not None else 8
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
    bweight = args.bweight if args.bweight is not None else 8
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


def _cmd_op(args):
    deg = _default_deg(args, 8)
    bweight = args.bweight if args.bweight is not None else 8
    p = args.p
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
    reps = _parse_reps(args.reps, p)
    ctx = ops.make_context(p, deg, bweight, tfloor=args.tfloor)
    e = parse_element(ctx, args.input)
    st = ops.quillen_steenrod(ctx, p, reps)
    doc = {"command": "op", "kind": args.kind, "p": p, "reps": list(reps),
           "input": args.input, "deg": deg, "bweight": bweight}
    if args.kind == "st":
        series = st.apply(e)
    elif args.kind == "sq":
        series, cert = ops.tom_dieck_sq(ctx, p, e)
        doc["certificate"] = cert
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
    deg = _default_deg(args, 6)
    bweight = args.bweight if args.bweight is not None else 6
    names = sorted(ops.VERIFIERS) if args.name == "all" else [args.name]
    reports = []
    failed = 0
    lines = []
    for name in names:
        report = ops.run_verifier(name, p=args.p, deg=deg, bweight=bweight,
                                  seed=args.seed)
        reports.append(report)
        s = report["summary"]
        failed += s["fail"]
        lines.append("%-10s pass=%d fail=%d" % (name, s["pass"], s["fail"]))
        for case in report["cases"]:
            if case["verdict"] == "fail":
                lines.append("  FAIL %s: %s" % (case["input"],
                                                case.get("witness", "")))
    doc = {"command": "verify", "name": args.name, "p": args.p,
           "seed": args.seed, "reports": reports}
    _emit(args, "\n".join(lines), doc)
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cobcalc",
        description="formal group law calculator with symmetric operations")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, with_reps=True, pdefault=2):
        sp.add_argument("--p", type=int, default=pdefault)
        if with_reps:
            sp.add_argument("--reps", default=None,
                            help="comma separated residues, default canonical")
        sp.add_argument("--deg", type=int, default=None,
                        help="degree truncation (env COBCALC_DEG)")
        sp.add_argument("--bweight", type=int, default=None)
        sp.add_argument("--tfloor", type=int, default=None)
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--seed", type=int, default=20260814)
        sp.add_argument("--out", default=None, metavar="FILE")

    sp = sub.add_parser("fgl", help="group law series")
    sp.add_argument("--what", choices=("F", "[n]", "a_ij", "omega", "inverse"),
                    default="F")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--i", type=int, default=None)
    sp.add_argument("--j", type=int, default=None)
    common(sp, with_reps=False)
    sp.set_defaults(func=_cmd_fgl)

    sp = sub.add_parser("class", help="ambient classes and their numbers")
    sp.add_argument("kind", choices=("Pn", "hypersurface"))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, default=None)
    common(sp, with_reps=False)
    sp.set_defaults(func=_cmd_class)

    sp = sub.add_parser("op", help="apply an operation to an element")
    sp.add_argument("kind", choices=("st", "sq", "phi", "ln", "slice"))
    sp.add_argument("--input", required=True)
    sp.add_argument("--q", default=None, help="slice weight series")
    common(sp)
    sp.set_defaults(func=_cmd_op)

    sp = sub.add_parser("eta", help="Chow-side eta invariant")
    sp.add_argument("--U", required=True, help="Pn or H(n,d)")
    common(sp)
    sp.set_defaults(func=_cmd_eta)

    sp = sub.add_parser("verify", help="run a checker suite")
    sp.add_argument("name", choices=tuple(sorted(ops.VERIFIERS)) + ("all",))
    common(sp, pdefault=None)
    sp.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FalsificationError, PDivisibilityError,
            fgl.EtaDivisibilityError) as exc:
        witness = getattr(exc, "witness", None)
        sys.stderr.write("falsified: %s\n" % exc)
        if witness:
            sys.stderr.write("witness: %s\n" % witness)
        return 3
    except SeriesError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
