"""Acceptance suite: one test per shipped guarantee, exact arithmetic only.

Each test prints a single ``criterion NN <tag>: pass|FAIL`` line (visible
with ``pytest -s`` or in captured output) and asserts the same condition,
so the suite doubles as a human-readable checklist.  Every check compares
exact rational values; there are no tolerances anywhere.
"""

import math

from cobcalc import actions, fgl, operations, verify
from cobcalc.actions import (
    minors_suite,
    prop_xy_series,
    theorem_g_suite,
    twisted_fgl_alpha,
    twisted_context,
    xy_context,
)
from cobcalc.series import vp


def _record(num, tag, ok, detail=""):
    line = "criterion %02d %-9s %s" % (num, tag, "pass" if ok else "FAIL")
    if detail and not ok:
        line += "  [%s]" % detail
    print(line)
    assert ok, line


def _clean(report):
    """True when a verifier report has no failing case."""
    s = report["summary"]
    return s["fail"] == 0 and s["pass"] == len(report["cases"])


def _witnesses(report):
    return "; ".join(
        "%s: %s" % (c["input"], c.get("witness", "?"))
        for c in report["cases"] if c["verdict"] != "pass") or "none"


def test_criterion_01_fgl_axioms():
    report = verify.verify_fglaxioms(deg=8, bweight=8)
    ctx = fgl.base_context(8, 8)
    b1, b2 = ctx.var("b1"), ctx.var("b2")
    exact = (ctx.a_coeff(1, 1) == b1.scale(2)
             and ctx.a_coeff(2, 1) == b2.scale(3) - (b1 * b1).scale(2))
    _record(1, "fglaxioms", _clean(report) and exact, _witnesses(report))


def test_criterion_02_minor_determinants():
    report = minors_suite(max_square=6, max_minor=5)
    ok = report["verdict"] and report["cases"] > 0
    _record(2, "minors", ok, str(report["witness"]))


def test_criterion_03_invariant_decompositions():
    bad = []
    for p in (2, 3, 5):
        report = theorem_g_suite(p, deg=6, bweight=6, count=20)
        if not (report["verdict"] and report["cases"] >= 20):
            bad.append("p=%d: %s" % (p, report["witness"]))
    _record(3, "thmG", not bad, "; ".join(bad))


def test_criterion_04_quotient_series_integrality():
    bad = []
    for p in (2, 3, 5):
        coeffs, rep = prop_xy_series(p, deg=6, bweight=6)
        if not rep["verdict"]:
            bad.append("G p=%d: %s" % (p, rep["witness"]))
        _, rep = twisted_fgl_alpha(p, deg=6, bweight=6)
        if not rep["verdict"]:
            bad.append("Falpha p=%d: %s" % (p, rep["witness"]))
    # additive law, p=2: the invariant series collapses to G(u,v) = u + v
    coeffs, rep = prop_xy_series(2, bweight=0)
    actx = xy_context(2, bweight=0)
    if not (rep["verdict"] and set(coeffs) == {(1, 0), (0, 1)}
            and coeffs[(1, 0)] == actx.one() and coeffs[(0, 1)] == actx.one()):
        bad.append("additive G != u + v")
    fa, rep = twisted_fgl_alpha(2, bweight=0)
    tctx = twisted_context(2, bweight=0)
    diff = fa - tctx.var("u") - tctx.var("v")
    if not (rep["verdict"] and not diff.is_zero
            and all(vp(c, 2) >= 1 for _e, c in diff.sorted_terms())):
        bad.append("additive Falpha - u - v not in (2)")
    _record(4, "xy", not bad, "; ".join(bad))


def test_criterion_05_symmetric_operation_exists():
    report = verify.verify_sop()
    ctx = operations.make_context(2, 6, 6)
    st = operations.quillen_steenrod(ctx, 2, (1,))
    p1 = dict((lab, e) for lab, e, _ in operations.grid_elements(ctx))["P1"]
    phi = operations.symmetric_operation(st, p1)
    spot = phi == ctx.mono({"t": -2}) + ctx.mono({"t": -1, "b1": 1}, 2)
    _record(5, "sop", _clean(report) and spot, _witnesses(report))


def test_criterion_06_vanishing_on_cells():
    report = verify.verify_emb()
    _record(6, "emb", _clean(report), _witnesses(report))


def test_criterion_07_chow_comparison():
    report = verify.verify_f1()
    model_spot = (fgl.ChowModel(1).eta(2, (1,)) == 1
                  and fgl.ChowModel(2).eta(3, (1, 2)) == -1)
    _record(7, "f1", _clean(report) and model_spot, _witnesses(report))


def test_criterion_08_ideal_eta_classes():
    report = verify.verify_il1()
    _record(8, "il1", _clean(report), _witnesses(report))


def test_criterion_09_characteristic_number_units():
    report = verify.verify_il3()
    spot = any(c["input"] == "H(2,2)" and c["chi"] == -2
               and c["binom_mod_p"] == math.comb(3, 1) % 2
               for c in report["cases"])
    _record(9, "il3", _clean(report) and spot, _witnesses(report))


def test_criterion_10_additivity_defect():
    report = verify.verify_addphi()
    _record(10, "addphi", _clean(report), _witnesses(report))


def test_criterion_11_multiplicativity():
    report = verify.verify_multphi()
    ok = _clean(report) and sorted(report["p"]) == [2, 3]
    _record(11, "multphi", ok, _witnesses(report))


def test_criterion_12_slice_comparison():
    report = verify.verify_rr()
    _record(12, "rr", _clean(report), _witnesses(report))


def test_criterion_13_two_variable_slices():
    report = verify.verify_uv()
    _record(13, "uv", _clean(report), _witnesses(report))


def test_criterion_14_quotient_diagram():
    rep1 = verify.verify_diagram()
    rep2 = verify.verify_tomdieck()
    ok = _clean(rep1) and _clean(rep2) and sorted(rep1["p"]) == [2, 3]
    _record(14, "diagram", ok, _witnesses(rep1) + "; " + _witnesses(rep2))


def test_criterion_15_hypersurface_classes():
    ctx = fgl.base_context(8, 8)
    bad = []
    if fgl.hypersurface_class(ctx, 2, 2).series != fgl.pn_class(ctx, 1).series:
        bad.append("[H(2,2)] != [P^1]")
    for n in range(2, 6):
        for d in range(1, 5):
            s = fgl.hypersurface_class(ctx, n, d).s_number()
            want = d * (n + 1) - d ** n
            if s != want:
                bad.append("s(H(%d,%d))=%s want %s" % (n, d, s, want))
    _record(15, "hyper", not bad, "; ".join(bad))
