"""The four workloads: what each runs, how its inputs follow from the seed,
and how its outputs are checked against the record taken from the seed code.

Why each workload exists (which layer it loads, which it leaves idle) is in
NOTES.md.  The seed reaches cobcalc only as generated inputs: the cli-cold
query draw, and the `seed` parameter of `run_verifier` and
`theorem_g_suite`.
"""

from __future__ import annotations

import hashlib
import json
import random

from common import BENCH_DIR

WORKLOADS = ("cli-cold", "phi-grid", "invariants", "minors")
RECORD_PATH = BENCH_DIR / "record.json"

# ----- cli-cold ---------------------------------------------------------------
#
# One slot per query of a stream; the seed draws one entry of each slot and
# shuffles the stream.  Entries of a slot cost about the same, so the cost of
# a stream hardly depends on the seed.  By cost the stream is 27 quick
# queries (about 0.2 s each on the reference machine), one verifier of about
# 0.6 s, 8 operations of about 0.75 s and 5 of 1 to 4 s.  The median (21st of
# 41) lies inside the quick group and the tail (31st of 41, p75.6) inside the
# group of 8, away from the jumps between groups, where the draw would move
# them.
#
# Every entry stays inside the default bounds (deg 8, bweight 8): op inputs
# satisfy p * bweight(e) <= 8 and p * zdeg(e) <= 8, a_ij has i + j <= 9, Pn
# has n <= 8.  Queries known to print a silently truncated answer are left
# out; NOTES.md lists them.

_A_IJ = ["fgl --what a_ij --i %d --j %d" % (i, j)
         for i, j in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2))]
_N_SERIES = ["fgl --what [n] --n %d" % n for n in (2, 3, 4, -1, -2)]
_FGL_WHOLE = ["fgl --what F", "fgl --what omega", "fgl --what inverse"]
_PN = ["class Pn --n %d" % n for n in range(1, 9)]
_HYPER = ["class hypersurface --n %d --d %d" % nd
          for nd in ((2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2))]
_ETA = ["eta --U %s --p %d" % (u, p)
        for u in ("P1", "P2", "P3", "P4", "H(3,2)", "H(4,3)")
        for p in (2, 3)]
_LN = ["op ln --input %s" % e for e in ("P1", "P2", "z", "P1*z")]
_VERIFY_QUICK = ["verify %s" % v for v in ("il1", "il3", "fglaxioms")]
_OP2 = ["op %s --input %s --p 2" % (k, e)
        for k in ("st", "phi") for e in ("P1", "P2", "P3", "z^2", "P1*z")]
_SLICE2 = ["op slice --input %s --p 2 --q %s" % (e, q)
           for e in ("P1", "P2") for q in ("1", "t", "t^2")]
_VERIFY = ["verify %s --p 2" % v for v in ("sop", "emb", "grad", "diagram")] \
    + ["verify soold"]
_SQ2 = ["op sq --input %s --p 2" % e for e in ("z", "P1", "P2")]
_OP3 = ["op %s --input %s --p 3" % (k, e)
        for k in ("st", "phi", "slice") for e in ("P1", "P2", "P1*z")]
_OP5 = ["op %s --input %s --p 5" % (k, e)
        for k in ("st", "phi", "slice") for e in ("P1", "z", "P1*z")]
_SQ5 = ["op sq --input %s --p 5" % e for e in ("P1", "z")]

CLI_SLOTS = ([_A_IJ] * 5 + [_N_SERIES] * 4 + [_FGL_WHOLE] * 2 + [_PN] * 5
             + [_HYPER] * 3 + [_ETA] * 5 + [_LN] + [_VERIFY_QUICK] * 2
             + [_VERIFY] + [_OP2] * 6 + [_SLICE2] * 2
             + [_SQ2] + [_OP3] * 2 + [_OP5, _SQ5])


def cli_catalogue():
    """Every query a stream can draw, each once, in a fixed order."""
    seen = []
    for slot in CLI_SLOTS:
        seen.extend(q for q in slot if q not in seen)
    return seen


def cli_stream(seed):
    rng = random.Random(seed)
    stream = [rng.choice(slot) for slot in CLI_SLOTS]
    rng.shuffle(stream)
    return stream


def query_argv(query):
    return query.split() + ["--format", "json"]


def digest(text):
    return hashlib.sha256(text.encode() if isinstance(text, str)
                          else text).hexdigest()


# ----- in-process workloads -----------------------------------------------------

PHI_GRID = ([(name, p) for name in ("sop", "emb", "addphi", "multphi", "grad",
                                    "uv", "rr", "diagram", "tomdieck")
             for p in (2, 3)]
            + [("f1", None), ("soold", None)])


def verifier_seed(seed):
    """The `run_verifier` seed drawn from a benchmark seed.

    The first of seed*16 .. seed*16+15 whose randomized representatives are
    a generic choice at p = 2 and 3: different from the canonical and the
    +-1 choices, and not closed under negation.  A coinciding draw (two
    seeds in five at p = 2) would share a descriptor and its memo, and a
    symmetric one such as (-5, 5) gives a sparser St; either makes the pass
    5 to 12% cheaper than the others.
    """
    from cobcalc import operations

    def generic(p, candidate):
        choices = [reps for _label, reps in
                   operations.rep_choices(p, candidate)]
        drawn = choices[-1]
        return (len(set(choices)) == 3
                and set(drawn) != {-r for r in drawn})
    for candidate in range(seed * 16, seed * 16 + 16):
        if generic(2, candidate) and generic(3, candidate):
            return candidate
    raise ValueError("no generic representative draw near seed %d" % seed)


def jobs(workload, seed):
    """[(label, thunk)]: each thunk returns the outcome the record stores."""
    from cobcalc import actions, operations

    def verifier(name, p):
        def run():
            rep = operations.run_verifier(name, p=p, seed=vseed)
            return {"cases": len(rep["cases"]), "summary": rep["summary"]}
        return run

    def suite(report):
        return {"verdict": report["verdict"], "cases": report["cases"]}

    def theorem_g():
        return suite(actions.theorem_g_suite(3, seed=seed))

    def prop_xy():
        coeffs, report = actions.prop_xy_series(3)
        out = suite(report)
        out["sha256"] = digest(json.dumps(
            [[list(k), q.to_json_dict()] for k, q in sorted(coeffs.items())],
            sort_keys=True))
        return out

    def twisted():
        f_alpha, report = actions.twisted_fgl_alpha(3)
        out = suite(report)
        out["sha256"] = digest(f_alpha.to_json())
        return out

    def minors():
        return suite(actions.minors_suite(max_square=6, max_minor=5))

    if workload == "phi-grid":
        vseed = verifier_seed(seed)
        return [("%s@%s" % (n, p if p else "all"), verifier(n, p))
                for n, p in PHI_GRID]
    if workload == "invariants":
        return [("theorem_g_suite", theorem_g), ("prop_xy_series", prop_xy),
                ("twisted_fgl_alpha", twisted)]
    if workload == "minors":
        return [("minors_suite", minors)]
    raise ValueError("no in-process jobs for %r" % workload)


# ----- checks against the record ------------------------------------------------


def load_record():
    with open(RECORD_PATH) as fh:
        return json.load(fh)


def units(workload, expected):
    """How many attempted operations one job stands for: verifier cases for
    phi-grid, one suite report or one query otherwise."""
    if workload == "phi-grid":
        return expected["cases"]
    return 1


def failures(workload, expected, outcome):
    """Failed operations of one job: 0 when the outcome matches the record.

    A verifier job counts its cases that did not pass (all of them when it
    raised or its case count changed); a suite or query counts 1.
    """
    if outcome == expected:
        return 0
    if workload != "phi-grid":
        return 1
    try:
        same_count = outcome["cases"] == expected["cases"]
        passed = outcome["summary"]["pass"] if same_count else 0
    except (KeyError, TypeError):
        passed = 0
    return max(1, expected["cases"] - passed)
