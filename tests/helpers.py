"""Readers and constructors that only the tests use.

The library writes a series as JSON (`GradedSeries.to_json_dict`,
`to_json`) and builds its FormalP from a context; the tests also read the
JSON back and certify a FormalP of a generator they choose.
"""

import json
from fractions import Fraction

from cobcalc.quotient import FormalP
from cobcalc.series import GradedSeries, Variable, VariableTable


def series_from_json(doc):
    """The series that `to_json_dict` wrote as doc, or `to_json` as text,
    over a new table object."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    variables = [Variable(d["name"], d["weight"], d.get("laurent_floor"))
                 for d in doc["vars"]]
    caps = [(tuple(names), bound)
            for names, bound in doc.get("degree_caps", [])]
    terms = {tuple(t["exp"]): Fraction(int(t["num"]), int(t["den"]))
             for t in doc["terms"]}
    return GradedSeries(VariableTable(variables, degree_caps=caps),
                        doc["trunc_plus"], doc["trunc_minus"], terms)


def formal_p_of(g, p):
    """The FormalP of a given generator g, certified as FormalP(ctx, p)
    certifies [p](t)/t."""
    return FormalP.__new__(FormalP)._certify(g, p)
