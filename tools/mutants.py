"""Mutants of the kernels, the operations, the slices and the che class,
for `tools/mutate.py`.

Each mutant replaces one exact anchor text in one file under `src/` and
names the tests expected to kill it (fail on the mutated code), quickest
first, since a run stops at the first failure.  The anchor must occur
exactly once in its file; `tests/test_mutants.py` checks that in tier-1,
so the list cannot rot silently when the code moves.  A mutant that no
test can kill because it does not change what the program computes is
marked with the argument for that in `equivalent`; `tools/mutate.py` then
runs it only to report.

References: DeMillo, Lipton & Sayward, "Hints on test data selection"
(IEEE Computer 1978); Jia & Harman, "An analysis and survey of the
development of mutation testing" (IEEE TSE 2011).
"""

from collections import namedtuple

Mutant = namedtuple("Mutant", "name path anchor replacement tests equivalent",
                    defaults=(None,))

SERIES = "src/cobcalc/series.py"
QUOTIENT = "src/cobcalc/quotient.py"
FGL = "src/cobcalc/fgl.py"
ACTIONS = "src/cobcalc/actions.py"
OPERATIONS = "src/cobcalc/operations.py"

ORACLE = "tests/test_kernel_oracle.py"
MINORS = ("tests/test_actions.py"
          "::test_maximal_minors_match_cofactor_expansion")
BAREISS = "tests/test_actions.py::test_bareiss_examples"
UV = "tests/test_operations.py::test_verifier_uv_p3"
RR = "tests/test_operations.py::test_verifier_rr_p2"
APPLY_ORACLE = ("tests/test_operations.py"
                "::test_st_apply_and_phi_hat_match_the_grouped_reference")

MUTANTS = [
    Mutant("mod_p multiplies by den, not by its inverse", SERIES,
           "value.numerator * pow(value.denominator, -1, p) % p",
           "value.numerator * value.denominator % p",
           ["tests/test_fgl.py::test_mod_p"]),
    Mutant("coeffs_mod_p multiplies by den, not by its inverse", SERIES,
           "inv = pow(den, -1, p)",
           "inv = den % p",
           ["tests/test_quotient.py"
            "::test_coeffs_mod_p_multiplies_by_the_inverse_of_the_denominator",
            "tests/test_quotient.py"
            "::test_normal_form_of_p_integral_coefficients",
            ORACLE + "::test_normal_form_matches_repeated_subtraction"]),
    Mutant("coeffs_mod_p lets p into a denominator through", SERIES,
           "if den % p == 0:",
           "if den % p == 0 and den < 0:",
           ["tests/test_quotient.py"
            "::test_normal_form_of_p_integral_coefficients"]),
    Mutant("p-integrality is asked as integrality", QUOTIENT,
           "if f.denominator % p == 0:",
           "if f.denominator != 1:",
           ["tests/test_quotient.py::test_is_integral_examples",
            ORACLE + "::test_is_integral_matches_sequential_reduction"]),
    Mutant("lowest_indivisible lets a unit of Z_(p) pass as divisible",
           QUOTIENT,
           "vp(c, p) < 1",
           "vp(c, p) < 0",
           [ORACLE + "::test_is_integral_matches_sequential_reduction"]),
    Mutant("the Laurent step also clears the t^0 digit", QUOTIENT,
           "q = self._low_digits(f, -1)",
           "q = self._low_digits(f, 0)",
           [ORACLE + "::test_is_integral_matches_sequential_reduction"]),
    Mutant("u^-1 is not kept deeper than the t floor", QUOTIENT,
           "g.trunc_plus - floor, g.trunc_minus",
           "g.trunc_plus, g.trunc_minus",
           ["tests/test_quotient.py"
            "::test_u_inverse_reaches_as_deep_as_the_t_floor",
            ORACLE + "::test_divide_by_formal_p_matches_triangular_solve",
            ORACLE + "::test_is_integral_matches_sequential_reduction"]),
    Mutant("normal_form accepts t^-1", QUOTIENT,
           "if lo is not None and lo < 0:\n"
           "            raise SeriesError(\"normal form expects",
           "if lo is not None and lo < -1:\n"
           "            raise SeriesError(\"normal form expects",
           ["tests/test_quotient.py::test_normal_form_rejects_negative_t"]),
    Mutant("ChowModel's floor misses the last Chern factor", FGL,
           "floor = -max(p * dim, 2 + dim)",
           "floor = -max((p - 1) * dim, 2 + dim)",
           ["tests/test_cli.py::test_eta_at_large_primes"]),
    Mutant("ChowModel's floor misses the hypersurface inverse", FGL,
           "floor = -max(p * dim, 2 + dim)",
           "floor = -max(p * dim, dim)",
           ["tests/test_fgl.py::test_eta_values"]),
    Mutant("retruncate drops the terms at the new bound", SERIES,
           "if (k >> old.pshift) & old.pmask <= ptop",
           "if (k >> old.pshift) & old.pmask < ptop",
           ["tests/test_series.py"
            "::test_retruncate_keeps_the_terms_at_the_new_bound",
            ORACLE + "::test_retruncate_moves_terms_between_layouts"]),
    Mutant("retruncate shares the rows when one bound rises", SERIES,
           "old is new and trunc_plus >= self.trunc_plus\n"
           "                and trunc_minus >= self.trunc_minus)",
           "old is new and (trunc_plus >= self.trunc_plus\n"
           "                or trunc_minus >= self.trunc_minus))",
           [ORACLE + "::test_retruncate_moves_terms_between_layouts"]),
    Mutant("the key geometry has no headroom below the floors", SERIES,
           "trunc_plus -= 2 * pfloor",
           "trunc_plus -= 0 * pfloor",
           ["tests/test_quotient.py"
            "::test_division_and_integrality_move_no_key"]),
    Mutant("his is taken at the geometry's depth", SERIES,
           "his = _highest(table, self.trunc_plus, self.trunc_minus)",
           "his = _highest(table, *self._lay.depth)",
           ["tests/test_actions.py::test_reversion_work_ceiling"]),
    Mutant("an exponent field is one bit short", SERIES,
           "(2 * (his[i] - floors[i])).bit_length()",
           "(his[i] - floors[i]).bit_length()",
           [ORACLE + "::test_a_product_at_the_geometry_depth_carries_no_field",
            ORACLE + "::test_product_matches_all_pairs_oracle"]),
    Mutant("an exponent's guard bit admits one below its floor", SERIES,
           "fields[i] = (off, (2 << g) - 1, (1 << g) - lo)",
           "fields[i] = (off, (2 << g) - 1, (1 << g) - lo + 1)",
           [ORACLE + "::test_laurent_underflow_through_the_packed_path",
            ORACLE + "::test_product_matches_all_pairs_oracle"]),
    Mutant("a cap's guard bit trips at the cap", SERIES,
           "base += ((1 << g) - 1 - bound) << off",
           "base += ((1 << g) - bound) << off",
           ["tests/test_series.py::test_degree_caps_are_ring_quotients",
            ORACLE + "::test_product_matches_all_pairs_oracle"]),
    Mutant("a product keeps a term below a Laurent floor", SERIES,
           "if v and k & floorbits == floorbits}",
           "if v}",
           [ORACLE + "::test_laurent_underflow_through_the_packed_path",
            ORACLE + "::test_packed_results_match_the_tuple_oracle"]),
    Mutant("the pair loop keeps the pairs past a cap", SERIES,
           "if k & capbits:",
           "if False:",
           ["tests/test_series.py::test_degree_caps_are_ring_quotients",
            ORACLE + "::test_packed_results_match_the_tuple_oracle"]),
    Mutant("exact_divide admits a term past a cap", SERIES,
           "if k >> mshift > mtop or k & capbits:",
           "if k >> mshift > mtop:",
           [ORACLE + "::test_exact_divide_roundtrip_integral",
            ORACLE + "::test_exact_divide_roundtrip_fractions",
            ORACLE + "::test_packed_results_match_the_tuple_oracle"]),
    Mutant("the key shift keeps a term past a cap", SERIES,
           "                    or k & capbits):",
           "                    or False):",
           ["tests/test_series.py::test_degree_caps_are_ring_quotients",
            ORACLE + "::test_one_term_products_match_the_tuple_oracle",
            ORACLE + "::test_one_term_divisions_match_the_tuple_oracle"]),
    Mutant("a one-term divisor skips the integral check", SERIES,
           "strict = integral and den != 1",
           "strict = False",
           ["tests/test_series.py::test_exact_divide_integral_flag",
            ORACLE + "::test_one_term_divisions_match_the_tuple_oracle"]),
    Mutant("reversion stops one degree short", SERIES,
           "his[i] + 1",
           "his[i]",
           [ORACLE + "::test_compositional_inverse_round_trip",
            "tests/test_series.py::test_compositional_inverse"]),
    # the cofactor oracle must catch a wrong expansion on its own
    Mutant("the expansion sign ignores the row index", ACTIONS,
           "(k - 1 + i) % 2",
           "i % 2",
           [MINORS, BAREISS]),
    Mutant("the sub-minor keeps the expanded column", ACTIONS,
           "level[cols[:i] + cols[i + 1:]]",
           "level[cols[1:]]",
           [MINORS, BAREISS]),
    Mutant("a zero entry ends the row's expansion", ACTIONS,
           "if entry.is_zero or sub.is_zero:\n                continue",
           "if entry.is_zero or sub.is_zero:\n                break",
           [MINORS, BAREISS]),
    Mutant("the last level is yielded out of combinations order", ACTIONS,
           "for cols in itertools.combinations(range(m), n):",
           "for cols in sorted(itertools.combinations(range(m), n),\n"
           "                            reverse=True):",
           [MINORS]),
    Mutant("the invariance check substitutes the identity", ACTIONS,
           "fp.normal_form(action.ctx.shift_image(var, 1))",
           "fp.normal_form(action.ctx.var(var))",
           ["tests/test_actions.py"
            "::test_invariant_decompose_rejects_non_invariant",
            "tests/test_actions.py::test_invariance_is_checked_modulo_p"]),
    # the uv suite's verdict, not a digest, must catch a wrong slice or trace
    Mutant("chow_trace keeps the ambient b's", OPERATIONS,
           "return series.kill_vars(ctx.b_names)",
           "return series",
           [UV]),
    Mutant("slice_phi takes the t^-1 slice", OPERATIONS,
           'return (q * phi * ctx.omega).coeff_of("t", 0)',
           'return (q * phi * ctx.omega).coeff_of("t", -1)',
           [UV]),
    Mutant("st_slice takes the t^-1 slice", OPERATIONS,
           'return chow_trace(ctx, (f * st.apply(e)).coeff_of("t", 0))',
           'return chow_trace(ctx, (f * st.apply(e)).coeff_of("t", -1))',
           [UV]),
    # the grouped reference, not a digest, must catch a wrong image cache
    Mutant("apply and phi_hat share one monomial image cache", OPERATIONS,
           'images = self.memo(("monomials", names), dict)',
           'images = self.memo("monomials", dict)',
           [APPLY_ORACLE]),
    Mutant("the twisted exponential scales s by c, not by c^-1", OPERATIONS,
           'ctx.var("s") * self.c.mul_inverse()',
           'ctx.var("s") * self.c',
           ["tests/test_operations.py::test_btilde_oracle_p2", UV]),
    # and the rr suite's verdict a wrong che class
    Mutant("omega_che shifts by -i", OPERATIONS,
           'out = out * ctx.shift_image("z1", i)',
           'out = out * ctx.shift_image("z1", -i)',
           [RR]),
    Mutant("omega_che drops the first rep", OPERATIONS,
           "for i in reps:",
           "for i in reps[1:]:",
           [RR]),
]
