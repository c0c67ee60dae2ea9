"""Mutants of the kernels, the lift, the operations, the slices, the shift
product, the pushforward and the verifiers, for `tools/mutate.py`.

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
VERIFY = "src/cobcalc/verify.py"

ORACLE = "tests/test_kernel_oracle.py"
MINORS = ("tests/test_actions.py"
          "::test_maximal_minors_match_cofactor_expansion")
BAREISS = "tests/test_actions.py::test_bareiss_examples"
SUITE = "tests/test_actions.py::test_minors_suite_small"
PRODUCT = ("tests/test_actions.py"
           "::test_the_walk_carries_each_vandermonde_product")
CERTIFICATE = "tests/test_actions.py::test_minor_certificate_"
UV = "tests/test_operations.py::test_verifier_uv_p3"
RR = "tests/test_operations.py::test_verifier_rr_p2"
CARRY = (ORACLE + "::test_substitute_past_a_cap_field_carry"
         "_matches_plain_horner")
POWERS = ORACLE + "::test_substitute_matches_materialized_powers"
TWISTED = ORACLE + "::test_substitute_in_a_twisted_table_matches_plain_horner"
LAURENT_CAP = (ORACLE + "::test_substitute_under_a_capped_laurent_variable"
               "_matches_plain_horner")
ADD_PRODUCTS = ORACLE + "::test_add_products_matches_products_and_sums"
PRODUCT_COEFF = (ORACLE + "::test_product_coeff_matches_the_sliced"
                 "_full_product")
APPLY_ORACLE = ("tests/test_operations.py"
                "::test_st_apply_and_phi_hat_match_the_grouped_reference")
EXACT_IMAGES = ("tests/test_operations.py::test_st_and_phi_hat_give_the"
                "_exactly_truncated_monomial_images")
PHI_ORACLE = ("tests/test_operations.py"
              "::test_phi_matches_the_division_of_the_whole_input")
LIFT_CERTIFICATE = "tests/test_quotient.py::test_lift_certifies_its_remainder"
SOP_CERTIFICATE = ("tests/test_operations.py"
                   "::test_sop_reports_a_quotient_that_fails_its_certificate")
PASS_THROUGH = "tests/test_quotient.py::test_lift_passes_the_t0_digit_through"
# the two lines between a cap group's test and its offset in
# GradedSeries._least_cap_sums
LEAST = ("                least = (min((k >> off) & mask"
         " for k in self._rows)\n"
         "                         - (mask >> 1) + bound)\n                ")

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
           "                raise SeriesError(\"normal form expects",
           "if lo is not None and lo < -1:\n"
           "                raise SeriesError(\"normal form expects",
           ["tests/test_quotient.py::test_normal_form_rejects_negative_t",
            "tests/test_quotient.py"
            "::test_normal_form_scans_t_only_under_a_floor"]),
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
    # the sums at the ends of the narrowed fields, not a digest, must catch
    # a field sized without the floors' margin
    Mutant("a degree field is sized without the floors", SERIES,
           "(6 * (trunc_plus - pfloor)).bit_length()",
           "(6 * trunc_plus).bit_length()",
           [ORACLE + "::test_sums_at_the_ends_of_the_degree_and_cap_fields"]),
    Mutant("a cap field is sized without its floor sum", SERIES,
           "(3 * bound - 4 * sum(floors[j] for j in idxs)).bit_length()",
           "(3 * bound).bit_length()",
           [ORACLE + "::test_sums_at_the_ends_of_the_degree_and_cap_fields"]),
    Mutant("graded-lexicographic order drops the exponent sum", SERIES,
           "return sum(exp), exp",
           "return 0, exp",
           [ORACLE + "::test_sorted_terms_are_graded_lexicographic",
            ORACLE + "::test_mul_inverse_starts_from_the_least_invertible_term"]),
    # the example whose least invertible term has its inverse past
    # trunc_plus, not only the order of the leads, must catch this
    Mutant("mul_inverse leads with a term whose inverse is past the bounds",
           SERIES,
           "if not _outside(table, tp, tm, e)), (None, None))",
           "if True), (None, None))",
           [ORACLE + "::test_mul_inverse_round_trip_with_floors_and_caps"]),
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
           "out = {k: v for k, v in rows if v and k & expbits == expbits}",
           "out = {k: v for k, v in rows if v}",
           [ORACLE + "::test_laurent_underflow_through_the_packed_path",
            ORACLE + "::test_packed_results_match_the_tuple_oracle"]),
    Mutant("the pair loop keeps the pairs past a cap", SERIES,
           "if k & capbits:",
           "if False:",
           ["tests/test_series.py::test_degree_caps_are_ring_quotients",
            ORACLE + "::test_packed_results_match_the_tuple_oracle"]),
    Mutant("the key shift keeps a term past a cap", SERIES,
           "                    or k & capbits):",
           "                    or False):",
           ["tests/test_series.py::test_degree_caps_are_ring_quotients",
            ORACLE + "::test_one_term_products_match_the_tuple_oracle"]),
    Mutant("a key shift keeps a term below a Laurent floor", SERIES,
           "if all(k & expbits == expbits for k in acc):",
           "if True:",
           [ORACLE + "::test_laurent_underflow_through_the_packed_path",
            ORACLE + "::test_one_term_products_match_the_tuple_oracle"]),
    # a sum of products must bring each product to the common denominator
    # and start from its own terms; its oracle, not a digest, must catch
    # either slip
    Mutant("a pair is scaled by its own denominator", SERIES,
           "n = den // (a._den * b._den)",
           "n = a._den * b._den",
           [ADD_PRODUCTS]),
    Mutant("a sum of products drops the seed rows", SERIES,
           "acc = dict(self._rows) if f == 1 else {\n"
           "            k: v * f for k, v in self._rows.items()}",
           "acc = {}",
           [ADD_PRODUCTS, POWERS]),
    # one degree of a product pairs the slices whose degrees sum to it
    Mutant("product_coeff pairs slices whose degrees differ by k", SERIES,
           "theirs.get(k - e)",
           "theirs.get(k + e)",
           [PRODUCT_COEFF]),
    # Horner's prune drops a term only when the products left push it past
    # a cap; looking one product further drops terms that end within it
    Mutant("Horner's accumulator looks one product too far", SERIES,
           "acc._within_caps((k + 1) * step)",
           "acc._within_caps((k + 2) * step)",
           [CARRY, POWERS, TWISTED]),
    Mutant("Horner's image looks one product too far", SERIES,
           "img._within_caps(k * step)",
           "img._within_caps((k + 1) * step)",
           [CARRY, POWERS, TWISTED]),
    Mutant("Horner's prune keeps non-positive least sums", SERIES,
           "if self._rows and not any(table.floors[i] for i in idxs):\n"
           + LEAST + "step += max(least, 0) << off",
           "if self._rows:\n" + LEAST + "step += least << off",
           [LAURENT_CAP]),
    Mutant("Horner's prune reads a group over a negative floor", SERIES,
           "if self._rows and not any(table.floors[i] for i in idxs):",
           "if self._rows:",
           [LAURENT_CAP]),
    # exact_divide then never empties its heap on a truncated remainder, so
    # only a test that fails at the first product may be named
    Mutant("exact_divide keeps the products past a bound or a cap", SERIES,
           "if _outside(table, tp, tm, k):",
           "if False:",
           ["tests/test_series.py"
            "::test_exact_divide_drops_products_past_a_bound_or_a_cap"]),
    Mutant("exact_divide skips the integral check", SERIES,
           "if integral and type(c) is not int:",
           "if False:",
           ["tests/test_series.py::test_exact_divide_integral_flag",
            ORACLE + "::test_not_divisible_names_the_seed_monomial",
            ORACLE + "::test_one_term_divisions_match_the_tuple_oracle"]),
    Mutant("exact_divide lets a quotient term below a floor through", SERIES,
           "if any(k < f for k, f in zip(e, floors)):",
           "if any(k < f - 1 for k, f in zip(e, floors)):",
           ["tests/test_series.py::test_exact_divide_monomial_obstruction",
            ORACLE + "::test_not_divisible_names_the_seed_monomial",
            ORACLE + "::test_one_term_divisions_match_the_tuple_oracle"]),
    # the minor checks of criterion 02, not its digest, must catch a weak
    # divisibility certificate
    Mutant("the certificate stops one derivative order short", SERIES,
           "full = (1 << (w * k)) - 1",
           "full = (1 << (w * (k - 1))) - 1",
           ["tests/test_series.py::test_divisible_by_difference_examples",
            CERTIFICATE + "reads_every_derivative_order",
            ORACLE + "::test_difference_power_certificate_matches_exact_divide"]),
    Mutant("the Pascal rows keep order k", SERIES,
           "full = (1 << (w * k)) - 1",
           "full = (1 << (w * (k + 1))) - 1",
           ["tests/test_series.py::test_divisible_by_difference_examples",
            ORACLE + "::test_difference_power_certificate_matches_exact_divide"]),
    Mutant("the fields lose the (k - 1) * bitlen(top) term", SERIES,
           "+ (k - 1) * top.bit_length() + 1)",
           "+ 1)",
           ["tests/test_series.py"
            "::test_divisible_by_difference_fields_hold_every_order_sum"]),
    Mutant("the first-order certificate sums at the unmoved key", SERIES,
           "key += (((key >> off) & mask) - c) * step",
           "key += 0",
           ["tests/test_series.py::test_divisible_by_difference_examples",
            ORACLE + "::test_first_order_certificate_matches_exact_divide"]),
    Mutant("the certificate drops the denominator guard", SERIES,
           "if self._den != 1:\n            return False",
           "if False:\n            return False",
           ["tests/test_series.py::test_divisible_by_difference_examples",
            CERTIFICATE + "asks_for_integer_coefficients",
            ORACLE + "::test_difference_power_certificate_matches_exact_divide"]),
    Mutant("reversion stops one degree short", SERIES,
           "his[i] + 1",
           "his[i]",
           [ORACLE + "::test_compositional_inverse_round_trip",
            "tests/test_series.py::test_compositional_inverse"]),
    # the cofactor oracle must catch a wrong expansion on its own; the
    # Laplace step is the one that every walk of criterion 02 takes
    Mutant("the expansion sign ignores the row index", ACTIONS,
           "(k - 1 + i) % 2",
           "i % 2",
           [MINORS, BAREISS, SUITE]),
    Mutant("the sub-minor keeps the expanded column", ACTIONS,
           "level[cols[:i] + cols[i + 1:]]",
           "level[cols[1:]]",
           [MINORS, BAREISS, SUITE]),
    # a cofactor with a zero entry or sub-minor is an empty product, which
    # add_products skips
    Mutant("a sum of products stops at its first empty product", SERIES,
           "            if a._rows and b._rows:\n",
           "            if not (a._rows and b._rows):\n"
           "                break\n"
           "            if True:\n",
           [MINORS, BAREISS, SUITE, ADD_PRODUCTS]),
    Mutant("bareiss_det expands one row short", ACTIONS,
           "for row in rows:",
           "for row in rows[1:]:",
           [BAREISS]),
    Mutant("a level is built out of combinations order", ACTIONS,
           "for cols in itertools.combinations(range(len(row)), k):",
           "for cols in sorted(itertools.combinations(range(len(row)), k),\n"
           "                       reverse=True):",
           [MINORS, SUITE]),
    # the direct product of the tests and the suite's square identity, not
    # its digest, must catch a wrong product carried down the walk
    Mutant("the carried product takes each factor once", ACTIONS,
           "grown = grown * (t[i] - t[j]) ** child[j]",
           "grown = grown * (t[i] - t[j])",
           [PRODUCT, SUITE]),
    Mutant("the carried product stops one block short", ACTIONS,
           "for j in range(i):",
           "for j in range(i - 1):",
           [PRODUCT, SUITE]),
    Mutant("the carried product takes t_j - t_i", ACTIONS,
           "(t[i] - t[j]) ** child[j]",
           "(t[j] - t[i]) ** child[j]",
           [PRODUCT, SUITE]),
    Mutant("the invariance check substitutes the identity", ACTIONS,
           "return nf(ctx.shift_image(self.var, 1))",
           "return nf(ctx.var(self.var))",
           ["tests/test_actions.py"
            "::test_invariant_decompose_rejects_non_invariant",
            "tests/test_actions.py::test_invariance_is_checked_modulo_p"]),
    Mutant("the power of the shift image is one step short", ACTIONS,
           "return nf(self.image_power(k - 1) * self.image_power(1))",
           "return self.image_power(k - 1)",
           ["tests/test_actions.py::test_shift_matches_horner",
            "tests/test_actions.py::test_invariant_decompose_pi_powers"]),
    # x and y of prop_xy_series would then read each other's powers
    Mutant("the image power memo key drops var", ACTIONS,
           '("image_power", self.var, self.p, k)',
           '("image_power", self.p, k)',
           ["tests/test_actions.py"
            "::test_shift_keeps_the_image_powers_of_each_variable",
            "tests/test_actions.py::test_prop_xy_universal_p2"]),
    # every image but the first is the first at t = [k]t: the oracle of
    # the formal sum and the order of the shift must catch a wrong [k]t
    Mutant("the shift image puts in [k+1]t for t", FGL,
           '{"t": self.nseries(k)})',
           '{"t": self.nseries(k + 1)})',
           ["tests/test_actions.py"
            "::test_shift_image_is_the_formal_sum_with_each_rep",
            "tests/test_actions.py::test_shift_automorphism_order_p", UV]),
    Mutant("c(t) is read from the x^2 coefficient of pi", ACTIONS,
           "c = self.pi_power(1).coeff_of(self.var, 1)",
           "c = self.pi_power(1).coeff_of(self.var, 2)",
           ["tests/test_actions.py"
            "::test_unit_inverse_is_the_inverse_of_the_nseries_product",
            "tests/test_actions.py::test_invariant_decompose_pi_powers"]),
    # pi(x + y) is invariant too, so only the oracle of the product of
    # formal sums sees it
    Mutant("the xy orbit product is pi at x + y", ACTIONS,
           'phi = ax.pi_power(1).substitute({"x": ctx.fgl()})',
           'phi = ax.pi_power(1).substitute({"x": ctx.var("x")'
           ' + ctx.var("y")})',
           ["tests/test_actions.py"
            "::test_prop_xy_orbit_product_is_the_product_of_formal_sums"]),
    Mutant("a negative digit keeps the terms past the bounds", SERIES,
           "return s if e >= 0 else GradedSeries(",
           "return s if e >= -9 else GradedSeries(",
           ["tests/test_series.py"
            "::test_a_negative_digit_drops_the_terms_past_trunc_plus",
            ORACLE + "::test_packed_results_match_the_tuple_oracle"]),
    Mutant("max_bweight takes the least b-weight of a term", SERIES,
           "return max((k >> lay.mshift for k in self._rows),",
           "return min((k >> lay.mshift for k in self._rows),",
           ["tests/test_cli.py::test_bad_args_name_the_problem"]),
    # the uv suite's verdict, not a digest, must catch a wrong slice or trace
    Mutant("chow_trace keeps the ambient b's", OPERATIONS,
           "return series.kill_vars(ctx.b_names)",
           "return series",
           [UV]),
    Mutant("slice_phi takes the t^-1 slice", OPERATIONS,
           'return (q * phi).product_coeff(ctx.omega, "t", 0)',
           'return (q * phi).product_coeff(ctx.omega, "t", -1)',
           [UV]),
    Mutant("st_slice takes the t^-1 slice", OPERATIONS,
           'return chow_trace(ctx, f.product_coeff(st.apply(e), "t", 0))',
           'return chow_trace(ctx, f.product_coeff(st.apply(e), "t", -1))',
           [UV]),
    # the references, not a digest, must catch a coefficient map that moves
    # the carriers: grad reads phi_hat only on coefficients free of z
    Mutant("phi_hat maps the carriers", OPERATIONS,
           "return _linear(u, self._images(self.ctx.b_names))",
           "return _linear(u, self._images(self.image_names))",
           [APPLY_ORACLE, EXACT_IMAGES]),
    # a quotient that fails its certificate must fail Phi, and only a
    # remainder at t^0, not below it, tells lo < 1 from lo < 0
    Mutant("the lift skips its certificate", QUOTIENT,
           "if lo is not None and lo < 1:",
           "if False:",
           [LIFT_CERTIFICATE, SOP_CERTIFICATE]),
    Mutant("the lift's certificate tests lo < 0", QUOTIENT,
           "if lo is not None and lo < 1:",
           "if lo is not None and lo < 0:",
           [LIFT_CERTIFICATE, SOP_CERTIFICATE]),
    Mutant("the lift drops the t^0 digit", QUOTIENT,
           "        return zero + q\n",
           "        return q\n",
           [PASS_THROUGH, PHI_ORACLE]),
    # the value is the same, so only the operand of the product shows it
    Mutant("the lift divides the t^0 digit too", QUOTIENT,
           'neg, zero = f.split_parts("t")[0].split_parts("t", -1)',
           'neg, zero = f.split_parts("t")[0].split_parts("t", 0)',
           [PASS_THROUGH]),
    # the whole-input division, not a digest, must catch a quotient read as
    # an image or an image read as a quotient
    Mutant("the quotient cache is the image cache", OPERATIONS,
           'quotients = self.memo("quotients", dict)',
           'quotients = self.memo("monomials", dict)',
           [PHI_ORACLE]),
    # under St only: t^k * btilde_j passes trunc_plus before a later
    # btilde_i would bring it back
    Mutant("the chain starts from the passive monomial", OPERATIONS,
           "head = tuple(k if i in mapped else 0 for i, k in enumerate(exp))",
           "head = exp if names == self.image_names else tuple(\n"
           "                k if i in mapped else 0 for i, k in enumerate(exp))",
           [EXACT_IMAGES]),
    # a gamma of another weight must be refused where St is built
    Mutant("St drops the weight check of gamma", OPERATIONS,
           '_check_weight(gamma, p, "gamma")',
           "pass",
           ["tests/test_operations.py"
            "::test_st_refuses_a_gamma_of_another_weight"]),
    Mutant("btilde skips its weight check", OPERATIONS,
           "if self.gamma.weight() == self.p:",
           "if False:",
           ["tests/test_operations.py"
            "::test_btilde_refuses_a_term_of_another_weight"]),
    # a refused St must fail one case, not end the suite
    Mutant("a refused St ends the suite", VERIFY,
           'return None, _falsified("St", exc, reps=list(reps))',
           "raise",
           ["tests/test_operations.py"
            "::test_a_refused_st_is_one_failing_case_and_the_suite_runs_on",
            "tests/test_operations.py"
            "::test_diagram_reports_a_perturbed_shift_image"]),
    Mutant("the twisted exponential scales s by c, not by c^-1", OPERATIONS,
           'ctx.var("s") * self.c.mul_inverse()',
           'ctx.var("s") * self.c',
           ["tests/test_operations.py::test_btilde_oracle_p2", UV]),
    # St's gamma and the che class are both read from the shift product:
    # with -i they change alike into St and che at the reps -i, for which
    # rr's projection formula holds, so the values of che and gamma must
    # catch it; without the first rep gamma has p - 1 factors and rr fails
    Mutant("the shift product shifts by -i", FGL,
           "(self.shift_image(name, i) for i in reps)",
           "(self.shift_image(name, -i) for i in reps)",
           ["tests/test_operations.py::test_omega_che_line_bundle",
            "tests/test_operations.py::test_gamma_digits_p2"]),
    Mutant("the shift product drops the first rep", FGL,
           "(self.shift_image(name, i) for i in reps)",
           "(self.shift_image(name, i) for i in reps[1:])",
           [RR, "tests/test_operations.py::test_omega_che_line_bundle"]),
    Mutant("the pushforward puts 2x in for t in omega", FGL,
           'ctx.omega.substitute({"t": ctx.var("x")})',
           'ctx.omega.substitute({"t": ctx.var("x").scale(2)})',
           ["tests/test_fgl.py::test_hyperplane_is_smaller_projective_space",
            "tests/test_fgl.py::test_s_number_formula_hypersurfaces"]),
    Mutant("il1 reads I(2) membership at every prime", VERIFY,
           "coeffs_mod_p(ops._ambient_class(fic, n, d), q)",
           "coeffs_mod_p(ops._ambient_class(fic, n, d), 2)",
           ["tests/test_operations.py"
            "::test_il1_tests_the_classes_in_each_ideal"]),
    Mutant("the multphi tail drops Phi(v) g", VERIFY,
           "tail = _once(lambda v: st_of(v) + phi(v) * g)",
           "tail = _once(st_of)",
           ["tests/test_operations.py::test_verifier_multphi_p2",
            "tests/test_operations.py"
            "::test_product_rule_matches_its_four_products"]),
]
