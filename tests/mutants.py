"""Mutation checks: each entry is a small edit that the tests must catch.

Run from anywhere:

    python tests/mutants.py

Each entry of MUTANTS names a file under src/, an exact text in it, the
text that replaces it, and the test node ids that must fail once it
does.  For one entry at a time, the script copies src/ into a temporary
directory, applies the edit there and runs only the listed nodes with
pytest in a child process whose PYTHONPATH puts the copy first; the
child stops at once unless twoarm is imported from the copy.  Each
entry is reported as

    killed    every listed node has a failing test, `import twoarm`
              fails on the mutant (a circular import, say), so that
              every test would fail, with the exception as the detail,
              or the child runs longer than CHILD_TIMEOUT_S (a walk
              that never ends, say) and is stopped,
    survived  some listed node passes on the mutant (a finding about
              the tests: the entry stays in the table),
    stale     the old text is not in the file exactly once, the mutated
              file does not compile, or pytest could not run the nodes
              (a renamed test); the entry must be updated with the code
              or the tests it names.

A refactor of a module updates that module's stale entries.  The exit
status is 0 only if every entry is killed.  pytest does not collect
this file (it is not named test_*.py).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Seconds one entry's child may run.  Every entry that ends by itself
# takes a few seconds, so a child still running after this one loops.
CHILD_TIMEOUT_S = 60


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    nodes: tuple[str, ...]


MUTANTS = (
    Mutant(
        "C_95 at the unrounded 1.96",
        "twoarm/montecarlo.py",
        "C_95 = 1.645\n",
        "C_95 = 1.96\n",
        (
            "tests/test_criteria.py::TestTailConstant::test_standard_levels_use_rounded_values",
            "tests/test_criteria.py::TestApproxQuantile::test_worked_example",
            "tests/test_montecarlo.py::TestRunCell::test_summary_fields_are_consistent",
        ),
    ),
    Mutant(
        "mean_mse divides by 4n(n+1)",
        "twoarm/criteria.py",
        "float(inputs.rho.sum())) / (4.0 * n * n)",
        "float(inputs.rho.sum())) / (4.0 * n * (n + 1))",
        (
            "tests/test_criteria.py::TestMeanMse::test_quadratic_form_by_hand",
            "tests/test_criteria.py::TestMeanMse::test_single_nonzero_mean_under_bcrd",
            "tests/test_criteria.py::TestMeanMse::test_matches_enumeration_over_the_support",
        ),
    ),
    Mutant(
        "CriterionInputs drops the symmetric check",
        "twoarm/criteria.py",
        "        if not np.allclose(sigma_w, sigma_w.T, rtol=0, atol=1e-12):\n"
        '            raise ValueError("sigma_w must be symmetric")\n',
        "",
        (
            "tests/test_criteria.py::TestCriterionInputs"
            "::test_sigma_w_must_be_a_square_symmetric_unit_diagonal_match",
        ),
    ),
    Mutant(
        "CriterionInputs drops the unit-diagonal check",
        "twoarm/criteria.py",
        "        if not np.allclose(np.diag(sigma_w), 1.0, rtol=0, atol=1e-12):\n"
        '            raise ValueError("sigma_w diagonal must be exactly 1")\n',
        "",
        (
            "tests/test_criteria.py::TestCriterionInputs"
            "::test_sigma_w_must_be_a_square_symmetric_unit_diagonal_match",
        ),
    ),
    Mutant(
        "design_covariance's off-diagonal at -1/n_B",
        "twoarm/designs.py",
        "np.full((m, m), -1.0 / (m - 1))",
        "np.full((m, m), -1.0 / m)",
        (
            "tests/test_designs.py::TestDesignCovariance::test_matches_exact_enumeration",
            "tests/test_designs.py::TestDesignCovariance::test_block_rows_sum_to_zero_within_blocks",
            "tests/test_criteria.py::TestMeanMse::test_pairwise_matching_uses_within_pair_gaps",
        ),
    ),
    Mutant(
        "design_covariance returns a writeable array",
        "twoarm/designs.py",
        "    sigma.setflags(write=False)\n",
        "",
        ("tests/test_designs.py::TestDesignCovariance::test_is_read_only",),
    ),
    Mutant(
        "the sampler treats the values below the cut, not at or below it",
        "twoarm/designs.py",
        "signs = np.less_equal(u, cut[:, None])",
        "signs = np.less(u, cut[:, None])",
        (
            "tests/test_designs.py::TestSampling::test_every_draw_balanced_within_blocks",
            "tests/test_designs.py::TestSampling::test_row_blocks_equal_the_whole_block_draw[2-682]",
            "tests/test_designs.py::TestTiesAtTheCut"
            "::test_tied_uniforms_give_the_argsort_signs[96-no-cut-tie]",
        ),
    ),
    Mutant(
        "the sampler's cut at the next value up",
        "twoarm/designs.py",
        "cut = s[:, h - 1]\n",
        "cut = s[:, h]\n",
        (
            "tests/test_designs.py::TestSampling::test_every_draw_balanced_within_blocks",
            "tests/test_designs.py::TestSampling::test_row_blocks_equal_the_whole_block_draw[bcrd-8192]",
            "tests/test_designs.py::TestTiesAtTheCut"
            "::test_tied_uniforms_give_the_argsort_signs[24-no-cut-tie]",
        ),
    ),
    Mutant(
        "the sampler keeps a tie at the cut on the sort path",
        "twoarm/designs.py",
        "    if tie.any():\n"
        "        order = np.argsort(u, axis=1)\n"
        "        signs = np.full(u.shape, -1, dtype=np.int8)\n"
        "        np.put_along_axis(signs, order[:, :h], 1, axis=1)\n"
        "        return signs\n",
        "",
        (
            "tests/test_designs.py::TestTiesAtTheCut"
            "::test_tied_uniforms_give_the_argsort_signs[32-every-kind]",
            "tests/test_designs.py::TestTiesAtTheCut"
            "::test_tied_uniforms_give_the_argsort_signs[24-every-kind]",
            "tests/test_designs.py::TestTiesAtTheCut"
            "::test_tied_uniforms_give_the_argsort_signs[96-last-row-tie]",
        ),
    ),
    Mutant(
        "the pattern index drawn from K - 1 patterns",
        "twoarm/designs.py",
        "rng.integers(0, table.shape[0], (n_draws, n_blocks)",
        "rng.integers(0, table.shape[0] - 1, (n_draws, n_blocks)",
        (
            "tests/test_designs.py::TestSampling::test_pb_support_and_frequency",
            "tests/test_designs.py::TestPatternDraws"
            "::test_uniform_over_the_whole_support_at_2n_8[pm]",
            "tests/test_designs.py::TestPatternDraws"
            "::test_uniform_over_the_whole_support_at_2n_8[bcrd]",
            "tests/test_designs.py::TestSampling::test_row_blocks_equal_the_whole_block_draw[8-8192]",
        ),
    ),
    Mutant(
        "gathered columns placed through blocks().ravel(), not its inverse",
        "twoarm/designs.py",
        "to_subject = np.argsort(blocks.ravel())",
        "to_subject = blocks.ravel()",
        (
            "tests/test_designs.py::TestSampling::test_every_draw_balanced_within_blocks",
            "tests/test_designs.py::TestSampling::test_row_blocks_equal_the_whole_block_draw[48-682]",
            "tests/test_designs.py::TestPatternDraws"
            "::test_uniform_over_the_whole_support_at_2n_8[B=2]",
            # the support enumeration runs the same placement
            "tests/test_designs.py::TestEnumerateAllocations"
            "::test_support_rows_in_oracle_order_on_permuted_ids",
        ),
    ),
    Mutant(
        # the support is closed under negation, so every balance and law
        # check passes and no squared error moves; only the checks of
        # the order against the oracles see it
        "the shared pattern gather flips every sign",
        "twoarm/designs.py",
        "signs = np.take(table, index[rows]).view(np.int8)",
        "signs = -np.take(table, index[rows]).view(np.int8)",
        (
            "tests/test_designs.py::TestEnumerateAllocations::test_block_support_matches_oracle",
            "tests/test_designs.py::TestEnumerateAllocations"
            "::test_support_rows_in_oracle_order_on_permuted_ids",
            "tests/test_designs.py::TestSampling::test_row_blocks_equal_the_whole_block_draw[8-682]",
        ),
    ),
    Mutant(
        "from_pairs drops its reuse check",
        "twoarm/core.py",
        "        if (reused := np.bincount(pairs.ravel(), minlength=n) > 1).any():\n"
        '            raise ValueError(f"subject {reused.argmax()} appears in two pairs")\n',
        "",
        (
            "tests/test_core.py::TestBlocking::test_from_pairs_rejects_reuse",
            "tests/test_core.py::TestBlocking::test_from_pairs_rejects_bad_pairs_by_name[reuse]",
            "tests/test_core.py::TestBlocking"
            "::test_from_pairs_rejects_bad_pairs_by_name[reuse-reversed]",
        ),
    ),
    Mutant(
        "the pattern table's last row treats one subject too many",
        "twoarm/designs.py",
        "    _fill_subsets(signs, slice(0, signs.shape[0]), 0, h, {})\n",
        "    _fill_subsets(signs, slice(0, signs.shape[0]), 0, h, {})\n    signs[-1, 0] = 1\n",
        (
            "tests/test_designs.py::TestPatternDraws"
            "::test_table_rows_are_the_balanced_halves_in_combinations_order[6]",
            "tests/test_designs.py::TestPatternDraws"
            "::test_uniform_over_the_whole_support_at_2n_8[bcrd]",
            "tests/test_designs.py::TestSampling::test_every_draw_balanced_within_blocks",
            "tests/test_designs.py::TestEnumerateAllocations::test_block_support_matches_oracle",
        ),
    ),
    Mutant(
        # each block's two halves swapped: the rows in reverse
        # combinations order, which are the negated patterns, so every
        # draw is -w and no squared error moves; the order checks and
        # the draw checks against the reference sampler see it
        "Pascal's rule writes the subject-in-control rows first",
        "twoarm/designs.py",
        "        t = rows.start + math.comb(n - 1, k - 1)\n"
        "        signs[rows.start:t, col] = 1\n"
        "        _fill_subsets(signs, slice(rows.start, t), col + 1, k - 1, first)\n"
        "        signs[t:rows.stop, col] = -1\n"
        "        _fill_subsets(signs, slice(t, rows.stop), col + 1, k, first)\n",
        "        t = rows.start + math.comb(n - 1, k)\n"
        "        signs[rows.start:t, col] = -1\n"
        "        _fill_subsets(signs, slice(rows.start, t), col + 1, k, first)\n"
        "        signs[t:rows.stop, col] = 1\n"
        "        _fill_subsets(signs, slice(t, rows.stop), col + 1, k - 1, first)\n",
        (
            "tests/test_designs.py::TestPatternDraws"
            "::test_table_rows_are_the_balanced_halves_in_combinations_order[6]",
            "tests/test_designs.py::TestEnumerateAllocations::test_block_support_matches_oracle",
            "tests/test_designs.py::TestSampling::test_row_blocks_equal_the_whole_block_draw[8-682]",
        ),
    ),
    Mutant(
        "Pascal's rule fills the subject-treated rows over k-subsets, not (k - 1)-subsets",
        "twoarm/designs.py",
        "        _fill_subsets(signs, slice(rows.start, t), col + 1, k - 1, first)\n",
        "        _fill_subsets(signs, slice(rows.start, t), col + 1, k, first)\n",
        (
            "tests/test_designs.py::TestPatternDraws"
            "::test_table_rows_are_the_balanced_halves_in_combinations_order[4]",
            "tests/test_designs.py::TestSampling::test_every_draw_balanced_within_blocks",
            "tests/test_designs.py::TestEnumerateAllocations::test_block_support_matches_oracle",
        ),
    ),
    Mutant(
        # the same table, but the build holds a copy of every block
        "the pattern build memoises a copy of each (n, k) block",
        "twoarm/designs.py",
        "    first[n, k] = (rows, col)\n",
        "    first[n, k] = (rows, col, signs[rows, col:].copy())\n",
        (
            "tests/test_designs.py::TestPatternDraws"
            "::test_each_table_is_built_once_and_keeps_no_subtable",
        ),
    ),
    Mutant(
        "the pattern table is built again on every call",
        "twoarm/designs.py",
        "@functools.cache\ndef _pattern_table(",
        "def _pattern_table(",
        (
            "tests/test_designs.py::TestPatternDraws"
            "::test_each_table_is_built_once_and_keeps_no_subtable",
        ),
    ),
    Mutant(
        "the exact ranks are computed again on every call",
        "twoarm/montecarlo.py",
        "@functools.cache\ndef _exact_ranks(",
        "def _exact_ranks(",
        ("tests/test_montecarlo.py::TestRunCell::test_cached_ranks_give_the_reports_of_a_cold_cache",),
    ),
    Mutant(
        # the reversed rows are the negated patterns: the same support in
        # another order, so only the order checks against the oracle and
        # the sampler's digits see it
        "the enumeration reads the pattern table in reverse order",
        "twoarm/criteria.py",
        "index = np.indices(",
        "index = k - 1 - np.indices(",
        (
            "tests/test_designs.py::TestEnumerateAllocations::test_block_support_matches_oracle",
            "tests/test_designs.py::TestEnumerateAllocations"
            "::test_support_rows_in_oracle_order_on_permuted_ids",
            "tests/test_designs.py::TestEnumerateAllocations"
            "::test_sampler_draws_the_support_rows_numbered_by_their_digits",
        ),
    ),
    Mutant(
        "blocks of 12 and 16 subjects sort uniforms instead of drawing a pattern",
        "twoarm/designs.py",
        "_TABLE_MAX = 16\n",
        "_TABLE_MAX = 8\n",
        (
            "tests/test_designs.py::TestSampling::test_row_blocks_equal_the_whole_block_draw[8-8192]",
            "tests/test_montecarlo.py::TestSimulateSquaredErrors"
            "::test_full_and_ragged_chunks_match_the_separate_array_contrast[continuous]",
        ),
    ),
    Mutant(
        # -w* reversed is w* or -w* in the pinned and delta tests' cells,
        # so only the 2n = 96 cell and the 2n = 4 draws tell it apart
        "pb's second pattern is -w* reversed",
        "twoarm/designs.py",
        "[w_star.signs, -w_star.signs]",
        "[w_star.signs, -w_star.signs[::-1]]",
        (
            "tests/test_montecarlo.py::TestPanel"
            "::test_pb_squared_errors_are_those_of_w_star[continuous]",
            "tests/test_designs.py::TestSampling::test_pb_support_and_frequency",
        ),
    ),
    Mutant(
        "pb's second pattern is -w* rotated by one subject",
        "twoarm/designs.py",
        "[w_star.signs, -w_star.signs]",
        "[w_star.signs, np.roll(-w_star.signs, 1)]",
        (
            "tests/test_montecarlo.py::TestRunCell::test_pinned_report_values[pb]",
            "tests/test_montecarlo.py::TestPanel"
            "::test_pb_squared_errors_are_those_of_w_star[survival]",
            "tests/test_designs.py::TestDesignCovariance::test_pb_rank_one",
        ),
    ),
    Mutant(
        # w*'v squared is the same for either row, so no squared error
        # moves; the support, the draws and the table itself see it
        "pb's table is [w*, w*]",
        "twoarm/designs.py",
        "[w_star.signs, -w_star.signs]",
        "[w_star.signs, w_star.signs]",
        (
            "tests/test_designs.py::TestDesignSpec::test_factories",
            "tests/test_designs.py::TestSampling::test_pb_support_and_frequency",
            "tests/test_designs.py::TestPatternTables::test_a_table_of_the_patterns_is_the_design[pb]",
        ),
    ),
    Mutant(
        # a one-block table of every balanced pattern in combinations
        # order gathers the same rows either way, so the bcrd twin passes
        "the sampler gathers from _pattern_table instead of the spec's table",
        "twoarm/designs.py",
        "        return _patterns_at(blocks, index, table)\n",
        "        return _patterns_at(blocks, index, _pattern_table(m))\n",
        (
            "tests/test_designs.py::TestSampling::test_pb_support_and_frequency",
            "tests/test_designs.py::TestSampling::test_row_blocks_equal_the_whole_block_draw[pb-682]",
            "tests/test_montecarlo.py::TestPanel"
            "::test_pb_squared_errors_are_those_of_w_star[count]",
        ),
    ),
    Mutant(
        "PM_COND_VAR_COEFF at the reported 1/16",
        "twoarm/criteria.py",
        "PM_COND_VAR_COEFF = 0.25\n",
        "PM_COND_VAR_COEFF = 0.0625\n",
        (
            "tests/test_criteria.py::TestPmConditionalVariance::test_coefficient_constants",
            "tests/test_criteria.py::TestPmConditionalVariance::test_two_pair_worked_example",
            "tests/test_criteria.py::TestPmConditionalVariance::test_matches_sign_pattern_enumeration",
        ),
    ),
    Mutant(
        # imported last: criteria imports montecarlo, so an import at the
        # top would be circular and stop twoarm from importing at all
        "montecarlo imports twoarm.criteria again",
        "twoarm/montecarlo.py",
        "        approx_q95_hi=approx + half,\n    )\n",
        "        approx_q95_hi=approx + half,\n    )\n\n\n"
        "from .criteria import mean_mse  # noqa: E402,F401\n",
        (
            "tests/test_package.py"
            "::test_cli_leaves_criteria_unloaded_and_the_top_level_matches_the_readme",
        ),
    ),
    Mutant(
        "designs imports twoarm.criteria beside its other imports: an import cycle",
        "twoarm/designs.py",
        "from .streams import row_blocks, slices\n",
        "from .streams import row_blocks, slices\nfrom .criteria import mahalanobis_imbalance\n",
        ("tests/test_package.py::test_each_module_imports_first_in_a_fresh_interpreter",),
    ),
    Mutant(
        "the top level exports mean_mse again",
        "twoarm/__init__.py",
        "from .core import CovariateMatrix\n",
        "from .core import CovariateMatrix\nfrom .criteria import mean_mse  # noqa: F401\n",
        (
            "tests/test_package.py"
            "::test_cli_leaves_criteria_unloaded_and_the_top_level_matches_the_readme",
        ),
    ),
    Mutant(
        "the proportion draw's Beta shapes swapped",
        "twoarm/response.py",
        "shape1, shape2 = PROPORTION_PHI * mu,",
        "shape2, shape1 = PROPORTION_PHI * mu,",
        (
            "tests/test_response.py::TestDrawOutcomes"
            "::test_moments_match_closed_form[proportion-mu2]",
            "tests/test_montecarlo.py::TestSimulateSquaredErrors"
            "::test_consecutive_draws_equal_one_whole_draw[proportion-1]",
        ),
    ),
    Mutant(
        "incidence drawn as u > 1 - mu: the same law, other bytes",
        "twoarm/response.py",
        "np.less(rng.random(v.shape), mu, out=v)",
        "np.greater(rng.random(v.shape), 1 - mu, out=v)",
        (
            "tests/test_montecarlo.py::TestSimulateSquaredErrors"
            "::test_consecutive_draws_equal_one_whole_draw[incidence-682]",
            "tests/test_cli.py::TestPinnedOutputBytes"
            "::test_blocking_sweep_bytes_match_the_pinned_digests",
        ),
    ),
    Mutant(
        "count drawn transposed: the same law, other bytes",
        "twoarm/response.py",
        "np.copyto(v, rng.poisson(np.broadcast_to(mu, v.shape)))",
        "np.copyto(v, rng.poisson(np.broadcast_to(mu[:, None], v.shape[::-1])).T)",
        (
            "tests/test_montecarlo.py::TestSimulateSquaredErrors"
            "::test_consecutive_draws_equal_one_whole_draw[count-682]",
            "tests/test_cli.py::TestPinnedOutputBytes"
            "::test_blocking_sweep_bytes_match_the_pinned_digests",
        ),
    ),
    Mutant(
        "the chunk adds the control arm from one whole draw",
        "twoarm/montecarlo.py",
        "    for rows in row_blocks(size, mu_c.shape[0]):\n"
        "        v[rows] += draw_outcomes(first.model, mu_c, rng_y, rows.stop - rows.start)\n",
        "    v += draw_outcomes(first.model, mu_c, rng_y, size)\n",
        (
            "tests/test_montecarlo.py::TestSimulateSquaredErrors"
            "::test_a_chunk_peaks_at_one_outcome_buffer[proportion-1.5]",
        ),
    ),
    Mutant(
        "the chunk draws the control arm before the treated arm",
        "twoarm/montecarlo.py",
        "    v = draw_outcomes(first.model, mu_t, rng_y, size)\n"
        "    for rows in row_blocks(size, mu_c.shape[0]):\n"
        "        v[rows] += draw_outcomes(first.model, mu_c, rng_y, rows.stop - rows.start)\n",
        "    v = draw_outcomes(first.model, mu_c, rng_y, size)\n"
        "    for rows in row_blocks(size, mu_t.shape[0]):\n"
        "        v[rows] += draw_outcomes(first.model, mu_t, rng_y, rows.stop - rows.start)\n",
        (
            "tests/test_montecarlo.py::TestSimulateSquaredErrors"
            "::test_full_and_ragged_chunks_match_the_separate_array_contrast[proportion]",
            "tests/test_cli.py::TestPinnedOutputBytes"
            "::test_blocking_sweep_bytes_match_the_pinned_digests",
        ),
    ),
    Mutant(
        "the outcome stream keyed by the first cell's id inside a panel",
        "twoarm/montecarlo.py",
        'rng_y = substream(first.master_seed, panel_id, "outcomes", ci)',
        'rng_y = substream(first.master_seed, first.cell_id, "outcomes", ci)',
        (
            "tests/test_montecarlo.py::TestPanel::test_each_cell_equals_its_one_cell_panel",
            "tests/test_montecarlo.py::TestPanel::test_a_lone_cell_is_its_own_panel",
            "tests/test_cli.py::TestPinnedOutputBytes"
            "::test_blocking_sweep_bytes_match_the_pinned_digests",
        ),
    ),
    Mutant(
        "the contrast written into the shared outcome buffer",
        "twoarm/montecarlo.py",
        "np.multiply(v[rows], w[rows], out=part)",
        "np.multiply(v[rows], w[rows], out=v[rows])",
        (
            "tests/test_montecarlo.py::TestPanel::test_each_cell_equals_its_one_cell_panel",
            "tests/test_cli.py::TestPinnedOutputBytes"
            "::test_blocking_sweep_bytes_match_the_pinned_digests",
        ),
    ),
    Mutant(
        "the previous chunk's outcome buffer kept alive across the next draw",
        "twoarm/montecarlo.py",
        "    v = draw_outcomes(first.model, mu_t, rng_y, size)\n",
        "    v = draw_outcomes(first.model, mu_t, rng_y, size)\n"
        "    _chunk_squared_errors.held = v\n",
        (
            "tests/test_montecarlo.py::TestSimulateSquaredErrors"
            "::test_a_chunk_peaks_at_one_outcome_buffer[continuous-1.5]",
        ),
    ),
    Mutant(
        "the exact interval's k off by one",
        "twoarm/montecarlo.py",
        "    k = math.ceil(0.95 * n)\n",
        "    k = math.ceil(0.95 * n) - 1\n",
        (
            "tests/test_montecarlo.py::TestExactInterval::test_ranks_equal_the_plain_python_oracle",
            "tests/test_montecarlo.py::TestRunCell::test_pinned_report_values",
            "tests/test_montecarlo.py::TestRunCell::test_summary_fields_are_consistent",
        ),
    ),
    Mutant(
        "the exact interval's tails at 0.05, not 0.025",
        "twoarm/montecarlo.py",
        "for level in (_ALPHA, 1.0 - _ALPHA):",
        "for level in (2 * _ALPHA, 1.0 - 2 * _ALPHA):",
        (
            "tests/test_montecarlo.py::TestExactInterval::test_equals_the_law_over_every_resample",
            "tests/test_montecarlo.py::TestExactInterval::test_ranks_equal_the_plain_python_oracle",
            "tests/test_montecarlo.py::TestRunCell::test_pinned_report_values",
        ),
    ),
    Mutant(
        "the exact interval's binomial tail taken at (j - 1) / N",
        "twoarm/montecarlo.py",
        "        p = j / n\n",
        "        p = (j - 1) / n\n",
        (
            "tests/test_montecarlo.py::TestExactInterval::test_equals_the_law_over_every_resample",
            "tests/test_montecarlo.py::TestExactInterval::test_ranks_equal_the_plain_python_oracle[12500]",
        ),
    ),
    Mutant(
        "the exact interval's endpoints read from the unsorted sample",
        "twoarm/montecarlo.py",
        "        emp_q95_lo=float(s[j_lo - 1]),\n        emp_q95_hi=float(s[j_hi - 1]),\n",
        "        emp_q95_lo=float(sq[j_lo - 1]),\n        emp_q95_hi=float(sq[j_hi - 1]),\n",
        (
            "tests/test_montecarlo.py::TestExactInterval::test_equals_the_law_over_every_resample",
            "tests/test_montecarlo.py::TestRunCell"
            "::test_report_equals_reference_statistics_on_an_untouched_sample",
            "tests/test_montecarlo.py::TestRunCell::test_pinned_report_values",
        ),
    ),
    Mutant(
        "the delta interval's z at the one-sided 1.645",
        "twoarm/montecarlo.py",
        "_Z = 1.9599639845400536\n",
        "_Z = 1.645\n",
        (
            "tests/test_montecarlo.py::TestDeltaInterval::test_z_is_the_normal_quantile",
            "tests/test_montecarlo.py::TestDeltaInterval::test_half_width_equals_the_moment_oracle",
            "tests/test_montecarlo.py::TestRunCell"
            "::test_report_equals_reference_statistics_on_an_untouched_sample",
            "tests/test_montecarlo.py::TestRunCell::test_pinned_report_values",
            "tests/test_criteria.py::TestApproxQuantile::test_worked_example",
        ),
    ),
    Mutant(
        "the delta interval drops the sd's influence term",
        "twoarm/montecarlo.py",
        "    psi = d + C_95 * (d * d - sd * sd) / (2.0 * sd)\n",
        "    psi = d\n",
        (
            "tests/test_montecarlo.py::TestDeltaInterval::test_half_width_equals_the_moment_oracle",
            "tests/test_montecarlo.py::TestDeltaInterval::test_covers_pb_exact_target",
            "tests/test_montecarlo.py::TestRunCell::test_pinned_report_values",
            "tests/test_criteria.py::TestApproxQuantile::test_worked_example",
        ),
    ),
    Mutant(
        "the sd's influence term divided by sd, not 2 sd",
        "twoarm/montecarlo.py",
        "(d * d - sd * sd) / (2.0 * sd)",
        "(d * d - sd * sd) / sd",
        (
            "tests/test_montecarlo.py::TestDeltaInterval::test_half_width_equals_the_moment_oracle",
            "tests/test_montecarlo.py::TestRunCell::test_pinned_report_values",
            "tests/test_criteria.py::TestApproxQuantile::test_worked_example",
        ),
    ),
    Mutant(
        "the delta standard error divided by N, not sqrt(N)",
        "twoarm/montecarlo.py",
        "/ math.sqrt(sq.size)",
        "/ sq.size",
        (
            "tests/test_montecarlo.py::TestDeltaInterval::test_half_width_equals_the_moment_oracle",
            "tests/test_montecarlo.py::TestDeltaInterval::test_covers_pb_exact_target",
            "tests/test_montecarlo.py::TestRunCell::test_pinned_report_values",
            "tests/test_criteria.py::TestApproxQuantile::test_worked_example",
        ),
    ),
    Mutant(
        "CriterionInputs accepts zero subjects",
        "twoarm/criteria.py",
        "        if mu.shape[0] == 0:\n"
        '            raise ValueError("subject count must be > 0, got 0")\n',
        "",
        ("tests/test_criteria.py::TestCriterionInputs::test_validation",),
    ),
    Mutant(
        "pb's exact quantile drops the mean of w*'v",
        "twoarm/criteria.py",
        "shift = abs(float(signs @ mu)) / s",
        "shift = 0.0",
        ("tests/test_criteria.py::TestPbQuantile::test_a_large_shift_leaves_one_normal_tail",),
    ),
    Mutant(
        "the input conversion accepts non-finite entries (pair_gap_diagnostic's mu among them)",
        "twoarm/core.py",
        "    if not (finite := np.isfinite(raw)).all():\n",
        "    if False:\n",
        (
            "tests/test_matching.py::TestPairGapDiagnostic"
            "::test_rejects_mu_that_is_not_a_finite_vector",
            "tests/test_core.py::TestOutsideInput::test_non_finite_is_named",
            "tests/test_core.py::TestCovariateMatrix::test_rejects_non_finite",
            "tests/test_criteria.py::TestPmConditionalVariance::test_rejects_non_finite",
        ),
    ),
    Mutant(
        "the contrast divided by 2n + 1",
        "twoarm/montecarlo.py",
        "np.square(contrast / (2.0 * first.x.n_pairs))",
        "np.square(contrast / (2.0 * first.x.n_pairs + 1.0))",
        (
            "tests/test_montecarlo.py::TestSimulateSquaredErrors"
            "::test_mean_matches_the_analytic_criterion",
            "tests/test_montecarlo.py::TestSimulateSquaredErrors"
            "::test_full_and_ragged_chunks_match_the_separate_array_contrast",
            "tests/test_montecarlo.py::TestConvergenceStudy::test_zero_gap_designs_sit_on_half",
        ),
    ),
    Mutant(
        "run_cell's sd scaled by 1.2",
        "twoarm/montecarlo.py",
        "    sd = float(sq.std(ddof=1))\n",
        "    sd = float(sq.std(ddof=1)) * 1.2\n",
        (
            "tests/test_montecarlo.py::TestRunCell"
            "::test_report_equals_reference_statistics_on_an_untouched_sample",
            "tests/test_montecarlo.py::TestRunCell::test_summary_fields_are_consistent",
            "tests/test_criteria.py::TestApproxQuantile::test_worked_example",
        ),
    ),
    Mutant(
        "the empirical quantile at 0.99",
        "twoarm/montecarlo.py",
        "k = math.ceil(0.95 * n)",
        "k = math.ceil(0.99 * n)",
        (
            "tests/test_montecarlo.py::TestEmpiricalQuantile::test_integer_grid",
            "tests/test_montecarlo.py::TestExactInterval::test_ranks_equal_the_plain_python_oracle",
            "tests/test_montecarlo.py::TestRunCell"
            "::test_report_equals_reference_statistics_on_an_untouched_sample",
        ),
    ),
    Mutant(
        "the empirical quantile at 0.9",
        "twoarm/montecarlo.py",
        "k = math.ceil(0.95 * n)",
        "k = math.ceil(0.9 * n)",
        (
            "tests/test_montecarlo.py::TestEmpiricalQuantile::test_integer_grid",
            "tests/test_montecarlo.py::TestRunCell::test_pinned_report_values",
            "tests/test_criteria.py::TestPbQuantile"
            "::test_grid_cells_lie_in_an_order_statistic_band",
        ),
    ),
    Mutant(
        "relabel's leaf scan continues past the labelled leaf",
        "twoarm/matching.py",
        "                for v in leaves(bv):\n"
        "                    if label[v]:\n"
        "                        break\n",
        "                for v in leaves(bv):\n"
        "                    if label[v]:\n"
        "                        continue\n",
        (
            "tests/test_matching.py::TestMatchHeuristic"
            "::test_same_pairing_as_networkx_min_weight_matching",
        ),
    ),
    Mutant(
        "a blossom stage scans each vertex's neighbours in descending order",
        "twoarm/matching.py",
        "                for w in range(nv):\n",
        "                for w in range(nv - 1, -1, -1):\n",
        (
            "tests/test_matching.py::TestMatchHeuristic"
            "::test_same_pairing_as_networkx_min_weight_matching",
        ),
    ),
    Mutant(
        "pb's lockstep descent gives treated-level ties to the highest subject",
        "twoarm/designs.py",
        "s = np.where(delta_col == best[:, None], tr, n_sub).argmin(axis=1)",
        "s = np.where(delta_col == best[:, None], tr, -1).argmax(axis=1)",
        (
            "tests/test_designs.py::TestLockstepMatchesReference::test_row_major_tie_break",
            "tests/test_designs.py::TestLockstepMatchesReference::test_tied_and_skewed_panels",
        ),
    ),
    Mutant(
        "pb's lockstep descent gives control-level ties to the highest subject",
        "twoarm/designs.py",
        "t = np.where(d == best[:, None], ct, n_sub).argmin(axis=1)",
        "t = np.where(d == best[:, None], ct, -1).argmax(axis=1)",
        (
            "tests/test_designs.py::TestLockstepMatchesReference::test_row_major_tie_break",
            "tests/test_designs.py::TestLockstepMatchesReference::test_tied_and_skewed_panels",
        ),
    ),
    Mutant(
        "the sort path draws row blocks outermost",
        "twoarm/designs.py",
        "    for members in blocks:\n        for rows in row_slices:\n",
        "    for rows in row_slices:\n        for members in blocks:\n",
        (
            "tests/test_designs.py::TestSampling::test_row_blocks_equal_the_whole_block_draw",
            "tests/test_designs.py::TestTiesAtTheCut::test_tied_uniforms_give_the_argsort_signs",
        ),
    ),
    Mutant(
        "convergence_study accepts an odd 2n",
        "twoarm/criteria.py",
        "    for n_sub in sizes:\n"
        "        if n_sub % 2:\n"
        '            raise ValueError(f"n_subjects_grid entries must be even, got {n_sub}")\n',
        "",
        (
            "tests/test_montecarlo.py::TestConvergenceStudy"
            "::test_rejects_other_designs_and_odd_sizes",
            "tests/test_criteria.py::test_noise_only_reports_reject_a_bad_entry_before_simulating",
        ),
    ),
    Mutant(
        "convergence_study runs its cells under another id",
        "twoarm/criteria.py",
        'cell_id = f"convergence::{kind}::{n_sub}"',
        'cell_id = f"convergence::{kind}:{n_sub}"',
        (
            "tests/test_montecarlo.py::TestConvergenceStudy"
            "::test_each_entry_is_its_own_noise_only_panel",
        ),
    ),
    Mutant(
        "pm's conditional mean in the variance split divided by 2n, not 4n^2",
        "twoarm/criteria.py",
        ".sum(axis=1) / (4.0 * n * n)",
        ".sum(axis=1) / (2.0 * n)",
        (
            "tests/test_criteria.py::TestVarianceDecomposition"
            "::test_matches_support_enumeration_on_shared_draws[pm]",
            "tests/test_criteria.py::TestVarianceDecomposition"
            "::test_matches_support_enumeration_on_shared_draws[pm-interleaved]",
        ),
    ),
    Mutant(
        "a blossom stage's delta4 takes the last of equal blossom duals",
        "twoarm/matching.py",
        "(deltatype == -1 or z < delta)",
        "(deltatype == -1 or z <= delta)",
        (
            "tests/test_matching.py::TestMatchHeuristic"
            "::test_same_pairing_as_networkx_min_weight_matching[5]",
        ),
    ),
    Mutant(
        "a blossom stage's delta2 takes the last of equal least slacks",
        "twoarm/matching.py",
        "or d < delta:\n                        deltatype, delta, deltaedge = 2,",
        "or d <= delta:\n                        deltatype, delta, deltaedge = 2,",
        (
            "tests/test_matching.py::TestMatchHeuristic"
            "::test_same_pairing_as_networkx_min_weight_matching",
        ),
    ),
    Mutant(
        "a blossom stage's delta3 takes the last of equal least slacks",
        "twoarm/matching.py",
        "or d < delta:\n                        deltatype, delta, deltaedge = 3,",
        "or d <= delta:\n                        deltatype, delta, deltaedge = 3,",
        (
            "tests/test_matching.py::TestMatchHeuristic"
            "::test_same_pairing_as_networkx_min_weight_matching",
        ),
    ),
    Mutant(
        "an S-blossom's least-slack edge keeps the last of equal slacks",
        "twoarm/matching.py",
        "                        if kslack < bvslack:\n",
        "                        if kslack <= bvslack:\n",
        (
            "tests/test_matching.py::TestMatchHeuristic"
            "::test_same_pairing_as_networkx_min_weight_matching",
        ),
    ),
    Mutant(
        "a free vertex's least-slack edge keeps the last of equal slacks",
        "twoarm/matching.py",
        "elif label[w] == 0 and kslack < bestslack[w]:",
        "elif label[w] == 0 and kslack <= bestslack[w]:",
        (
            "tests/test_matching.py::TestMatchHeuristic"
            "::test_same_pairing_as_networkx_min_weight_matching",
        ),
    ),
    Mutant(
        "a new blossom's least-slack edge to each neighbour blossom keeps the last tie",
        "twoarm/matching.py",
        "if kslack < bestedgeto.get(bj, (inf,))[0]:",
        "if kslack <= bestedgeto.get(bj, (inf,))[0]:",
        (
            "tests/test_matching.py::TestMatchHeuristic"
            "::test_same_pairing_as_networkx_min_weight_matching",
        ),
    ),
    Mutant(
        "a new blossom's least-slack edge is the last of equal slacks",
        "twoarm/matching.py",
        "            bestedgeto.values(), key=lambda sk: sk[0], default=(inf, None)\n",
        "            list(bestedgeto.values())[::-1], key=lambda sk: sk[0], default=(inf, None)\n",
        (
            "tests/test_matching.py::TestMatchHeuristic"
            "::test_same_pairing_as_networkx_min_weight_matching",
        ),
    ),
    Mutant(
        "match_grid sends each odd group's first member to overflow",
        "twoarm/criteria.py",
        "overflow.append(shuffled.pop())",
        "overflow.append(shuffled.pop(0))",
        ("tests/test_matching.py::TestMatchGrid::test_odd_groups_spill_to_overflow",),
    ),
    Mutant(
        "the pool's winner takes the later restart on equal objectives",
        "twoarm/designs.py",
        "return Allocation(w[int(np.argmin(objs))])",
        "return Allocation(w[objs.size - 1 - int(np.argmin(objs[::-1]))])",
        (
            "tests/test_designs.py::TestLockstepMatchesReference::test_row_major_tie_break",
            "tests/test_designs.py::TestLockstepMatchesReference::test_tied_and_skewed_panels",
        ),
    ),
    Mutant(
        "the blossom's cached least slacks are not refreshed after a dual update",
        "twoarm/matching.py",
        "                if k is not None:\n"
        "                    bestslack[b] = dualvar[k[0]] + dualvar[k[1]] - w2[k[0]][k[1]]\n",
        "                pass\n",
        (
            "tests/test_matching.py::TestMatchHeuristic"
            "::test_same_pairing_as_networkx_at_the_preset_size",
            "tests/test_matching.py::TestMatchHeuristic"
            "::test_same_pairing_as_networkx_min_weight_matching",
        ),
    ),
    Mutant(
        "the blossom scan keeps v's blossom and its least slack from before an event",
        "twoarm/matching.py",
        "                        # an event may put v in a new blossom with its own best\n"
        "                        bv = inblossom[v]\n"
        "                        bvslack = bestslack[bv]\n",
        "",
        (
            "tests/test_matching.py::TestMatchHeuristic"
            "::test_same_pairing_as_networkx_min_weight_matching",
        ),
    ),
    Mutant(
        "a refilled pool slot keeps the finished row's objective and step count",
        "twoarm/designs.py",
        "            obj[fill], steps[fill] = _objectives(g, live[fill]), 0\n",
        "",
        ("tests/test_designs.py::TestRestartPool::test_each_row_has_its_own_step_cap",),
    ),
    Mutant(
        "a stopped pool row is written back after its slot's last swap",
        "twoarm/designs.py",
        "        w[rows[stop]] = live[stop]\n"
        "        # every slot swaps; a stopped one is refilled or dropped below\n"
        "        i, j = tr[at, s], ct[at, t]\n"
        "        live[at, i] = -1.0\n"
        "        live[at, j] = 1.0\n",
        "        i, j = tr[at, s], ct[at, t]\n"
        "        live[at, i] = -1.0\n"
        "        live[at, j] = 1.0\n"
        "        w[rows[stop]] = live[stop]\n",
        (
            "tests/test_designs.py::TestRestartPool::test_refilled_rows_end_where_they_end_alone",
            "tests/test_designs.py::TestLockstepMatchesReference::test_same_w_star_and_endpoints",
        ),
    ),
    Mutant(
        "the input conversion reads a Python bool among numbers as a number",
        "twoarm/core.py",
        "        isinstance(v, (bool, np.bool_)) for v in",
        "        isinstance(v, np.bool_) for v in",
        ("tests/test_core.py::test_a_bool_among_numbers_is_named",),
    ),
    Mutant(
        "run_cell's sd scaled by 0.8",
        "twoarm/montecarlo.py",
        "    sd = float(sq.std(ddof=1))\n",
        "    sd = float(sq.std(ddof=1)) * 0.8\n",
        (
            "tests/test_montecarlo.py::TestRunCell"
            "::test_report_equals_reference_statistics_on_an_untouched_sample",
            "tests/test_montecarlo.py::TestRunCell::test_pinned_report_values",
            "tests/test_criteria.py::TestApproxQuantile::test_worked_example",
        ),
    ),
    Mutant(
        "run_cell's sd taken as the variance",
        "twoarm/montecarlo.py",
        "    sd = float(sq.std(ddof=1))\n",
        "    sd = float(sq.var(ddof=1))\n",
        (
            "tests/test_montecarlo.py::TestRunCell"
            "::test_report_equals_reference_statistics_on_an_untouched_sample",
            "tests/test_montecarlo.py::TestRunCell::test_pinned_report_values",
            "tests/test_criteria.py::TestApproxQuantile::test_worked_example",
        ),
    ),
    Mutant(
        "bootstrap_ci draws its block of resample indices transposed",
        "twoarm/montecarlo.py",
        "samples[rng.integers(0, n, (b, n))]",
        "samples[rng.integers(0, n, (n, b)).T]",
        ("tests/test_montecarlo.py::TestBootstrapCi::test_equals_one_resample_at_a_time",),
    ),
    Mutant(
        "the covariate metric without its ridge",
        "twoarm/designs.py",
        "    m = np.linalg.inv(regularized_covariance(values))\n",
        "    m = np.linalg.inv(np.atleast_2d(np.cov(values, rowvar=False)))\n",
        (
            "tests/test_designs.py::TestMahalanobisGram"
            "::test_a_constant_covariate_is_ridged_not_singular",
            "tests/test_matching.py::TestMatchHeuristic::test_same_pairing_as_networkx_min_weight_matching",
        ),
    ),
    Mutant(
        "slices drops the ragged tail",
        "twoarm/streams.py",
        "for lo in range(0, total, step)]",
        "for lo in range(0, total - total % step, step)]",
        (
            "tests/test_streams.py::test_chunks_cover_total",
            "tests/test_streams.py::test_row_blocks_cover_the_rows_in_order",
            "tests/test_montecarlo.py::TestSimulateSquaredErrors"
            "::test_full_and_ragged_chunks_match_the_separate_array_contrast",
            "tests/test_designs.py::TestLockstepMatchesReference::test_restart_counts_off_the_chunk",
        ),
    ),
    Mutant(
        "DistanceMatrix stores its input without averaging it with its transpose",
        "twoarm/matching.py",
        "        arr = (arr + arr.T) / 2.0\n",
        "",
        (
            "tests/test_matching.py::TestDistanceMatrix"
            "::test_near_symmetric_input_is_stored_exactly_symmetric",
        ),
    ),
    Mutant(
        "the blossom walk calls a nested step with its yielded pair as one argument",
        "twoarm/matching.py",
        "                stack.append(step(*sub))\n",
        "                stack.append(step(sub))\n",
        (
            "tests/test_matching.py::TestMatchExact::test_matches_brute_force",
            "tests/test_matching.py::TestMatchHeuristic::test_same_pairing_as_networkx_min_weight_matching",
        ),
    ),
    Mutant(
        "the blossom walk runs every step a step yields before popping the last",
        "twoarm/matching.py",
        "                stack.append(step(*sub))\n                break\n",
        "                stack.append(step(*sub))\n",
        (
            "tests/test_matching.py::TestMatchExact::test_matches_brute_force",
            "tests/test_matching.py::TestMatchHeuristic::test_same_pairing_as_networkx_min_weight_matching",
        ),
    ),
    Mutant(
        "the blossom walk creates a nested step but never runs it",
        "twoarm/matching.py",
        "                stack.append(step(*sub))\n",
        "                step(*sub)\n",
        (
            "tests/test_matching.py::TestMatchExact::test_matches_brute_force",
            "tests/test_matching.py::TestMatchHeuristic::test_same_pairing_as_networkx_min_weight_matching",
        ),
    ),
    Mutant(
        "the input conversion lets ragged input reach numpy's unnamed error",
        "twoarm/core.py",
        "    try:\n"
        "        raw = np.asarray(values)\n"
        "    except ValueError:\n",
        "    raw = np.asarray(values)\n"
        "    if False:\n",
        ("tests/test_core.py::TestOutsideInput::test_ragged_is_named",),
    ),
    Mutant(
        "the input conversion accepts strings, None and bools",
        "twoarm/core.py",
        '    if raw.dtype.kind not in "iuf":\n',
        '    if raw.dtype.kind not in "iufbOU":\n',
        (
            "tests/test_core.py::TestOutsideInput::test_non_numeric_is_named",
            "tests/test_response.py::TestResponseModel"
            "::test_rejects_non_numeric_or_non_finite_coefficients",
        ),
    ),
    Mutant(
        "the input conversion truncates non-integer entries to an integer dtype",
        "twoarm/core.py",
        '    if arr.dtype.kind in "iu" and not np.array_equal(arr, raw):\n',
        '    if False:\n',
        (
            "tests/test_core.py::TestAllocation::test_rejects_non_integer_signs",
            "tests/test_core.py::TestBlocking::test_rejects_non_integer_block_ids",
        ),
    ),
)

# Runs in the child: argv is (copy of src, node ids...).  Prints the
# pytest exit code and the failing node ids, or the error that stopped
# twoarm from importing, as JSON on its last line.
_CHILD = r"""
import json, sys
from pathlib import Path
import pytest
try:
    import twoarm
except Exception as exc:
    print(json.dumps({"import_error": repr(exc)}))
    sys.exit()
copy = Path(sys.argv[1]).resolve()
if copy not in Path(twoarm.__file__).resolve().parents:
    sys.exit(f"twoarm was imported from {twoarm.__file__}, not from {copy}")

class Failures:
    def __init__(self):
        self.nodes = []

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.nodes.append(report.nodeid)

failures = Failures()
code = pytest.main(
    ["-q", "--no-header", "-p", "no:cacheprovider", *sys.argv[2:]],
    plugins=[failures],
)
print(json.dumps({"exit": int(code), "failed": failures.nodes}))
"""


def _selects(node: str, item: str) -> bool:
    """Whether a test item id falls under a listed node id."""
    return item == node or item.startswith((node + "::", node + "["))


def run_mutant(mutant: Mutant) -> tuple[str, str]:
    """Apply one mutant to a copy of src/ and run its nodes; (status, detail)."""
    text = (ROOT / "src" / mutant.path).read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return "stale", f"old text found {text.count(mutant.old)} times"
    mutated = text.replace(mutant.old, mutant.new)
    try:
        compile(mutated, mutant.path, "exec")
    except SyntaxError as exc:
        return "stale", f"the mutated file does not compile: {exc}"
    with tempfile.TemporaryDirectory(prefix="twoarm-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / mutant.path).write_text(mutated, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run(
                [sys.executable, "-c", _CHILD, str(src), *mutant.nodes],
                cwd=ROOT,
                env=env,
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return "killed", f"timed out after {CHILD_TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{mutant.name}: child failed\n{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    if "import_error" in result:
        return "killed", f"twoarm does not import: {result['import_error']}"
    if result["exit"] not in (0, 1):
        return "stale", f"pytest did not run the nodes: {result['exit']}"
    passed = [n for n in mutant.nodes if not any(_selects(n, f) for f in result["failed"])]
    if passed:
        return "survived", "passes: " + ", ".join(passed)
    return "killed", f"{len(result['failed'])} failing tests"


def main() -> int:
    statuses = []
    for mutant in MUTANTS:
        status, detail = run_mutant(mutant)
        statuses.append(status)
        print(f"{status:8}  {mutant.path}: {mutant.name} ({detail})", flush=True)
    killed = statuses.count("killed")
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
