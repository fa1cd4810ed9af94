"""Acceptance checks for the package's headline guarantees.

Each numbered check prints one summary line (visible with ``pytest -s``
or in any failure report) before asserting, so a partial failure still
leaves a full scoreboard.
"""

import numpy as np
import pytest

from twoarm.cli import build_grid, run_grid
from twoarm.core import Allocation, Blocking, CovariateMatrix
from twoarm.criteria import (
    PM_COND_VAR_COEFF,
    PM_COND_VAR_COEFF_REPORTED,
    CriterionInputs,
    OutcomePair,
    convergence_study,
    enumerate_allocations,
    enumerate_design_oracle,
    estimand,
    estimate,
    match_grid,
    mean_mse,
    pair_gap_diagnostic,
    pm_conditional_variance,
)
from twoarm.designs import DesignSpec, design_covariance, sample_allocations
from twoarm.matching import mahalanobis_distances, match_heuristic
from twoarm.response import default_covariate_source, draw_covariates
from twoarm.streams import substream

from util_oracles import match_exact, pairing_arrays, sign_patterns, spearman

MASTER_SEED = 20260814


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d}: {status} - {detail}")


def _even_blockings(n_subjects: int) -> list[Blocking]:
    out = []
    for n_blocks in range(1, n_subjects + 1):
        if n_subjects % n_blocks == 0 and (n_subjects // n_blocks) % 2 == 0:
            out.append(Blocking(np.arange(n_subjects) // (n_subjects // n_blocks)))
    return out


def _all_design_specs(n_subjects: int) -> list[DesignSpec]:
    specs = [DesignSpec.bcrd(n_subjects)]
    specs += [DesignSpec.block(blocking) for blocking in _even_blockings(n_subjects)]
    specs.append(DesignSpec.pm(Blocking(np.arange(n_subjects) // 2)))
    specs.append(DesignSpec.pb(Allocation(np.tile([1, -1], n_subjects // 2))))
    return specs


@pytest.fixture(scope="module")
def blocking_sweep_rows():
    """Shared 2n=96 continuous blocking sweep over the full B grid."""
    grid = build_grid(
        {
            "seed": str(MASTER_SEED),
            "reps": "20000",
            "n_subjects": "96",
            "responses": "continuous",
            "p": "1",
            "blocks": "1,2,3,4,6,8,12,16,24,48",
        }
    )
    rows = run_grid(grid)
    assert all(row["error"] == "" for row in rows)
    return rows


def test_criterion_1_mean_criterion_matches_support_enumeration():
    worst = 0.0
    checked = 0
    for n_sub in (4, 6, 8):
        n = n_sub // 2
        for si, spec in enumerate(_all_design_specs(n_sub)):
            sigma = design_covariance(spec)
            rng = substream(MASTER_SEED, "c1", n_sub, si)
            for _ in range(10):
                mu_t = rng.normal(0.0, 2.0, n_sub)
                mu_c = rng.normal(0.0, 2.0, n_sub)
                rho = np.abs(rng.normal(1.0, 0.5, n_sub))
                base, _ = enumerate_design_oracle(
                    spec, OutcomePair(mu_t, mu_c)
                )
                oracle = base + float(rho.sum()) / (4.0 * n * n)
                got = mean_mse(CriterionInputs(mu_t + mu_c, rho, sigma))
                worst = max(worst, abs(got - oracle) / abs(oracle))
                checked += 1
    ok = worst <= 1e-10
    _report(
        1, ok,
        f"analytic mean vs support enumeration, {checked} random cases "
        f"over 2n in (4,6,8) and every even blocking, worst rel err {worst:.2e}",
    )
    assert ok


def test_criterion_2_conditional_variance_constant():
    worst = 0.0
    for n_pairs in range(1, 11):
        patterns = sign_patterns(n_pairs)
        allocs = np.repeat(patterns, 2, axis=1)
        allocs[:, 1::2] *= -1.0
        rng = substream(MASTER_SEED, "c2", n_pairs)
        for _ in range(20):
            v = rng.normal(0.0, 2.0, 2 * n_pairs)
            sq = np.square(allocs @ v / (2.0 * n_pairs))
            oracle = float(sq.var())
            got = pm_conditional_variance(v)
            err = abs(got - oracle) / oracle if oracle > 0 else abs(got - oracle)
            worst = max(worst, err)
    ok = worst <= 1e-12
    _report(
        2, ok,
        f"closed form vs 2^n enumeration, 200 vectors, n <= 10, worst rel err "
        f"{worst:.2e}; resolved coefficient {PM_COND_VAR_COEFF} per n^4, "
        f"externally reported value {PM_COND_VAR_COEFF_REPORTED}",
    )
    assert ok


def test_criterion_3_design_covariance_against_sampling():
    n_sub = 16
    specs = {
        "bcrd": DesignSpec.bcrd(n_sub),
        "block": DesignSpec.block(Blocking(np.arange(n_sub) // 4)),
        "pm": DesignSpec.pm(Blocking(np.arange(n_sub) // 2)),
        "pb": DesignSpec.pb(Allocation(np.tile([1, -1], n_sub // 2))),
    }
    n_total = 1_000_000
    chunk = 100_000
    worst = 0.0
    for name, spec in specs.items():
        rng = substream(MASTER_SEED, "c3", name)
        second_moment = np.zeros((n_sub, n_sub))
        done = 0
        while done < n_total:
            size = min(chunk, n_total - done)
            w = sample_allocations(spec, size, rng).astype(float)
            second_moment += w.T @ w
            done += size
        emp = second_moment / n_total
        err = float(np.max(np.abs(emp - design_covariance(spec))))
        worst = max(worst, err)
    ok = worst <= 0.005
    _report(
        3, ok,
        f"empirical covariance from 1e6 draws at 2n=16, four designs, "
        f"worst entry err {worst:.2e} (tolerance 5e-3)",
    )
    assert ok


def test_criterion_4_matching_exactness_and_heuristic_bound():
    worst_gap = 0.0
    worst_ratio = 1.0
    for n_sub in (6, 8, 10, 12):
        firsts, seconds = pairing_arrays(n_sub)
        for inst in range(100):
            rng = substream(MASTER_SEED, "c4", n_sub, inst)
            x = CovariateMatrix(rng.normal(0.0, 1.0, (n_sub, 2)))
            d = mahalanobis_distances(x)
            brute = float(d.values[firsts, seconds].sum(axis=1).min())
            exact = match_exact(d)
            heur = match_heuristic(d)
            worst_gap = max(worst_gap, abs(exact.cost - brute) / max(brute, 1.0))
            if exact.cost > 0:
                worst_ratio = max(worst_ratio, heur.cost / exact.cost)
    ok = worst_gap <= 1e-9 and worst_ratio <= 1.2
    _report(
        4, ok,
        f"400 random instances, exact vs brute force worst rel gap {worst_gap:.2e}, "
        f"heuristic/exact worst ratio {worst_ratio:.4f} (bound 1.2)",
    )
    assert ok


def test_criterion_5_grid_matcher_gap_diagnostic_shrinks():
    sizes = (32, 512, 2048)
    averages = []
    for n_sub in sizes:
        vals = []
        for rep in range(20):
            x = draw_covariates(
                default_covariate_source("continuous"), n_sub, 1,
                substream(MASTER_SEED, "c5-x", n_sub, rep),
            )
            result = match_grid(x, substream(MASTER_SEED, "c5-grid", n_sub, rep))
            mu = 0.5 + 2.0 * x.values[:, 0]
            vals.append(pair_gap_diagnostic(result.pairing, mu))
        averages.append(float(np.mean(vals)))
    ok = averages[0] > averages[1] > averages[2]
    _report(
        5, ok,
        "mean squared pair gap over 20 seeds at 2n=(32,512,2048): "
        + ", ".join(f"{v:.3e}" for v in averages),
    )
    assert ok


def test_criterion_6_blocking_sweep_ordering(blocking_sweep_rows):
    by_b = {row["B"]: row for row in blocking_sweep_rows}
    paired, unblocked = by_b[48], by_b[1]
    lower = paired["emp_q95"] < unblocked["emp_q95"]
    disjoint = paired["emp_q95_hi"] < unblocked["emp_q95_lo"]
    rho = spearman(
        [row["B"] for row in blocking_sweep_rows],
        [row["emp_q95"] for row in blocking_sweep_rows],
    )
    ok = lower and disjoint and rho <= -0.8
    _report(
        6, ok,
        f"Q95(B=48)={paired['emp_q95']:.4e} vs Q95(B=1)={unblocked['emp_q95']:.4e}, "
        f"CIs disjoint={disjoint}, spearman(Q95, B)={rho:.3f} (needs <= -0.8)",
    )
    assert ok


def test_criterion_7_design_comparison_ordering():
    grid = build_grid(
        {
            "seed": str(MASTER_SEED),
            "reps": "20000",
            "n_subjects": "96",
            "responses": "continuous,survival",
            "p": "1,2",
            "designs": "bcrd,pm,pb",
            "pb_restarts": "1000",
        }
    )
    rows = run_grid(grid)
    assert all(row["error"] == "" for row in rows)
    cells = {(row["response"], row["p"], row["design"]): row for row in rows}
    clauses = []
    for resp in ("continuous", "survival"):
        for p in (1, 2):
            pm = cells[(resp, p, "pm")]
            pb = cells[(resp, p, "pb")]
            bcrd = cells[(resp, p, "bcrd")]
            clauses.append(
                (f"{resp} p={p}: Q95(pm)<=Q95(pb) "
                 f"({pm['emp_q95']:.4e} vs {pb['emp_q95']:.4e})",
                 pm["emp_q95"] <= pb["emp_q95"])
            )
            clauses.append(
                (f"{resp} p={p}: Q95(pm)<=Q95(bcrd) "
                 f"({pm['emp_q95']:.4e} vs {bcrd['emp_q95']:.4e})",
                 pm["emp_q95"] <= bcrd["emp_q95"])
            )
    pm = cells[("continuous", 1, "pm")]
    others_lo = min(
        cells[("continuous", 1, "pb")]["emp_q95_lo"],
        cells[("continuous", 1, "bcrd")]["emp_q95_lo"],
    )
    clauses.append(
        (f"continuous p=1: pm CI disjoint below pb and bcrd "
         f"(pm hi {pm['emp_q95_hi']:.4e} vs others lo {others_lo:.4e})",
         pm["emp_q95_hi"] < others_lo)
    )
    failed = [name for name, holds in clauses if not holds]
    ok = not failed
    detail = (
        "all 9 ordering clauses hold"
        if ok
        else f"{len(failed)} of 9 clauses failed: " + " | ".join(failed)
    )
    _report(7, ok, detail)
    assert ok, detail


def test_criterion_8_quantile_approximation_quality(blocking_sweep_rows):
    worst = max(
        abs(row["approx_q95"] - row["emp_q95"]) / row["emp_q95"]
        for row in blocking_sweep_rows
    )
    ok = worst <= 0.2
    _report(
        8, ok,
        f"normal approximation vs empirical quantile over the blocking sweep, "
        f"worst rel gap {worst:.3f} (tolerance 0.2)",
    )
    assert ok


def test_criterion_9_asymptotic_stabilization():
    rows = convergence_study(
        ["pm", "pb"], [64, 256, 1024], n_reps=50_000, master_seed=MASTER_SEED
    )
    by = {(row["design"], row["n_subjects"]): row for row in rows}
    ok = True
    parts = []
    for kind in ("pm", "pb"):
        mid = by[(kind, 256)]["scaled_variance"]
        big = by[(kind, 1024)]["scaled_variance"]
        change = abs(big - mid) / mid
        if change > 0.15:
            ok = False
        parts.append(f"{kind} change 256->1024 = {change:.1%}")
    pb_big = by[("pb", 1024)]
    if abs(pb_big["scaled_variance"] - 0.5) > 3.0 * pb_big["se"]:
        ok = False
    parts.append(
        f"pb n^2 var {pb_big['scaled_variance']:.4f} "
        f"(target 0.5 within {3.0 * pb_big['se']:.4f})"
    )
    pm_big = by[("pm", 1024)]["scaled_variance"]
    parts.append(
        f"pm n^2 var {pm_big:.4f} vs reported reference 0.125 and enumeration "
        f"candidate 0.5; pb/pm ratio {pb_big['scaled_variance'] / pm_big:.2f} "
        f"vs reported 4 (informational)"
    )
    _report(9, ok, "; ".join(parts))
    assert ok


def test_criterion_10_unbiasedness_over_the_support():
    worst = 0.0
    for n_sub in (4, 6, 8):
        for si, spec in enumerate(_all_design_specs(n_sub)):
            allocs = enumerate_allocations(spec)
            for rep in range(50):
                rng = substream(MASTER_SEED, "c10", n_sub, si, rep)
                outcomes = OutcomePair(
                    rng.normal(0.0, 1.0, n_sub), rng.normal(0.0, 1.0, n_sub)
                )
                support_mean = float(
                    np.mean([estimate(Allocation(w), outcomes) for w in allocs])
                )
                worst = max(worst, abs(support_mean - estimand(outcomes)))
    ok = worst <= 1e-12
    _report(
        10, ok,
        f"support mean of the estimator vs the sample effect, all designs at "
        f"2n <= 8, 50 outcome draws each, worst abs gap {worst:.2e}",
    )
    assert ok
