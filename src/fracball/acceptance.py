"""Verification campaign: the toolkit's end-to-end correctness checks.

Each criterion is a standalone function returning a CriterionResult with a
machine-readable detail payload; `run_all` executes the full battery and is
what the `verify-all` CLI command reports.  The checks cover: the
singular-kernel quadrature oracle against the closed-form assembly, the
second-eigenvalue ordering sweep, eigenvalue monotonicity in dimension, the
linear-family Morse-index cross-check, nonlinear sign-changing solutions
with the Pohozaev certificate, negativity and radial symmetry of the first
linearized eigenvalue, sign tests on the derivative-built test functions,
the weak-identity defect, the energy-gradient consistency check, and
byte-level determinism of the report pipeline.
"""

from dataclasses import dataclass, field

import numpy as np

from . import cli
from .basis import RadialBasisSpec, stiffness_matrix
from .config import CampaignConfig
from .errors import FracballError
from .morse import (_mc_quadratic_pair, build_test_functions,
                    first_linearized_eigen, morse_index, test_function_checks)
from .nonlocal_quadrature import stiffness_entry_oracle
from .params import ProblemParams
from .report import render_json
from .semilinear import (NonlinearitySpec, energy, energy_gradient,
                         pohozaev_residual, solve_radial_resolved,
                         solve_radial_sign_changing)
from .spectrum import assemble_full_spectrum, radial_family, verify_conjecture
from .truncation import ELL_START, K_START, escalate_ell

# Nonlinear campaign grid for the sign-changing solutions: per ambient
# dimension, one fractional order above one half (case A1) and one at or
# below one half (case A2), with the power p = 3 wherever it is subcritical
# and otherwise backed off below the critical exponent 2N/(N-2s).
NONLINEAR_CASES = {
    "A1": {1: (0.9, 3.0), 2: (0.7, 3.0), 3: (0.95, 3.0)},
    "A2": {1: (0.5, 3.0), 2: (0.5, 3.0), 3: (0.5, 2.5)},
}
POHOZAEV_TOL = 1e-3
MORSE_GRID_S = (0.25, 0.5, 0.75)
ORACLE_GRID = [(d, s) for d in (1, 2, 3, 5) for s in (0.25, 0.5, 0.75)]


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: dict = field(default_factory=dict)


def oracle_gate(oracle_budget=None):
    """Closed-form stiffness entries vs. the singular-kernel quadrature."""
    worst = {"rel": 0.0, "d": None, "s": None, "m": None, "n": None}
    passed = True
    for d, s in ORACLE_GRID:
        A = stiffness_matrix(RadialBasisSpec(d, s, 4))
        scale = np.sqrt(np.outer(np.diag(A), np.diag(A)))
        for m in range(4):
            for n in range(m, 4):
                est = stiffness_entry_oracle(d, s, m, n, budget=oracle_budget)
                diff = abs(est.value - A[m, n])
                rel = (max(0.0, diff - est.error) / scale[m, n] if est.finite
                       else float("inf"))
                if rel > worst["rel"]:
                    worst = {"rel": rel, "d": d, "s": s, "m": m, "n": n}
                if rel > 1e-4:
                    passed = False
    return CriterionResult("oracle-gate", passed, {"worst": worst, "tol": 1e-4})


def conjecture_sweep(oracle_budget=None):
    """Ordering lambda_{N+2,0} < lambda_{N,1} across the (N, s) grid."""
    rows = []
    passed = True
    for N in range(1, 7):
        for s in (0.1, 0.25, 0.5, 0.75, 0.9):
            rep = verify_conjecture(ProblemParams(N, s), K_START,
                                    oracle_budget=oracle_budget)
            ok = rep.verdict == "yes" and rep.gap > 5.0 * rep.error_bar
            passed = passed and ok
            rows.append({"N": N, "s": s, "gap": rep.gap, "err": rep.error_bar,
                         "verdict": rep.verdict, "ok": ok})
    return CriterionResult("conjecture-sweep", passed,
                           {"points": len(rows),
                            "failures": [r for r in rows if not r["ok"]]})


def monotonicity(oracle_budget=None):
    """First eigenvalue strictly increasing in the dimension, with margin."""
    failures = []
    for s in MORSE_GRID_S:
        lam, conv = [], []
        for d in range(1, 11):
            res = radial_family(ProblemParams(d, s), 0, K_START,
                                oracle_budget=oracle_budget)
            lam.append(float(res.eigenvalues[0]))
            conv.append(float(res.convergence[0]))
        for i in range(9):
            margin = lam[i + 1] - lam[i]
            bar = conv[i] + conv[i + 1]
            if margin <= 10.0 * bar:
                failures.append({"s": s, "d": i + 1, "margin": margin,
                                 "bar": bar})
    return CriterionResult("monotonicity", not failures,
                           {"failures": failures})


def linear_morse_crosscheck(oracle_budget=None):
    """Morse index of the linear-family solution vs. the spectrum count."""
    rows = []
    passed = True
    for N in (1, 2, 3):
        for s in MORSE_GRID_S:
            params = ProblemParams(N, s)
            lam = float(radial_family(params, 0, K_START,
                                      oracle_budget=oracle_budget).eigenvalues[1])
            sol = solve_radial_sign_changing(params,
                                             NonlinearitySpec(lam),
                                             target_nodes=1, K=K_START,
                                             oracle_budget=oracle_budget)
            rep = morse_index(sol, ell_max=ELL_START,
                              oracle_budget=oracle_budget)
            spec = assemble_full_spectrum(params, ELL_START, 8, K_START,
                                          oracle_budget=oracle_budget)
            expected = spec.below(lam)
            # The count is trustworthy when no sector beyond ell_max can
            # contribute an eigenvalue below lambda_{N,1}.
            ok = (rep.total_index == expected and rep.total_index >= N + 1
                  and spec.sentinel_lam > lam)
            passed = passed and ok
            rows.append({"N": N, "s": s, "total": rep.total_index,
                         "spectrum-count": expected, "ok": ok})
    return CriterionResult("linear-morse-crosscheck", passed, {"rows": rows})


def solve_nonlinear_case(case, oracle_budget=None):
    """Converged 1-node solutions for one case of the nonlinear grid.

    Each case raises K from K_START until its coefficient tail is resolved
    (solve_radial_resolved), and its row reports the K used.  Returns
    (results, solutions), solutions mapping N to the MorseReport of its
    solution, which the linearization criteria reuse.
    """
    rows = []
    solutions = {}
    passed = True
    for N, (s, p) in NONLINEAR_CASES[case].items():
        params = ProblemParams(N, s)
        nl = NonlinearitySpec(1.0, p)
        row = {"N": N, "s": s, "p": p}
        try:
            sol = solve_radial_resolved(params, nl, target_nodes=1, K=K_START,
                                        oracle_budget=oracle_budget)
            row["K"] = sol.spec.K
            rep = escalate_ell(lambda ell_max: morse_index(
                sol, ell_max=ell_max, oracle_budget=oracle_budget))
            _, _, rel = pohozaev_residual(sol)
            solutions[N] = rep
            row.update({"nodal-count": sol.nodal_count, "pohozaev-rel": rel,
                        "theorem-check": rep.theorem_check,
                        "ok": rel < POHOZAEV_TOL
                              and rep.theorem_check == "passes"})
        except FracballError as exc:
            row.update({"error": type(exc).__name__, "ok": False})
        passed = passed and row["ok"]
        rows.append(row)
    result = CriterionResult(f"nonlinear-solutions-{case}", passed,
                             {"rows": rows, "tol": POHOZAEV_TOL})
    return result, solutions


def first_eigen_negative(solutions):
    """First linearized eigenvalue negative, radial, sign-definite profile."""
    rows = []
    passed = bool(solutions)
    for N, rep in sorted(solutions.items()):
        lam1, ell, _, definite = first_linearized_eigen(rep)
        ok = lam1 < 0.0 and ell == 0 and definite
        passed = passed and ok
        rows.append({"N": N, "s": rep.solution.params.s, "lambda1L": lam1, "ell": ell,
                     "sign-definite": definite, "ok": ok})
    return CriterionResult("first-linearized-eigenvalue", passed,
                           {"rows": rows})


def test_function_signs(solutions):
    """Sign tests for the derivative-built test functions at N = 1, 2."""
    rows = []
    passed = True
    reports = {}
    for N in (1, 2):
        if N not in solutions:
            passed = False
            rows.append({"N": N, "error": "no converged solution"})
            continue
        tfr = test_function_checks(solutions[N])
        reports[N] = tfr
        row = {"N": N, "s": tfr.params.s, "method": tfr.method}
        checks = []
        for j, est in sorted(tfr.diag.items()):
            checks.append(est.value + 3.0 * est.error < 0.0)
            row[f"diag-{j}"] = {"value": est.value, "err": est.error}
        # the cross terms are exact zeros by parity: reported, not tested
        for (j, k), est in sorted(tfr.cross.items()):
            row[f"cross-{j}{k}"] = {"value": est.value, "err": est.error}
        if N == 1:
            checks.append(tfr.rayleigh_bound < 0.0)
            row["rayleigh-bound"] = tfr.rayleigh_bound
        row["ok"] = all(checks)
        passed = passed and row["ok"]
        rows.append(row)
    return CriterionResult("test-function-signs", passed, {"rows": rows}), reports


def weak_identity(reports):
    """Weak-form defect of the linearized equation compatible with zero."""
    rows = []
    passed = 1 in reports
    if 1 in reports:
        for (j, k), est in sorted(reports[1].weak_defect.items()):
            ok = abs(est.value) <= 3.0 * est.error
            passed = passed and ok
            rows.append({"pair": [j, k], "value": est.value,
                         "err": est.error, "ok": ok})
    return CriterionResult("weak-identity-defect", passed, {"rows": rows})


def gradient_check(solutions):
    """Analytic energy gradient vs. central finite differences, on the N = 2
    solution of the nonlinear criterion (solutions maps N to its
    MorseReport); fails when that solution is missing."""
    if 2 not in solutions:
        return CriterionResult("gradient-check", False,
                               {"N": 2, "error": "no converged solution"})
    sol = solutions[2].solution
    h, tol = 1e-4, 1e-6
    c0 = np.asarray(sol.coefficients, dtype=float)
    # At the solution the gradient vanishes, so mismatches are measured
    # relative to the natural energy scale ||A0 c|| rather than ||grad||.
    energy_scale = float(np.linalg.norm(stiffness_matrix(sol.spec) @ c0))

    def rel_mismatch(c):
        grad = energy_gradient(sol, c)
        fd = np.empty_like(grad)
        for i in range(c.size):
            e = np.zeros_like(c)
            e[i] = h
            fd[i] = (energy(sol, c + e) - energy(sol, c - e)) / (2.0 * h)
        scale = max(float(np.linalg.norm(fd)), energy_scale)
        return float(np.linalg.norm(grad - fd) / scale)

    rng = np.random.default_rng(7)
    at_solution = rel_mismatch(c0)
    perturbed = rel_mismatch(c0 * (1.0 + 0.05 * rng.standard_normal(c0.size)))
    passed = at_solution <= tol and perturbed <= tol
    return CriterionResult("gradient-check", passed,
                           {"at-solution": at_solution,
                            "perturbed": perturbed, "h": h, "tol": tol})


def determinism():
    """Identical config and seed produce byte-identical report records."""
    cfg = CampaignConfig(grid_N=[1], grid_s=[0.75],
                         grid_nonlinearity=["power(1.0, 3.0)"],
                         trunc_K=16, seed=20240824)
    payloads = []
    for _ in range(2):
        chunks = []
        for command in (cli.cmd_conjecture, cli.cmd_solve, cli.cmd_morse):
            records, _, _ = command(cfg)
            chunks.append(render_json(records))
        payloads.append("".join(chunks))
    reports_identical = payloads[0] == payloads[1]

    params = ProblemParams(2, 0.7)
    sol = solve_radial_sign_changing(params, NonlinearitySpec(1.0, 3.0),
                                     target_nodes=1, K=16)
    d1 = build_test_functions(sol)[0]
    mc = [_mc_quadratic_pair(d1, d1, params, 20_000, 20240824) for _ in range(2)]
    mc_identical = (mc[0].value, mc[0].error) == (mc[1].value, mc[1].error)

    return CriterionResult("determinism", reports_identical and mc_identical,
                           {"report-records-identical": reports_identical,
                            "monte-carlo-identical": mc_identical,
                            "payload-bytes": len(payloads[0])})


def run_all(oracle_budget=None):
    """Full verification battery, in criterion order."""
    results = [
        oracle_gate(oracle_budget=oracle_budget),
        conjecture_sweep(oracle_budget=oracle_budget),
        monotonicity(oracle_budget=oracle_budget),
        linear_morse_crosscheck(oracle_budget=oracle_budget),
    ]
    res_a1, sols_a1 = solve_nonlinear_case("A1", oracle_budget=oracle_budget)
    res_a2, _ = solve_nonlinear_case("A2", oracle_budget=oracle_budget)
    results += [res_a1, res_a2, first_eigen_negative(sols_a1)]
    signs, reports = test_function_signs(sols_a1)
    results += [signs, weak_identity(reports),
                gradient_check(sols_a1), determinism()]
    return results
