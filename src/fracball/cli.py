"""Command-line interface: parameter sweeps and verification campaigns.

Each grid point runs in isolation; a failing point becomes an error row in
the report and the campaign continues.  Exit codes: 0 = campaign ran,
1 = infrastructure failure (printed as `error: ...`), including a malformed
or out-of-range setting (ConfigError), a config file that is missing or not
UTF-8 and a report that cannot be written, 2 = acceptance-suite failure
(verify-all only).
"""

import argparse
import dataclasses
import functools
import os
import sys
import time

from .config import format_nonlinearity, load_config
from .errors import FracballError
from .params import ProblemParams
from .report import make_document, make_record, write_csv, write_json


def _with_overrides(cfg, args):
    """cfg with the command line's settings, validated as the file's are."""
    overrides = {"seed": args.seed, "out_dir": args.out, "jobs": args.jobs,
                 "out_format": args.format, "tol_oracle_budget": args.oracle_budget}
    return dataclasses.replace(
        cfg, **{k: v for k, v in overrides.items() if v is not None})


def _point_inputs(cfg, params, nl=None):
    inputs = {"N": params.N, "s": params.s}
    if nl is not None:
        inputs["nonlinearity"] = format_nonlinearity(nl)
    inputs["K"] = cfg.trunc_K
    inputs["seed"] = cfg.seed
    return inputs


def _error_row(exc):
    return {"error": type(exc).__name__, "message": str(exc)}


def cmd_eigs(cfg):
    from .spectrum import assemble_full_spectrum, second_eigenvalue

    records = []
    rows = []
    for params in (ProblemParams(N, s)
                   for N in cfg.grid_N for s in cfg.grid_s):
        inputs = _point_inputs(cfg, params)
        try:
            spec = assemble_full_spectrum(params, cfg.trunc_ell_max,
                                          cfg.trunc_n_max, cfg.trunc_K,
                                          oracle_budget=cfg.tol_oracle_budget,
                                          jobs=cfg.jobs)
            lam2, label, gap = second_eigenvalue(params, cfg.trunc_K)
            payload = {
                "entries": [
                    {"ell": e.ell, "n": e.n, "lambda": e.lam,
                     "err": e.convergence, "multiplicity": e.multiplicity,
                     "coincident": e.coincident}
                    for e in spec.entries
                ],
                "truncation-safe": spec.truncation_safe,
                "second-eigenvalue": {"value": lam2, "label": list(label)},
                "gap": gap,
            }
            for e in spec.entries:
                rows.append({"N": params.N, "s": params.s, "ell": e.ell,
                             "n": e.n, "lambda": e.lam, "err": e.convergence,
                             "multiplicity": e.multiplicity, "gap": gap})
        except FracballError as exc:
            payload = _error_row(exc)
        records.append(make_record("spectrum", inputs, payload))
    table = ("eigs.csv",
             ["N", "s", "ell", "n", "lambda", "err", "multiplicity", "gap"],
             rows)
    return records, [table], 0


def cmd_conjecture(cfg):
    from .spectrum import verify_conjecture

    records = []
    rows = []
    tally = {"yes": 0, "no": 0, "inconclusive": 0, "error": 0}
    for params in (ProblemParams(N, s)
                   for N in cfg.grid_N for s in cfg.grid_s):
        inputs = _point_inputs(cfg, params)
        try:
            rep = verify_conjecture(params, cfg.trunc_K,
                                    oracle_budget=cfg.tol_oracle_budget)
            payload = {
                "lambda-antisymmetric": {"value": rep.lam_antisymmetric,
                                         "err": rep.error_bar},
                "lambda-radial-excited": rep.lam_radial_excited,
                "gap": rep.gap,
                "verdict": rep.verdict,
                "second-eigenspace-antisymmetric": rep.second_eigenspace_antisymmetric,
                "multiplicity": rep.multiplicity,
            }
            tally[rep.verdict] += 1
            rows.append({"N": params.N, "s": params.s,
                         "lambda_antisymmetric": rep.lam_antisymmetric,
                         "lambda_radial_excited": rep.lam_radial_excited,
                         "gap": rep.gap, "err": rep.error_bar,
                         "verdict": rep.verdict})
        except FracballError as exc:
            payload = _error_row(exc)
            tally["error"] += 1
        records.append(make_record("conjecture", inputs, payload))
    records.append(make_record("conjecture-summary", {}, tally))
    table = ("conjecture.csv",
             ["N", "s", "lambda_antisymmetric", "lambda_radial_excited",
              "gap", "err", "verdict"],
             rows)
    return records, [table], 0


def _solve_point(cfg, params, nl):
    from .semilinear import (check_subcriticality, energy, pohozaev_residual,
                             solve_radial_sign_changing)

    sol = solve_radial_sign_changing(params, nl, cfg.grid_target_nodes,
                                     K=cfg.trunc_K,
                                     oracle_budget=cfg.tol_oracle_budget)
    sub = check_subcriticality(nl, params)
    payload = {
        "coefficients": list(sol.coefficients),
        "nodal-count": sol.nodal_count,
        "psi0-at-1": sol.psi0_at_1,
        "residual": sol.residual,
        "newton-iterations": sol.newton_iterations,
        "linear-degenerate": sol.linear_degenerate,
        "subcritical": bool(sub),
        "energy": energy(sol, sol.coefficients),
    }
    if not sol.linear_degenerate:
        lhs, rhs, rel = pohozaev_residual(sol)
        payload["pohozaev"] = {"lhs": lhs, "rhs": rhs, "relative-residual": rel}
    return sol, payload


def cmd_solve(cfg):
    records = []
    rows = []
    for params, nl in cfg.grid_points():
        inputs = _point_inputs(cfg, params, nl)
        try:
            _, payload = _solve_point(cfg, params, nl)
            rows.append({"N": params.N, "s": params.s,
                         "nonlinearity": format_nonlinearity(nl),
                         "nodal_count": payload["nodal-count"],
                         "psi0_at_1": payload["psi0-at-1"],
                         "residual": payload["residual"],
                         "energy": payload["energy"],
                         "pohozaev_rel": payload.get("pohozaev", {}).get(
                             "relative-residual", "")})
        except FracballError as exc:
            payload = _error_row(exc)
        records.append(make_record("solution", inputs, payload))
    table = ("solutions.csv",
             ["N", "s", "nonlinearity", "nodal_count", "psi0_at_1",
              "residual", "energy", "pohozaev_rel"],
             rows)
    return records, [table], 0


def cmd_morse(cfg):
    from .morse import morse_index, test_function_checks

    records = []
    rows = []
    for params, nl in cfg.grid_points():
        inputs = _point_inputs(cfg, params, nl)
        try:
            sol, sol_payload = _solve_point(cfg, params, nl)
            rep = morse_index(sol, ell_max=cfg.trunc_ell_max,
                              oracle_budget=cfg.tol_oracle_budget)
            payload = {
                "solution": sol_payload,
                "per-ell": [
                    {"ell": sc.ell, "negative": sc.negative,
                     "marginal": sc.marginal, "smallest": sc.smallest,
                     "err": sc.convergence, "multiplicity": sc.multiplicity}
                    for sc in rep.per_ell
                ],
                "total-index": rep.total_index,
                "marginal-total": rep.marginal_total,
                "lambda1L": rep.lambda1L,
                "lambda1L-is-radial": rep.lambda1L_is_radial,
                "theorem-check": rep.theorem_check,
            }
            rows.append({"N": params.N, "s": params.s,
                         "nonlinearity": format_nonlinearity(nl),
                         "total_index": rep.total_index,
                         "lambda1L": rep.lambda1L,
                         "theorem_check": rep.theorem_check})
        except FracballError as exc:
            records.append(make_record("morse", inputs, _error_row(exc)))
            continue
        records.append(make_record("morse", inputs, payload))
        if params.N <= 2 and not sol.linear_degenerate and sol.nodal_count:
            try:
                tfr = test_function_checks(rep, seed=cfg.seed)
                tf_payload = {
                    "method": tfr.method,
                    "sign-convention": tfr.sign_convention,
                    "compact-support-radius": tfr.compact_support_radius,
                    "diag": {str(j): v for j, v in tfr.diag.items()},
                    "cross": {f"{j},{k}": v for (j, k), v in tfr.cross.items()},
                    "weak-defect": {f"{j},{k}": v
                                    for (j, k), v in tfr.weak_defect.items()},
                    "rayleigh-bound": tfr.rayleigh_bound,
                    "lambda1L": tfr.lambda1L,
                }
            except FracballError as exc:
                tf_payload = _error_row(exc)
            records.append(make_record("testfn", inputs, tf_payload))
    table = ("morse.csv",
             ["N", "s", "nonlinearity", "total_index", "lambda1L",
              "theorem_check"],
             rows)
    return records, [table], 0


def cmd_verify_all(cfg):
    from . import acceptance

    results = acceptance.run_all(oracle_budget=cfg.tol_oracle_budget)
    records = []
    rows = []
    any_fail = False
    for res in results:
        records.append(make_record("acceptance", {"criterion": res.name},
                                   {"passed": res.passed, "detail": res.detail}))
        rows.append({"criterion": res.name, "passed": res.passed})
        any_fail = any_fail or not res.passed
    table = ("acceptance.csv", ["criterion", "passed"], rows)
    return records, [table], (2 if any_fail else 0)


_COMMANDS = {
    "eigs": cmd_eigs,
    "conjecture": cmd_conjecture,
    "solve": cmd_solve,
    "morse": cmd_morse,
    "verify-all": cmd_verify_all,
}


@functools.cache
def build_parser():
    """The command line's parser, built once per process: parse_args keeps
    no state between calls."""
    parser = argparse.ArgumentParser(
        prog="fracball",
        description="Spectral toolkit for the fractional Dirichlet "
                    "Laplacian on the unit ball",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--format", choices=["csv", "json", "both"], default=None)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--oracle-budget", type=int, default=None)
    return parser


def main(argv=None):
    from . import nonlocal_quadrature
    from .spectrum import solve_sector

    # the process-wide memos whose hits and misses the provenance reports
    memos = {"sector-memo": solve_sector,
             "engine-memo": nonlocal_quadrature._engine}
    args = build_parser().parse_args(argv)
    try:
        cfg = _with_overrides(load_config(args.config), args)
        t0 = time.time()
        before = {name: memo.cache_info() for name, memo in memos.items()}
        records, tables, exit_code = _COMMANDS[args.command](cfg)
        counts = {}
        for name, memo in memos.items():
            now, then = memo.cache_info(), before[name]
            counts[name] = {"hits": now.hits - then.hits,
                            "misses": now.misses - then.misses}
        doc = make_document(cfg, records, wall_time=round(time.time() - t0, 3),
                            memos=counts)
        if cfg.out_format in ("json", "both"):
            write_json(doc, os.path.join(cfg.out_dir, f"{args.command}.json"))
        if cfg.out_format in ("csv", "both"):
            for name, fieldnames, rows in tables:
                write_csv(rows, fieldnames, os.path.join(cfg.out_dir, name))
    except (FracballError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.command}: {len(records)} records -> {cfg.out_dir} "
          f"(config {doc['provenance']['config-hash']})")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
