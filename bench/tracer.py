"""Spans around the public functions of each fracball layer, installed from
outside the package.

`Tracer.install` replaces each listed function by a timing wrapper in every
fracball module that binds it (several layers import functions by name), and
wraps the two `PairFormEngine` methods on the class.  Spans are kept in memory
as (id, parent id, operation, name, start, end, info, error) and written out
when the campaign ends; `layer_metrics` turns them into the per-layer metrics.
A span's parent is the innermost open span of the same thread.
"""

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict

import numpy as np

MODULES = ("acceptance", "basis", "cli", "config", "kernels", "morse",
           "nonlocal_quadrature", "params", "quadrature", "report",
           "semilinear", "spectrum")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _engine_size(args, kwargs, result):
    eng = args[0]
    arrays = (eng.r_out, eng.w_out, eng.idx, eng.rho, eng.kw, eng.wdiag)
    return [int(eng.n_pairs), int(sum(a.nbytes for a in arrays))]


def _radial_family_key(args, kwargs, result):
    params, ell, K = args[0], _arg(args, kwargs, 1, "ell"), _arg(args, kwargs, 2, "K")
    return [params.N + 2 * ell, params.s, K]


# layer -> function -> info recorder (args, kwargs, result) -> JSON value
FUNCTIONS = {
    "cli": {"main": None},
    "config": {"load_config": None},
    "report": {"render_json": lambda a, k, r: len(r), "write_json": None},
    "basis": {
        "assemble_radial_operator": None,
        "stiffness_matrix": None,
        "mass_matrix": None,
        "radial_weighted_integrals": None,
        "solve_radial_eigs": None,
        "basis_matrix": None,
        "jacobi_all": lambda a, k, r: int(r.size),
    },
    "spectrum": {
        "assemble_full_spectrum": None,
        "second_eigenvalue": None,
        "verify_conjecture": None,
        "radial_family": _radial_family_key,
    },
    "semilinear": {
        "solve_radial_sign_changing": lambda a, k, r: int(r.newton_iterations),
        "pohozaev_residual": None,
        "energy": None,
    },
    "morse": {
        "morse_index": None,
        "assemble_linearized": None,
        "first_linearized_eigen": None,
        "test_function_checks": None,
        "build_test_functions": None,
        "_mc_quadratic_pair": lambda a, k, r: 4 * (int(_arg(a, k, 3, "M")) // 4),
    },
    "nonlocal_quadrature": {
        "get_engine": None,
        "reduced_form": None,
        "bilinear_form": None,
        "quadratic_form_L": None,
        "stiffness_entry_oracle": None,
        "radial_potential_integral": None,
        "exterior_tail": lambda a, k, r: int(np.size(r)),
        "kdiff_total": None,
        "_mc_bilinear": lambda a, k, r: int(_arg(a, k, 3, "rule").budget),
    },
    "kernels": {
        "kappa_ell": None,
        "kappa_moments": lambda a, k, r: int(r[0].size),
        "kappa_moments_1d": None,
    },
    "quadrature": {"segment_rule": None},
}

ENGINE_METHODS = {"__init__": _engine_size, "form": None}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None  # index of the operation in progress
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = error = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                rec = info(args, kwargs, result) if info and error is None else None
                self.spans.append((sid, parent, self.op, name, t0, t1, rec, error))
        return traced

    def install(self):
        mods = [importlib.import_module(f"fracball.{m}") for m in MODULES]
        for layer, funcs in FUNCTIONS.items():
            home = importlib.import_module(f"fracball.{layer}")
            for fname, info in funcs.items():
                orig = getattr(home, fname)
                traced = self.wrap(f"{layer}.{fname}", orig, info)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, traced)
        engine = importlib.import_module("fracball.nonlocal_quadrature").PairFormEngine
        for meth, info in ENGINE_METHODS.items():
            traced = self.wrap(f"nonlocal_quadrature.PairFormEngine.{meth}",
                               getattr(engine, meth), info)
            setattr(engine, meth, traced)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer metrics from a list of spans (lists or tuples as above)."""
    calls = defaultdict(int)
    dur = defaultdict(float)
    infos = defaultdict(list)
    errors = defaultdict(int)
    child_dur = defaultdict(float)
    for sid, parent, op, name, t0, t1, info, error in spans:
        calls[name] += 1
        dur[name] += t1 - t0
        if info is not None:
            infos[name].append(info)
        if error is not None:
            errors[name] += 1
        if parent is not None:
            child_dur[parent] += t1 - t0
    self_s = defaultdict(float)
    for sid, parent, op, name, t0, t1, info, error in spans:
        self_s[name.split(".")[0]] += (t1 - t0) - child_dur[sid]

    solved = defaultdict(set)
    repeats = 0
    for sid, parent, op, name, t0, t1, info, error in spans:
        if name == "spectrum.radial_family" and info is not None:
            key = tuple(info)
            repeats += key in solved[op]
            solved[op].add(key)

    def count(name):
        return sum(infos[name])

    engine = "nonlocal_quadrature.PairFormEngine.__init__"
    lookups = calls["nonlocal_quadrature.get_engine"]
    mc = ("morse._mc_quadratic_pair", "nonlocal_quadrature._mc_bilinear")
    mc_samples = sum(count(n) for n in mc)
    mc_s = sum(dur[n] for n in mc)
    kappa = "kernels.kappa_moments"
    m = {
        "kernels.kappa_points": count(kappa),
        "kernels.kappa_s": dur[kappa],
        "kernels.kappa_points_per_s": _ratio(count(kappa), dur[kappa]),
        "nonlocal_quadrature.engine_lookups": lookups,
        "nonlocal_quadrature.engine_builds": calls[engine],
        "nonlocal_quadrature.engine_hit_ratio": _ratio(lookups - calls[engine], lookups),
        "nonlocal_quadrature.engine_build_s": dur[engine],
        "nonlocal_quadrature.engine_pairs": sum(i[0] for i in infos[engine]),
        "nonlocal_quadrature.engine_bytes": sum(i[1] for i in infos[engine]),
        "nonlocal_quadrature.form_calls":
            calls["nonlocal_quadrature.PairFormEngine.form"],
        "nonlocal_quadrature.form_s": dur["nonlocal_quadrature.PairFormEngine.form"],
        "nonlocal_quadrature.exterior_tail_points":
            count("nonlocal_quadrature.exterior_tail"),
        "nonlocal_quadrature.exterior_tail_s": dur["nonlocal_quadrature.exterior_tail"],
        "nonlocal_quadrature.oracle_entries":
            calls["nonlocal_quadrature.stiffness_entry_oracle"],
        "nonlocal_quadrature.oracle_entry_s":
            dur["nonlocal_quadrature.stiffness_entry_oracle"],
        "nonlocal_quadrature.potential_integral_s":
            dur["nonlocal_quadrature.radial_potential_integral"],
        "morse.index_calls": calls["morse.morse_index"],
        "morse.index_s": dur["morse.morse_index"],
        "morse.sector_assemblies": calls["morse.assemble_linearized"],
        "morse.testfn_s": dur["morse.test_function_checks"],
        "morse.mc_samples": mc_samples,
        "morse.mc_s": mc_s,
        "morse.mc_samples_per_s": _ratio(mc_samples, mc_s),
        "semilinear.solves": calls["semilinear.solve_radial_sign_changing"],
        "semilinear.solve_s": dur["semilinear.solve_radial_sign_changing"],
        "semilinear.solve_failed": errors["semilinear.solve_radial_sign_changing"],
        "semilinear.newton_iterations": count("semilinear.solve_radial_sign_changing"),
        "semilinear.pohozaev_s": dur["semilinear.pohozaev_residual"],
        "basis.assemble_calls": calls["basis.assemble_radial_operator"],
        "basis.assemble_s": dur["basis.assemble_radial_operator"],
        "basis.mass_matrix_s": dur["basis.mass_matrix"],
        "basis.eigh_calls": calls["basis.solve_radial_eigs"],
        "basis.eigh_s": dur["basis.solve_radial_eigs"],
        "basis.jacobi_points": count("basis.jacobi_all"),
        "basis.jacobi_s": dur["basis.jacobi_all"],
        "spectrum.sectors_solved": calls["spectrum.radial_family"],
        "spectrum.resolve_frac": _ratio(repeats, calls["spectrum.radial_family"]),
        "quadrature.segment_rule_calls": calls["quadrature.segment_rule"],
        "quadrature.segment_rule_s": dur["quadrature.segment_rule"],
        "report.render_s": dur["report.render_json"],
        "report.bytes": count("report.render_json"),
        "trace.spans": len(spans),
    }
    for layer in FUNCTIONS:
        m[f"{layer}.self_s"] = self_s[layer]
    return m
