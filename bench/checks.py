"""Output checks for the report records of one operation.

`check_records` returns the failures of one operation as (reason, statistical)
pairs.  A statistical failure is a three-sigma miss of a Monte-Carlo estimate
that stays within five sigma: it counts as a failed operation, but a seed can
produce it by chance, so it does not make the run incorrect.
"""


def _error(payload):
    """Error class of an error row (the conjecture summary counts errors)."""
    err = payload.get("error")
    return err if isinstance(err, str) else None


def _within(est, sigmas):
    return abs(est["value"]) <= sigmas * est["err"]


def _check_spectrum(op, p):
    return [] if p["truncation-safe"] else [("truncation-unsafe", False)]


def _check_conjecture(op, p):
    err = p["lambda-antisymmetric"]["err"]
    if p["verdict"] == "yes" and p["gap"] > 5.0 * err:
        return []
    return [(f"verdict {p['verdict']} gap {p['gap']:.3g} err {err:.3g}", False)]


def _check_solution(op, p):
    if p["nodal-count"] == op.nodes:
        return []
    return [(f"nodal count {p['nodal-count']} != {op.nodes}", False)]


def _check_morse(op, p):
    out = _check_solution(op, p["solution"])
    if p["theorem-check"] != "passes" or p["total-index"] < op.N + 1:
        out.append((f"theorem-check {p['theorem-check']} index {p['total-index']}",
                    False))
    return out


def _check_testfn(op, p):
    """The three-sigma sign tests of acceptance.test_function_signs."""
    mc = p["method"] == "monte-carlo"
    out = []
    for j, est in p["diag"].items():
        if not est["value"] + 3.0 * est["err"] < 0.0:
            stat = mc and est["value"] + 5.0 * est["err"] < 0.0
            out.append((f"diag {j} not negative", stat))
    for jk, est in p["cross"].items():
        if not _within(est, 3.0):
            out.append((f"cross {jk} nonzero", mc and _within(est, 5.0)))
    if op.N == 1 and not p["rayleigh-bound"] < 0.0:
        out.append(("rayleigh bound not negative", False))
    return out


_CHECKS = {
    "spectrum": _check_spectrum,
    "conjecture": _check_conjecture,
    "solution": _check_solution,
    "morse": _check_morse,
    "testfn": _check_testfn,
}

# record kinds one successful grid point of each command produces
_EXPECTED = {
    "eigs": ["spectrum"],
    "conjecture": ["conjecture", "conjecture-summary"],
    "solve": ["solution"],
    "morse": ["morse", "testfn"],
}


def check_records(op, records):
    """Failures of one operation: error rows, failed checks, missing records."""
    failures = []
    for rec in records:
        payload = rec["payload"]
        err = _error(payload)
        if err is not None:
            failures.append((err, False))
        elif rec["kind"] in _CHECKS:
            failures += _CHECKS[rec["kind"]](op, payload)
    if not failures:
        kinds = [rec["kind"] for rec in records]
        if kinds != _EXPECTED[op.command]:
            failures.append((f"records {kinds}", False))
    return failures


def pohozaev_residuals(records):
    """Pohozaev relative residuals of the solved points among the records."""
    out = []
    for rec in records:
        sol = rec["payload"]
        if rec["kind"] == "morse":
            sol = sol.get("solution", {})
        elif rec["kind"] != "solution":
            continue
        if "pohozaev" in sol:
            out.append(sol["pohozaev"]["relative-residual"])
    return out
