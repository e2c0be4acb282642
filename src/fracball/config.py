"""Campaign configuration: flat dotted-key text files.

Format: one `key = value` per line, `#` comments, values in JSON syntax
(numbers, strings, lists, booleans).  A JSON value may be followed by a
comment only; any other value is a bare string, which ends at its first
`#`.  Keys are dotted paths (`grid.N`, `trunc.ell-max`); unknown keys are
errors, so typos never pass silently.
"""

import json
import re
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .params import ProblemParams
from .semilinear import NonlinearitySpec
from .truncation import ELL_START, K_CAP, K_START

_NONLIN_RE = re.compile(r"^\s*([a-z-]+)\s*\(\s*([^)]*)\s*\)\s*$")
# each family's argument count: linear(lam) is power(lam, 2)
_NONLIN_ARITY = {"linear": 1, "power": 2}


def parse_nonlinearity(text):
    """'power(1.0, 3.0)' | 'linear(5.0)', the latter meaning power(5.0, 2)."""
    m = _NONLIN_RE.match(text)
    if not m:
        raise ConfigError(f"malformed nonlinearity descriptor {text!r}")
    family = m.group(1)
    try:
        args = [float(a) for a in m.group(2).split(",") if a.strip()]
    except ValueError as exc:
        raise ConfigError(f"malformed nonlinearity arguments in {text!r}") from exc
    if family not in _NONLIN_ARITY:
        raise ConfigError(f"unknown nonlinearity family {family!r}")
    if len(args) != _NONLIN_ARITY[family]:
        raise ConfigError(f"{family} takes {_NONLIN_ARITY[family]} "
                          f"argument(s), got {text!r}")
    try:
        return NonlinearitySpec(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _shortest(x):
    """The shortest text that reads back as x, without a trailing '.0'."""
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text


def format_nonlinearity(nl):
    """The descriptor parse_nonlinearity reads back as nl."""
    if nl.p == 2.0:
        return f"linear({_shortest(nl.lam)})"
    return f"power({_shortest(nl.lam)}, {_shortest(nl.p)})"


@dataclass
class CampaignConfig:
    """Validated sweep description; every grid point is well-formed."""

    grid_N: list = field(default_factory=lambda: [1])
    grid_s: list = field(default_factory=lambda: [0.5])
    grid_nonlinearity: list = field(default_factory=lambda: ["power(1.0, 3.0)"])
    grid_target_nodes: int = 1
    trunc_K: int = K_START
    trunc_ell_max: int = ELL_START
    trunc_n_max: int = 8
    tol_oracle_budget: int | None = None
    seed: int = 0
    out_dir: str = "out"
    out_format: str = "both"
    jobs: int = 1

    def __post_init__(self):
        # JSON integers (not booleans) wherever the field is an int
        for key, f in _KEYS.items():
            val = getattr(self, f.name)
            if f.type in (int, int | None) and type(val) is not int and (
                    val is not None or f.type is int):
                raise ConfigError(f"{key} must be an integer, got {val!r}")
        for key, grid in (("grid.N", self.grid_N), ("grid.s", self.grid_s),
                          ("grid.nonlinearity", self.grid_nonlinearity)):
            if not grid:
                raise ConfigError(f"{key} must not be empty")
        for N in self.grid_N:
            if type(N) is not int:
                raise ConfigError(f"grid.N entries must be integers, got {N!r}")
        for s in self.grid_s:
            if type(s) not in (int, float):
                raise ConfigError(f"grid.s entries must be numbers, got {s!r}")
        for N in self.grid_N:
            for s in self.grid_s:
                ProblemParams(N, s)  # raises on invalid points
        for text in self.grid_nonlinearity:
            parse_nonlinearity(text)
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out.dir must be a string, got {self.out_dir!r}")
        if self.out_format not in ("csv", "json", "both"):
            raise ConfigError(f"out.format must be csv|json|both, got {self.out_format!r}")
        if not 2 <= self.trunc_K <= K_CAP:
            raise ConfigError(f"trunc.K must lie in 2 .. {K_CAP}")
        if self.trunc_ell_max < 0 or self.trunc_n_max < 0:
            raise ConfigError("trunc.ell-max and trunc.n-max must be >= 0")
        if not 0 <= self.grid_target_nodes < self.trunc_K:
            raise ConfigError("grid.target-nodes must lie in 0 .. trunc.K - 1")
        if self.tol_oracle_budget is not None and self.tol_oracle_budget < 1:
            raise ConfigError("tol.oracle-budget must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 bits")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")

    def grid_points(self):
        """All (ProblemParams, NonlinearitySpec) combinations, in order."""
        pts = []
        for N in self.grid_N:
            for s in self.grid_s:
                for text in self.grid_nonlinearity:
                    pts.append((ProblemParams(N, s),
                                parse_nonlinearity(text)))
        return pts

    def to_text(self):
        lines = []
        for key, f in _KEYS.items():
            val = getattr(self, f.name)
            lines.append(f"{key} = {json.dumps(val)}")
        return "\n".join(lines) + "\n"


# a field's key: its first "_" becomes "." and every later one "-"
# (grid_target_nodes -> grid.target-nodes); list-valued keys also accept a
# single value
_KEYS = {f.name.replace("_", ".", 1).replace("_", "-"): f
         for f in fields(CampaignConfig)}
_LIST_KEYS = {key for key, f in _KEYS.items() if f.type is list}


def parse_config_text(text):
    """Parse config file contents into a CampaignConfig."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = raw.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        # a JSON value, then at most a comment ('#' inside a JSON string is
        # text); anything else is a bare string, cut at its first '#'
        val = val.strip()
        try:
            parsed, end = json.JSONDecoder().raw_decode(val)
        except json.JSONDecodeError:
            end = 0
        if not end or val[end:].lstrip()[:1] not in ("", "#"):
            parsed = val.split("#", 1)[0].strip()
        if key in _LIST_KEYS and not isinstance(parsed, list):
            parsed = [parsed]
        values[_KEYS[key].name] = parsed
    try:
        return CampaignConfig(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
