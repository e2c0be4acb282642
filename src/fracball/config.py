"""Campaign configuration: flat dotted-key text files.

Format: one `key = value` per line, `#` comments, values in JSON syntax
(numbers, strings, lists, booleans).  Keys are dotted paths (`grid.N`,
`tol.newton`); unknown keys are errors, so typos never pass silently.
"""

import json
import re
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .params import ProblemParams
from .semilinear import NonlinearitySpec
from .truncation import ELL_START, K_START

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
    tol_newton: float = 1e-10
    tol_oracle_budget: int | None = None
    seed: int = 0
    out_dir: str = "out"
    out_format: str = "both"
    jobs: int = 1

    def __post_init__(self):
        for N in self.grid_N:
            for s in self.grid_s:
                ProblemParams(int(N), float(s))  # raises on invalid points
        for text in self.grid_nonlinearity:
            parse_nonlinearity(text)
        if self.out_format not in ("csv", "json", "both"):
            raise ConfigError(f"out.format must be csv|json|both, got {self.out_format!r}")
        if self.trunc_K < 2:
            raise ConfigError("trunc.K must be at least 2")
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
                    pts.append((ProblemParams(int(N), float(s)),
                                parse_nonlinearity(text)))
        return pts

    def to_text(self):
        lines = []
        for key, attr in _KEYS.items():
            val = getattr(self, attr)
            lines.append(f"{key} = {json.dumps(val)}")
        return "\n".join(lines) + "\n"


# a field's key: its first "_" becomes "." and every later one "-"
# (grid_target_nodes -> grid.target-nodes); list-valued keys also accept a
# single value
_KEYS = {f.name.replace("_", ".", 1).replace("_", "-"): f.name
         for f in fields(CampaignConfig)}
_LIST_KEYS = {key for key, attr in _KEYS.items()
              if isinstance(getattr(CampaignConfig(), attr), list)}


def parse_config_text(text):
    """Parse config file contents into a CampaignConfig."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            parsed = json.loads(val.strip())
        except json.JSONDecodeError:
            parsed = val.strip()  # bare strings allowed
        if key in _LIST_KEYS and not isinstance(parsed, list):
            parsed = [parsed]
        values[_KEYS[key]] = parsed
    try:
        return CampaignConfig(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
