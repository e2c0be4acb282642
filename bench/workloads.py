"""Benchmark workloads: fixed campaigns of `fracball` commands.

An operation is one grid point of one command: one call of
`fracball.cli.main` on a generated one-point campaign config, producing one
report document.  A workload is an ordered list of operations; the benchmark
seed reaches the program only as the campaign's `--seed`.
"""

import dataclasses
import itertools
import json
from dataclasses import dataclass

S_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)
ELL_CAP = 8  # same escalation cap as acceptance._morse_with_escalation


@dataclass(frozen=True)
class Op:
    command: str
    N: int
    s: float
    K: int = 24
    ell_max: int = 3
    n_max: int = 8
    nonlinearity: str | None = None
    nodes: int = 1
    jobs: int | None = None
    oracle_budget: int | None = None

    @property
    def label(self):
        parts = [self.command, f"N={self.N}", f"s={self.s:g}", f"K={self.K}"]
        if self.command in ("eigs", "morse") or self.oracle_budget is not None:
            parts.append(f"ell-max={self.ell_max}")
        if self.command == "eigs":
            parts.append(f"n-max={self.n_max}")
        if self.nonlinearity is not None:
            parts += [self.nonlinearity, f"nodes={self.nodes}"]
        if self.jobs is not None:
            parts.append(f"jobs={self.jobs}")
        if self.oracle_budget is not None:
            parts.append(f"oracle-budget={self.oracle_budget}")
        return " ".join(parts)

    def config_text(self, out_dir):
        keys = {
            "grid.N": [self.N],
            "grid.s": [self.s],
            "grid.nonlinearity": [self.nonlinearity or "power(1.0, 3.0)"],
            "grid.target-nodes": self.nodes,
            "trunc.K": self.K,
            "trunc.ell-max": self.ell_max,
            "trunc.n-max": self.n_max,
            "out.dir": out_dir,
            "out.format": "json",
        }
        return "".join(f"{k} = {json.dumps(v)}\n" for k, v in keys.items())

    def argv(self, config_path, seed):
        argv = [self.command, "--config", config_path, "--seed", str(seed)]
        if self.jobs is not None:
            argv += ["--jobs", str(self.jobs)]
        if self.oracle_budget is not None:
            argv += ["--oracle-budget", str(self.oracle_budget)]
        return argv

    def escalated(self):
        """The same point one angular sector further, as TruncationUnsafe asks."""
        return dataclasses.replace(self, ell_max=self.ell_max + 1)


def _interleave(groups):
    """Round-robin merge, so every kind of operation spans the campaign."""
    out = []
    for i in range(max(len(g) for g in groups)):
        out += [g[i] for g in groups if i < len(g)]
    return out


# eigs runs at n-max 0: for N >= 2 the sentinel sector N + 2(ell_max + 1)
# lies below every n >= 1 entry of the top sector (lambda_{d+2,0} <
# lambda_{d,1}), so only then can the truncation-safe flag hold
def light_campaign(nproc):
    grid = [(N, s) for N in range(1, 7) for s in S_GRID]
    groups = []
    for K in (24, 48, 96):
        groups.append([Op("eigs", N, s, K, n_max=0) for N, s in grid])
        groups.append([Op("conjecture", N, s, K) for N, s in grid])
    groups.append([Op("eigs", N, s, 48, n_max=0, jobs=nproc) for N, s in grid])
    groups.append([
        Op("solve", N, s, K, nonlinearity=f"power(1.0, {p})", nodes=nodes)
        for N, s, p, nodes, K in itertools.product(
            (1, 2, 3), (0.6, 0.9), (2.5, 3.0), (1, 2), (24, 48))])
    return _interleave(groups)


def oracle_gated_eigs(nproc):
    # two s values, not three: a campaign then takes about 13 s, so a run
    # holds three campaigns and takes each operation's median over them
    ops = [Op("eigs", N, s, ell_max=2, n_max=0, oracle_budget=40000)
           for N in (1, 2, 3) for s in (0.25, 0.75)]
    # gated solves at s = 0.75 (subcritical for N <= 3): they put the
    # Pohozaev accuracy guard on this workload and share its d = N engines
    ops += [Op("solve", N, 0.75, ell_max=2, nonlinearity="power(1.0, 3.0)",
               oracle_budget=40000) for N in (1, 2, 3)]
    return ops


def morse_certify(nproc):
    return [
        # K = 12 keeps a campaign within the benchmark's time budget: below
        # K = 14 testfn skips the coarse re-solve of its truncation estimate
        Op("morse", 1, 0.9, 12, nonlinearity="power(1.0, 3.0)"),
        # raises TruncationUnsafe at ell-max 3 and is retried at ell-max 4
        Op("morse", 2, 0.7, 12, nonlinearity="power(1.0, 3.0)"),
    ]


WORKLOADS = {
    "light-campaign": light_campaign,
    "oracle-gated-eigs": oracle_gated_eigs,
    "morse-certify": morse_certify,
}

# Failures present when the benchmark was written: operation label -> error.
# They stay in the grid and count in failed_frac; any other failure makes
# the run incorrect.
KNOWN_FAILURES = {
    "solve N=3 s=0.6 K=24 power(1.0, 2.5) nodes=2": "NoConvergence",
    "solve N=3 s=0.6 K=48 power(1.0, 2.5) nodes=2": "NoConvergence",
    "solve N=3 s=0.6 K=24 power(1.0, 3.0) nodes=2": "NoConvergence",
    "solve N=3 s=0.6 K=48 power(1.0, 3.0) nodes=2": "NoConvergence",
    "morse N=2 s=0.7 K=12 ell-max=3 power(1.0, 3.0) nodes=1": "TruncationUnsafe",
}
