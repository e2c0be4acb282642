"""Every command line the benchmark issues is one the CLI accepts.

`bench/workloads.py` builds each operation's argv and config text; a renamed
flag, a removed config key or a stricter validation rule would otherwise
break only benchmark runs.  The workloads are loaded here from their source,
read-only, and nothing is run.
"""

import types
from pathlib import Path

import pytest

from fracball import cli, truncation
from fracball.config import parse_config_text

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    mod = types.ModuleType("bench_workloads")
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), mod.__dict__)
    return mod


def test_workload_commands_parse_and_validate(workloads, tmp_path):
    parser = cli.build_parser()
    checked = 0
    for build in workloads.WORKLOADS.values():
        for op in build(2):
            for variant in (op, op.escalated()):
                args = parser.parse_args(variant.argv("campaign.cfg", 1))
                cfg = parse_config_text(variant.config_text(str(tmp_path)))
                cli._with_overrides(cfg, args)
                checked += 1
    assert checked > 0


def test_workload_escalation_cap_matches_policy(workloads):
    # the benchmark retries a TruncationUnsafe morse point up to its own copy
    # of the cap, which must be the package's
    assert workloads.ELL_CAP == truncation.ELL_CAP
