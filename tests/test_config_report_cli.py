import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracball import cli
from fracball.config import (CampaignConfig, format_nonlinearity,
                             parse_config_text, parse_nonlinearity)
from fracball.errors import ConfigError
from fracball.quadrature import ValueWithError
from fracball.report import (config_hash, fmt_float, make_document,
                             make_record, render_json, write_csv)


def test_parse_nonlinearity_families():
    nl = parse_nonlinearity("power(2.0, 3.5)")
    assert (nl.lam, nl.p) == (2.0, 3.5)
    nl = parse_nonlinearity("linear(4.25)")
    assert (nl.lam, nl.p) == (4.25, 2.0)
    assert nl == parse_nonlinearity("power(4.25, 2)")


@pytest.mark.parametrize("text", ["power()", "power(1)", "cubic(1, 3)",
                                  "power(1, x)", "power 1 3",
                                  "linear(1, 2)", "power(1, 1.5)"])
def test_parse_nonlinearity_rejects_malformed(text):
    with pytest.raises(ConfigError):
        parse_nonlinearity(text)


def test_nonlinearity_format_roundtrip():
    for text in ("power(2, 3.5)", "linear(4.25)", "power(1, 2.0000001)",
                 "linear(4.123456789)", "power(1, 2.5)", "power(1, 3)"):
        assert format_nonlinearity(parse_nonlinearity(text)) == text
    assert format_nonlinearity(parse_nonlinearity("power(1, 2)")) == "linear(1)"


def test_parse_config_defaults_and_comments():
    cfg = parse_config_text("# comment\ngrid.N = [1, 2]\n\ntrunc.K = 18 # inline\n")
    assert cfg.grid_N == [1, 2]
    assert cfg.trunc_K == 18
    assert cfg.tol_newton == 1e-10


def test_parse_config_scalar_coerced_to_list():
    cfg = parse_config_text("grid.N = 2\ngrid.s = 0.5\n")
    assert cfg.grid_N == [2] and cfg.grid_s == [0.5]


def test_parse_config_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("grid.M = [1]\n")


def test_parse_config_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("seed = 1\nseed = 2\n")


def test_parse_config_invalid_grid_point_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("grid.s = [1.5]\n")


def test_config_roundtrip():
    cfg = CampaignConfig(grid_N=[1, 3], grid_s=[0.25, 0.75],
                         grid_nonlinearity=["power(1, 3)", "linear(2)"],
                         trunc_K=20, seed=99, out_format="json")
    assert parse_config_text(cfg.to_text()) == cfg


def test_default_config_text_and_hash_pinned():
    # the file format's key names, in order; config_hash is a digest of this
    # text, so a renamed field would change every report's config hash
    assert CampaignConfig().to_text() == (
        'grid.N = [1]\n'
        'grid.s = [0.5]\n'
        'grid.nonlinearity = ["power(1.0, 3.0)"]\n'
        'grid.target-nodes = 1\n'
        'trunc.K = 24\n'
        'trunc.ell-max = 3\n'
        'trunc.n-max = 8\n'
        'tol.newton = 1e-10\n'
        'tol.oracle-budget = null\n'
        'seed = 0\n'
        'out.dir = "out"\n'
        'out.format = "both"\n'
        'jobs = 1\n')
    assert config_hash(CampaignConfig()) == "c633b0f54f40eb6e"


def test_grid_points_cartesian_order():
    cfg = CampaignConfig(grid_N=[1, 2], grid_s=[0.5],
                         grid_nonlinearity=["power(1, 3)"])
    pts = cfg.grid_points()
    assert [(p.N, p.s) for p, _ in pts] == [(1, 0.5), (2, 0.5)]


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_float_roundtrips_doubles(x):
    assert float(fmt_float(x)) == x


def test_fmt_float_nonfinite_names():
    assert fmt_float(float("nan")) == "NaN"
    assert fmt_float(float("inf")) == "Infinity"
    assert fmt_float(float("-inf")) == "-Infinity"


def test_render_json_value_with_error_and_types():
    doc = {"est": ValueWithError(1.0 / 3.0, 1e-10), "flag": True, "n": 3,
           "items": [None, "a\"b"]}
    text = render_json(doc)
    assert '"est":{"value":0.33333333333333331,"err":1e-10}' in text
    assert '"flag":true' in text
    assert json.loads(text)["n"] == 3
    assert json.loads(text)["items"][1] == 'a"b'


def test_render_json_rejects_unserializable():
    with pytest.raises(TypeError):
        render_json({"x": object()})


def test_config_hash_sensitive_to_content():
    a = CampaignConfig(seed=1)
    b = CampaignConfig(seed=2)
    assert config_hash(a) != config_hash(b)
    assert config_hash(a) == config_hash(CampaignConfig(seed=1))


def test_document_shape():
    cfg = CampaignConfig()
    doc = make_document(cfg, [make_record("spectrum", {"N": 1}, {"x": 1.0})],
                        wall_time=0.5)
    assert doc["provenance"]["config-hash"] == config_hash(cfg)
    assert doc["records"][0]["kind"] == "spectrum"


def test_write_csv_formats_floats(tmp_path):
    path = tmp_path / "t.csv"
    write_csv([{"a": 1.0 / 3.0, "b": "x"}], ["a", "b"], str(path))
    body = path.read_text()
    assert "0.33333333333333331" in body


def _write_config(tmp_path, extra="", s=0.5):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f'grid.N = [1]\ngrid.s = [{s}]\n'
                   'grid.nonlinearity = ["power(1.0, 3.0)"]\n'
                   'trunc.K = 12\n' + extra)
    return str(cfg)


def test_cli_eigs_writes_reports(tmp_path):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "out")
    assert cli.main(["eigs", "--config", cfg, "--out", out]) == 0
    doc = json.loads((tmp_path / "out" / "eigs.json").read_text())
    assert doc["records"][0]["kind"] == "spectrum"
    assert (tmp_path / "out" / "eigs.csv").exists()


def test_cli_provenance_counts_sector_memo(tmp_path):
    # one N = 1 point: sectors ell = 0, 1 (the parity classes), both read
    # again by the second-eigenvalue check; a second run reads them all.
    # Without an oracle budget no engine is asked for.
    cfg = _write_config(tmp_path)
    memo = []
    for name in ("cold", "warm"):
        out = tmp_path / name
        assert cli.main(["eigs", "--config", cfg, "--out", str(out),
                         "--format", "json"]) == 0
        prov = json.loads((out / "eigs.json").read_text())["provenance"]
        memo.append((prov["sector-memo"], prov["engine-memo"]))
    none = {"hits": 0, "misses": 0}
    assert memo == [({"hits": 2, "misses": 2}, none),
                    ({"hits": 4, "misses": 0}, none)]


def test_cli_provenance_counts_engine_memo(tmp_path):
    # the gated oracle entries of one N = 1 point read the ladder engines of
    # d = 1 and d = 3; a second run finds all of them built.  s = 0.37 is
    # used by no other test, so the first run starts cold.
    cfg = _write_config(tmp_path, s=0.37)
    memo = []
    for name in ("cold", "warm"):
        out = tmp_path / name
        assert cli.main(["eigs", "--config", cfg, "--out", str(out),
                         "--format", "json", "--oracle-budget", "40000"]) == 0
        memo.append(json.loads((out / "eigs.json").read_text())
                    ["provenance"]["engine-memo"])
    assert memo == [{"hits": 36, "misses": 4}, {"hits": 40, "misses": 0}]


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.txt"
    cfg.write_text("grid.unknown = 1\n")
    assert cli.main(["conjecture", "--config", str(cfg)]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_cli_record_payloads_deterministic(tmp_path):
    cfg = _write_config(tmp_path)
    docs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert cli.main(["solve", "--config", cfg, "--out", out,
                         "--format", "json"]) == 0
        docs.append(json.loads((tmp_path / name / "solve.json").read_text()))
    assert render_json(docs[0]["records"]) == render_json(docs[1]["records"])


@pytest.mark.parametrize("text,flags,jobs", [
    ("jobs = 1\n", [], 1),
    ("jobs = 3\n", [], 3),
    ("jobs = 3\n", ["--jobs", "2"], 2),
    ("", ["--jobs", "4"], 4),
])
def test_cli_jobs_flag_overrides_config_key(monkeypatch, text, flags, jobs):
    # --jobs overrides the file's jobs key as --seed overrides seed; the
    # environment plays no part
    monkeypatch.setenv("FRACBALL_JOBS", "5")
    args = cli.build_parser().parse_args(["eigs", "--config", "c"] + flags)
    assert cli._with_overrides(parse_config_text(text), args).jobs == jobs


@pytest.mark.parametrize("command,extra,flags", [
    ("eigs", "trunc.ell-max = -1\n", []),
    ("eigs", "trunc.n-max = -1\n", []),
    ("solve", "grid.target-nodes = 50\n", []),
    ("solve", 'grid.nonlinearity = ["linear(5.0)"]\ngrid.target-nodes = -1\n',
     []),
    ("eigs", "tol.oracle-budget = -5\n", []),
    ("eigs", "", ["--jobs", "0"]),
    ("eigs", "", ["--seed", "-1"]),
    ("solve", 'grid.nonlinearity = ["shifted-linear(1.0, 0.5)"]\n', []),
    ("morse", 'grid.nonlinearity = ["shifted-linear(1.0, 0.5)"]\n', []),
], ids=["ell-max", "n-max", "target-nodes-above-K", "target-nodes-negative",
        "oracle-budget", "jobs-flag", "seed-flag", "unknown-family-solve",
        "unknown-family-morse"])
def test_cli_rejects_out_of_range_settings(tmp_path, capsys, command, extra,
                                           flags):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text('grid.N = [1]\ngrid.s = [0.5]\ntrunc.K = 12\n' + extra)
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out)] + flags
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_cli_solve_surfaces_subcriticality_warning():
    # p = 5 is above the critical exponent 2N/(N - 2s) = 3 at N = 3, s = 1/2
    cfg = CampaignConfig(grid_N=[3], grid_s=[0.5],
                         grid_nonlinearity=["power(1.0, 5.0)"], trunc_K=12)
    with pytest.warns(UserWarning, match="not subcritical"):
        records, _, _ = cli.cmd_solve(cfg)
    assert len(records) == 1


def test_cli_morse_testfn_failure_is_a_testfn_row():
    # N = 2 Monte-Carlo needs s < 3/4; the morse record stays and the test
    # function checks record their own typed error
    cfg = CampaignConfig(grid_N=[2], grid_s=[0.75],
                         grid_nonlinearity=["power(1.0, 3.0)"], trunc_K=12,
                         trunc_ell_max=4)
    records, _, _ = cli.cmd_morse(cfg)
    assert [r["kind"] for r in records] == ["morse", "testfn"]
    assert "total-index" in records[0]["payload"]
    assert records[1]["payload"]["error"] == "DimensionUnsupported"


def test_cli_failure_isolation(tmp_path):
    # A supercritical grid point fails to converge; the campaign still
    # completes and records the error for that row.
    cfg = tmp_path / "cfg.txt"
    cfg.write_text('grid.N = [3]\ngrid.s = [0.25]\n'
                   'grid.nonlinearity = ["power(1.0, 4.0)", "linear(1.0)"]\n'
                   'trunc.K = 12\n')
    out = str(tmp_path / "out")
    assert cli.main(["solve", "--config", str(cfg), "--out", out,
                     "--format", "json"]) == 0
    doc = json.loads((tmp_path / "out" / "solve.json").read_text())
    payloads = [r["payload"] for r in doc["records"]]
    assert any("error" in p for p in payloads)
    assert any("coefficients" in p for p in payloads)
