import json

import pytest

from hpseries import classical, cli, experiments
from hpseries.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_field_info_lists_trace_one_duals(capsys):
    code, out, _ = run_cli(["field-info", "--d", "5"], capsys)
    assert code == 0
    assert "(-1+1w)/sqrt(5)" in out
    assert "(0+1w)/sqrt(5)" in out
    assert "# config: d=5" in out


def test_field_info_json(capsys):
    code, out, _ = run_cli(["field-info", "--d", "5", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["disc"] == 5
    assert doc["fundamental_unit"] == [0, 1]
    assert [t["numerator"] for t in doc["trace_one_totally_positive"]] == \
        [[-1, 1], [0, 1]]


# Byte-exact field-info output for one field of each basis shape:
# w = (1+sqrt d)/2 (d = 5) and w = sqrt d (d = 7).
_FIELD_INFO_TEXT = {
    5: (
        '# config: d=5 height_bound=8\n'
        'field Q(sqrt(5)), disc = 5\n'
        'omega = (1+sqrt(d))/2\n'
        'norm-Euclidean: True\n'
        'fundamental unit = (0, 1) over [1, w], norm -1, '
        'embeddings (1.618033988749895, -0.6180339887498949)\n'
        'codifferent generator 1/sqrt(5) = (-1/5) + (2/5) w\n'
        'trace-1 totally positive dual indices (numerator height <= 8):\n'
        '  (-1+1w)/sqrt(5)  freq=(1, 0)  '
        'embeddings=(0.27639320225002095, 0.7236067977499789)\n'
        '  (0+1w)/sqrt(5)  freq=(1, 1)  '
        'embeddings=(0.723606797749979, 0.27639320225002106)\n'),
    7: (
        '# config: d=7 height_bound=8\n'
        'field Q(sqrt(7)), disc = 28\n'
        'omega = sqrt(d)\n'
        'norm-Euclidean: True\n'
        'fundamental unit = (8, 3) over [1, w], norm 1, '
        'embeddings (15.937253933193773, 0.06274606680622785)\n'
        'codifferent generator 1/sqrt(28) = (0) + (1/14) w\n'
        'trace-1 totally positive dual indices (numerator height <= 8):\n'
        '  (-2+1w)/sqrt(28)  freq=(1, -2)  '
        'embeddings=(0.1220355269907728, 0.8779644730092272)\n'
        '  (-1+1w)/sqrt(28)  freq=(1, -1)  '
        'embeddings=(0.3110177634953864, 0.6889822365046137)\n'
        '  (0+1w)/sqrt(28)  freq=(1, 0)  embeddings=(0.5, 0.5)\n'
        '  (1+1w)/sqrt(28)  freq=(1, 1)  '
        'embeddings=(0.6889822365046137, 0.3110177634953864)\n'
        '  (2+1w)/sqrt(28)  freq=(1, 2)  '
        'embeddings=(0.8779644730092272, 0.1220355269907728)\n'),
}

_FIELD_INFO_JSON = {
    5: {"codifferent_gen": ["-1/5", "2/5"],
        "config": {"d": 5, "height_bound": 8},
        "d": 5, "disc": 5, "euclidean": True,
        "fundamental_unit": [0, 1], "fundamental_unit_norm": -1,
        "omega": "(1+sqrt(d))/2",
        "trace_one_totally_positive": [
            {"freq": [1, 0], "numerator": [-1, 1]},
            {"freq": [1, 1], "numerator": [0, 1]}]},
    7: {"codifferent_gen": ["0", "1/14"],
        "config": {"d": 7, "height_bound": 8},
        "d": 7, "disc": 28, "euclidean": True,
        "fundamental_unit": [8, 3], "fundamental_unit_norm": 1,
        "omega": "sqrt(d)",
        "trace_one_totally_positive": [
            {"freq": [1, p], "numerator": [p, 1]} for p in range(-2, 3)]},
}


@pytest.mark.parametrize("d", [5, 7])
def test_field_info_output_is_pinned(d, capsys):
    code, out, _ = run_cli(["field-info", "--d", str(d)], capsys)
    assert (code, out) == (0, _FIELD_INFO_TEXT[d])
    code, out, _ = run_cli(["field-info", "--d", str(d), "--json"], capsys)
    expected = json.dumps(_FIELD_INFO_JSON[d], indent=2, sort_keys=True)
    assert (code, out) == (0, expected + "\n")


def test_field_info_rejects_bad_d(capsys):
    code, _out, err = run_cli(["field-info", "--d", "12"], capsys)
    assert code == 2
    assert err.startswith("config error: ") and "squarefree" in err


def test_selftest_passes(capsys):
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 0
    assert "[FAIL]" not in out
    assert out.endswith("selftest: 0 failure(s)\n")


def test_classical_petersson_and_quadrature_agree(capsys):
    code, out, _ = run_cli(
        ["classical", "petersson", "--m", "1", "--n", "2", "--k", "12",
         "--q", "1", "--cmax", "500"], capsys)
    assert code == 0
    pet = float(out.strip().split("\n")[-1].split(",")[4])
    code, out, _ = run_cli(
        ["classical", "quadrature", "--m", "1", "--n", "2", "--k", "12",
         "--q", "1"], capsys)
    assert code == 0
    quad = float(out.strip().split("\n")[-1].split(",")[4])
    assert abs(pet - quad) < 1e-6


def test_classical_petersson_at_large_weight(capsys):
    code, out, _ = run_cli(["classical", "petersson", "--m", "1", "--n", "1",
                            "--k", "400", "--cmax", "50"], capsys)
    assert code == 0
    assert out.endswith("\n1,1,400,1,1.0,0.0,petersson\n")
    # (100/1)^(399/2) is past the doubles
    code, out, err = run_cli(["classical", "petersson", "--m", "1", "--n",
                              "100", "--k", "400", "--cmax", "50"], capsys)
    assert code == 2
    assert err.startswith("config error") and "overflows" in err
    assert out == ""


@pytest.mark.parametrize("flag", ["--grid=0", "--y=-1", "--y=0"])
def test_classical_quadrature_rejects_bad_flags(flag, capsys):
    code, out, err = run_cli(["classical", "quadrature", flag], capsys)
    assert code == 2
    assert err.startswith("config error")
    assert out == ""


def test_classical_fails_fast_on_unbounded_work(capsys):
    # k = 4 asks the auto quadrature for a disc of radius ~5e5 (~2.6e13
    # lattice sites), and c_max past the Kloosterman cap used to be refused
    # only after the full sum
    for argv in (["quadrature", "--m", "1", "--n", "1", "--k", "4"],
                 ["petersson", "--k", "12", "--cmax", "20000"]):
        code, out, err = run_cli(["classical", *argv], capsys)
        assert code == 2
        assert err.startswith("config error")
        assert out == ""


def test_classical_quadrature_echoes_grid_and_y(capsys):
    code, out, _ = run_cli(["classical", "quadrature", "--k", "12"], capsys)
    assert code == 0
    assert "grid=" not in out and " y=" not in out
    code, out, _ = run_cli(
        ["classical", "quadrature", "--k", "12", "--grid", "32", "--y", "1.2"],
        capsys)
    assert code == 0
    assert out.startswith("# config: mode=quadrature m=1 n=1 k=12 q=1 "
                          "cmax=500 grid=32 y=1.2\n")


# Byte-exact quadrature output: a flag not given takes the default of
# QuadraturePolicy.auto, and one path serves every flag combination
_QUADRATURE_TEXT = {
    (): ("", "2.8402873752443907"),
    ("--grid", "32"): (" grid=32", "2.8402873752519686"),
    ("--y", "1.2"): (" y=1.2", "2.8402873752995004"),
    ("--grid", "16", "--y", "1.3"): (" grid=16 y=1.3", "2.8402873751933058"),
}


@pytest.mark.parametrize("flags", list(_QUADRATURE_TEXT),
                         ids=["defaults", "grid", "y", "grid-and-y"])
def test_classical_quadrature_output_bytes(flags, capsys):
    echo, value = _QUADRATURE_TEXT[flags]
    code, out, _ = run_cli(["classical", "quadrature", "--k", "12", *flags],
                           capsys)
    assert code == 0
    assert out == ("# config: mode=quadrature m=1 n=1 k=12 q=1 cmax=500"
                   f"{echo}\nm,n,k,q,value,tail_bound,method\n"
                   f"1,1,12,1,{value},0.0,quadrature\n")


# Byte-exact Hilbert outputs, one small run per output format: the values,
# the error columns and the embedded configuration
_CERTIFY_ARGV = ["certify", "--d", "5", "--k", "8,8", "--grid", "32",
                 "--height", "8", "--cutoff", "1e-10"]
_CERTIFY_TEXT = """\
{
  "coefficient": {
    "im": 2.953273654238465e-16,
    "quad_error": 2.3817427244231326e-09,
    "re": 1.036569893123054,
    "trunc_error": 2.876665684848721e-05
  },
  "config": {
    "cutoff": "1e-10",
    "d": "5",
    "grid": "32",
    "height": "8.0",
    "k": "8,8"
  },
  "note": "heuristic certificate: error components are estimates, not rigorous bounds",
  "safety_factor": 10.0,
  "spec": {
    "convention": "unit_extended",
    "d": 5,
    "level_hnf": [
      1,
      0,
      1
    ],
    "level_norm": 1,
    "nu_freq": [
      1,
      1
    ],
    "nu_numerator": [
      0,
      1
    ],
    "weight": [
      8,
      8
    ]
  },
  "total_error": 2.8769038591211636e-05,
  "verdict": "NonzeroCertified"
}
"""

_SWEEP_WEIGHT_ARGV = ["sweep-weight", "--d", "5", "--ks", "10,14", "--grid",
                      "32", "--height", "9", "--cutoff", "1e-11"]
_SWEEP_WEIGHT_TEXT = (
    '# cutoff=1e-11\n'
    '# d=5\n'
    '# grid=32\n'
    '# height=9.0\n'
    '# ks=10,14\n'
    'axis,param,re_p_nu,im_p_nu,err_p_nu,re_p_mu,im_p_mu,err_p_mu\n'
    'weight,10,1.0011491784372828,2.990702004287145e-16,'
    '1.5428091190765506e-06,0.0030973513917895695,'
    '1.0252445800268845e-17,1.1648940894205581e-06\n'
    'weight,14,1.000000036338891,3.071709861489623e-16,'
    '4.1464857372038276e-07,6.704788073550165e-08,'
    '-1.1871253031890242e-17,3.1305237340503765e-07\n'
)


@pytest.mark.parametrize("argv,text", [
    pytest.param(_CERTIFY_ARGV, _CERTIFY_TEXT, id="certify-json"),
    pytest.param(_SWEEP_WEIGHT_ARGV, _SWEEP_WEIGHT_TEXT, id="sweep-weight-csv"),
])
def test_hilbert_output_bytes(argv, text, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == text


def test_classical_tau(capsys):
    code, out, _ = run_cli(["classical", "tau", "--nmax", "3"], capsys)
    assert code == 0
    assert out.strip().split("\n")[-3:] == ["1,1", "2,-24", "3,252"]


def test_classical_scan(capsys):
    code, out, _ = run_cli(
        ["classical", "scan", "--k", "12", "--mmax", "3", "--cmax", "300"],
        capsys)
    assert code == 0
    assert all(line.endswith("True") for line in out.strip().split("\n")[2:])


def test_sweep_weight_exit_and_determinism(capsys):
    argv = ["sweep-weight", "--d", "5", "--ks", "10,14", "--grid", "32",
            "--height", "9", "--cutoff", "1e-11"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "axis,param" in out1
    assert "# ks=10,14" in out1


# one row per sweep axis: (subcommand, axis flags, param of the row)
SWEEP_ROWS = {
    "sweep-weight": (["--ks", "14"], 14),
    "sweep-level": (["--k", "8,8", "--levels", "3"], 9),
}


@pytest.mark.parametrize("command", sorted(SWEEP_ROWS))
def test_sweep_json_format(command, capsys):
    axis_flags, param = SWEEP_ROWS[command]
    code, out, _ = run_cli(
        [command, "--d", "5", *axis_flags, "--grid", "32",
         "--height", "8", "--cutoff", "1e-10", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["axis"] == command.removeprefix("sweep-")
    assert doc["rows"][0]["param"] == param
    assert doc["config"]["d"] == "5"


def test_sweep_level_small(capsys):
    code, out, _ = run_cli(
        ["sweep-level", "--d", "5", "--k", "4,4", "--levels", "3,7",
         "--grid", "32", "--height", "9", "--cutoff", "1e-10"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    params = [line.split(",")[1] for line in lines if line.startswith("level")]
    assert params == ["9", "49"]


def test_sweep_invalid_config_exits_2(capsys):
    code, _, err = run_cli(
        ["sweep-weight", "--d", "12", "--ks", "10"], capsys)
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize("argv,message", [
    pytest.param(["sweep-weight", "--d", "5", "--ks", "14,10"],
                 "ascending", id="descending-ks"),
    pytest.param(["sweep-weight", "--d", "5", "--ks", "10", "--grid", "4"],
                 "Nyquist box", id="sweep-coarse-grid"),
    pytest.param(["certify", "--d", "5", "--k", "8,8", "--grid", "4"],
                 "Nyquist box", id="certify-coarse-grid"),
    pytest.param(["sweep-weight", "--d", "5", "--ks", "10", "--level", "1,2"],
                 "one level", id="sweep-weight-level-list"),
    pytest.param(["certify", "--d", "5", "--k", "12,12", "--level", "1,2"],
                 "one level", id="certify-level-list"),
    pytest.param(["classical", "scan", "--mmax", "0"], "m_max must be >= 1",
                 id="scan-mmax-0"),
    pytest.param(["classical", "scan", "--mmax", "-3"], "m_max must be >= 1",
                 id="scan-mmax-negative"),
])
def test_run_config_error_exits_2(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("config error") and message in err
    assert out == ""


def test_sweep_truncation_failure_exits_3(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        ["sweep-weight", "--d", "5", "--ks", "10", "--grid", "32",
         "--height", "9", "--cutoff", "1e-11",
         "--config", _write_cfg(tmp_path, {"max_terms": "50"}),
         "--out", str(out_file)], capsys)
    assert code == 3
    assert "nan" in out_file.read_text()  # partial output still written


def _write_cfg(tmp_path, entries):
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k}={v}\n" for k, v in entries.items()))
    return str(path)


@pytest.mark.parametrize("command,file_entries,key,flag_value", [
    pytest.param("sweep-weight", {"ks": "10"}, "ks", "14", id="sweep-weight"),
    pytest.param("sweep-level", {"k": "8,8", "levels": "3"}, "levels", "2",
                 id="sweep-level"),
])
def test_config_file_flags_win(command, file_entries, key, flag_value, capsys,
                               tmp_path):
    cfg = _write_cfg(tmp_path, {"d": "5", "grid": "32", "height": "8",
                                "cutoff": "1e-10", **file_entries})
    code1, out1, _ = run_cli([command, "--config", cfg], capsys)
    assert code1 == 0
    assert f"# {key}={file_entries[key]}" in out1
    code2, out2, _ = run_cli(
        [command, "--config", cfg, f"--{key}", flag_value], capsys)
    assert code2 == 0
    assert f"# {key}={flag_value}" in out2  # flag overrode the file


@pytest.mark.parametrize("command", ["sweep-weight", "certify"])
@pytest.mark.parametrize("line,message", [
    ("cutof=1e-3", "unknown config key 'cutof'"),
    ("margin=1.0", "unknown config key 'margin'"),
    ("cutoff", "bad config line: 'cutoff'"),
    ("unit_cap=6", "unknown config key 'unit_cap'"),
    ("convention=unit_extended", "unknown config key 'convention'"),
    pytest.param("format=xml", {
        "sweep-weight": "format must be csv or json, got 'xml'",
        "certify": "unknown config key 'format'"}, id="format=xml"),
])
def test_config_file_fault_exits_2(command, line, message, capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"d=5\ngrid=32\nheight=8\n{line}\n")
    axis = ["--ks", "10"] if command == "sweep-weight" else ["--k", "12,12"]
    code, out, err = run_cli([command, "--config", str(cfg), *axis], capsys)
    if isinstance(message, dict):  # a key only the sweeps take
        message = message[command]
    assert code == 2
    assert err == f"config error: {message}\n"
    assert out == ""


def test_convention_flag_is_a_usage_error(capsys):
    # the engine has one Gamma_inf convention, so no flag selects one
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--d", "7", "--k", "8,8", "--level", "1",
              "--grid", "32", "--height", "8",
              "--convention", "translations_only"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "unrecognized arguments: --convention" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["sweep-weight", "certify"])
@pytest.mark.parametrize("which", ["missing", "directory"])
def test_unreadable_config_file_exits_2(command, which, capsys, tmp_path):
    path = tmp_path / "missing.cfg" if which == "missing" else tmp_path
    axis = ["--ks", "10"] if command == "sweep-weight" else ["--k", "12,12"]
    code, out, err = run_cli([command, "--d", "5", "--config", str(path),
                              *axis], capsys)
    assert code == 2
    assert err.startswith("config error: cannot read config file: ")
    assert str(path) in err
    assert out == ""


def test_certify_cli(capsys):
    code, out, _ = run_cli(
        ["certify", "--d", "5", "--k", "12,12", "--level", "1",
         "--grid", "32", "--height", "8", "--cutoff", "1e-11"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "NonzeroCertified"
    assert doc["config"]["d"] == "5"


def test_out_file_written_atomically(capsys, tmp_path):
    target = tmp_path / "info.json"
    code, _, _ = run_cli(
        ["field-info", "--d", "5", "--json", "--out", str(target)], capsys)
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["d"] == 5
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".hpseries")]
    assert leftovers == []


@pytest.mark.parametrize("argv", [
    pytest.param(["field-info", "--d", "5", "--out", ""], id="empty"),
    pytest.param(["field-info", "--d", "5", "--out", "missing/x.csv"],
                 id="missing-dir"),
    pytest.param(["classical", "tau", "--out", "."], id="directory"),
    pytest.param(["certify", "--d", "5", "--k", "12,12", "--grid", "32",
                  "--height", "8", "--cutoff", "1e-11", "--config", "out"],
                 id="config-file"),
])
def test_unwritable_output_exits_2(argv, capsys, tmp_path, monkeypatch):
    (tmp_path / "out").write_text("out=\n")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("config error: cannot write output: ")
    assert "Traceback" not in err and out == ""
    assert [p.name for p in tmp_path.rglob(".hpseries-*")] == []


@pytest.mark.parametrize("argv,module,entry", [
    pytest.param(["sweep-weight", "--d", "5", "--ks", "6,10", "--out",
                  "nodir/x.csv"], experiments, "sweep_weight",
                 id="sweep-weight"),
    pytest.param(["sweep-level", "--d", "5", "--k", "8,8", "--levels", "1,2",
                  "--config", "run.cfg"], experiments, "sweep_level",
                 id="sweep-level-config-file"),
    pytest.param(["certify", "--d", "5", "--k", "8,8", "--out",
                  "nodir/x.json"], experiments, "certify_nonvanishing",
                 id="certify"),
    pytest.param(["certify", "--d", "5", "--k", "8,8", "--out", "x/"],
                 experiments, "certify_nonvanishing",
                 id="certify-no-file-name"),
    pytest.param(["classical", "petersson", "--out", "nodir/x.csv"],
                 classical, "petersson_coefficient", id="classical"),
    pytest.param(["field-info", "--d", "5", "--out", "nodir/x.txt"],
                 cli, "make_field", id="field-info"),
    pytest.param(["sweep-weight", "--d", "5", "--ks", "6,10", "--out",
                  "adir"], experiments, "sweep_weight", id="directory"),
])
def test_unwritable_output_exits_2_before_computing(argv, module, entry,
                                                    capsys, tmp_path,
                                                    monkeypatch):
    """The directory of --out, or of a config file's out, is checked
    before anything is computed, and an existing directory is no file
    name."""
    def refuse(*args, **kwargs):
        raise AssertionError(f"{entry} called with an unwritable out")

    (tmp_path / "run.cfg").write_text("out=nodir/x.csv\n")
    (tmp_path / "adir").mkdir()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(module, entry, refuse)
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("config error: cannot write output: ")
    assert out == ""


_CERTIFY = ["certify", "--d", "5", "--k", "8,8", "--level", "1", "--grid", "32"]
_SWEEP = ["sweep-weight", "--d", "5", "--ks", "10", "--grid", "32"]


@pytest.mark.parametrize("argv", [
    pytest.param([*_CERTIFY, "--cutoff", "nan"], id="certify-cutoff-nan"),
    pytest.param([*_CERTIFY, "--cutoff", "inf"], id="certify-cutoff-inf"),
    pytest.param([*_CERTIFY, "--height", "nan"], id="certify-height-nan"),
    pytest.param([*_CERTIFY, "--height", "inf"], id="certify-height-inf"),
    pytest.param([*_CERTIFY, "--y", "nan,2"], id="certify-y-nan"),
    pytest.param([*_SWEEP, "--cutoff", "nan"], id="sweep-cutoff-nan"),
    pytest.param([*_SWEEP, "--height", "inf"], id="sweep-height-inf"),
    pytest.param([*_SWEEP, "--y", "2,inf"], id="sweep-y-inf"),
    pytest.param(["classical", "quadrature", "--k", "12", "--y", "nan"],
                 id="quadrature-y-nan"),
    pytest.param(["classical", "quadrature", "--k", "12", "--y", "inf"],
                 id="quadrature-y-inf"),
])
def test_non_finite_values_exit_2(argv, capsys):
    # NaN fails every <= guard, so each value is checked for finiteness
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("config error") and "finite" in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    pytest.param([*_CERTIFY, "--safety", "-1"], id="safety-negative"),
    pytest.param([*_CERTIFY, "--safety", "0.5"], id="safety-below-one"),
    pytest.param([*_CERTIFY, "--safety", "nan"], id="safety-nan"),
    pytest.param([*_CERTIFY, "--safety", "inf"], id="safety-inf"),
    pytest.param([*_SWEEP, "--final-dev", "nan"], id="final-dev-nan"),
    pytest.param([*_SWEEP, "--final-dev", "-1"], id="final-dev-negative"),
    pytest.param([*_SWEEP, "--final-dev", "0"], id="final-dev-zero"),
    pytest.param([*_SWEEP, "--final-dev", "inf"], id="final-dev-inf"),
])
def test_verdict_thresholds_exit_2(argv, capsys):
    # a safety factor below 1 certifies noise; a NaN one is invalid JSON,
    # and a NaN or non-positive final deviation fails every sweep
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("config error")
    assert out == ""
