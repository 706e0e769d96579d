import json

import pytest

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


def test_field_info_rejects_bad_d(capsys):
    code, _out, err = run_cli(["field-info", "--d", "12"], capsys)
    assert code == 2
    assert "squarefree" in err


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


@pytest.mark.parametrize("flag", ["--grid=0", "--y=-1", "--y=0"])
def test_classical_quadrature_rejects_bad_flags(flag, capsys):
    code, out, err = run_cli(["classical", "quadrature", flag], capsys)
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
])
def test_config_file_fault_exits_2(command, line, message, capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"d=5\ngrid=32\nheight=8\n{line}\n")
    axis = ["--ks", "10"] if command == "sweep-weight" else ["--k", "12,12"]
    code, out, err = run_cli([command, "--config", str(cfg), *axis], capsys)
    assert code == 2
    assert err == f"config error: {message}\n"
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
