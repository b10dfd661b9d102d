import subprocess
import sys

from covqec import cli


def run_cli(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "covqec.cli", *args],
        capture_output=True,
        text=True,
        **kw,
    )


def test_bounds_weak_includes_theorem1():
    res = run_cli(["bounds", "--d", "2", "--model", "weak", "--ne", "1", "--np", "5", "--nr", "1000"])
    assert res.returncode == 0
    assert "theorem1_upper = 0.92095" in res.stdout
    assert "prop1_lower" in res.stdout


def test_bounds_strong_includes_prop2():
    res = run_cli(["bounds", "--d", "2", "--model", "strong", "--pe", "0.25", "--n", "100"])
    assert res.returncode == 0
    assert "prop2_lower = 5.2083" in res.stdout


def test_bounds_missing_pe_usage_error():
    res = run_cli(["bounds", "--d", "2", "--model", "strong", "--n", "100"])
    assert res.returncode == 2
    assert "--pe" in res.stderr


def test_sweep_deterministic_bytes(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    grid = "201,297"
    for out in (out1, out2):
        res = run_cli([
            "sweep", "--model", "weak", "--n-grid", grid, "--ne", "1", "--np", "5",
            "--seed", "3", "--out", str(out),
        ])
        assert res.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_csv_shape(tmp_path):
    out = tmp_path / "s.csv"
    res = run_cli([
        "sweep", "--model", "weak", "--n-grid", "201,297,393", "--ne", "1",
        "--np", "5", "--out", str(out), "--format", "csv+svg",
    ])
    assert res.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(cli.CSV_COLUMNS)
    assert len(lines) == 1 + 3 + 1
    assert lines[-1].startswith("# slope=")
    assert (tmp_path / "s.svg").read_text().startswith("<svg")


def test_sweep_bad_grid_exits_nonzero():
    res = run_cli(["sweep", "--model", "weak", "--n-grid", "6", "--ne", "1", "--np", "5"])
    assert res.returncode == 2


def test_simulate_strong():
    res = run_cli([
        "simulate", "--model", "strong", "--pe", "0.2", "--sr", "3", "--np", "1",
    ])
    assert res.returncode == 0
    assert "eps_cov" in res.stdout


def test_verify_only_rep():
    res = run_cli(["verify", "--only", "rep"])
    assert res.returncode == 0
    assert "[PASS] rep" in res.stdout


def test_verify_injected_fault():
    res = run_cli(["verify", "--only", "rep", "--inject-fault"])
    assert res.returncode == 1
    assert "FAIL" in res.stdout
    assert "witness" in res.stdout


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ne=1\nnp=5\nnr=1000\n")
    res = run_cli(["bounds", "--model", "weak", "--config", str(cfg)])
    assert res.returncode == 0
    assert "theorem1_upper = 0.92095" in res.stdout
    # explicit flag beats the config value
    res2 = run_cli(["bounds", "--model", "weak", "--config", str(cfg), "--nr", "2000"])
    assert "0.92095" not in res2.stdout


def test_sdp_check_command():
    res = run_cli(["sdp-check", "--pairs", "3"])
    assert res.returncode == 0
    assert "verified" in res.stdout


def test_sdp_check_fails_on_fidelity_gap(monkeypatch, capsys):
    from covqec import sdp

    monkeypatch.setattr(sdp, "sqrt_fwc", lambda a, b: 0.5)
    assert cli.main(["sdp-check", "--pairs", "0"]) == 1
    assert "FIDELITY GAP" in capsys.readouterr().out
