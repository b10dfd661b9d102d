import subprocess
import sys
import types
from dataclasses import fields

import pytest

from covqec import cli
from covqec.protocol import SweepRow


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


def test_closed_pipe_exits_without_traceback():
    # `covqec bounds ... | head -1`: the reader is gone before the first write
    proc = subprocess.Popen(
        [sys.executable, "-m", "covqec.cli", "bounds", "--model", "strong", "--pe", "0.2",
         "--n", "101", "--alpha", "0.1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


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


def test_sweep_svg_beside_csv_in_dotted_directory(tmp_path):
    # the extension is cut from the file name, not at a dot in a directory
    (tmp_path / "res.d").mkdir()
    out = tmp_path / "res.d" / "strong"
    args = ["sweep", "--model", "strong", "--n-grid", "9,13,21", "--np", "1", "--pe", "0.2",
            "--out", str(out), "--format", "csv+svg"]
    assert cli.main(args) == 0
    assert (tmp_path / "res.d" / "strong.svg").read_text().startswith("<svg")
    assert not (tmp_path / "res.svg").exists()


def test_csv_columns_follow_sweep_row_fields():
    # rows_to_csv writes each row as dataclasses.astuple(row)
    assert [c.lower() for c in cli.CSV_COLUMNS] == [f.name for f in fields(SweepRow)]


def test_sweep_simulate_reports_eps_cov_slope(tmp_path):
    args = ["sweep", "--model", "weak", "--n-grid", "37,53,69", "--ne", "1", "--np", "5",
            "--seed", "3", "--simulate"]
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        res = run_cli([*args, "--out", str(out)])
        assert res.returncode == 0, res.stderr
    assert outs[0].read_bytes() == outs[1].read_bytes()
    # in one process the rows after the first, and every row of a rerun,
    # reuse memoized spectra: the bytes match the cold subprocess runs
    for name in ("c.csv", "d.csv"):
        assert cli.main([*args, "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / name).read_bytes() == outs[0].read_bytes()
    lines = outs[0].read_text().splitlines()
    assert len(lines) == 1 + 3 + 2
    assert lines[-2].startswith("# eps_cov_slope=")
    assert lines[-1].startswith("# slope=")
    assert float(lines[-2].split("=")[1]) < 0


def test_sweep_bad_grid_exits_nonzero():
    res = run_cli(["sweep", "--model", "weak", "--n-grid", "6,201", "--ne", "1", "--np", "5"])
    assert res.returncode == 2
    assert "n=6 incompatible" in res.stderr


@pytest.mark.parametrize("args", [
    ["sweep", "--model", "strong", "--n-grid", "9,13", "--np", "1", "--pe", "0.2"],
    ["bounds", "--model", "strong", "--pe", "0.2", "--n", "101"],
], ids=["sweep", "bounds"])
def test_out_in_missing_directory_exits_2(tmp_path, args):
    # rejected before the work, not by a traceback from the final write
    res = run_cli([*args, "--out", str(tmp_path / "nodir" / "x.csv")])
    assert res.returncode == 2
    assert res.stderr.startswith("error: --out") and "nodir" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("grid", ["201", "201,201"])
def test_sweep_one_point_grid_exits_2(capsys, grid):
    # a slope needs two distinct n; one point used to give 0/0 and nan slopes
    args = ["sweep", "--model", "weak", "--n-grid", grid, "--ne", "1", "--np", "5", "--simulate"]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert "two distinct points" in captured.err
    assert "slope" not in captured.out


def test_simulate_weak_negative_ne_exits_2(capsys):
    assert cli.main(["simulate", "--model", "weak", "--ne", "-1", "--m", "8"]) == 2
    assert "n_e must be non-negative" in capsys.readouterr().err


def test_simulate_strong():
    res = run_cli([
        "simulate", "--model", "strong", "--pe", "0.2", "--sr", "3", "--np", "1",
    ])
    assert res.returncode == 0
    assert "eps_cov" in res.stdout


def test_simulate_strong_past_the_old_enumeration_cap(capsys):
    # 2^64 copy-loss patterns, collapsed by survivor count: no cap on s_r
    assert cli.main(["simulate", "--model", "strong", "--pe", "0.1", "--sr", "64"]) == 0
    assert "n = 133" in capsys.readouterr().out


@pytest.mark.parametrize("args,n", [
    (["--model", "weak", "--ne", "1", "--m", "4"], 5 + 16),
    (["--model", "weak", "--ne", "1", "--m", "4", "--np", "1"], 1 + 16),
    (["--model", "strong", "--pe", "0.2", "--sr", "4"], 5 + 8),
    (["--model", "strong", "--pe", "0.2", "--sr", "4", "--np", "1"], 1 + 8),
])
def test_simulate_uses_the_np_code(monkeypatch, capsys, args, n):
    from covqec import channels as ch
    from covqec import protocol as pr

    seen = []

    def fake(cfg):
        seen.append(cfg)
        return types.SimpleNamespace(eps_cov=0.5, mixture=ch.CovariantParams(2, 0.5))

    monkeypatch.setattr(pr, "effective_channel", fake)
    assert cli.main(["simulate", *args]) == 0
    assert [cfg.n for cfg in seen] == [n]
    assert f"n = {n}" in capsys.readouterr().out


@pytest.mark.parametrize("args", [
    ["--model", "weak", "--ne", "1", "--m", "4", "--np", "3"],
    ["--model", "strong", "--pe", "0.2", "--sr", "4", "--np", "3"],
])
def test_simulate_unsimulable_np_exits_2(capsys, args):
    assert cli.main(["simulate", *args]) == 2
    assert "n_p=3" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "1"])
def test_simulate_mc_samples_below_two_exits_2(capsys, samples):
    args = ["simulate", "--model", "weak", "--ne", "1", "--m", "4", "--mc", "--mc-samples", samples]
    assert cli.main(args) == 2
    assert "mc_samples" in capsys.readouterr().err


@pytest.mark.parametrize("np_", ["1", "5"])
def test_simulate_mc_without_reference_copies(capsys, np_):
    args = ["simulate", "--model", "strong", "--pe", "0.1", "--sr", "0", "--np", np_,
            "--mc", "--mc-samples", "200"]
    assert cli.main(args) == 0
    assert "monte carlo 1-F_ent" in capsys.readouterr().out


def test_simulate_mc_value_error_exits_2(monkeypatch, capsys):
    from covqec import protocol as pr

    def fail(cfg):
        raise ValueError("no shots to draw")

    monkeypatch.setattr(pr, "monte_carlo_epsilon", fail)
    args = ["simulate", "--model", "strong", "--pe", "0.1", "--sr", "2", "--np", "1", "--mc"]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert "error: no shots to draw" in captured.err
    assert "eps_cov" not in captured.out


@pytest.mark.parametrize("args,code", [
    # an exactly covariant channel: a and the estimate differ, and the
    # estimate's error is, at round-off
    (["--model", "weak", "--ne", "0", "--m", "8", "--np", "1"], 0),
    # two shots that agree: a zero error against a = 0.075
    (["--model", "strong", "--pe", "0.1", "--sr", "2", "--np", "1", "--mc-samples", "2"], 1),
], ids=["covariant", "zero-error"])
def test_simulate_mc_gate_floors_the_error(capsys, args, code):
    assert cli.main(["simulate", *args, "--mc"]) == code
    captured = capsys.readouterr()
    assert "sigma from the exact channel" in captured.out
    assert ("WARNING" in captured.err) == bool(code)


@pytest.mark.parametrize("offset,code", [(4, 0), (10, 1)])
def test_simulate_mc_gate_at_five_sigma(monkeypatch, capsys, offset, code):
    from covqec import protocol as pr

    def off(cfg):
        return pr.effective_channel(cfg).mixture.a + offset * 1e-3, 1e-3

    monkeypatch.setattr(pr, "monte_carlo_epsilon", off)
    args = ["simulate", "--model", "strong", "--pe", "0.1", "--sr", "2", "--np", "1", "--mc"]
    assert cli.main(args) == code
    captured = capsys.readouterr()
    assert f"({offset}.00 sigma from the exact channel)" in captured.out
    assert ("WARNING: Monte Carlo diverges from the exact channel by more than 5 sigma" in captured.err) == bool(code)


def test_verify_only_rep():
    res = run_cli(["verify", "--only", "rep"])
    assert res.returncode == 0
    assert "[PASS] rep" in res.stdout


def test_verify_injected_fault(monkeypatch, capsys):
    from covqec import verify

    failing = verify.CheckResult("rep", "injected fault", False, "w=1")
    monkeypatch.setitem(verify._REGISTRY, "rep", lambda: [failing])
    assert cli.main(["verify", "--only", "rep"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] rep: injected fault  (witness: w=1)" in out
    assert "0/1 checks passed" in out


@pytest.mark.parametrize("args,message", [
    (["bounds", "--model", "weak", "--ne", "0", "--np", "5", "--nr", "1000"], "n_e must be positive"),
    (["bounds", "--model", "weak", "--ne", "1", "--np", "5", "--nr", "7"], "n_r must be"),
    (["bounds", "--model", "strong", "--pe", "0.7", "--n", "100"], "p_e must lie"),
    (["bounds", "--model", "strong", "--pe", "0.2", "--n", "100", "--alpha", "0"], "alpha"),
    (["bounds", "--model", "strong", "--pe", "0.2", "--n", "0"], "n must be positive"),
    (["bounds", "--model", "weak", "--config", "/nonexistent/run.cfg"], "--config"),
    (["sdp-check", "--pairs", "-3"], "--pairs"),
    (["sweep", "--model", "weak", "--n-grid", "201,297", "--ne", "1", "--format", "csv+svg"], "--out"),
    (["verify", "--only", "foo"], "unknown module 'foo'"),
], ids=["weak-ne0", "weak-odd-nr", "strong-pe", "alpha0", "strong-n0", "missing-config",
        "negative-pairs", "svg-without-out", "verify-unknown-module"])
def test_usage_errors_exit_2(capsys, args, message):
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ne=1\nnp=5\nnr=1000\n")
    res = run_cli(["bounds", "--model", "weak", "--config", str(cfg)])
    assert res.returncode == 0
    assert "theorem1_upper = 0.92095" in res.stdout
    # explicit flag beats the config value
    res2 = run_cli(["bounds", "--model", "weak", "--config", str(cfg), "--nr", "2000"])
    assert "0.92095" not in res2.stdout


def test_explicit_flag_at_its_default_beats_config(tmp_path, capsys):
    # --alpha 0.1 is also the parser default; it must still beat the file
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha=0.5\n")
    args = ["bounds", "--model", "strong", "--pe", "0.2", "--n", "101", "--alpha", "0.1"]
    assert cli.main(args) == 0
    plain = capsys.readouterr().out
    assert "theorem2_upper = 16.0217863213" in plain
    assert cli.main(args + ["--config", str(cfg)]) == 0
    assert capsys.readouterr().out == plain
    assert cli.main(args[:-2] + ["--config", str(cfg)]) == 0
    assert "theorem2_upper = 101.493793401" in capsys.readouterr().out


def test_sdp_check_command():
    res = run_cli(["sdp-check", "--pairs", "3"])
    assert res.returncode == 0
    assert res.stdout == ("[PASS] sdp: fidelity SDP vs covariant closed form\n"
                          "[PASS] sdp: diamond error brackets on 3 random pairs\n"
                          "2/2 checks passed\n")


def test_sdp_check_fails_on_fidelity_gap(monkeypatch, capsys):
    from covqec import sdp

    monkeypatch.setattr(sdp, "sqrt_fwc", lambda a, b: 0.5)
    assert cli.main(["sdp-check", "--pairs", "0"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] sdp: fidelity SDP vs covariant closed form  (witness: worst=" in out
    assert "1/2 checks passed" in out


def test_sdp_check_runs_the_verify_battery(capsys):
    # same check names as `verify --only sdp`, on the flags' pairs and seed
    assert cli.main(["verify", "--only", "sdp"]) == 0
    verify_out = capsys.readouterr().out
    assert "[PASS] sdp: diamond error brackets on 15 random pairs" in verify_out
    assert cli.main(["sdp-check", "--pairs", "15", "--seed", "5"]) == 0
    assert capsys.readouterr().out == verify_out


@pytest.mark.parametrize("base,flag,value", [
    (["bounds", "--model", "strong", "--pe", "0.2", "--n", "101"], "seed", "3"),
    (["verify", "--only", "bounds"], "d", "5"),
    (["verify", "--only", "bounds"], "seed", "99"),
    (["sdp-check", "--pairs", "1"], "d", "3"),
    (["simulate", "--model", "strong", "--pe", "0.2", "--sr", "2", "--np", "1"], "d", "3"),
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(tmp_path, capsys, base, flag, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(base + [f"--{flag}", value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{flag} {value}" in capsys.readouterr().err
    # a --config file may still carry the key: a subcommand ignores keys it lacks
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d=5\nseed=99\n")
    assert cli.main(base + ["--config", str(cfg)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("args,text,message", [
    (["simulate", "--model", "weak"], "m=8.5\nne=1\n", "argument --m: invalid int value: '8.5'"),
    (["sdp-check"], "pairs=1e3\n", "argument --pairs: invalid int value: '1e3'"),
], ids=["float-m", "float-pairs"])
def test_config_values_are_checked_like_flags(tmp_path, capsys, args, text, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        cli.main(args + ["--config", str(cfg)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_config_switch_and_flag_precedence(tmp_path, capsys):
    # simulate=true turns the switch on; --seed on the command line beats seed=
    cfg = tmp_path / "run.cfg"
    cfg.write_text("simulate=true\nne=1\nseed=4\n")
    args = ["sweep", "--model", "weak", "--n-grid", "37,53", "--config", str(cfg)]
    assert cli.main(args + ["--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("37,5,32,weak,1,0.29") and lines[1].endswith(",3")
    assert lines[-2].startswith("# eps_cov_slope=")


@pytest.mark.parametrize("args,flag,model", [
    (["sweep", "--model", "weak", "--n-grid", "37,53", "--ne", "1", "--pe", "0.4"], "--pe", "weak"),
    (["simulate", "--model", "strong", "--pe", "0.2", "--sr", "2", "--np", "1",
      "--m", "4", "--pattern-dist", "exact_ne"], "--m", "strong"),
    (["simulate", "--model", "weak", "--ne", "1", "--m", "4", "--pattern-dist", "exact_ne",
      "--sr", "3"], "--sr", "weak"),
    (["bounds", "--model", "weak", "--ne", "1", "--np", "5", "--nr", "1000", "--alpha", "0.2"],
     "--alpha", "weak"),
    (["bounds", "--model", "strong", "--pe", "0.2", "--n", "101", "--np", "5"], "--np", "strong"),
], ids=["sweep-pe-weak", "simulate-m-strong", "simulate-sr-weak", "bounds-alpha-weak",
        "bounds-np-strong"])
def test_other_models_flags_are_usage_errors(capsys, args, flag, model):
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} is not read by --model {model}\n"
    assert captured.out == ""


def test_config_file_may_hold_both_models_keys(tmp_path, capsys):
    # the other model's keys in a --config file are ignored, not rejected
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ne=1\nnp=5\nnr=1000\npe=0.2\nn=101\nalpha=0.5\n")
    assert cli.main(["bounds", "--model", "weak", "--config", str(cfg)]) == 0
    assert "theorem1_upper = 0.92095" in capsys.readouterr().out
    assert cli.main(["bounds", "--model", "strong", "--config", str(cfg)]) == 0
    assert "theorem2_upper = 101.493793401" in capsys.readouterr().out
