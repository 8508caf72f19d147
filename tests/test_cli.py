import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chaosrng.cli import main

from conftest import NANLOG, SWAP_MAP

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(tmp_path, *argv):
    return main([*argv, "--out-dir", str(tmp_path)])


# ---------------------------------------------------------------------------
# analyze

def test_analyze_bernoulli(tmp_path, capsys):
    assert run(tmp_path, "analyze", "--map", "bernoulli") == 0
    rep = json.loads((tmp_path / "entropy_report.json").read_text())
    assert rep["entropy_rate"] == pytest.approx(1.0, abs=1e-6)
    assert rep["bias"] == pytest.approx(0.0, abs=1e-9)
    assert rep["lyapunov"] == pytest.approx(math.log(2), abs=1e-6)
    for name in ("density.csv", "sequence_table.csv", "manifest.json"):
        assert (tmp_path / name).exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "analyze"
    assert manifest["config"]["bins"] == 4096
    assert "analyze bernoulli" in capsys.readouterr().out


def test_analyze_example_depth10(tmp_path):
    assert run(tmp_path, "analyze", "--map", "example", "--depth", "10") == 0
    rep = json.loads((tmp_path / "entropy_report.json").read_text())
    assert rep["entropy_rate"] == pytest.approx(0.57, abs=0.02)
    assert rep["bias"] == pytest.approx(0.36, abs=0.01)


def test_analyze_depth_monotone(tmp_path):
    run(tmp_path / "a", "analyze", "--map", "example", "--depth", "3")
    run(tmp_path / "b", "analyze", "--map", "example", "--depth", "10")
    h3 = json.loads((tmp_path / "a" / "entropy_report.json").read_text())["entropy_rate"]
    h10 = json.loads((tmp_path / "b" / "entropy_report.json").read_text())["entropy_rate"]
    assert h3 >= h10


def test_analyze_reproducible_bytes(tmp_path):
    run(tmp_path / "r1", "analyze", "--map", "example", "--depth", "6", "--seed", "9")
    run(tmp_path / "r2", "analyze", "--map", "example", "--depth", "6", "--seed", "9")
    for name in ("density.csv", "sequence_table.csv", "entropy_report.json"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


def test_analyze_period_two_maps_converge(tmp_path):
    # both exited 3 when the power iteration had no lazy-chain fallback
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(SWAP_MAP))
    assert run(tmp_path / "swap", "analyze", "--map", str(path), "--depth", "6") == 0
    assert run(tmp_path / "dec", "analyze", "--map", "dec-bernoulli", "--param", "slope=1.3",
               "--bins", "65536", "--depth", "6") == 0


def test_analyze_custom_json_map(tmp_path):
    spec = {"label": "halfspeed",
            "branches": [
                {"kind": "affine", "domain": [0.0, 0.5], "slope": 2.0, "intercept": 0.0},
                {"kind": "affine", "domain": [0.5, 1.0], "slope": -2.0, "intercept": 2.0}]}
    path = tmp_path / "tentish.json"
    path.write_text(json.dumps(spec))
    assert run(tmp_path, "analyze", "--map", str(path), "--depth", "4") == 0
    rep = json.loads((tmp_path / "entropy_report.json").read_text())
    assert rep["entropy_rate"] == pytest.approx(1.0, abs=1e-6)


def test_analyze_with_params(tmp_path):
    assert run(tmp_path, "analyze", "--map", "dec-bernoulli",
               "--param", "slope=1.8", "--depth", "8") == 0
    rep = json.loads((tmp_path / "entropy_report.json").read_text())
    assert rep["lyapunov"] == pytest.approx(math.log(1.8), abs=1e-9)


def test_analyze_tailed_tent_depth16(tmp_path):
    # the forward path keeps a few hundred states where backward refinement
    # needs over 20M intervals at this depth
    assert run(tmp_path, "analyze", "--map", "tailed-tent", "--depth", "16") == 0
    lines = (tmp_path / "sequence_table.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 ** 17 - 2
    assert sum(int(line.split(",")[1]) for line in lines if len(line.split(",")[0]) == 16) < 2 ** 16


def test_analyze_certified_map_writes_exact_uniform_density(tmp_path):
    assert run(tmp_path, "analyze", "--map", "tailed-tent") == 0
    rows = (tmp_path / "density.csv").read_text().splitlines()[1:]
    assert len(rows) == 4096
    assert {row.split(",")[2] for row in rows} == {"1"}


# ---------------------------------------------------------------------------
# error exit codes

def test_exit_code_unknown_map(tmp_path, capsys):
    assert run(tmp_path, "analyze", "--map", "logistic") == 2
    assert "error" in capsys.readouterr().err


def test_exit_code_bad_depth(tmp_path):
    assert run(tmp_path, "analyze", "--map", "bernoulli", "--depth", "25") == 2


def test_exit_code_bad_bins(tmp_path):
    assert run(tmp_path, "analyze", "--map", "bernoulli", "--bins", "1000") == 2


def test_exit_code_bad_param(tmp_path):
    assert run(tmp_path, "analyze", "--map", "dec-bernoulli", "--param", "slope=big") == 2
    assert run(tmp_path, "analyze", "--map", "bernoulli", "--param", "slope") == 2


def test_exit_code_unknown_flag(tmp_path, capsys):
    assert main(["analyze", "--map", "bernoulli", "--wat"]) == 2
    capsys.readouterr()


def test_exit_code_format_on_subcommands_without_reports(tmp_path, capsys):
    # only postprocess and test write a summary report in either format
    assert run(tmp_path, "analyze", "--map", "example", "--format", "csv") == 2
    assert run(tmp_path, "generate", "--map", "example", "--count", "10",
               "--format", "csv") == 2
    assert run(tmp_path, "montecarlo", "--map", "zigzag", "--trials", "1",
               "--format", "csv") == 2
    assert "--format" in capsys.readouterr().err
    assert not (tmp_path / "entropy_report.json").exists()


def test_exit_code_missing_map_file(tmp_path):
    assert run(tmp_path, "analyze", "--map", "missing.json") == 2


def test_exit_code_map_with_nan_values(tmp_path, capsys):
    path = tmp_path / "nanlog.json"
    path.write_text(json.dumps(NANLOG))
    assert run(tmp_path, "analyze", "--map", str(path)) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_map_file_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"branches": [')
    assert run(tmp_path, "analyze", "--map", str(path)) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_map_file_without_branches(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"branches": []}')
    assert run(tmp_path, "analyze", "--map", str(path)) == 2
    assert "error:" in capsys.readouterr().err


def test_directory_named_like_builtin_does_not_shadow_it(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tent").mkdir()
    (tmp_path / "dir.json").mkdir()
    assert run(tmp_path / "out", "analyze", "--map", "tent", "--depth", "4") == 0
    assert run(tmp_path / "out", "analyze", "--map", "dir.json") == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_bad_montecarlo_spec(tmp_path, capsys):
    assert run(tmp_path, "montecarlo", "--map", "zigzag", "--trials", "0") == 2
    assert "error:" in capsys.readouterr().err
    assert run(tmp_path, "montecarlo", "--map", "zigzag", "--sigma", "-1") == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_missing_input_stream(tmp_path, capsys):
    missing = str(tmp_path / "missing.bin")
    assert run(tmp_path, "postprocess", "--algo", "von-neumann", "--input", missing) == 2
    assert "error:" in capsys.readouterr().err
    assert run(tmp_path, "test", "--input", missing) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_montecarlo_depth_zero(tmp_path, capsys):
    assert run(tmp_path, "montecarlo", "--map", "zigzag", "--trials", "5",
               "--depth", "0") == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_alpha_outside_unit_interval(tmp_path, capsys):
    run(tmp_path, "generate", "--map", "bernoulli", "--count", "50000")
    for alpha in ("2", "0", "1"):
        assert run(tmp_path, "test", "--input", str(tmp_path / "stream.bin"),
                   "--alpha", alpha) == 2, alpha
        assert "error:" in capsys.readouterr().err


def test_exit_code_negative_dither(tmp_path, capsys):
    assert run(tmp_path, "generate", "--map", "zigzag", "--count", "1000",
               "--dither", "-1") == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "stream.bin").exists()


def test_exit_code_insufficient_data(tmp_path):
    from chaosrng.postproc import BitStream, write_stream
    write_stream(tmp_path / "tiny.bin", BitStream(np.ones(100, dtype=np.uint8)))
    assert run(tmp_path, "test", "--input", str(tmp_path / "tiny.bin")) == 4


def test_exit_code_numeric_failure(tmp_path, capsys):
    # breakpoint jitter this large invalidates most trials, aborting the profile
    assert run(tmp_path, "montecarlo", "--map", "zigzag", "--trials", "10",
               "--sigma-break", "0.4") == 3
    assert "error" in capsys.readouterr().err


def test_help_documents_exit_codes(capsys):
    assert main(["--help"]) == 0
    assert "exit codes" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# generate / test / postprocess / montecarlo pipelines

def test_generate_then_test_pipeline(tmp_path, capsys):
    assert run(tmp_path, "generate", "--map", "example", "--count", "200000",
               "--seed", "3") == 0
    stream = tmp_path / "stream.bin"
    assert stream.exists()
    assert run(tmp_path, "test", "--input", str(stream)) == 0
    results = json.loads((tmp_path / "results.json").read_text())
    monobit = next(r for r in results if r["test"] == "monobit")
    assert monobit["pass"] is False and monobit["p_value"] < 1e-6


def test_generate_text_format(tmp_path):
    assert run(tmp_path, "generate", "--map", "bernoulli", "--count", "1000",
               "--out", "bits.txt") == 0
    text = (tmp_path / "bits.txt").read_text().strip()
    assert len(text) == 1000 and set(text) <= {"0", "1"}


def test_postprocess_von_neumann(tmp_path):
    run(tmp_path, "generate", "--map", "example", "--count", "400000", "--seed", "5")
    assert run(tmp_path, "postprocess", "--algo", "von-neumann",
               "--input", str(tmp_path / "stream.bin"), "--map", "example") == 0
    rep = json.loads((tmp_path / "rate_report.json").read_text())
    assert rep["rate"] == pytest.approx(0.11, abs=0.01)
    assert rep["rate_exact"] == pytest.approx(0.11, abs=0.01)
    assert rep["rate_bound"]["verdict"] == "PASS"
    assert (tmp_path / "post.bin").exists()


def test_postprocess_typical_set(tmp_path):
    run(tmp_path, "generate", "--map", "example", "--count", "100000", "--seed", "6")
    assert run(tmp_path, "postprocess", "--algo", "typical-set",
               "--input", str(tmp_path / "stream.bin"), "--map", "example",
               "--n", "10", "--epsilon", "0.1") == 0
    rep = json.loads((tmp_path / "rate_report.json").read_text())
    assert rep["k"] == 4 and rep["rate"] == pytest.approx(0.4)
    assert rep["rate_bound"]["verdict"] == "PASS"
    assert rep["output_bits"] == (100000 // 10) * 4


def test_postprocess_typical_set_needs_map(tmp_path):
    run(tmp_path, "generate", "--map", "bernoulli", "--count", "50000")
    assert run(tmp_path, "postprocess", "--algo", "typical-set",
               "--input", str(tmp_path / "stream.bin")) == 2


def test_postprocess_csv_report(tmp_path):
    run(tmp_path, "generate", "--map", "bernoulli", "--count", "50000")
    assert run(tmp_path, "postprocess", "--algo", "von-neumann",
               "--input", str(tmp_path / "stream.bin"), "--format", "csv") == 0
    lines = (tmp_path / "rate_report.csv").read_text().strip().split("\n")
    assert lines[0].startswith("algo,")
    assert len(lines) == 2


def test_montecarlo_command(tmp_path, capsys):
    assert run(tmp_path, "montecarlo", "--map", "zigzag", "--trials", "20",
               "--sigma", "0.01", "--seed", "1") == 0
    hist = json.loads((tmp_path / "histogram.json").read_text())
    assert hist["trials"] == 20 and hist["failures"] == 0
    assert hist["mean"] >= 0.9
    trials = (tmp_path / "trials.csv").read_text().strip().split("\n")
    assert len(trials) == 21
    assert "montecarlo zigzag" in capsys.readouterr().out


def test_test_command_csv_and_subset(tmp_path):
    run(tmp_path, "generate", "--map", "bernoulli", "--count", "50000", "--seed", "2")
    assert run(tmp_path, "test", "--input", str(tmp_path / "stream.bin"),
               "--tests", "monobit,runs", "--format", "csv") == 0
    lines = (tmp_path / "results.csv").read_text().strip().split("\n")
    assert lines[0] == "test,statistic,p_value,pass,alpha"
    assert len(lines) == 3


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# runtime dependencies

def _python(code, tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


def test_cli_import_loads_no_scipy(tmp_path):
    r = _python("import sys, chaosrng.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))", tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_all_subcommands_run_without_scipy(tmp_path):
    # a None entry in sys.modules makes every import of scipy fail
    code = """if True:
        import sys
        sys.modules["scipy"] = None
        from chaosrng.cli import main
        runs = [
            ["analyze", "--map", "example", "--depth", "6", "--out-dir", "a"],
            ["generate", "--map", "example", "--count", "40000", "--out-dir", "g"],
            ["postprocess", "--algo", "typical-set", "--map", "example", "--n", "10",
             "--input", "g/stream.bin", "--out-dir", "p"],
            ["test", "--input", "g/stream.bin", "--out-dir", "t"],
            ["montecarlo", "--map", "zigzag", "--trials", "5", "--depth", "6",
             "--out-dir", "m"],
        ]
        print([main(argv) for argv in runs])
    """
    r = _python(code, tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0, 0]"
