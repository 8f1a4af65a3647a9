"""End-to-end tests of the command-line interface.

Each test calls main() with an argv list and checks the exit code and the
captured output, exactly as a shell user would see them.
"""
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mcrsp
from mcrsp import cli, engine, metrics, protocol
from mcrsp.cli import RunConfig, main, parse_config_text
from mcrsp.engine import MAX_TRIALS
from mcrsp.metrics import MAX_RESOLUTION
from mcrsp.oracle import default_derived_table


@pytest.fixture(autouse=True)
def in_tmp_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParseConfigText:
    def test_types_comments_and_blanks(self):
        values = parse_config_text(
            "# full comment\n"
            "\n"
            "alpha = 0.6  # trailing comment\n"
            "n_controllers = 2\n"
            "source = paper\n")
        assert values == {"alpha": 0.6, "n_controllers": 2, "source": "paper"}

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_text("volume = 11\n")

    def test_missing_separator(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config_text("alpha 0.5\n")

    def test_non_numeric_value(self):
        with pytest.raises(ValueError, match="numeric"):
            parse_config_text("alpha = fast\n")

    def test_line_number_in_message(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_config_text("alpha = 0.5\nbeta = 0.5\ntrials = soon\n")


class TestRunConfig:
    def test_defaults_build_canonical_run(self):
        config = RunConfig()
        target = config.target()
        assert target.alpha == 0.5 and target.phi2 == math.pi
        channels = config.channels()
        assert channels.n == 1 and channels.m == 1

    def test_rejects_unknown_source(self):
        with pytest.raises(ValueError, match="source"):
            RunConfig(source="folklore")

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="trials"):
            RunConfig(trials=0)
        with pytest.raises(ValueError, match="resolution"):
            RunConfig(resolution=1)
        with pytest.raises(ValueError, match="tolerance"):
            RunConfig(tolerance=-1.0)


class TestEnumerate:
    def test_default_run(self, tmp_path, capsys):
        assert main(["enumerate"]) == 0
        out = capsys.readouterr().out
        assert "wrote branches.csv" in out
        assert "branches=128" in out
        assert "ccc=6" in out
        assert "tsp=1.000000000000" in out
        assert "min_success_fidelity=1.000000000000" in out
        header = (tmp_path / "branches.csv").read_text().splitlines()[0]
        assert header == "ijpqgh,controller_bits,ancilla,probability,fidelity"

    def test_out_flag_redirects_csv(self, tmp_path, capsys):
        assert main(["enumerate", "--out", "custom.csv"]) == 0
        assert (tmp_path / "custom.csv").exists()
        assert "wrote custom.csv" in capsys.readouterr().out

    def test_no_controllers(self, tmp_path, capsys):
        config = write_config(tmp_path,
                              "n_controllers = 0\nm_controllers = 0\n")
        assert main(["enumerate", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "branches=32" in out
        assert "ccc=4" in out

    def test_paper_table_fails_verification(self, capsys):
        assert main(["enumerate", "--source", "paper"]) == 2
        captured = capsys.readouterr()
        assert "tsp=0.921875000000" in captured.out
        assert "deviates" in captured.err

    def test_inverted_channel_bound_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, "a0 = 0.6\na1 = 0.8\n")
        assert main(["enumerate", "--config", config]) == 1
        assert "bound" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, "volume = 11\n")
        assert main(["enumerate", "--config", config]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["enumerate", "--config", "no-such-file.cfg"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_unwritable_out_fails_before_the_walk(self, monkeypatch, capsys):
        def walk(*args, **kwargs):
            raise AssertionError("enumerate_branches ran before the output opened")

        monkeypatch.setattr(cli, "enumerate_branches", walk)
        assert main(["enumerate", "--out", "no-such-dir/b.csv"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_oversized_register_exits_1(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated past the size guard")

        monkeypatch.setattr(protocol, "tensor", refuse)
        monkeypatch.setattr(np, "kron", refuse)
        config = write_config(tmp_path, "n_controllers = 9\nm_controllers = 8\n")
        for command in ("enumerate", "mc"):
            assert main([command, "--config", config]) == 1
            assert "dense-register limit of 16" in capsys.readouterr().err

    def test_refused_run_keeps_an_existing_output(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated past the size guard")

        monkeypatch.setattr(protocol, "tensor", refuse)
        monkeypatch.setattr(np, "kron", refuse)
        existing = tmp_path / "branches.csv"
        existing.write_bytes(b"ijpqgh,controller_bits,ancilla,probability,fidelity\n")
        before = existing.read_bytes()
        config = write_config(tmp_path, "n_controllers = 9\nm_controllers = 8\n")
        assert main(["enumerate", "--config", config]) == 1
        assert "dense-register limit of 16" in capsys.readouterr().err
        assert existing.read_bytes() == before

    def test_wide_run_builds_no_branch_objects(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("built a BranchOutcome")

        monkeypatch.setattr(engine, "BranchOutcome", refuse)
        config = write_config(tmp_path, "n_controllers = 3\nm_controllers = 3\n")
        assert main(["enumerate", "--config", config]) == 0
        assert "branches=2048" in capsys.readouterr().out
        assert len((tmp_path / "branches.csv").read_text().splitlines()) == 2049

    def test_empty_channel_reports_no_fidelity(self, tmp_path, capsys):
        config = write_config(tmp_path, "a0 = 1\na1 = 0\n")
        assert main(["enumerate", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "tsp=0.000000000000" in out
        assert "min_success_fidelity=none" in out

    @pytest.mark.parametrize("text", ["a0 = 1\na1 = 0\n", "b0 = 1\nb1 = 0\n"],
                             ids=["a1-zero", "b1-zero"])
    def test_empty_channel_enumerates_and_samples_zero(self, tmp_path, capsys, text):
        config = write_config(tmp_path, text)
        assert main(["enumerate", "--config", config]) == 0
        assert capsys.readouterr().out == (
            "wrote branches.csv\nbranches=128\nccc=6\ntsp=0.000000000000\n"
            "min_success_fidelity=none\n")
        assert main(["mc", "--config", config, "--trials", "1000"]) == 0
        assert capsys.readouterr().out == (
            "trials=1000\nseed=42\ntsp_estimate=0.000000000000\n"
            "std_error=0.000000000000\n")


class TestMc:
    def test_exact_at_defaults(self, capsys):
        assert main(["mc", "--trials", "500"]) == 0
        out = capsys.readouterr().out
        assert "trials=500" in out
        assert "seed=42" in out
        assert "tsp_estimate=1.000000000000" in out
        assert "std_error=0.000000000000" in out

    def test_seeded_runs_are_reproducible(self, tmp_path, capsys):
        config = write_config(tmp_path, "a0 = 0.8944271909999159\n"
                                        "a1 = 0.4472135954999579\n")
        argv = ["mc", "--config", config, "--trials", "2000", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_flag_overrides_config(self, tmp_path, capsys):
        config = write_config(tmp_path, "trials = 50\n")
        assert main(["mc", "--config", config, "--trials", "77"]) == 0
        assert "trials=77" in capsys.readouterr().out

    def test_zero_estimate_of_a_small_tsp_passes(self, tmp_path, capsys):
        # tsp = 4 (0.03 / sqrt 2)^2 = 0.0018: 100 trials usually see no success,
        # and the estimate's own standard error is then 0.
        config = write_config(tmp_path, "a0 = 0.9995498987044118\na1 = 0.03\n")
        for seed in ("1", "2", "3", "4"):
            assert main(["mc", "--config", config, "--trials", "100",
                         "--seed", seed]) == 0
            out = capsys.readouterr().out
            assert "tsp_estimate=0.000000000000" in out
            assert "std_error=0.000000000000" in out

    def test_far_off_estimate_fails(self, tmp_path, monkeypatch, capsys):
        monte_carlo = cli.monte_carlo

        def far_off(*args, **kwargs):
            result = monte_carlo(*args, **kwargs)
            return replace(result, estimate=result.exact + 0.1)

        monkeypatch.setattr(cli, "monte_carlo", far_off)
        config = write_config(tmp_path, "a0 = 0.8944271909999159\n"
                                        "a1 = 0.4472135954999579\n")
        assert main(["mc", "--config", config]) == 2
        assert "standard errors" in capsys.readouterr().err

    def test_trials_over_the_limit_exit_1(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled past the trial limit")

        monkeypatch.setattr(engine, "enumerate_branches", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert main(["mc", "--trials", str(MAX_TRIALS + 1)]) == 1
        assert f"limit of {MAX_TRIALS}" in capsys.readouterr().err


class TestTable:
    def test_derivation_and_audit(self, tmp_path, capsys):
        assert main(["table", "--out", "tbl"]) == 0
        out = capsys.readouterr().out
        assert "mismatches=5" in out
        derived = (tmp_path / "tbl" / "derived_corrections.txt").read_text()
        assert derived == default_derived_table().to_text()
        diff_lines = (tmp_path / "tbl" / "table_diff.csv").read_text().splitlines()
        assert diff_lines[0] == "key,paper,derived,paper_layer_works"
        assert len(diff_lines) == 6
        assert all(line.endswith("false") for line in diff_lines[1:])


class TestMetrics:
    def test_writes_three_files(self, tmp_path, capsys):
        assert main(["metrics", "--out", "m", "--resolution", "9"]) == 0
        out = capsys.readouterr().out
        sweep = (tmp_path / "m" / "tsp_sweep.csv").read_text().splitlines()
        assert len(sweep) == 82
        curve = (tmp_path / "m" / "entropy_curve.csv").read_text().splitlines()
        assert len(curve) == 10
        comparison = (tmp_path / "m" / "comparison.csv").read_text().splitlines()
        assert len(comparison) == 9
        assert "Current scheme" in out
        assert "33.33%" in out

    def test_resolution_over_the_limit_exits_1(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("swept past the resolution limit")

        monkeypatch.setattr(metrics, "_axis", refuse)
        monkeypatch.setattr(metrics, "tsp_formula", refuse)
        argv = ["metrics", "--out", "m", "--resolution", str(MAX_RESOLUTION + 1)]
        assert main(argv) == 1
        assert f"limit of {MAX_RESOLUTION}" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()


class TestVerify:
    def test_acceptance_suite_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        passes = [line for line in out.splitlines() if line.startswith("PASS")]
        assert len(passes) == 11
        # The printed deviations are pinned byte for byte.
        assert out == (Path(__file__).parent / "verify_stdout.txt").read_text()


class TestArgumentErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        assert main([]) == 1

    def test_bad_flag_value(self, capsys):
        assert main(["mc", "--trials", "many"]) == 1

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        assert "enumerate" in capsys.readouterr().out


class TestModuleEntryPoint:
    @staticmethod
    def run_module(*args):
        src = str(Path(mcrsp.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src if not path else src + os.pathsep + path)
        return subprocess.run([sys.executable, "-m", "mcrsp.cli", *args],
                              env=env, capture_output=True, text=True,
                              timeout=120)

    def test_missing_subcommand_exits_1(self):
        assert self.run_module().returncode == 1

    def test_enumerate_writes_the_csv(self, tmp_path):
        out = tmp_path / "b.csv"
        result = self.run_module("enumerate", "--out", str(out))
        assert result.returncode == 0
        assert f"wrote {out}" in result.stdout
        assert len(out.read_text().splitlines()) == 129
