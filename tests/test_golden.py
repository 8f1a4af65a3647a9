"""Byte pins of the command-line outputs that the project's results rest on.

The branch CSVs are pinned by SHA-256 and the mc summaries by their exact
text, both recorded before the steps 1 to 3 walk was vectorized.  Any change
to a printed float, a row order or a record fails here, in tier 1, with no
manual diff.
"""
import hashlib

import pytest

from mcrsp.cli import main

# A target with signed and unequal amplitudes and three distinct phases, over
# channels with a negative a0 and b1.
SIGNED = ("alpha = 0.1\n"
          "beta = -0.3\n"
          "gamma = 0.5\n"
          "delta = -0.806225774829855\n"
          "phi0 = 0.3\n"
          "phi1 = 1.7\n"
          "phi2 = 4.1\n"
          "a0 = -0.8\n"
          "a1 = 0.6\n"
          "b0 = 0.9\n"
          "b1 = -0.435889894354067\n")
SIGNED_34 = SIGNED + "n_controllers = 3\nm_controllers = 4\n"

CSV_PINS = {
    "default": (
        "", (), 0,
        "f7b07f6c594045c4888f46397f4614be38041ef5ef60ceff0757111cc9288405"),
    "paper": (
        "", ("--source", "paper"), 2,
        "16b064125880e324565cc7e382d1f20aae0e2217255c15edd0095d03cae79371"),
    "n0-m3": (
        "n_controllers = 0\nm_controllers = 3\n", (), 0,
        "cd44161cf84d26d32310db4aa467fe28ddd8a71ee72de5e0684986a209d9bc92"),
    "signed-n3-m4": (
        SIGNED_34, (), 0,
        "30f1a7d42accf8111500d32b3b3dd47d67f98760e03d9fd93f1edaa6ca27358e"),
    "signed-n3-m4-paper": (
        SIGNED_34, ("--source", "paper"), 2,
        "21b2932b982f30ac378d57c6812a526b4a34d3d8b362c362899cf2296cbccc3b"),
}

MC_PINS = {
    "default": (
        "", (),
        "trials=10000\nseed=42\ntsp_estimate=1.000000000000\n"
        "std_error=0.000000000000\n"),
    "signed": (
        SIGNED, ("--seed", "7", "--trials", "5000"),
        "trials=5000\nseed=7\ntsp_estimate=0.278200000000\n"
        "std_error=0.006337266919\n"),
}


def _argv(tmp_path, command, config_text, flags):
    argv = [command, *flags]
    if config_text:
        path = tmp_path / "run.cfg"
        path.write_text(config_text, encoding="utf-8")
        argv += ["--config", str(path)]
    return argv


@pytest.mark.parametrize("name", list(CSV_PINS))
def test_branch_csv_bytes_are_pinned(name, tmp_path, capsys):
    config_text, flags, code, digest = CSV_PINS[name]
    out = tmp_path / "branches.csv"
    argv = _argv(tmp_path, "enumerate", config_text, flags) + ["--out", str(out)]
    assert main(argv) == code
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", list(MC_PINS))
def test_mc_stdout_is_pinned(name, tmp_path, capsys):
    config_text, flags, stdout = MC_PINS[name]
    assert main(_argv(tmp_path, "mc", config_text, flags)) == 0
    assert capsys.readouterr().out == stdout
