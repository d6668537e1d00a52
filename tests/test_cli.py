import csv
import warnings

import numpy as np
import pytest

from mlswe import cli
from mlswe.cli import main


def test_run_subcommand_writes_outputs(tmp_path, capsys):
    out = tmp_path / "iw"
    rc = main(["run", "internal_wave", "--dt", "0.04", "--t-final", "0.2",
               "--output-interval", "0.2", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "verdict=completed" in text
    snaps = sorted(out.glob("snapshot_*.csv"))
    assert len(snaps) == 2
    assert (out / "report.ini").exists() and (out / "case.ini").exists()


def test_run_subcommand_reports_instability(tmp_path, capsys):
    rc = main(["run", "internal_wave", "--dt", "0.2", "--t-final", "4.0",
               "--out", str(tmp_path / "bad")])
    assert rc == 2
    assert "verdict=unstable" in capsys.readouterr().out


def test_spectrum_subcommand(tmp_path):
    profile = tmp_path / "profile.ini"
    profile.write_text(
        "[profile]\nh = 1.0\ng = 9.81\nu = 0.2, 0.2\nrho = 0.0, 0.0\n"
        "l = 0.5, 0.5\n")
    out = tmp_path / "spec.csv"
    rc = main(["analyze", "spectrum", str(profile), "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["profile", "re_lambda", "im_lambda"]
    lam = np.array([complex(float(r[1]), float(r[2])) for r in rows[1:]])
    assert lam.size == 5
    c = np.sqrt(9.81)
    expected = np.sort([0.2 - c, 0.2, 0.2, 0.2, 0.2 + c])
    assert np.allclose(np.sort(lam.real), expected, atol=1e-10)
    assert np.allclose(lam.imag, 0.0, atol=1e-12)


def test_sweep_subcommand(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["analyze", "sweep", "--contrast-max", "4.0", "--points", "9",
               "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["shear", "max_im_lambda"]
    assert len(rows) == 10
    shear = [float(r[0]) for r in rows[1:]]
    assert shear[0] == 0.0 and shear[-1] == 4.0


def test_sweep_shows_loss_across_thin_middle_layer(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["analyze", "sweep", "--contrast-max", "1.0", "--points", "5",
               "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as f:
        rows = list(csv.reader(f))[1:]
    im = [float(r[1]) for r in rows]
    # no shear, no loss; a unit jump across the (0.45, 0.1, 0.45) stack
    # gives max |Im lambda| = 0.236
    assert im[0] == 0.0
    assert float(rows[-1][0]) == 1.0 and im[-1] > 0.2


def test_run_rejects_zero_time_step(tmp_path, capsys, monkeypatch):
    def no_run(spec):
        raise AssertionError("a run was started")

    monkeypatch.setattr(cli, "run_case", no_run)
    rc = main(["run", "lock_exchange", "--dt", "0", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "dt must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_run_takes_dt_or_ccel_not_both(tmp_path, capsys, monkeypatch):
    """--ccel used to drop --dt without a word."""
    def no_run(spec):
        raise AssertionError("a run was started")

    monkeypatch.setattr(cli, "run_case", no_run)
    with pytest.raises(SystemExit):
        main(["run", "lock_exchange", "--dt", "0.1", "--ccel", "0.9",
              "--out", str(tmp_path / "x")])
    assert "not allowed with argument --dt" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_run_layout_is_for_the_tidal_case_only(tmp_path, capsys, monkeypatch):
    """--layout used to be ignored, with exit 0, on the other cases."""
    names = []

    def no_run(spec):
        names.append(spec.name)
        raise ValueError("not run")

    monkeypatch.setattr(cli, "run_case", no_run)
    assert main(["run", "tidal", "--layout", "nvar4"]) == 1
    assert main(["run", "tidal"]) == 1
    assert names == ["tidal_nvar4", "tidal_uniform"]
    capsys.readouterr()
    rc = main(["run", "internal_wave", "--layout", "nvar4",
               "--out", str(tmp_path / "x")])
    assert rc == 1 and len(names) == 2
    assert "--layout applies to the tidal case only" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_compare_subcommand(tmp_path, capsys):
    out = tmp_path / "ref"
    assert main(["run", "internal_wave", "--dt", "0.04", "--t-final", "0.08",
                 "--output-interval", "0.04", "--out", str(out)]) == 0
    capsys.readouterr()
    rc = main(["compare", str(out), str(out)])
    assert rc == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    assert rows[0] == ["t", "field", "rel_l2", "rel_linf"]
    fields = {r[1] for r in rows[1:]}
    assert fields == {"eta", "rho", "u"}
    assert all(float(r[2]) == 0.0 and float(r[3]) == 0.0 for r in rows[1:])


def test_error_exit_code(tmp_path, capsys):
    rc = main(["analyze", "spectrum", str(tmp_path / "nosuch.ini")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, match", [
    ("l", "1.0, 0.0", "layer fractions must be positive"),
    ("g", "-9.81", "g must be positive")])
def test_spectrum_rejects_a_bad_profile(tmp_path, capsys, key, value, match):
    """A zero layer fraction used to end in numpy warnings and a LinAlgError,
    and a negative g in a printed spectrum and exit code 0."""
    values = {"h": "1.0", "g": "9.81", "u": "0.2, 0.2", "rho": "0.0, 0.0",
              "l": "0.5, 0.5", key: value}
    profile = tmp_path / "profile.ini"
    profile.write_text("[profile]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["analyze", "spectrum", str(profile)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert f"error: {match}" in captured.err


def test_unknown_case_rejected():
    with pytest.raises(SystemExit):
        main(["run", "nosuch_case"])
