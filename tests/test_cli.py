import json
import os
from dataclasses import replace

import numpy as np
import pytest

from evopoisson import cli, payoff
from evopoisson.cli import main
from evopoisson.equilibrium import solve_equilibrium
from evopoisson.model import model_from_json
from evopoisson.payoff import PayoffEngine

LEARNING_CONFIG = {
    "lambda": 10, "beta": 5, "K": 10, "C": 4,
    "types": [{"r": 0.3, "delta": 10},
              {"r": 0.7, "delta": {"num": 51, "den": 10}}],
}

LOW_SPREAD_CONFIG = {
    "lambda": 10, "beta": 5, "K": 5, "C": 4, "convention": "literal",
    "types": [{"r": 0.1, "delta": 100}, {"r": 0.9, "delta": 25}],
}


@pytest.fixture
def low_spread_config(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(LOW_SPREAD_CONFIG))
    return str(path)


@pytest.fixture
def learning_config(tmp_path):
    path = tmp_path / "model6.json"
    path.write_text(json.dumps(LEARNING_CONFIG))
    return str(path)


def test_eq_headline(low_spread_config, capsys, tmp_path):
    out = tmp_path / "eq.csv"
    code = main(["--config", low_spread_config, "--out", str(out), "eq"])
    assert code == 0
    text = capsys.readouterr().out
    protection = float(
        [ln for ln in text.splitlines() if ln.startswith("protection")][0]
        .split()[1])
    assert protection == pytest.approx(0.13, abs=0.03)
    header, row = out.read_text().splitlines()
    assert header.split(",")[:2] == ["p_star", "protection_rate"]
    assert float(row.split(",")[1]) == pytest.approx(protection, rel=1e-10)


def test_eq_dominant_price(tmp_path, capsys):
    cfg = dict(LOW_SPREAD_CONFIG, C=6)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "eq"]) == 0
    assert "pure_off_dominant" in capsys.readouterr().out


def test_eq_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{this is not json")
    assert main(["--config", str(path), "eq"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_eq_overflowing_safe_mass_exits_4(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"lambda": 5000, "beta": 1, "K": 5, "C": 1,
                                "types": [{"r": 1.0, "delta": 2000}]}))
    assert main(["--config", str(path), "eq"]) == 4
    assert "numerical failure" in capsys.readouterr().err


def test_eq_truncated_coefficients_exits_4(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"lambda": 300, "beta": 1, "K": 5, "C": 1,
                                "types": [{"r": 1.0, "delta": 2000}]}))
    assert main(["--config", str(path), "eq"]) == 4
    captured = capsys.readouterr()
    assert "p_star" not in captured.out
    assert "underflow" in captured.err


def test_eq_missing_file():
    assert main(["--config", "/nonexistent/model.json", "eq"]) == 3


def test_safeset_cap_env(low_spread_config, monkeypatch):
    monkeypatch.setenv("EVOPOISSON_SAFESET_CAP", "10")
    assert main(["--config", low_spread_config, "eq"]) == 4


def _sweep_protection_rates(tmp_path, delta1):
    cfg = dict(LOW_SPREAD_CONFIG)
    cfg["types"] = [{"r": 0.1, "delta": delta1}, {"r": 0.9, "delta": 25}]
    path = tmp_path / f"m{delta1}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / f"sweep{delta1}.csv"
    code = main(["--config", str(path), "--out", str(out), "sweep",
                 "--sweep", "lambda=30:30:1", "--sweep", "r=0:1:41"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda,r,p_star,protection_rate,revenue[cost]"
    return np.array([float(ln.split(",")[3]) for ln in lines[1:]])


def test_sweep_r_confidence_contrast(tmp_path):
    # protection falls monotonically as resilient type-1 players replace
    # type-2 (provably: moving an arrival to the lower spreading weight can
    # only enlarge the safe event). The confidence effect shows up in the
    # pace: at tau1=0.05 the decline keeps accelerating toward the
    # homogeneous end, at tau1=0.1 it saturates.
    steep = _sweep_protection_rates(tmp_path, 100)   # tau1 = 0.05
    shallow = _sweep_protection_rates(tmp_path, 50)  # tau1 = 0.1
    for rates in (steep, shallow):
        assert np.all(np.diff(rates) < 1e-9)
    assert steep[-1] < shallow[-1] - 0.2
    d_steep = np.diff(steep)
    d_shallow = np.diff(shallow)
    assert d_steep[-1] / d_steep[0] > 3.0       # accelerating loss
    assert d_shallow[-1] / d_shallow[0] < 0.5   # decelerating loss


def test_sweep_empty_grid(low_spread_config):
    assert main(["--config", low_spread_config, "sweep",
                 "--sweep", "lambda=10:2:5"]) == 2
    assert main(["--config", low_spread_config, "sweep",
                 "--sweep", "nonsense"]) == 2
    for spec in ("tau9=1:2:3", "tau=1:2:3", "taux=1:2:3"):
        assert main(["--config", low_spread_config, "sweep",
                     "--sweep", spec]) == 2


def test_grid_enumerates_each_safe_set_once(tmp_path, low_spread_config,
                                            monkeypatch):
    calls = []
    enumerate_safe_set = payoff.enumerate_safe_set

    def counted(model, *args, **kwargs):
        calls.append(model)
        return enumerate_safe_set(model, *args, **kwargs)

    written = []

    def capture(path, header, rows, *args, **kwargs):
        written.append(rows)
        return path

    monkeypatch.setattr(payoff, "enumerate_safe_set", counted)
    monkeypatch.setattr(cli, "write_series", capture)
    assert main(["--config", low_spread_config, "sweep",
                 "--sweep", "lambda=2:30:29", "--sweep", "C=0.5:4.5:21"]) == 0
    assert len(calls) == 1
    assert main(["--out", str(tmp_path), "figure", "2"]) == 0
    assert len(calls) == 1 + 8     # once per type mix

    monkeypatch.setattr(payoff, "enumerate_safe_set", enumerate_safe_set)
    with open(low_spread_config) as fh:
        model = model_from_json(fh.read())
    rows = written[0]
    assert len(rows) == 29 * 21
    for lam, price, *rest in rows:
        cell = replace(model, lam=lam).with_cost(price)
        res = solve_equilibrium(PayoffEngine(cell))
        assert tuple(rest) == (res.p_star, 1.0 - res.p_star,
                               lam * (1.0 - res.p_star) * price)


def test_replicator_csv(tmp_path, low_spread_config):
    out = tmp_path / "path.csv"
    code = main(["--config", low_spread_config, "--out", str(out),
                 "replicator", "--p0", "0.3"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t_or_n,p"
    final = float(lines[-1].split(",")[1])
    assert final == pytest.approx(0.877065, abs=1e-4)


def test_revenue_grid(tmp_path, learning_config):
    out = tmp_path / "rev.csv"
    code = main(["--config", learning_config, "--out", str(out), "revenue",
                 "--n-points", "21"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "C[cost],p_star,revenue[cost]"
    assert len(lines) == 22
    assert float(lines[1].split(",")[2]) == 0.0   # C = 0
    assert float(lines[-1].split(",")[2]) == 0.0  # C = K


def test_spsa_trace(tmp_path, learning_config, capsys):
    out = tmp_path / "trace.csv"
    code = main(["--config", learning_config, "--out", str(out), "--seed",
                 "4", "spsa", "--n-outer", "60", "--c0", "1.5"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,C_n[cost],R_hat[cost],Delta_n,p_population"
    assert len(lines) == 61
    assert "final_price" in capsys.readouterr().out


def test_figure4_two_trajectories(tmp_path):
    out = tmp_path / "figs"
    code = main(["--out", str(out), "figure", "4"])
    assert code == 0
    files = sorted(os.listdir(out))
    assert files == ["figure4_trajectory_p0_0.3.csv",
                     "figure4_trajectory_p0_0.7.csv"]
    finals = []
    for name in files:
        lines = (out / name).read_text().splitlines()
        assert lines[0] == "t_or_n,p"
        finals.append(float(lines[-1].split(",")[1]))
    assert abs(finals[0] - finals[1]) < 1e-4


def test_figure2_columns(tmp_path):
    out = tmp_path / "figs"
    code = main(["--out", str(out), "figure", "2"])
    assert code == 0
    lines = (out / "figure2_protection_vs_lambda.csv").read_text().splitlines()
    assert lines[0] == "lambda,r,protection_rate"
    lams = sorted({float(ln.split(",")[0]) for ln in lines[1:]})
    assert lams[0] == 2.0 and lams[-1] == 30.0


def test_figure4_lam_zero_exits_2(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "figure", "4", "--lam", "0"]) == 2
    assert "lam must be positive" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_figure6_c0_zero_exits_2(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "figure", "6", "--c0", "0"]) == 2
    assert "c0 must lie in (0, K)" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_figure6_three_traces_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        code = main(["--out", str(out), "--seed", "0", "figure", "6",
                     "--n-outer", "40"])
        assert code == 0
    names = sorted(os.listdir(out_a))
    assert names == ["figure6_trace_inv_n.csv", "figure6_trace_inv_n_log_n.csv",
                     "figure6_trace_inv_n_sq.csv"]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_figure5_svg(tmp_path):
    out = tmp_path / "figs"
    code = main(["--format", "svg", "--out", str(out), "figure", "5"])
    assert code == 0
    svg = (out / "figure5_revenue_vs_price.svg").read_text()
    assert svg.startswith("<svg") and "<polyline" in svg


def test_csv_floats_have_12_significant_digits(tmp_path, low_spread_config):
    out = tmp_path / "eq.csv"
    main(["--config", low_spread_config, "--out", str(out), "eq"])
    row = out.read_text().splitlines()[1]
    p_star = row.split(",")[0]
    digits = p_star.replace(".", "").replace("-", "").lstrip("0")
    assert len(digits) == 12


def test_convention_flag(tmp_path, low_spread_config, capsys):
    assert main(["--config", low_spread_config, "--convention", "exclusive",
                 "eq"]) == 0
    assert "exclusive" in capsys.readouterr().out


def test_console_entry_point(low_spread_config):
    import shutil
    import subprocess
    exe = shutil.which("evopoisson")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--config", low_spread_config, "eq"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "p_star" in proc.stdout


def test_module_entry_point(low_spread_config):
    import subprocess
    import sys

    import evopoisson
    # the child runs the package this suite imports, installed or not
    src = os.path.dirname(os.path.dirname(evopoisson.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "evopoisson", "--config", low_spread_config,
         "eq"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "p_star" in proc.stdout
