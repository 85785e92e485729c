import json
from pathlib import Path

import numpy as np
import pytest

from kothe.cli import _as_seminorm, load_scenario, main, parse_config
from kothe.duality import dual_spec_of

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *args):
    code = main([str(a) for a in args])
    out = capsys.readouterr().out.strip()
    return code, (json.loads(out) if out else None)


def test_norm_lp1(capsys):
    code, out = run(
        capsys, "norm", "--scenario", FIXTURES / "scenario_4132.csv", "--config", FIXTURES / "lp1.cfg"
    )
    assert code == 0
    assert out == {"schema": "1", "norm": 2.5}


def test_norm_marcinkiewicz(capsys):
    code, out = run(
        capsys,
        "norm",
        "--scenario",
        FIXTURES / "scenario_4132.csv",
        "--config",
        FIXTURES / "marcinkiewicz_sqrt.cfg",
    )
    assert code == 0
    assert out["norm"] == round(2.25 / np.sqrt(0.75), 9)


def test_norm_zero_column(capsys):
    code, out = run(
        capsys, "norm", "--scenario", FIXTURES / "scenario_zero.csv", "--config", FIXTURES / "lp2.cfg"
    )
    assert code == 0
    assert out["norm"] == 0.0


@pytest.mark.parametrize("scenario", sorted(FIXTURES.glob("scenario_*.csv")), ids=lambda p: p.stem)
def test_dual_prints_the_registered_closed_form(capsys, scenario):
    # every fixture config with a registered dual prints its closed form,
    # which the exact polar meets to the nine printed decimals
    space = load_scenario(scenario).space
    checked = []
    for cfg in sorted(FIXTURES.glob("*.cfg")):
        if dual_spec_of(space, _as_seminorm(parse_config(cfg, space.n_atoms))) is None:
            continue
        code, out = run(capsys, "dual", "--scenario", scenario, "--config", cfg)
        assert code == 0
        assert out["closed_form"] == out["polar"], cfg.stem
        checked.append(cfg.stem)
    assert {"avar_half", "entropic_one", "lp2", "lorentz_sqrt"} <= set(checked)


def test_dual_l2(capsys):
    code, out = run(
        capsys,
        "dual",
        "--scenario",
        FIXTURES / "scenario_l2unit.csv",
        "--config",
        FIXTURES / "lp2.cfg",
    )
    assert code == 0
    assert out["polar"] == 1.0
    assert out["closed_form"] == 1.0
    assert out["gap"] == 0.0


def test_dual_marcinkiewicz_indicator(capsys):
    code, out = run(
        capsys,
        "dual",
        "--scenario",
        FIXTURES / "scenario_indicator.csv",
        "--config",
        FIXTURES / "marcinkiewicz_sqrt.cfg",
    )
    assert code == 0
    assert out["polar"] == 0.5
    assert out["closed_form"] == 0.5
    assert out["gap"] == 0.0


def test_dual_l1_is_max(capsys):
    code, out = run(
        capsys, "dual", "--scenario", FIXTURES / "scenario_4132.csv", "--config", FIXTURES / "lp1.cfg"
    )
    assert code == 0
    assert out["polar"] == 4.0


def test_rearrange(capsys):
    code, out = run(capsys, "rearrange", "--scenario", FIXTURES / "scenario_4132.csv")
    assert code == 0
    assert out["breakpoints"] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert out["values"] == [4.0, 3.0, 2.0, 1.0]
    assert out["integrals"] == [0.0, 1.0, 1.75, 2.25, 2.5]


def test_rearrange_constant(capsys):
    code, out = run(capsys, "rearrange", "--scenario", FIXTURES / "scenario_zero.csv")
    assert code == 0
    assert out["values"] == [0.0]


def test_rearrange_two_point(capsys):
    code, out = run(capsys, "rearrange", "--scenario", FIXTURES / "scenario_twopoint.csv")
    assert code == 0
    assert out["breakpoints"] == [0.0, 0.25, 1.0]
    assert out["values"] == [2.0, 1.0]


def test_rearrange_round_trip(capsys):
    from kothe import FiniteProbSpace, Rv, quantile, quantile_integral

    code, out = run(capsys, "rearrange", "--scenario", FIXTURES / "scenario_4132.csv")
    assert code == 0
    space = FiniteProbSpace.uniform(4)
    q = quantile(space, Rv([4.0, 1.0, 3.0, 2.0]))
    for bp, integral in zip(out["breakpoints"], out["integrals"]):
        assert abs(quantile_integral(q, bp) - integral) <= 1e-12


def test_risk_avar(capsys):
    code, out = run(
        capsys,
        "risk",
        "--scenario",
        FIXTURES / "scenario_4132.csv",
        "--config",
        FIXTURES / "avar_half.cfg",
    )
    assert code == 0
    assert out["rho"] == 3.5
    assert out["norm"] == 3.5
    assert out["dual_norm"] == 2.5
    assert out["penalty_finite"] is False


def test_risk_avar_level_one_is_mean(capsys, tmp_path):
    cfg = tmp_path / "avar1.cfg"
    cfg.write_text("kind=avar\nlevel=1\n")
    code, out = run(
        capsys, "risk", "--scenario", FIXTURES / "scenario_4132.csv", "--config", cfg
    )
    assert code == 0
    assert out["rho"] == 2.5


def test_risk_entropic_constant(capsys, tmp_path):
    scenario = tmp_path / "const.csv"
    scenario.write_text("x\n3\n3\n3\n3\n")
    code, out = run(
        capsys, "risk", "--scenario", scenario, "--config", FIXTURES / "entropic_one.cfg"
    )
    assert code == 0
    assert out["rho"] == 3.0


def test_check_passes_on_builtins(capsys):
    for cfg in ("lp2.cfg", "marcinkiewicz_sqrt.cfg", "lorentz_sqrt.cfg", "luxemburg_power2.cfg"):
        code, out = run(
            capsys, "check", "--random", 8, "--seed", 7, "--config", FIXTURES / cfg
        )
        assert code == 0, (cfg, out)
        assert out["all_pass"] is True


def test_entropic_check_runs_no_line_search(capsys, monkeypatch):
    # the entropic ball is a modular set: the polar and the bipolar round
    # trips run on one Lagrange multiplier each, and the sandwich item's
    # infimal form and penalty gauge on cuts from penalty witnesses, never
    # on a line search
    import kothe._optim as optim
    import kothe.duality as duality
    import kothe.norms as norms

    def refuse(*args, **kwargs):
        raise AssertionError("a line search ran")

    monkeypatch.setattr(duality, "maximize_linear_on_ball", refuse)
    monkeypatch.setattr(norms, "minimize_scalar_convex", refuse)
    monkeypatch.setattr(optim, "golden_max_interval", refuse)
    code, out = run(capsys, "check", "--random", 8, "--seed", 3, "--config", FIXTURES / "entropic_one.cfg")
    assert code == 0, out
    bipolar = next(c for c in out["checks"] if c["name"] == "bipolar")
    assert bipolar["passed"]


def test_check_lp2_on_larger_random_scenario(capsys):
    code, out = run(
        capsys, "check", "--random", 50, "--seed", 7, "--config", FIXTURES / "lp2.cfg"
    )
    assert code == 0
    assert out["all_pass"] is True


def test_tol_sets_the_check_slacks(capsys):
    args = ("check", "--random", 8, "--seed", 7, "--config", FIXTURES / "luxemburg_power2.cfg")
    code, out = run(capsys, *args)
    assert code == 0 and out["all_pass"] is True
    # a negative slack fails every gated item whose worst case is above it;
    # the bipolar gap is never negative
    code, out = run(capsys, *args, "--tol", -1)
    assert code == 1
    gated = {c["name"]: c for c in out["checks"] if c["name"] in ("holder", "bipolar", "sandwich")}
    assert set(gated) == {"holder", "bipolar", "sandwich"}
    assert all(c["passed"] == (c["worst"] <= -1.0) for c in gated.values())
    assert not gated["bipolar"]["passed"]
    assert all(c["passed"] for c in out["checks"] if c["name"] not in gated)


@pytest.mark.parametrize("command", ["norm", "dual", "rearrange", "risk"])
def test_tol_is_refused_where_nothing_reads_it(capsys, command):
    args = [command, "--scenario", str(FIXTURES / "scenario_4132.csv"), "--tol", "1"]
    if command != "rearrange":
        args += ["--config", str(FIXTURES / "lp2.cfg")]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_check_fails_on_broken_spec(capsys):
    code, out = run(
        capsys,
        "check",
        "--random",
        8,
        "--seed",
        7,
        "--config",
        FIXTURES / "broken_signed_mean.cfg",
    )
    assert code == 1
    assert out["all_pass"] is False
    witnesses = [c.get("witness") for c in out["checks"] if not c["passed"]]
    assert any(w for w in witnesses)


def test_exit_code_parse_error(capsys):
    code = main(["norm", "--scenario", "/nonexistent.csv", "--config", str(FIXTURES / "lp1.cfg")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_exit_code_config_error(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("kind=unheard_of\n")
    code = main(
        ["norm", "--scenario", str(FIXTURES / "scenario_4132.csv"), "--config", str(bad)]
    )
    assert code == 3
    # a malformed number is a config error under every numeric key
    for text, key in [
        ("kind=lp\np=abc\n", "p"),
        ("kind=gen_orlicz\nphi=exp\ninner_kind=lorentz\ninner_param=abc\n", "inner_param"),
    ]:
        bad.write_text(text)
        code = main(["norm", "--scenario", str(FIXTURES / "scenario_4132.csv"), "--config", str(bad)])
        assert code == 3
        assert f"config value {key}='abc' is not a number" in capsys.readouterr().err


def test_exit_code_bad_column(capsys):
    code = main(
        [
            "norm",
            "--scenario",
            str(FIXTURES / "scenario_4132.csv"),
            "--config",
            str(FIXTURES / "lp1.cfg"),
            "--column",
            "missing",
        ]
    )
    assert code == 2


def test_exit_code_nonconvergence(capsys, monkeypatch):
    import kothe.cli as cli
    from kothe._optim import ConvergenceError

    def boom(*args, **kwargs):
        raise ConvergenceError("stalled")

    monkeypatch.setattr(cli, "polar", boom)
    code = main(
        ["dual", "--scenario", str(FIXTURES / "scenario_4132.csv"), "--config", str(FIXTURES / "lp2.cfg")]
    )
    assert code == 4


def test_random_scenario_requires_seed(capsys):
    code = main(["norm", "--random", "6", "--config", str(FIXTURES / "lp1.cfg")])
    assert code == 2


def test_prob_column_renormalization(capsys, tmp_path):
    scenario = tmp_path / "slightly_off.csv"
    # off by 1e-8: accepted with a warning, then renormalized
    scenario.write_text("prob,x\n0.25000001,4\n0.25,1\n0.25,3\n0.25,2\n")
    code = main(["norm", "--scenario", str(scenario), "--config", str(FIXTURES / "lp1.cfg")])
    captured = capsys.readouterr()
    assert code == 0
    assert "renormalizing" in captured.err
    assert json.loads(captured.out)["norm"] == pytest.approx(2.5, abs=1e-6)
    bad = tmp_path / "way_off.csv"
    bad.write_text("prob,x\n0.5,4\n0.1,1\n0.1,3\n0.1,2\n")
    code = main(["norm", "--scenario", str(bad), "--config", str(FIXTURES / "lp1.cfg")])
    assert code == 2


def test_gen_orlicz_config(capsys):
    code, out = run(
        capsys,
        "norm",
        "--scenario",
        FIXTURES / "scenario_4132.csv",
        "--config",
        FIXTURES / "gen_orlicz_lorentz.cfg",
    )
    assert code == 0
    assert out["norm"] > 0.0
