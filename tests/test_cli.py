import json

import numpy as np
import pytest

from phasefront.acsolver import read_field_dump
from phasefront.cli import cli_main

CUBIC = {"reaction": {"kind": "cubic"}, "diffusivity": {"kind": "identity"},
         "epsilon": 0.05}


@pytest.fixture()
def cubic_cfg(tmp_path):
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(CUBIC))
    return str(path)


def test_validate_pass(cubic_cfg, capsys):
    assert cli_main(["validate", "--config", cubic_cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["equipotential_max"] == 0.0


def test_validate_failing_model(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"reaction": {"kind": "shifted-cubic",
                                            "coeffs": [0.1]},
                               "diffusivity": {"kind": "identity"},
                               "epsilon": 0.05}))
    assert cli_main(["validate", "--config", str(cfg)]) == 2
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_unknown_flag_exits_3(cubic_cfg, capsys):
    assert cli_main(["simulate", "--config", cubic_cfg, "--nonsense"]) == 3
    assert cli_main(["frobnicate"]) == 3
    capsys.readouterr()


def test_missing_or_bad_config_exits_3(tmp_path, capsys):
    assert cli_main(["validate", "--config", str(tmp_path / "nope.json")]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["validate", "--config", str(bad)]) == 3
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps({**CUBIC, "surprise": 1}))
    assert cli_main(["validate", "--config", str(extra)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("shape", [
    "circle:R=abc",             # not a number
    "circle",                   # r missing
    "ellipse:a=0.2",            # b missing
    "circle:R=0.25,cx=nan",     # not finite
    "circle:R=-0.1",            # not positive
    "ellipse:a=0.2,b=0",
    "circle:R=0.25,q=1",        # unknown param
])
def test_malformed_shape_exits_3(cubic_cfg, tmp_path, capsys, shape):
    out = tmp_path / "front.csv"
    assert cli_main(["flow", "--mode", "front", "--config", cubic_cfg,
                     "--shape", shape, "--tend", "0.0001",
                     "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("config error: shape")
    assert not out.exists()


EXPERIMENT = {"model": CUBIC, "grid": {"n": 64}, "eps": [0.08],
              "shape": {"kind": "circle", "params": {"r": 0.25}},
              "times": {"t_end": 0.001, "checkpoints": [0.001]},
              "tol": {"eta_g": 0.1, "eta_p": 0.1, "m0_ceiling": 10}}


@pytest.mark.parametrize("path, name", [
    (("model",), "model"),
    (("model", "reaction"), "reaction"),
    (("model", "diffusivity"), "diffusivity"),
    (("model", "diffusivity", "params"), "diffusivity params"),
    (("grid",), "grid"),
    (("times",), "times"),
    (("tol",), "tol"),
    (("shape",), "shape"),
    (("shape", "params"), "shape params"),
], ids=lambda v: ".".join(v) if isinstance(v, tuple) else None)
def test_null_config_object_exits_3(tmp_path, capsys, path, name):
    cfg = json.loads(json.dumps(EXPERIMENT))
    owner = cfg
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = None
    (tmp_path / "exp.json").write_text(json.dumps(cfg))
    assert cli_main(["converge", "--config", str(tmp_path / "exp.json"),
                     "--out", str(tmp_path / "c")]) == 3
    assert capsys.readouterr().err == \
        f"config error: {name} must be a JSON object, got None\n"
    assert not (tmp_path / "c").exists()


_MISSING = object()


@pytest.mark.parametrize("path, value, message", [
    pytest.param(("eps",), None, "eps must be a list of numbers, got None",
                 id="eps-null"),
    pytest.param(("eps",), "0.04", "eps must be a list of numbers, got '0.04'",
                 id="eps-string"),
    pytest.param(("eps",), [0.08, True], "eps[1] must be a number, got True",
                 id="eps-bool"),
    pytest.param(("grid", "n"), None, "grid.n must be a number, got None",
                 id="grid.n-null"),
    pytest.param(("grid", "n"), 64.5, "grid.n must be a whole number, got 64.5",
                 id="grid.n-fraction"),
    pytest.param(("times", "t_end"), None, "times.t_end must be a number, got None",
                 id="t_end-null"),
    pytest.param(("times", "t_end"), _MISSING, "times is missing field 't_end'",
                 id="t_end-missing"),
    pytest.param(("times", "checkpoints"), None,
                 "times.checkpoints must be a list of numbers, got None",
                 id="checkpoints-null"),
    pytest.param(("tol", "eta_p"), None, "tol.eta_p must be a number, got None",
                 id="eta_p-null"),
    pytest.param(("markers",), None, "markers must be a number, got None",
                 id="markers-null"),
    pytest.param(("markers",), 128.5, "markers must be a whole number, got 128.5",
                 id="markers-fraction"),
    pytest.param(("model", "epsilon"), None,
                 "model epsilon must be a number, got None", id="epsilon-null"),
    pytest.param(("model", "reaction"), {"kind": "poly", "coeffs": None},
                 "reaction coeffs must be a list of numbers, got None",
                 id="poly-coeffs-null"),
    pytest.param(("model", "diffusivity"), {"kind": "identity", "params": {"dim": 2.5}},
                 "diffusivity dim must be a whole number, got 2.5", id="dim-fraction"),
    pytest.param(("model", "diffusivity"),
                 {"kind": "rotation-conjugated-diag",
                  "params": {"angle": None, "entries": [1.0, 2.0]}},
                 "diffusivity angle must be a number, got None", id="angle-null"),
    pytest.param(("model", "diffusivity"), {"kind": "diag", "params": {"entries": None}},
                 "diffusivity entries must be a nonempty list, got None",
                 id="entries-null"),
    pytest.param(("model", "diffusivity"),
                 {"kind": "diag", "params": {"entries": [1.0, "x"]}},
                 "diffusivity entries[1] must be a number, got 'x'", id="entry-string"),
    pytest.param(("model", "diffusivity"),
                 {"kind": "diag", "params": {"entries": [1.0, None]}},
                 "diffusivity entries[1] must be a number, got None", id="entry-null"),
    pytest.param(("model", "diffusivity"),
                 {"kind": "rotation-conjugated-diag",
                  "params": {"angle": 0.3, "entries": [1.0, [2.0, None]]}},
                 "diffusivity entries[1][1] must be a number, got None",
                 id="rotated-coefficient-null"),
    pytest.param(("model", "diffusivity"),
                 {"kind": "poly", "params": {"entries": [[1.0, 0.0], None]}},
                 "diffusivity entries[1] must be a nonempty list, got None",
                 id="poly-row-null"),
    pytest.param(("model", "diffusivity"),
                 {"kind": "poly", "params": {"entries": [[1.0, 0.0], [0.0, []]]}},
                 "diffusivity entries[1][1] must be a nonempty list, got []",
                 id="poly-coefficients-empty"),
    pytest.param(("model", "diffusivity"),
                 {"kind": "poly", "params": {"entries": [[1.0, 0.0], [0.0]]}},
                 "diffusivity entry matrix shape does not match dim",
                 id="poly-not-square"),
    pytest.param(("model", "diffusivity"), {"kind": "diag", "params": {}},
                 "diffusivity params is missing field 'entries'", id="entries-missing"),
    pytest.param(("model", "epsilon"), _MISSING, "model is missing field 'epsilon'",
                 id="epsilon-missing"),
    pytest.param(("model",), _MISSING, "config is missing field 'model'",
                 id="model-missing"),
    pytest.param(("shape", "params", "r"), "0.25",
                 "shape param 'r' must be a number, got '0.25'", id="shape-param-string"),
])
def test_malformed_config_number_exits_3(tmp_path, capsys, path, value, message):
    cfg = json.loads(json.dumps(EXPERIMENT))
    owner = cfg
    for key in path[:-1]:
        owner = owner[key]
    if value is _MISSING:
        del owner[path[-1]]
    else:
        owner[path[-1]] = value
    (tmp_path / "exp.json").write_text(json.dumps(cfg))
    assert cli_main(["converge", "--config", str(tmp_path / "exp.json"),
                     "--out", str(tmp_path / "c")]) == 3
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("path, name", [
    ((), "config"),
    (("model",), "model"),
    (("model", "reaction"), "reaction"),
    (("model", "diffusivity"), "diffusivity"),
    (("model", "diffusivity", "params"), "diffusivity params"),
    (("grid",), "grid"),
    (("times",), "times"),
    (("tol",), "tol"),
    (("shape",), "shape"),
    (("shape", "params"), "shape params"),
], ids=lambda v: ".".join(v) or "config" if isinstance(v, tuple) else None)
def test_unknown_config_field_exits_3(tmp_path, capsys, path, name):
    cfg = json.loads(json.dumps(EXPERIMENT))
    cfg["model"]["diffusivity"]["params"] = {"dim": 2}
    owner = cfg
    for key in path:
        owner = owner[key]
    owner["zz"] = 1
    (tmp_path / "exp.json").write_text(json.dumps(cfg))
    assert cli_main(["converge", "--config", str(tmp_path / "exp.json"),
                     "--out", str(tmp_path / "c")]) == 3
    assert capsys.readouterr().err == \
        f"config error: {name}: unknown {name} fields ['zz']\n"
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("path, name", [
    (("model", "reaction"), "reaction"),
    (("model", "diffusivity"), "diffusivity"),
    (("shape",), "shape"),
], ids=lambda v: ".".join(v) if isinstance(v, tuple) else None)
@pytest.mark.parametrize("kind", ["blob", None, ["circle"]], ids=["name", "null", "list"])
def test_unknown_config_kind_exits_3(tmp_path, capsys, path, name, kind):
    cfg = json.loads(json.dumps(EXPERIMENT))
    owner = cfg
    for key in path:
        owner = owner[key]
    owner["kind"] = kind
    (tmp_path / "exp.json").write_text(json.dumps(cfg))
    assert cli_main(["converge", "--config", str(tmp_path / "exp.json"),
                     "--out", str(tmp_path / "c")]) == 3
    assert capsys.readouterr().err == f"config error: unknown {name} kind {kind!r}\n"


@pytest.mark.parametrize("command", ["converge", "generation"])
def test_empty_eps_list_exits_3(tmp_path, capsys, command):
    cfg = {**EXPERIMENT, "eps": []}
    (tmp_path / "exp.json").write_text(json.dumps(cfg))
    assert cli_main([command, "--config", str(tmp_path / "exp.json"),
                     "--out", str(tmp_path / "c")]) == 3
    assert capsys.readouterr().err == "config error: epsilon list must not be empty\n"
    (tmp_path / "exp.json").write_text(json.dumps(EXPERIMENT))
    assert cli_main([command, "--config", str(tmp_path / "exp.json"),
                     "--eps", ",", "--out", str(tmp_path / "c")]) == 3
    assert capsys.readouterr().err == "config error: epsilon list must not be empty\n"
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("eps", ["inf", "nan", "0"])
def test_simulate_rejects_eps_not_finite_and_positive(cubic_cfg, tmp_path, capsys, eps):
    assert cli_main(["simulate", "--config", cubic_cfg, "--grid", "32",
                     "--eps", eps, "--tend", "0.001",
                     "--out-prefix", str(tmp_path / "run")]) == 3
    assert "epsilon must be finite and positive" in capsys.readouterr().err
    assert not list(tmp_path.glob("run*"))


@pytest.mark.parametrize("tol, code", [("nan", 3), ("inf", 3), ("0", 3), ("-1", 3),
                                       ("1e-8", 2), ("0.1", 0)])
def test_validate_tol_must_be_finite_and_positive(tmp_path, capsys, tol, code):
    # equipotential residual 0.0533: fails at 1e-8, passes at 0.1
    cfg = tmp_path / "diag.json"
    cfg.write_text(json.dumps({**CUBIC, "diffusivity": {
        "kind": "diag", "params": {"entries": [1.0, [1.0, 0.2]]}}}))
    assert cli_main(["validate", "--config", str(cfg), "--tol", tol]) == code
    captured = capsys.readouterr()
    if code == 3:
        assert captured.err == f"config error: tol must be finite and positive, got {float(tol)!r}\n"
        assert captured.out == ""


def test_fewer_than_8_markers_exits_3(cubic_cfg, tmp_path, capsys):
    out = tmp_path / "front.csv"
    assert cli_main(["flow", "--mode", "front", "--config", cubic_cfg,
                     "--tend", "0.0001", "--markers", "4", "--angles", "64",
                     "--out", str(out)]) == 3
    assert capsys.readouterr().err == "config error: markers must be at least 8, got 4\n"
    assert not out.exists()
    (tmp_path / "exp.json").write_text(json.dumps({**EXPERIMENT, "markers": 4}))
    assert cli_main(["converge", "--config", str(tmp_path / "exp.json"),
                     "--out", str(tmp_path / "c")]) == 3
    assert capsys.readouterr().err == "config error: markers must be at least 8, got 4\n"
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("kx, code", [(1.5, 3), (2, 0)])
def test_trig_wave_numbers_must_be_whole(tmp_path, capsys, kx, code):
    cfg = {**EXPERIMENT, "shape": {"kind": "trig",
                                   "params": {"amplitude": 0.5, "kx": kx}},
           "times": {"t_end": 0.005}}
    (tmp_path / "exp.json").write_text(json.dumps(cfg))
    assert cli_main(["generation", "--config", str(tmp_path / "exp.json")]) == code
    err = capsys.readouterr().err
    if code:
        assert err == "config error: shape 'trig' params ['kx'] must be whole numbers\n"


def test_profile_csv(cubic_cfg, tmp_path):
    out = tmp_path / "profile.csv"
    assert cli_main(["profile", "--config", cubic_cfg, "--e", "0,1",
                     "--zmax", "12", "--hz", "0.002", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "z,u0,u0z"
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    mid = len(data) // 2
    assert data[mid, 0] == 0.0 and abs(data[mid, 1]) < 1e-12
    assert np.all(np.diff(data[:, 1]) >= 0.0)


@pytest.mark.parametrize("e", ["0,0", "1", "1,0,0", "a,b", "nan,1", "inf,0"])
def test_profile_rejects_malformed_direction(cubic_cfg, tmp_path, capsys, e):
    out = tmp_path / "profile.csv"
    assert cli_main(["profile", "--config", cubic_cfg, "--e", e,
                     "--out", str(out)]) == 3
    assert "--e" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,name", [("--zmax", "z_max"), ("--hz", "h_z")],
                         ids=["zmax", "hz"])
def test_profile_rejects_non_finite_grid(cubic_cfg, tmp_path, capsys, flag, name):
    out = tmp_path / "profile.csv"
    assert cli_main(["profile", "--config", cubic_cfg, "--e", "1,0",
                     flag, "nan", "--out", str(out)]) == 3
    assert name in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_malformed_snapshots(cubic_cfg, tmp_path, capsys):
    assert cli_main(["simulate", "--config", cubic_cfg, "--grid", "64",
                     "--tend", "0.0002", "--snapshots", "0.1,x",
                     "--out-prefix", str(tmp_path / "run")]) == 3
    assert "--snapshots" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["flow", "--mode", "front", "--tend", "0.0005", "--dt", "nan"],
    ["flow", "--mode", "front", "--tend", "nan"],
    ["flow", "--mode", "levelset", "--tend", "nan"],
    ["simulate", "--tend", "nan"],
    ["simulate", "--tend", "0.0002", "--snapshots", "nan"],
], ids=["front-dt", "front-tend", "levelset-tend", "simulate-tend",
        "simulate-snapshot"])
def test_non_finite_times_exit_3_before_any_output(cubic_cfg, tmp_path, capsys, argv):
    size = ["--grid", "32", "--angles", "64", "--markers", "64",
            "--out", str(tmp_path / "out.csv")]
    if argv[0] == "simulate":
        size = ["--grid", "32", "--out-prefix", str(tmp_path / "run")]
    assert cli_main(argv + ["--config", cubic_cfg] + size) == 3
    assert "must be finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("out*")) and not list(tmp_path.glob("run*"))


def test_converge_rejects_malformed_eps(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "model": CUBIC, "grid": {"n": 64}, "eps": [0.08],
        "shape": {"kind": "circle", "params": {"r": 0.25}},
        "times": {"t_end": 0.001}}))
    assert cli_main(["converge", "--config", str(cfg), "--eps", "0.08,x"]) == 3
    assert "--eps" in capsys.readouterr().err


def test_mobility_csv(cubic_cfg, tmp_path):
    out = tmp_path / "mob.csv"
    assert cli_main(["mobility", "--config", cubic_cfg, "--angles", "64",
                     "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "theta,lambda,mu11,mu12,mu21,mu22"
    first = [float(v) for v in rows[1].split(",")]
    assert abs(first[1] - 2 * np.sqrt(2) / 3) < 1e-9
    assert abs(first[2] - 1.0) < 1e-9 and abs(first[5] - 1.0) < 1e-9


def test_simulate_outputs(cubic_cfg, tmp_path):
    prefix = tmp_path / "run"
    assert cli_main(["simulate", "--config", cubic_cfg, "--grid", "64",
                     "--eps", "0.05", "--tend", "0.0002",
                     "--snapshots", "0.0001",
                     "--shape", "circle:R=0.25",
                     "--out-prefix", str(prefix)]) == 0
    fld, eps = read_field_dump(str(prefix) + "_t0.000200")
    assert eps == 0.05
    assert fld.grid.n == 64
    contour = (str(prefix) + "_t0.000200_contour.csv")
    rows = open(contour).read().strip().splitlines()
    assert rows[0] == "x,y"
    pts = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    r = np.linalg.norm(pts - 0.5, axis=1)
    assert abs(r.mean() - 0.25) < 0.01


def test_flow_front_and_levelset(cubic_cfg, tmp_path):
    out = tmp_path / "front.csv"
    assert cli_main(["flow", "--mode", "front", "--config", cubic_cfg,
                     "--shape", "circle:R=0.25", "--tend", "0.0005",
                     "--markers", "128", "--angles", "64",
                     "--out", str(out)]) == 0
    pts = np.array([[float(v) for v in r.split(",")]
                    for r in out.read_text().strip().splitlines()[1:]])
    r = np.linalg.norm(pts - 0.5, axis=1)
    assert abs(r.mean() - np.sqrt(0.0625 - 0.001)) < 1e-3

    out2 = tmp_path / "ls.csv"
    assert cli_main(["flow", "--mode", "levelset", "--config", cubic_cfg,
                     "--shape", "circle:R=0.25", "--tend", "0.0002",
                     "--grid", "64", "--angles", "64",
                     "--out", str(out2)]) == 0
    assert out2.exists()
    fld, _ = read_field_dump(str(tmp_path / "ls_d"))
    assert fld.grid.n == 64


def test_generation_cli_and_determinism(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "model": CUBIC, "grid": {"n": 64}, "eps": [0.08],
        "shape": {"kind": "trig", "params": {"amplitude": 0.5}},
        "times": {"t_end": 0.005}, "tol": {"eta_g": 0.1, "eta_p": 0.1,
                                           "m0_ceiling": 10},
        "out": str(tmp_path / "g1")}))
    assert cli_main(["generation", "--config", str(cfg)]) == 0
    assert cli_main(["generation", "--config", str(cfg), "--out",
                     str(tmp_path / "g2")]) == 0
    capsys.readouterr()
    assert (tmp_path / "g1/report.json").read_bytes() == \
        (tmp_path / "g2/report.json").read_bytes()


def test_converge_cli(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "model": CUBIC, "grid": {"n": 64}, "eps": [0.08],
        "shape": {"kind": "circle", "params": {"r": 0.25}},
        "times": {"t_end": 0.001, "checkpoints": [0.001]},
        "tol": {"eta_g": 0.1, "eta_p": 0.1, "m0_ceiling": 10},
        "out": str(tmp_path / "c1")}))
    assert cli_main(["converge", "--config", str(cfg)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] is None and payload["passed"] is True
    assert (tmp_path / "c1/report.csv").exists()
