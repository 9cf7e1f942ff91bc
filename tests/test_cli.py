"""CLI subcommands: configs, outputs, exit codes, idempotency."""
import json
import math
import re
import warnings

import numpy as np
import pytest

from sinkdiv import AbsDistance, BoundingBox, load_measure, ot_infinity
from sinkdiv.cli import _json_text, main
from sinkdiv.measures import load_table


@pytest.fixture
def toy_files(tmp_path):
    mu = tmp_path / "mu.txt"
    nu = tmp_path / "nu.txt"
    mu.write_text("0.5,0\n0.5,1\n")
    nu.write_text("0.5,0.1\n0.5,0.9\n")
    return mu, nu


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


BOX_1D = {"lower": [0.0], "upper": [1.0]}
ABS_COST = {"variant": "AbsDistance"}


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def test_compute_ot_exact(tmp_path, toy_files, capsys):
    mu, nu = toy_files
    cfg = write_config(tmp_path, {
        "kind": "ot_exact", "mu": str(mu), "nu": str(nu),
        "box": BOX_1D, "cost": ABS_COST,
    })
    assert main(["compute", "--config", str(cfg)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "ot_exact"
    assert out["value"] == pytest.approx(0.1, abs=1e-12)

def test_compute_s_eps_identical_inputs(tmp_path, toy_files, capsys):
    mu, _ = toy_files
    cfg = write_config(tmp_path, {
        "kind": "s_eps", "mu": str(mu), "nu": str(mu),
        "box": BOX_1D, "cost": ABS_COST, "epsilon": 0.5,
    })
    assert main(["compute", "--config", str(cfg)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["value"]) <= 1e-8

def test_compute_s_inf_vs_discrepancy_identity(tmp_path, toy_files, capsys):
    mu, nu = toy_files
    kernel = {"variant": "Gaussian", "params": {"c": 0.5}}
    cfg_d = write_config(tmp_path, {
        "kind": "discrepancy", "mu": str(mu), "nu": str(nu),
        "box": BOX_1D, "kernel": kernel,
    }, "d.json")
    cfg_s = write_config(tmp_path, {
        "kind": "s_inf", "mu": str(mu), "nu": str(nu),
        "box": BOX_1D, "kernel": kernel,
    }, "s.json")
    assert main(["compute", "--config", str(cfg_d)]) == 0
    d_value = json.loads(capsys.readouterr().out)["value"]
    assert main(["compute", "--config", str(cfg_s)]) == 0
    s_value = json.loads(capsys.readouterr().out)["value"]
    assert s_value == pytest.approx(0.5 * d_value**2, abs=1e-12)

def test_compute_infinite_epsilon_is_the_limit(tmp_path, toy_files, capsys):
    mu, nu = toy_files
    base = {"mu": str(mu), "nu": str(nu), "box": BOX_1D}
    kernel = {"variant": "Gaussian", "params": {"c": 0.5}}

    def compute(name, payload):
        assert main(["compute", "--config", str(write_config(tmp_path, payload, name))]) == 0
        return json.loads(capsys.readouterr().out)

    out = compute("ot.json", {**base, "kind": "ot_eps", "cost": ABS_COST, "epsilon": "inf"})
    box = BoundingBox(np.array([0.0]), np.array([1.0]))
    assert out["value"] == ot_infinity(AbsDistance(box), load_measure(mu), load_measure(nu)).ot_inf
    assert out["diagnostics"]["iterations"] == 0 and out["diagnostics"]["converged"]

    s_eps = compute("s_eps.json", {**base, "kind": "s_eps", "epsilon": "inf", "cost": {
        "variant": "NegatedKernel", "params": {"kernel": kernel}}})["value"]
    s_inf = compute("s_inf.json", {**base, "kind": "s_inf", "kernel": kernel})["value"]
    assert s_eps == pytest.approx(s_inf, abs=1e-12)
    assert s_inf > 1e-3

def _reject_constant(name):
    raise ValueError(f"non-RFC 8259 JSON constant {name}")

def test_compute_infinite_epsilon_writes_strict_json(tmp_path, toy_files, capsys):
    # RFC 8259 has no Infinity or NaN; a non-finite float is the string "inf"
    mu, nu = toy_files
    cfg = write_config(tmp_path, {
        "kind": "ot_eps", "mu": str(mu), "nu": str(nu),
        "box": BOX_1D, "cost": ABS_COST, "epsilon": "inf",
    })
    assert main(["compute", "--config", str(cfg)]) == 0
    out = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert out["diagnostics"]["epsilon"] == "inf"
    assert math.isfinite(out["value"])

def test_json_text_spells_non_finite_floats():
    payload = {"a": math.inf, "b": {"c": -math.inf, "d": np.float64("nan"), "e": 1.5}}
    text = _json_text(payload)
    assert json.loads(text, parse_constant=_reject_constant) == {
        "a": "inf", "b": {"c": "-inf", "d": "nan", "e": 1.5}}

def test_compute_writes_output_file(tmp_path, toy_files):
    mu, nu = toy_files
    out_path = tmp_path / "result.json"
    cfg = write_config(tmp_path, {
        "kind": "ot_eps", "mu": str(mu), "nu": str(nu),
        "box": BOX_1D, "cost": ABS_COST, "epsilon": 1.0,
        "output": str(out_path),
    })
    assert main(["compute", "--config", str(cfg)]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["diagnostics"]["kappa"] > 0
    assert payload["diagnostics"]["iterations"] >= 1

def test_compute_unknown_key_rejected(tmp_path, toy_files, capsys):
    mu, nu = toy_files
    cfg = write_config(tmp_path, {
        "kind": "ot_exact", "mu": str(mu), "nu": str(nu),
        "box": BOX_1D, "cost": ABS_COST, "bogus": 1,
    })
    assert main(["compute", "--config", str(cfg)]) == 1
    assert "bogus" in capsys.readouterr().err

def test_compute_exit_two_when_not_converged(tmp_path, toy_files, capsys):
    mu, nu = toy_files
    rng = np.random.default_rng(0)
    big_mu = tmp_path / "big_mu.txt"
    big_nu = tmp_path / "big_nu.txt"
    for path in (big_mu, big_nu):
        pts = rng.random(20)
        w = rng.random(20) + 0.1
        path.write_text("\n".join(f"{wi},{xi}" for wi, xi in zip(w, pts)) + "\n")
    payload = {
        "kind": "ot_eps", "mu": str(big_mu), "nu": str(big_nu),
        "box": BOX_1D, "cost": ABS_COST, "epsilon": 1e-4, "max_iter": 10,
    }
    cfg = write_config(tmp_path, payload)
    assert main(["compute", "--config", str(cfg)]) == 2
    capsys.readouterr()
    assert main(["compute", "--config", str(cfg), "--allow-partial"]) == 0

def test_set_override(tmp_path, toy_files, capsys):
    mu, nu = toy_files
    cfg = write_config(tmp_path, {
        "kind": "ot_eps", "mu": str(mu), "nu": str(nu),
        "box": BOX_1D, "cost": ABS_COST, "epsilon": 1.0,
    })
    assert main(["compute", "--config", str(cfg), "--set", "epsilon=1000.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["diagnostics"]["epsilon"] == 1000.0
    assert out["value"] == pytest.approx(0.5, abs=1e-3)

def test_missing_config_file(tmp_path, capsys):
    assert main(["compute", "--config", str(tmp_path / "nope.json")]) == 1


def _base_config(tmp_path, command, mu, nu):
    if command == "compute":
        return {"kind": "s_eps", "mu": str(mu), "nu": str(nu), "box": BOX_1D,
                "cost": ABS_COST, "epsilon": 0.5}
    if command == "dither":
        return {"target": str(mu), "box": BOX_1D, "cost": ABS_COST, "M": 2,
                "epsilon": 0.5, "max_outer_iter": 2,
                "output_positions": str(tmp_path / "pos.txt"),
                "output_trace": str(tmp_path / "trace.jsonl")}
    if command == "sweep":
        return {"mu": str(mu), "nu": str(nu), "box": BOX_1D, "cost": ABS_COST,
                "epsilons": [0.5, 1.0], "output": str(tmp_path / "sweep.csv")}
    return {"mu": str(mu), "nu": str(nu), "box": BOX_1D, "cost": ABS_COST,
            "epsilon": 0.5, **{key: str(tmp_path / f"{key}.txt") for key in (
                "output_phi", "output_psi", "output_diff", "output_witness")}}


@pytest.mark.parametrize("command, override, key", [
    # values that do not coerce to the type of the field's default
    ("compute", "max_iter=abc", "max_iter"),
    ("dither", "seed=abc", "seed"),
    ("dither", "backtrack=x", "backtrack"),
    ("dither", "M=[2]", "M"),
    ("potentials", "grid_points_per_axis=abc", "grid_points_per_axis"),
    # int fields take integral numbers only; int() would truncate or read true as 1
    ("dither", "M=1.5", "M"),
    ("dither", "M=true", "M"),
    ("compute", "max_iter=2.7", "max_iter"),
    ("dither", "inner_max_iter=false", "inner_max_iter"),
    ("potentials", "grid_points_per_axis=2.5", "grid_points_per_axis"),
    # values the configuration dataclass rejects
    ("compute", "tol=-1", "tol"),
    ("compute", "tol=NaN", "tol"),
    ("dither", "M=0", "M"),
    ("dither", "backtrack=1.0", "backtrack"),
    ("dither", "sufficient_decrease=-0.5", "sufficient_decrease"),
    ("dither", "inner_tol=NaN", "inner_tol"),
    ("dither", "grad_tol=NaN", "grad_tol"),
    ("dither", "grad_tol=-1", "grad_tol"),
    ("dither", "initial_step=NaN", "initial_step"),
    ("dither", "initial_step=0", "initial_step"),
    ("compute", "max_iter=0", "max_iter"),
    ("dither", "inner_max_iter=0", "inner_max_iter"),
    ("dither", "max_outer_iter=-1", "max_outer_iter"),
    ("dither", "smoothing=-1", "smoothing"),
    ("dither", "smoothing=0", "smoothing"),
    ("dither", "smoothing=NaN", "smoothing"),
    # the smoothed kernel's rule: the width's square must be a positive float
    ("dither", "smoothing=1e-200", "smoothing"),
    ("dither", "smoothing=1e200", "smoothing"),
    ("compute", "epsilon=NaN", "epsilon"),
    ("compute", "epsilon=0", "epsilon"),
    ("compute", "epsilon=-1", "epsilon"),
    ("dither", "epsilon=0", "epsilon"),
    ("dither", "epsilon=-1", "epsilon"),
    ("potentials", "epsilon=0", "epsilon"),
    # the grid includes both endpoints of each axis
    ("potentials", "grid_points_per_axis=-1", "grid_points_per_axis"),
    ("potentials", "grid_points_per_axis=0", "grid_points_per_axis"),
    ("potentials", "grid_points_per_axis=1", "grid_points_per_axis"),
    # grids past the largest array numpy can index
    ("potentials", "grid_points_per_axis=1e30", "grid_points_per_axis"),
    ("potentials", f"grid_points_per_axis={2**63}", "grid_points_per_axis"),
    ("compute", "kind=[1]", "kind"),
    ("sweep", "epsilons=[1.0,0.5]", "epsilons"),
    ("sweep", "epsilons=abc", "epsilons"),
    ("sweep", "epsilons=[0.5,NaN]", "epsilons"),
    # a sweep with no finite epsilon would write only its epsilon = inf row
    ("sweep", "epsilons=[]", "epsilons"),
    # cost and kernel specs that cannot be built
    ("compute", "cost.variant=Foo", "cost"),
    ("compute", 'cost={"variant":"PowerDistance"}', "cost"),
    ("compute", "cost=5", "cost"),
    ("potentials", 'cost={"variant":"NegatedKernel","params":{}}', "cost"),
    # kernel and cost parameters must be finite (JSON reads 1e400 as infinity)
    ("compute", 'cost={"variant":"PowerDistance","params":{"p":NaN}}', "cost"),
    ("compute", 'cost={"variant":"PowerDistance","params":{"p":1e400}}', "cost"),
    ("compute", 'cost={"variant":"NegatedKernel","params":{"kernel":'
                '{"variant":"Gaussian","params":{"c":NaN}}}}', "cost"),
    ("compute", 'cost={"variant":"NegatedKernel","params":{"kernel":'
                '{"variant":"WendlandPower","params":{"p":1e400}}}}', "cost"),
    # widths whose square underflows to 0 or overflows (the value was NaN)
    ("compute", 'cost={"variant":"NegatedKernel","params":{"kernel":'
                '{"variant":"Gaussian","params":{"c":1e-300}}}}', "cost"),
    ("compute", 'cost={"variant":"NegatedKernel","params":{"kernel":'
                '{"variant":"Gaussian","params":{"c":1e200}}}}', "cost"),
    ("compute", 'cost={"variant":"NegatedKernel","params":{"kernel":'
                '{"variant":"InverseMultiquadric","params":{"c":1e-300}}}}', "cost"),
    # (c^2)^(-p-1) overflows: the Lipschitz bound was NaN
    ("compute", 'cost={"variant":"NegatedKernel","params":{"kernel":'
                '{"variant":"InverseMultiquadric","params":{"c":1e-150}}}}', "cost"),
    ("compute", 'cost={"variant":"NegatedKernel","params":{"kernel":'
                '{"variant":"InverseMultiquadric","params":{"c":0.01,"p":200}}}}', "cost"),
    # a path key must name a file
    ("compute", 'mu=""', "mu"),
    ("dither", 'output_trace=""', "output_trace"),
    # the positions are one (M, d) array
    ("dither", "M=1e300", "M"),
    # a spectral kernel needs at least alpha_0
    ("compute", 'cost={"variant":"NegatedKernel","params":{"kernel":'
                '{"variant":"SpectralKernel","params":{"alpha":[]}}}}', "cost"),
    # potentials are always normalized, so the old switch is an unknown key
    ("compute", "normalize=1", "normalize"),
    # float() would read true as 1 and false as 0
    ("compute", "epsilon=true", "epsilon"),
    ("compute", "tol=true", "tol"),
    ("dither", "grad_tol=false", "grad_tol"),
    # numpy's generators take only non-negative seeds
    ("dither", "seed=-3", "seed"),
    # a box with an infinite corner has no finite diameter or grid
    ("compute", "box.upper=[Infinity]", "box"),
    ("sweep", "box.lower=[-Infinity]", "box"),
    ("dither", "box.upper=[Infinity]", "box"),
    ("potentials", "box.upper=[Infinity]", "box"),
])
def test_bad_config_value_exits_one_naming_key(tmp_path, toy_files, capsys, command,
                                               override, key):
    mu, nu = toy_files
    cfg = write_config(tmp_path, _base_config(tmp_path, command, mu, nu))
    assert main([command, "--config", str(cfg), "--set", override]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert re.search(rf"\b{key}\b", err)

def test_negative_seed_flag_exits_one_naming_seed(tmp_path, toy_files, capsys):
    mu, nu = toy_files
    cfg = write_config(tmp_path, _base_config(tmp_path, "dither", mu, nu))
    assert main(["dither", "--config", str(cfg), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert re.search(r"\bseed\b", err)
    assert "Traceback" not in err

@pytest.mark.filterwarnings("ignore:target has:UserWarning")
@pytest.mark.parametrize("command, override", [
    ("compute", "max_iter=50.0"),
    ("dither", "M=2.0"),
])
def test_integral_float_accepted_for_int_key(tmp_path, toy_files, capsys, command, override):
    mu, nu = toy_files
    cfg = write_config(tmp_path, _base_config(tmp_path, command, mu, nu))
    assert main([command, "--config", str(cfg), "--set", override]) == 0

@pytest.mark.parametrize("line", ["nan,0.9", "inf,0.9", "0.5,nan", "0.5,-inf"])
@pytest.mark.parametrize("command", ["compute", "sweep", "potentials"])
def test_non_finite_measure_file_exits_one_naming_file(tmp_path, toy_files, capsys, command, line):
    mu, nu = toy_files
    bad = tmp_path / "bad.txt"
    bad.write_text(f"0.5,0.1\n{line}\n")
    cfg = write_config(tmp_path, _base_config(tmp_path, command, mu, nu))
    assert main([command, "--config", str(cfg), "--set", f"nu={bad}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite")
    assert str(bad) in err

def _measure_key(command):
    return "target" if command == "dither" else "nu"

@pytest.mark.parametrize("line", ["0.5,0.9,0.3", "abc,0.9", "0.5,0.9x", "0.5"])
@pytest.mark.parametrize("command", ["compute", "sweep", "dither", "potentials"])
def test_malformed_measure_file_exits_one_naming_file_and_line(tmp_path, toy_files, capsys,
                                                               command, line):
    mu, nu = toy_files
    bad = tmp_path / "bad.txt"
    bad.write_text(f"# header\n0.5,0.1\n{line}\n")
    cfg = write_config(tmp_path, _base_config(tmp_path, command, mu, nu))
    assert main([command, "--config", str(cfg), "--set", f"{_measure_key(command)}={bad}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{bad}:3" in err
    assert "Traceback" not in err

@pytest.mark.parametrize("lines, message", [
    ("0.5,0.1\n-0.5,0.9", "min weight"),
    ("0,0.1\n0,0.9", "sum to zero"),
])
def test_invalid_weights_exit_one_naming_file(tmp_path, toy_files, capsys, lines, message):
    mu, nu = toy_files
    bad = tmp_path / "bad.txt"
    bad.write_text(lines + "\n")
    cfg = write_config(tmp_path, _base_config(tmp_path, "compute", mu, nu))
    assert main(["compute", "--config", str(cfg), "--set", f"nu={bad}"]) == 1
    err = capsys.readouterr().err
    assert message in err and str(bad) in err

@pytest.mark.parametrize("lines, message", [
    # an atom outside the box [0, 1]
    ("0.5,0.1\n0.5,5.0", "outside the box"),
    ("0.5,0.1\n0.5,-1e-9", "outside the box"),
    # two-dimensional atoms under a one-dimensional box
    ("0.5,0.1,0.2\n0.5,0.3,0.4", "dimension"),
])
@pytest.mark.parametrize("command", ["compute", "sweep", "dither", "potentials"])
def test_measure_outside_box_exits_one_naming_key_and_file(tmp_path, toy_files, capsys,
                                                            command, lines, message):
    mu, nu = toy_files
    bad = tmp_path / "bad.txt"
    bad.write_text(lines + "\n")
    key = _measure_key(command)
    cfg = write_config(tmp_path, _base_config(tmp_path, command, mu, nu))
    assert main([command, "--config", str(cfg), "--set", f"{key}={bad}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"'{key}'" in err and str(bad) in err and message in err

def test_overflowing_cost_over_epsilon_exits_one_naming_epsilon(tmp_path, toy_files, capsys):
    # -C/eps overflows; the divergence was written as NaN with exit 0
    mu, nu = toy_files
    config = _base_config(tmp_path, "compute", mu, nu)
    config["cost"] = {"variant": "NegatedKernel", "params": {"kernel": {
        "variant": "ShiftedNegativeDistance", "params": {"C": 5e307}}}}
    config["epsilon"] = 0.1
    assert main(["compute", "--config", str(write_config(tmp_path, config))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and re.search(r"\bepsilon\b", err)

@pytest.mark.filterwarnings("ignore:target has:UserWarning")
def test_dither_cost_without_gradient_exits_one_naming_cost(tmp_path, toy_files, capsys):
    # a kernel with a kink at coincident points failed only at the first gradient
    mu, nu = toy_files
    config = _base_config(tmp_path, "dither", mu, nu)
    config["cost"] = {"variant": "NegatedKernel", "params": {"kernel": {
        "variant": "WendlandPower", "params": {"p": 1}}}}
    assert main(["dither", "--config", str(write_config(tmp_path, config))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and re.search(r"\bcost\b", err)
    assert not (tmp_path / "pos.txt").exists()

def test_kernel_spec_error_names_key(tmp_path, toy_files, capsys):
    mu, nu = toy_files
    cfg = write_config(tmp_path, {
        "kind": "discrepancy", "mu": str(mu), "nu": str(nu), "box": BOX_1D,
        "kernel": {"variant": "Gaussian", "params": {"c": -1.0}},
    })
    assert main(["compute", "--config", str(cfg)]) == 1
    assert "'kernel'" in capsys.readouterr().err

_PATH_KEY_CASES = [("compute", key) for key in ("mu", "nu", "output")] + [
    ("dither", key) for key in ("target", "output_positions", "output_trace")] + [
    ("potentials", key) for key in ("output_phi", "output_psi", "output_diff", "output_witness")]


# no boolean or small integer: open() would take it for an open file
# descriptor of the test process and close it
@pytest.mark.filterwarnings("ignore:target has:UserWarning")
@pytest.mark.parametrize("value", ["987654", "-1", "1.5", "[1]", "null", '{"a":1}'])
@pytest.mark.parametrize("command, key", _PATH_KEY_CASES, ids=[key for _, key in _PATH_KEY_CASES])
def test_non_string_path_key_exits_one_naming_key(tmp_path, toy_files, capsys, command, key,
                                                  value):
    mu, nu = toy_files
    cfg = write_config(tmp_path, _base_config(tmp_path, command, mu, nu))
    assert main([command, "--config", str(cfg), "--set", f"{key}={value}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"'{key}'" in err
    # checked before anything is read or written
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "mu.txt", "nu.txt"]

def test_base_configs_of_bad_value_cases_run(tmp_path, toy_files, capsys):
    # the bad-value cases above fail because of their override alone
    mu, nu = toy_files
    for command in ("compute", "sweep", "dither", "potentials"):
        cfg = write_config(tmp_path, _base_config(tmp_path, command, mu, nu), f"{command}.json")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main([command, "--config", str(cfg)]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_default_grid(tmp_path, toy_files):
    mu, nu = toy_files
    out_csv = tmp_path / "sweep.csv"
    cfg = write_config(tmp_path, {
        "mu": str(mu), "nu": str(nu), "box": BOX_1D, "cost": ABS_COST,
        "output": str(out_csv),
    })
    code = main(["sweep", "--config", str(cfg), "--allow-partial"])
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 27  # header + 25 finite + inf
    assert lines[0] == "epsilon,ot_eps,s_eps,phi_dist_inf,psi_dist_inf,iterations"
    assert lines[-1].startswith("inf,")
    ot_vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert np.all(np.diff(ot_vals) >= -1e-8)

def test_sweep_endpoints_match_compute(tmp_path, toy_files, capsys):
    mu, nu = toy_files
    out_csv = tmp_path / "sweep.csv"
    cfg = write_config(tmp_path, {
        "mu": str(mu), "nu": str(nu), "box": BOX_1D, "cost": ABS_COST,
        "epsilons": [1e-4, 1.0, 1e3], "output": str(out_csv),
    })
    assert main(["sweep", "--config", str(cfg)]) == 0
    rows = out_csv.read_text().strip().splitlines()[1:]
    first_ot = float(rows[0].split(",")[1])
    cfg_exact = write_config(tmp_path, {
        "kind": "ot_exact", "mu": str(mu), "nu": str(nu),
        "box": BOX_1D, "cost": ABS_COST,
    }, "exact.json")
    assert main(["compute", "--config", str(cfg_exact)]) == 0
    exact = json.loads(capsys.readouterr().out)["value"]
    assert first_ot == pytest.approx(exact, abs=5e-3)


# ---------------------------------------------------------------------------
# dither
# ---------------------------------------------------------------------------

def test_dither_outputs(tmp_path, capsys):
    rng = np.random.default_rng(1)
    target = tmp_path / "target.txt"
    pts = rng.random((40, 2)) * 2 - 1
    w = rng.random(40) + 0.2
    target.write_text(
        "\n".join(f"{wi},{x},{y}" for wi, (x, y) in zip(w, pts)) + "\n"
    )
    out_pos = tmp_path / "positions.txt"
    out_trace = tmp_path / "trace.jsonl"
    cfg = write_config(tmp_path, {
        "target": str(target),
        "box": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
        "cost": ABS_COST, "M": 4, "epsilon": "inf",
        "max_outer_iter": 20, "seed": 5,
        "output_positions": str(out_pos), "output_trace": str(out_trace),
    })
    assert main(["dither", "--config", str(cfg)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert "converged" in summary
    assert summary["inner_unconverged"] == 0
    weights, positions = load_table(out_pos)
    assert np.allclose(weights, 0.25)
    assert positions.shape == (4, 2)
    trace = [json.loads(line) for line in out_trace.read_text().strip().splitlines()]
    energies = [t["energy"] for t in trace]
    assert all(b <= a + 1e-14 for a, b in zip(energies, energies[1:]))
    assert set(trace[0]) == {"iter", "energy", "grad_norm", "step"}

@pytest.mark.filterwarnings("ignore:target has:UserWarning")
def test_dither_reports_energy_evaluations(tmp_path, toy_files, capsys):
    mu, nu = toy_files
    cfg = write_config(tmp_path, _base_config(tmp_path, "dither", mu, nu))
    # no outer step leaves the one evaluation at the seeded positions
    assert main(["dither", "--config", str(cfg), "--set", "max_outer_iter=0"]) == 0
    assert json.loads(capsys.readouterr().out)["energy_evaluations"] == 1
    assert main(["dither", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["energy_evaluations"] >= 2

@pytest.mark.filterwarnings("ignore:target has:UserWarning")
def test_dither_reports_unconverged_inner_solves(tmp_path, toy_files, capsys):
    mu, nu = toy_files
    cfg = write_config(tmp_path, _base_config(tmp_path, "dither", mu, nu))
    # one inner iteration cannot meet the inner tolerance; the exit code stays 0
    assert main(["dither", "--config", str(cfg), "--set", "inner_max_iter=1"]) == 0
    assert json.loads(capsys.readouterr().out)["inner_unconverged"] > 0

def test_dither_idempotent(tmp_path, capsys):
    rng = np.random.default_rng(2)
    target = tmp_path / "target.txt"
    pts = rng.random((30, 1))
    target.write_text("\n".join(f"1,{x}" for (x,) in pts) + "\n")
    outputs = []
    for run in range(2):
        out_pos = tmp_path / f"pos{run}.txt"
        out_trace = tmp_path / f"trace{run}.jsonl"
        cfg = write_config(tmp_path, {
            "target": str(target), "box": BOX_1D, "cost": ABS_COST,
            "M": 3, "epsilon": 1.0, "max_outer_iter": 5, "seed": 9,
            "inner_tol": 1e-8,
            "output_positions": str(out_pos), "output_trace": str(out_trace),
        }, f"cfg{run}.json")
        assert main(["dither", "--config", str(cfg)]) == 0
        capsys.readouterr()
        outputs.append(out_pos.read_text() + out_trace.read_text())
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

def test_potentials_non_kernel_cost_exits_one_before_writing(tmp_path, toy_files, capsys):
    mu, nu = toy_files
    config = _base_config(tmp_path, "potentials", mu, nu)
    config["cost"] = {"variant": "PowerDistance", "params": {"p": 2.0}}
    assert main(["potentials", "--config", str(write_config(tmp_path, config))]) == 1
    err = capsys.readouterr().err
    assert "PowerDistance" in err and "Traceback" not in err
    for key in ("output_phi", "output_psi", "output_diff", "output_witness"):
        assert not (tmp_path / f"{key}.txt").exists()

def test_potentials_zero_discrepancy_exits_one_before_writing(tmp_path, toy_files, capsys):
    # mu and nu name the same file, so D_K = 0 and the witness is undefined
    mu, _ = toy_files
    config = _base_config(tmp_path, "potentials", mu, mu)
    assert main(["potentials", "--config", str(write_config(tmp_path, config))]) == 1
    err = capsys.readouterr().err
    assert "witness" in err and "Traceback" not in err
    for key in ("output_phi", "output_psi", "output_diff", "output_witness"):
        assert not (tmp_path / f"{key}.txt").exists()

def test_potentials_out_of_memory_exits_one_without_traceback(tmp_path, toy_files, capsys,
                                                              monkeypatch):
    # a grid too large for memory fails in BoundingBox.grid; the stand-in
    # raises as numpy does, without allocating anything
    def grid(self, n_per_axis):
        raise MemoryError(f"Unable to allocate an array with shape ({n_per_axis}, 1)")

    monkeypatch.setattr(BoundingBox, "grid", grid)
    mu, nu = toy_files
    config = _base_config(tmp_path, "potentials", mu, nu)
    argv = ["potentials", "--config", str(write_config(tmp_path, config)),
            "--set", "grid_points_per_axis=200000"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate")
    assert err.count("\n") == 1 and "Traceback" not in err
    for key in ("output_phi", "output_psi", "output_diff", "output_witness"):
        assert not (tmp_path / f"{key}.txt").exists()

def test_potentials_dumps(tmp_path, toy_files):
    mu, nu = toy_files
    paths = {key: tmp_path / f"{key}.txt" for key in ("phi", "psi", "diff", "witness")}
    cfg = write_config(tmp_path, {
        "mu": str(mu), "nu": str(nu), "box": BOX_1D, "cost": ABS_COST,
        "epsilon": 1024.0, "grid_points_per_axis": 32,
        "output_phi": str(paths["phi"]), "output_psi": str(paths["psi"]),
        "output_diff": str(paths["diff"]), "output_witness": str(paths["witness"]),
    })
    assert main(["potentials", "--config", str(cfg)]) == 0
    phi, mu_pts = load_table(paths["phi"])
    assert phi.shape == (2,)

    # the dumped potential satisfies the normalization pairing
    mu_weights = np.array([0.5, 0.5])
    cfg_inf = write_config(tmp_path, {
        "mu": str(mu), "nu": str(nu), "box": BOX_1D, "cost": ABS_COST,
        "epsilon": "inf", "grid_points_per_axis": 32,
        "output_phi": str(tmp_path / "phi_inf.txt"),
        "output_psi": str(tmp_path / "psi_inf.txt"),
        "output_diff": str(tmp_path / "diff_inf.txt"),
        "output_witness": str(tmp_path / "witness_inf.txt"),
    }, "inf.json")
    assert main(["potentials", "--config", str(cfg_inf)]) == 0
    phi_inf, _ = load_table(tmp_path / "phi_inf.txt")
    # 0.5 * OT_inf = 0.25 for this instance
    assert float(phi @ mu_weights) == pytest.approx(0.25, abs=1e-10)
    assert np.max(np.abs(phi - phi_inf)) < 1e-3

    # the dumped limit difference, normalized by the discrepancy, equals the
    # witness on the grid; hand double-sum: D^2 = -0.5 - 0.4 + 2 * 0.5 = 0.1
    diff, _ = load_table(tmp_path / "diff_inf.txt")
    witness, _ = load_table(tmp_path / "witness_inf.txt")
    d_value = math.sqrt(0.1)
    assert np.max(np.abs(diff / d_value - witness)) <= 1e-9
