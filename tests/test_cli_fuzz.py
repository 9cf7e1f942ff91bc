"""CLI fuzzing: one config key or one measure file at a time set to an odd value.

Every run goes through cli.main in process, in a fresh working directory, with
small solver and dithering budgets. Whatever the input, no exception escapes
main, the exit code is 0, 1 or 2, an exit 1 names the config key or the file
at fault, and an exit 0 writes no non-finite value.
"""
import contextlib
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sinkdiv.cli import _PATH_KEYS, _SCHEMAS, main

BOX = {"lower": [0.0], "upper": [1.0]}
ABS = {"variant": "AbsDistance"}
GAUSS = {"variant": "Gaussian", "params": {"c": 0.5}}
SMOOTHED = {"variant": "SmoothedNegativeDistance", "params": {"c": 0.05}}
PAIR = {"mu": "mu.txt", "nu": "nu.txt", "box": BOX}
FILES = {"mu.txt": "0.5,0.1\n0.5,0.9\n", "nu.txt": "0.5,0.2\n0.5,0.7\n",
         "target.txt": "".join(f"1,{k / 19}\n" for k in range(20))}
BASES = {
    "s_eps": ("compute", {**PAIR, "kind": "s_eps", "cost": ABS, "epsilon": 0.5, "max_iter": 50}),
    "ot_eps": ("compute", {**PAIR, "kind": "ot_eps", "cost": ABS, "epsilon": 0.5, "max_iter": 50}),
    "ot_exact": ("compute", {**PAIR, "kind": "ot_exact", "cost": ABS}),
    "discrepancy": ("compute", {**PAIR, "kind": "discrepancy", "kernel": GAUSS}),
    "s_inf": ("compute", {**PAIR, "kind": "s_inf", "kernel": GAUSS}),
    "sweep": ("sweep", {**PAIR, "cost": ABS, "epsilons": [0.5, 1.0], "max_iter": 50,
                        "output": "sweep.csv"}),
    "dither": ("dither", {"target": "target.txt", "box": BOX, "cost": ABS, "M": 2,
                          "epsilon": 0.5, "max_outer_iter": 2, "inner_max_iter": 50,
                          "grad_tol": 1e-3, "output_positions": "positions.txt",
                          "output_trace": "trace.jsonl"}),
    "potentials": ("potentials", {**PAIR, "cost": ABS, "epsilon": 0.5, "max_iter": 50,
                                  "grid_points_per_axis": 4,
                                  **{key: f"{key}.txt" for key in ("output_phi", "output_psi",
                                                                    "output_diff",
                                                                    "output_witness")}}),
}
ODD_VALUES = [True, False, None, math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, 0, -1,
              2, [], [1.0], "abc", "", {}, {"variant": "Gaussian"}]
MALFORMED_FILES = ["", "# a comment only\n", "0.5,abc\n", "nan,0.5\n", "0.5\n",
                   "0.5,0.1\n0.5,0.2,0.3\n", "-1,0.5\n", "0,0.5\n", "1,2\n", "1,0.5,0.5\n",
                   "1e309,0.5\n", "1,nan\n", b"\xff\xfe\x00 not text\n"]
# every nested params entry of every kernel and cost variant, as (config key,
# variant, valid params, the entry set to an odd value); each kernel runs
# through compute discrepancy, and as the cost -K through s_eps and dither
KERNEL_PARAMS = [
    ("Gaussian", {"c": 0.5}, "c"),
    ("InverseMultiquadric", {"c": 0.5, "p": 0.5}, "c"),
    ("InverseMultiquadric", {"c": 0.5, "p": 0.5}, "p"),
    ("WendlandPower", {"p": 1}, "p"),
    ("ShiftedNegativeDistance", {"C": 2.0}, "C"),
    ("SmoothedNegativeDistance", {"c": 0.05}, "c"),
    ("CpdShifted", {"base": SMOOTHED, "anchor": [0.5]}, "base"),
    ("CpdShifted", {"base": SMOOTHED, "anchor": [0.5]}, "anchor"),
    ("SpectralKernel", {"alpha": [1.0, 0.5]}, "alpha"),
]
COST_PARAMS = [
    ("PowerDistance", {"p": 2.0}, "p"),
    ("NegatedKernel", {"kernel": GAUSS}, "kernel"),
]
PARAM_CASES = (
    [(base, variant, params, name) for variant, params, name in KERNEL_PARAMS
     for base in ("discrepancy", "s_eps", "dither")]
    + [(base, variant, params, name) for variant, params, name in COST_PARAMS
       for base in ("s_eps", "dither")]
)
# the measure file each base reads first
MEASURE_KEY = {name: "target" if command == "dither" else "mu"
               for name, (command, _) in BASES.items()}
FUZZ = settings(max_examples=4, derandomize=True, deadline=None, database=None)


def _run(command: str, config: dict, files: dict):
    """(exit code, stderr, {name: text} of the files written and stdout) of one run."""
    with tempfile.TemporaryDirectory() as work:
        home = os.getcwd()
        os.chdir(work)
        try:
            for name, text in files.items():
                with open(name, "wb") as handle:
                    handle.write(text if isinstance(text, bytes) else text.encode())
            with open("config.json", "w", encoding="utf-8") as handle:
                json.dump(config, handle)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--config", "config.json"])
            written = {path.name: path.read_text(encoding="utf-8") for path in Path(".").iterdir()
                       if path.name not in files and path.name != "config.json"}
        finally:
            os.chdir(home)
    written["<stdout>"] = out.getvalue()
    return code, err.getvalue(), written


def _non_finite(value, key=None) -> bool:
    """Whether a parsed JSON output holds a non-finite number; epsilon echoes the config."""
    if isinstance(value, dict):
        return any(_non_finite(item, name) for name, item in value.items())
    if key == "epsilon":
        return False
    return value in ("inf", "-inf", "nan") or (isinstance(value, float) and not math.isfinite(value))


def _assert_finite_outputs(written: dict):
    for name, text in written.items():
        lines = [line for line in text.splitlines() if line.strip() and not line.startswith("#")]
        if text.lstrip().startswith("{"):
            try:
                records = [json.loads(text)]
            except json.JSONDecodeError:
                records = [json.loads(line) for line in lines]
            assert not any(_non_finite(record) for record in records), name
            continue
        # a sweep table's first column is epsilon, whose last row is inf
        first = 1 if lines and lines[0].startswith("epsilon,") else 0
        for line in lines[first:]:
            fields = line.split(",")[first:]
            assert all(math.isfinite(float(field)) for field in fields), (name, line)


def _assert_contract(code: int, err: str, written: dict, names: list):
    assert code in (0, 1, 2), err
    if code == 1:
        assert any(re.search(rf"(?<!\w){re.escape(name)}(?!\w)", err) for name in names), err
    if code == 0:
        _assert_finite_outputs(written)


@pytest.mark.filterwarnings("ignore:target has:UserWarning")
@pytest.mark.parametrize("base, key", [(name, key) for name, (command, _) in BASES.items()
                                       for key in sorted(_SCHEMAS[command])])
@FUZZ
@given(value=st.sampled_from(ODD_VALUES))
# a smoothing whose square underflows escaped as a raw ValueError
@example(value=1e-200)
# an InverseMultiquadric whose (c^2)^(-p-1) overflows warned and gave a NaN Lipschitz bound
@example(value={"variant": "InverseMultiquadric", "params": {"c": 1e-150}})
def test_odd_config_value(base, key, value):
    command, config = BASES[base]
    code, err, written = _run(command, {**config, key: value}, FILES)
    # the file a path key names may be named instead of the key
    named_file = [value] if key in _PATH_KEYS and isinstance(value, str) and value else []
    _assert_contract(code, err, written, [key] + named_file)


@pytest.mark.filterwarnings("ignore:target has:UserWarning")
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(base=st.sampled_from(sorted(BASES)), text=st.sampled_from(MALFORMED_FILES))
def test_malformed_measure_file(base, text):
    command, config = BASES[base]
    name = config[MEASURE_KEY[base]]
    code, err, written = _run(command, config, {**FILES, name: text})
    _assert_contract(code, err, written, [name])


@pytest.mark.filterwarnings("ignore:target has:UserWarning")
@pytest.mark.parametrize("base, variant, params, name", PARAM_CASES,
                         ids=[f"{base}-{variant}.{name}" for base, variant, params, name in PARAM_CASES])
@FUZZ
@given(value=st.sampled_from(ODD_VALUES))
# a shift whose Gram double sums overflowed gave a NaN discrepancy
@example(value=1e308)
# a Gaussian width with a subnormal square warned on overflow
@example(value=1e-160)
# an anchor outside the box warned on overflow and gave a NaN discrepancy
@example(value=[1e308])
def test_odd_kernel_or_cost_parameter(base, variant, params, name, value):
    command, config = BASES[base]
    spec = {"variant": variant, "params": {**params, name: value}}
    key = "kernel" if base == "discrepancy" else "cost"
    if key == "cost" and variant not in ("PowerDistance", "NegatedKernel"):
        spec = {"variant": "NegatedKernel", "params": {"kernel": spec}}
    code, err, written = _run(command, {**config, key: spec}, FILES)
    # the message may name the variant, as a kernel without a gradient at
    # coincident points does when dithering
    _assert_contract(code, err, written, [key, name, variant])
