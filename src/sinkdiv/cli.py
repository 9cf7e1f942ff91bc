"""Command-line front end.

Subcommands: compute, sweep, dither, potentials. Configuration comes from a
JSON file plus repeatable --set key=value overrides; outputs are CSV/JSON
plot data written atomically. Exit codes: 0 success, 1 configuration, input
or out-of-memory error (one line, never a traceback), 2 solver failure
(suppressed by --allow-partial).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, fields
from typing import get_type_hints

import numpy as np

from .discrepancy import discrepancy
from .dither import DitherConfig
from .dither import dither as run_dither
from .divergence import (
    epsilon_sweep,
    s_infinity,
    sinkhorn_divergence,
    sweep_epsilons,
    witness_from_limits,
    write_sweep_csv,
)
from .errors import ConfigError, SinkdivError
from .exact_ot import exact_ot
from .fileio import atomic_write_text
from .kernels import NegatedKernel, cost_from_spec, kernel_for_cost, kernel_from_spec
from .measures import BoundingBox, load_measure, save_potential, validate
from .sinkhorn import SinkhornConfig, extend_potentials, solve

_COMPUTE_KINDS = {"ot_exact", "ot_eps", "s_eps", "discrepancy", "s_inf"}

# allowed keys per command; unknown keys are rejected before any computation
_PAIR = {"mu", "nu", "box", "cost"}
_SOLVER = {f.name for f in fields(SinkhornConfig)}
# keys that name a file to read or write: open() would take an integer for a
# file descriptor and close it, so each must be a string before any is opened
_PATH_KEYS = {"mu", "nu", "target", "output", "output_positions", "output_trace",
              "output_phi", "output_psi", "output_diff", "output_witness"}
_SCHEMAS = {
    "compute": _PAIR | _SOLVER | {"kind", "kernel", "output"},
    "sweep": _PAIR | (_SOLVER - {"epsilon"}) | {"epsilons", "output"},
    "dither": {f.name for f in fields(DitherConfig)} | {
        "target", "box", "output_positions", "output_trace",
    },
    "potentials": _PAIR | _SOLVER | {
        "grid_points_per_axis", "output_phi", "output_psi", "output_diff", "output_witness",
    },
}


def _load_config(args) -> dict:
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set path {key!r} crosses a non-object value")
        node[parts[-1]] = value
    return config


def _validate_keys(command: str, config: dict):
    """ConfigError for a key the command does not take, or a path key that names no file."""
    allowed = _SCHEMAS[command]
    for key, value in config.items():
        if key not in allowed:
            raise ConfigError(f"unknown config key {key!r} for command {command!r}")
        if key in _PATH_KEYS and not (isinstance(value, str) and value):
            raise ConfigError(f"invalid {key!r}: {value!r} is not a path")


def _require(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"missing config key {key!r}")
    return config[key]


def _box_from(config) -> BoundingBox:
    spec = _require(config, "box")
    try:
        return BoundingBox(np.asarray(spec["lower"], float), np.asarray(spec["upper"], float))
    except (KeyError, TypeError, ValueError, SinkdivError) as exc:
        raise ConfigError(f"invalid box: {exc}") from exc


def _measure_from(config, key: str, box: BoundingBox):
    """The measure in the file named by config entry `key`, checked against the box."""
    path = _require(config, key)
    measure = load_measure(path)
    try:
        return validate(measure, box)
    except SinkdivError as exc:
        raise type(exc)(f"measure {key!r} in {path}: {exc}") from exc


def _coerce(key: str, value, kind: type):
    """value as an instance of kind (int or float); ConfigError naming key otherwise."""
    # int() and float() would read true as 1; int() would truncate 1.5 to 1
    fractional = isinstance(value, float) and not value.is_integer()
    if isinstance(value, bool) or (kind is int and fractional):
        raise ConfigError(f"invalid {key!r}: {value!r} is not {kind.__name__}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid {key!r}: {value!r} is not {kind.__name__}") from exc


def _dataclass_config(cls, config: dict, **given):
    """cls(**given) plus the config keys that name its other (int or float) fields.

    Each key is coerced to its field's annotated type, and a field with a
    default is passed only when its key is present, so the defaults live only
    in the dataclass. A missing key of a field without a default, or a value
    the dataclass rejects, is a ConfigError naming the field.
    """
    kwargs = dict(given)
    types = get_type_hints(cls)
    for f in fields(cls):
        if f.name not in given and (f.name in config or f.default is MISSING):
            kwargs[f.name] = _coerce(f.name, _require(config, f.name), types[f.name])
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def _grid_from(config, box: BoundingBox) -> np.ndarray:
    """The box's grid, grid_points_per_axis nodes per axis (default 64; at least 2, the ends)."""
    try:
        return box.grid(_coerce("grid_points_per_axis", config.get("grid_points_per_axis", 64), int))
    except ValueError as exc:
        raise ConfigError(f"invalid 'grid_points_per_axis': {exc}") from exc


def _from_spec(config, key: str, build, box: BoundingBox):
    """Kernel or cost built from the config entry `key`; a bad spec names the key."""
    spec = _require(config, key)
    try:
        return build(spec, box)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {key!r}: {exc!r}") from exc


def _json_value(value):
    """value with each non-finite float spelled "inf", "-inf" or "nan".

    RFC 8259 has no literal for them; "inf" is also how configs spell an
    infinite epsilon.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return str(float(value))
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    return value


def _json_text(payload, **kwargs) -> str:
    # allow_nan=False: a non-finite value that slips past _json_value raises
    return json.dumps(_json_value(payload), allow_nan=False, sort_keys=True, **kwargs)


def _emit_json(config, payload: dict):
    text = _json_text(payload, indent=2) + "\n"
    out = config.get("output")
    if out:
        atomic_write_text(out, text)
    else:
        sys.stdout.write(text)


def cmd_compute(config: dict, allow_partial: bool) -> int:
    _validate_keys("compute", config)
    kind = _require(config, "kind")
    if not isinstance(kind, str) or kind not in _COMPUTE_KINDS:
        raise ConfigError(f"unknown kind {kind!r}, expected one of {sorted(_COMPUTE_KINDS)}")
    box = _box_from(config)
    mu = _measure_from(config, "mu", box)
    nu = _measure_from(config, "nu", box)

    status = 0
    if kind == "discrepancy":
        kernel = _from_spec(config, "kernel", kernel_from_spec, box)
        result = discrepancy(kernel, mu, nu)
        value = result.value
        diagnostics = {"squared": result.squared}
    elif kind == "s_inf":
        kernel = _from_spec(config, "kernel", kernel_from_spec, box)
        value = s_infinity(NegatedKernel(kernel), mu, nu)
        diagnostics = {"d_squared": 2.0 * value}
    elif kind == "ot_exact":
        cost = _from_spec(config, "cost", cost_from_spec, box)
        result = exact_ot(cost, mu, nu)
        diagnostics = {
            "dual_value": result.dual_value,
            "marginal_error": result.plan.marginal_error(),
        }
        value = result.value
    else:  # ot_eps, s_eps
        cost = _from_spec(config, "cost", cost_from_spec, box)
        cfg = _dataclass_config(SinkhornConfig, config)
        if kind == "ot_eps":
            result = solve(cost, mu, nu, cfg)
            value = result.value
            diagnostics = dict(result.diagnostics(), converged=result.converged)
        else:
            result = sinkhorn_divergence(cost, mu, nu, cfg)
            value = result.s_eps
            diagnostics = {
                "epsilon": result.epsilon,
                "ot_mu_nu": result.ot_mu_nu,
                "ot_mu_mu": result.ot_mu_mu,
                "ot_nu_nu": result.ot_nu_nu,
                "term_converged": result.term_converged,
            }
        if not result.converged and not allow_partial:
            status = 2

    _emit_json(config, {"value": value, "kind": kind, "diagnostics": diagnostics})
    return status


def cmd_sweep(config: dict, allow_partial: bool) -> int:
    _validate_keys("sweep", config)
    box = _box_from(config)
    mu = _measure_from(config, "mu", box)
    nu = _measure_from(config, "nu", box)
    cost = _from_spec(config, "cost", cost_from_spec, box)
    try:
        epsilons = sweep_epsilons(config.get("epsilons"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid 'epsilons' {config['epsilons']!r}: {exc}") from exc
    cfg = _dataclass_config(SinkhornConfig, config, epsilon=1.0)
    records = epsilon_sweep(cost, mu, nu, epsilons=epsilons, cfg=cfg)
    write_sweep_csv(_require(config, "output"), records)
    if any(not r.converged for r in records) and not allow_partial:
        return 2
    return 0


def cmd_dither(config: dict, allow_partial: bool) -> int:
    _validate_keys("dither", config)
    box = _box_from(config)
    target = _measure_from(config, "target", box)
    cost = _from_spec(config, "cost", cost_from_spec, box)
    cfg = _dataclass_config(DitherConfig, config, cost=cost)
    state = run_dither(cfg, target)

    weights = np.full(cfg.M, 1.0 / cfg.M)
    save_potential(_require(config, "output_positions"), state.positions, weights)
    trace_lines = [_json_text(entry) for entry in state.trace]
    atomic_write_text(_require(config, "output_trace"), "\n".join(trace_lines) + "\n")
    summary = {
        "converged": state.converged,
        "energy": state.energy,
        "energy_evaluations": state.energy_evaluations,
        "inner_unconverged": state.inner_unconverged,
        "iterations": state.trace[-1]["iter"],
        "line_search_failed": state.line_search_failed,
    }
    sys.stdout.write(_json_text(summary) + "\n")
    # an unmet gradient tolerance and unconverged inner solves are reported
    # in the JSON, not via the exit code
    return 0


def cmd_potentials(config: dict, allow_partial: bool) -> int:
    _validate_keys("potentials", config)
    box = _box_from(config)
    mu = _measure_from(config, "mu", box)
    nu = _measure_from(config, "nu", box)
    cost = _from_spec(config, "cost", cost_from_spec, box)
    # the witness needs c = -K; checked before anything is solved or written
    kernel = kernel_for_cost(cost)
    grid = _grid_from(config, box)

    solution = solve(cost, mu, nu, _dataclass_config(SinkhornConfig, config))
    status = 0 if solution.converged or allow_partial else 2
    pair = solution.potentials
    # the solve's cost matrix is released before the witness builds its own
    del solution
    phi_grid, psi_grid = extend_potentials(cost, mu, nu, pair, grid)
    # a zero discrepancy raises here, before any output is written
    witness = witness_from_limits(kernel, mu, nu, grid)

    save_potential(_require(config, "output_phi"), mu.points, pair.phi)
    save_potential(_require(config, "output_psi"), nu.points, pair.psi)
    save_potential(_require(config, "output_diff"), grid, phi_grid - psi_grid)
    save_potential(_require(config, "output_witness"), grid, witness)
    return status


_COMMANDS = {
    "compute": cmd_compute,
    "sweep": cmd_sweep,
    "dither": cmd_dither,
    "potentials": cmd_potentials,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sinkdiv",
        description="Optimal transport, Sinkhorn divergences, discrepancies and dithering",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to the JSON run configuration")
        cmd.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config entry (dotted paths allowed, value parsed as JSON)",
        )
        cmd.add_argument("--allow-partial", action="store_true", dest="allow_partial")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        return _COMMANDS[args.command](config, args.allow_partial)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SinkdivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the array that did not fit
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())
