"""The benchmark workloads: seeded inputs, the CLI commands of one round, and
the checks every command's output must pass.

sweep_small is thousands of cold solves on 20x20 blocks, so iteration counts
and per-call overhead dominate, and it is the only workload that sweeps.
compute_large is a few solves over a dense 1500x1500 cost, so the cost per
half-step, plan extraction, the grid extension and memory dominate; its round
also solves one 20-atom pair with the exact LP. dither_finite is
warm-started solves on 900x50 and 50x50 blocks, where per-solve fixed costs
and the envelope gradient matter. dither_inf never calls the Sinkhorn solver;
kernels and discrepancy do the work, so a solver optimisation should predict
no change there. dither runs both dithering commands in one round.

The inputs are a pure function of the workload seed; the program receives
only the files written here.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

UNIT_BOX = {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}
SQUARE_BOX = {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}
ABS_DISTANCE = {"variant": "AbsDistance"}

SWEEP_PAIRS = 8
SWEEP_ATOMS = 20
LARGE_ATOMS = 1500
LARGE_EPSILON = 0.1
GRID_PER_AXIS = 64
DITHER_M = 50
SWEEP_HEADER = "epsilon,ot_eps,s_eps,phi_dist_inf,psi_dist_inf,iterations"
SWEEP_EPSILONS = np.logspace(-4, 3, 25)
# converged transport values agree with their ordering up to solver tolerance
VALUE_TOL = 1e-9


@dataclass(frozen=True)
class Command:
    """One CLI invocation; outputs are redirected into a per-round directory."""

    label: str
    kind: str
    config: str
    outputs: tuple
    overrides: tuple = ()

    def argv(self, out_dir: str) -> list:
        argv = [self.kind, "--config", self.config]
        for item in self.overrides:
            argv += ["--set", item]
        for key, name in self.outputs:
            argv += ["--set", f"{key}={out_dir}/{name}"]
        return argv


@dataclass
class Outcome:
    """What one executed command produced, as the checks see it."""

    command: Command
    out_dir: str
    exit_code: int
    stdout: str
    sweep_converged: list | None = None
    problems: list = field(default_factory=list)
    # converged flags of the Sinkhorn-backed result records this command produced
    records: list = field(default_factory=list)
    energy: float | None = None

    def path(self, key: str) -> str:
        return os.path.join(self.out_dir, dict(self.command.outputs)[key])


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=1)


def _write_measure(path, points, weights):
    with open(path, "w", encoding="utf-8") as handle:
        for w, row in zip(weights, points):
            handle.write(",".join(f"{v:.17g}" for v in (w, *row)) + "\n")


def _random_measure(path, rng, n):
    _write_measure(path, rng.random((n, 2)), rng.random(n) + 0.1)


def _read_rows(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as handle:
        rows = [line.split(",") for line in handle if line.strip() and not line.startswith("#")]
    return np.array(rows, dtype=float).reshape(len(rows), -1)


class Workload:
    name = ""
    # kinds or labels of the commands whose latencies make up cmd_p50_s
    p50_commands = ()

    def prepare(self, seed: int):
        """Write inputs and configs under in/; set self.commands and self.warmup."""
        raise NotImplementedError

    def check(self, outcome: Outcome):
        """Append problems to outcome.problems and fill outcome.records."""
        raise NotImplementedError

    def expected_exit(self, outcome: Outcome) -> int:
        return 0


class SweepSmall(Workload):
    name = "sweep_small"
    p50_commands = ("sweep",)

    def prepare(self, seed):
        rng = np.random.default_rng(seed)
        self.commands = []
        for k in range(SWEEP_PAIRS):
            mu, nu = f"in/mu{k}.txt", f"in/nu{k}.txt"
            _random_measure(mu, rng, SWEEP_ATOMS)
            _random_measure(nu, rng, SWEEP_ATOMS)
            base = {"mu": mu, "nu": nu, "box": UNIT_BOX, "cost": ABS_DISTANCE}
            _write_json(f"in/exact{k}.json", {**base, "kind": "ot_exact"})
            _write_json(f"in/sweep{k}.json", base)
            self.commands.append(Command(f"exact.{k}", "compute", f"in/exact{k}.json",
                                         (("output", f"exact{k}.json"),)))
            self.commands.append(Command(f"sweep.{k}", "sweep", f"in/sweep{k}.json",
                                         (("output", f"sweep{k}.csv"),)))
        self.warmup = self.commands[0]
        self._exact = {}

    def expected_exit(self, outcome):
        if outcome.command.kind == "sweep" and not all(outcome.sweep_converged or [True]):
            return 2
        return 0

    def check(self, outcome):
        label = outcome.command.label
        k = label.split(".")[1]
        if outcome.command.kind == "compute":
            with open(outcome.path("output"), encoding="utf-8") as handle:
                value = json.load(handle)["value"]
            if not math.isfinite(value):
                outcome.problems.append(f"{label}: exact value {value} not finite")
            self._exact[k] = value
            return
        with open(outcome.path("output"), encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        if not lines or lines[0] != SWEEP_HEADER:
            outcome.problems.append(f"{label}: sweep header {lines[:1]}")
            return
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != len(SWEEP_EPSILONS) + 1:
            outcome.problems.append(f"{label}: {len(rows)} sweep rows, expected 26")
            return
        flags = outcome.sweep_converged
        if flags is None or len(flags) != len(rows):
            outcome.problems.append(f"{label}: converged flags {flags} do not match the rows")
            return
        outcome.records = list(flags)
        eps = [float(r[0]) for r in rows]
        if not np.array_equal(eps[:-1], SWEEP_EPSILONS) or not math.isinf(eps[-1]):
            outcome.problems.append(f"{label}: epsilon column differs from the default grid")
        exact = self._exact.get(k)
        # ot_eps of the rows flagged converged, the terminal inf row included
        converged_ot = [float(r[1]) for r, ok in zip(rows, flags) if ok]
        if any(b < a - VALUE_TOL for a, b in zip(converged_ot, converged_ot[1:])):
            outcome.problems.append(f"{label}: converged ot_eps decreases in epsilon")
        if exact is None:
            outcome.problems.append(f"{label}: no ot_exact value to compare against")
        elif converged_ot and min(converged_ot) < exact - VALUE_TOL:
            outcome.problems.append(f"{label}: ot_eps {min(converged_ot)} below ot_exact {exact}")
        if not all(math.isfinite(float(v)) for r in rows for v in r[1:]):
            outcome.problems.append(f"{label}: non-finite sweep value")


class ComputeLarge(Workload):
    name = "compute_large"
    p50_commands = ("s_eps", "potentials")

    def prepare(self, seed):
        rng = np.random.default_rng(seed)
        _random_measure("in/mu.txt", rng, LARGE_ATOMS)
        _random_measure("in/nu.txt", rng, LARGE_ATOMS)
        # a small pair for the untimed warm-up command
        _random_measure("in/warm_mu.txt", rng, 100)
        _random_measure("in/warm_nu.txt", rng, 100)
        # and a sweep-sized pair for the exact LP
        _random_measure("in/exact_mu.txt", rng, SWEEP_ATOMS)
        _random_measure("in/exact_nu.txt", rng, SWEEP_ATOMS)
        base = {"box": UNIT_BOX, "cost": ABS_DISTANCE, "epsilon": LARGE_EPSILON}
        _write_json("in/s_eps.json", {**base, "kind": "s_eps", "mu": "in/mu.txt", "nu": "in/nu.txt"})
        _write_json("in/exact.json", {"box": UNIT_BOX, "cost": ABS_DISTANCE, "kind": "ot_exact",
                                      "mu": "in/exact_mu.txt", "nu": "in/exact_nu.txt"})
        potentials = {**base, "mu": "in/mu.txt", "nu": "in/nu.txt",
                      "grid_points_per_axis": GRID_PER_AXIS}
        _write_json("in/potentials.json", potentials)
        _write_json("in/warm.json", {**potentials, "mu": "in/warm_mu.txt", "nu": "in/warm_nu.txt",
                                     "grid_points_per_axis": 8})
        outputs = (("output_phi", "phi.txt"), ("output_psi", "psi.txt"),
                   ("output_diff", "diff.txt"), ("output_witness", "witness.txt"))
        self.commands = [
            Command("s_eps", "compute", "in/s_eps.json", (("output", "s_eps.json"),)),
            Command("potentials", "potentials", "in/potentials.json", outputs),
            Command("exact", "compute", "in/exact.json", (("output", "exact.json"),)),
        ]
        self.warmup = Command("warmup", "potentials", "in/warm.json", outputs)

    def check(self, outcome):
        label = outcome.command.label
        if label == "exact":
            with open(outcome.path("output"), encoding="utf-8") as handle:
                value = json.load(handle)["value"]
            # the AbsDistance cost is nonnegative
            if not (math.isfinite(value) and value >= 0.0):
                outcome.problems.append(f"{label}: exact value {value} not finite and nonnegative")
            return
        if outcome.command.kind == "compute":
            with open(outcome.path("output"), encoding="utf-8") as handle:
                result = json.load(handle)
            value = result["value"]
            flags = result["diagnostics"]["term_converged"]
            outcome.records = [bool(flags[key]) for key in sorted(flags)]
            if not (math.isfinite(value) and value >= -1e-9):
                outcome.problems.append(f"{label}: s_eps {value} below -1e-9")
            if not all(outcome.records):
                outcome.problems.append(f"{label}: term_converged {flags}")
            return
        # potentials exits 2 exactly when its one solve did not converge
        outcome.records = [outcome.exit_code == 0]
        with open(outcome.command.config, encoding="utf-8") as handle:
            config = json.load(handle)
        grid = config["grid_points_per_axis"] ** 2
        expected = {"output_phi": len(_read_rows(config["mu"])),
                    "output_psi": len(_read_rows(config["nu"])),
                    "output_diff": grid, "output_witness": grid}
        for key, count in expected.items():
            rows = _read_rows(outcome.path(key))
            if rows.shape != (count, 3):
                outcome.problems.append(f"{label}: {key} has shape {rows.shape}, expected ({count}, 3)")
            elif not np.all(np.isfinite(rows)):
                outcome.problems.append(f"{label}: {key} has non-finite values")


FINITE = ("dither_finite", 0.15, 150)
INFINITE = ("dither_inf", "inf", 600)


class Dither(Workload):
    p50_commands = ("dither",)

    def __init__(self, name, *variants):
        """variants: (label, epsilon, max_outer_iter), one dither command each per round."""
        self.name = name
        self.variants = variants
        self.budget = {label: max_outer_iter for label, _, max_outer_iter in variants}

    def prepare(self, seed):
        from sinkdiv import BoundingBox, sample_grid_density, save_measure

        square = BoundingBox(np.array(SQUARE_BOX["lower"]), np.array(SQUARE_BOX["upper"]))
        # the desk-scale dithering target of acceptance criterion 11
        target = sample_grid_density(lambda x: math.exp(-9.0 * float(x @ x) / 2.0), square, 30)
        save_measure("in/target.txt", target)
        self.commands = []
        for label, epsilon, max_outer_iter in self.variants:
            _write_json(f"in/{label}.json", {
                "target": "in/target.txt", "box": SQUARE_BOX, "cost": ABS_DISTANCE,
                "M": DITHER_M, "epsilon": epsilon, "seed": seed,
                "max_outer_iter": max_outer_iter, "grad_tol": 1e-7,
            })
            outputs = (("output_positions", f"{label}.positions.txt"),
                       ("output_trace", f"{label}.trace.jsonl"))
            self.commands.append(Command(label, "dither", f"in/{label}.json", outputs))
        first = self.commands[0]
        self.warmup = Command("warmup", "dither", first.config, first.outputs,
                              overrides=("max_outer_iter=1",))
        self.budget["warmup"] = 1

    def check(self, outcome):
        label = outcome.command.label
        summary = json.loads(outcome.stdout)
        with open(outcome.path("output_trace"), encoding="utf-8") as handle:
            trace = [json.loads(line) for line in handle if line.strip()]
        energies = [entry["energy"] for entry in trace]
        if [entry["iter"] for entry in trace] != list(range(len(trace))):
            outcome.problems.append(f"{label}: trace iterations are not 0..{len(trace) - 1}")
        if len(trace) > self.budget[label] + 1:
            outcome.problems.append(f"{label}: {len(trace)} trace lines exceed the outer budget")
        if any(b > a for a, b in zip(energies, energies[1:])):
            outcome.problems.append(f"{label}: energy trace increases")
        if not energies or summary["energy"] != energies[-1] or not math.isfinite(energies[-1]):
            outcome.problems.append(f"{label}: summary energy {summary['energy']} != final trace energy")
        outcome.energy = summary["energy"]
        positions = _read_rows(outcome.path("output_positions"))
        if positions.shape != (DITHER_M, 3):
            outcome.problems.append(f"{label}: positions shape {positions.shape}")
            return
        coords = positions[:, 1:]
        if not (np.all(coords >= SQUARE_BOX["lower"]) and np.all(coords <= SQUARE_BOX["upper"])):
            outcome.problems.append(f"{label}: a position lies outside the box")


WORKLOADS = {
    w.name: w
    for w in (
        SweepSmall(),
        ComputeLarge(),
        Dither("dither_finite", FINITE),
        Dither("dither_inf", INFINITE),
        Dither("dither", FINITE, INFINITE),
    )
}
