"""Benchmark of the sinkdiv command line on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs the package from src/ there and
exits with code 2 if src/sinkdiv is missing. Workloads are defined in
workloads.py. Every workload runs in fresh child processes (child.py), one
client in a closed loop, with the BLAS thread count pinned to 1.

--trace 0 starts SETUPS fresh processes; each imports sinkdiv, writes the
seeded inputs and runs one untimed warm-up command, and setup_s is the median
of their set-up times. The last one then runs the timed phase for S seconds.
It prints the end-to-end metrics:

  setup_s      s    process start to ready to time, median of SETUPS set-ups
  wall_s       s    wall time of one round of the workload's commands,
                    file output included; median over the rounds run after
                    the first, which warms the process
  peak_rss_mb  MiB  peak resident memory (ru_maxrss) of the timed process

and, in the same table but not in the JSON result, cmd_p50_s (median wall
time of one of the workload's main commands, with its sample count),
fail_share (commands that exited non-zero or failed a check, over timed
commands), unconverged_share (sweep rows, s_eps terms and potentials solves
flagged not converged, over those produced; dither runs stop at a fixed
budget and are excluded) and, on the dither workloads, dither_energy (final
S_eps energy at the outer budget, one per dither command of the round).

--trace 1 runs the same untimed process and then a traced one that wraps the
public calls of each src/sinkdiv module (spans.py) and runs one round. It
checks that both wrote byte-identical output files, prints the per-layer
metrics, and reports the tracing overhead as traced minus untraced wall_s.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. `failed` counts commands that crashed, exited
with a code the CLI does not document for the outcome, or failed a check; a
sweep that exits 2 because rows did not converge is a documented outcome,
checked against its rows, and is counted in fail_share and
unconverged_share instead. Work files go to .perfbench/ in the checkout;
per-run records and the span file stay in .perfbench/results/.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from spans import LAYER_UNITS
from workloads import LARGE_ATOMS, WORKLOADS

SETUPS = 5
# whole-run deadline; a child still running past it is killed
RUN_LIMIT_S = 170.0
BLAS_THREADS = 1
HERE = os.path.dirname(os.path.abspath(__file__))

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _machine_facts() -> dict:
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    l3 = "unknown"
    cache = "/sys/devices/system/cpu/cpu0/cache"
    indices = sorted(glob.glob(os.path.join(cache, "index*")))
    for index in indices:
        with open(os.path.join(index, "level"), encoding="utf-8") as handle:
            if handle.read().strip() == "3":
                with open(os.path.join(index, "size"), encoding="utf-8") as size:
                    l3 = size.read().strip()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "l3": l3}


class Runner:
    """Starts the child processes of one benchmark run and collects their results."""

    def __init__(self, args, root):
        self.args = args
        self.src = os.path.join(root, "src")
        self.work = os.path.join(root, ".perfbench", "work", f"{args.workload}-{args.seed}-{os.getpid()}")
        self.results = os.path.join(root, ".perfbench", "results")
        self.deadline = _monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=self.src, PYTHONHASHSEED="0")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
        self.count = 0

    def spawn(self, mode: str) -> dict:
        directory = os.path.join(self.work, f"{self.count}-{mode}")
        self.count += 1
        os.makedirs(directory)
        argv = [sys.executable, os.path.join(HERE, "child.py"), "--workload", self.args.workload,
                "--seed", str(self.args.seed), "--seconds", str(self.args.seconds),
                "--mode", mode, "--dir", directory, "--src", self.src]
        log_path = os.path.join(directory, "child.log")
        with open(log_path, "w", encoding="utf-8") as log:
            start = _monotonic()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=self.env)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - _monotonic()))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0:
            with open(log_path, encoding="utf-8") as log:
                tail = log.read()[-2000:]
            reason = "exceeded the run deadline" if code is None else f"exited {code}"
            raise BenchError(f"{mode} process {reason}:\n{tail}")
        with open(os.path.join(directory, "result.json"), encoding="utf-8") as handle:
            result = json.load(handle)
        result["setup_s"] = result["ready"] - start
        result["dir"] = directory
        return result


def _differing_outputs(untraced: dict, traced: dict) -> list:
    differ = []
    for rel in untraced["first_round_outputs"]:
        try:
            with open(os.path.join(untraced["dir"], rel), "rb") as a, \
                    open(os.path.join(traced["dir"], rel), "rb") as b:
                same = a.read() == b.read()
        except OSError:
            same = False
        if not same:
            differ.append(rel)
    return differ


def _printed_only(run: dict) -> list:
    lines = [
        ("cmd_p50_s", run["cmd_p50_s"], "s",
         f"median of {run['cmd_p50_samples']} {'/'.join(run['p50_commands'])} commands"),
        ("fail_share", run["nonzero_or_failed"] / run["timed_commands"], "ratio",
         f"{run['nonzero_or_failed']} of {run['timed_commands']} timed commands; "
         f"{run['exit_2']} exited 2 (solver not converged)"),
    ]
    if run["dither_energy"]:
        lines.append(("unconverged_share", 0.0, "ratio", "dither runs excluded: fixed outer budget"))
        energies = sorted(run["dither_energy"].items())
        for label, energy in energies:
            # a workload with several dither commands names each energy by its command
            name = "dither_energy" if len(energies) == 1 else f"dither_energy.{label}"
            lines.append((name, energy, "energy", f"final S_eps of {label} at the outer budget"))
    else:
        lines.append(("unconverged_share", run["unconverged"] / run["records"], "ratio",
                      f"{run['unconverged']} of {run['records']} records of one round"))
    return lines


def _print_table(rows):
    for name, value, unit, note in rows:
        print(f"  {name:<28} {value:>16.6g} {unit:<6} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sinkdiv", "__init__.py")):
        print(f"error: {root} holds no src/sinkdiv; run from the root of a sinkdiv checkout",
              file=sys.stderr)
        return 2

    # a terminated run still kills its child process and removes its work files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    runner = Runner(args, root)
    os.makedirs(runner.results, exist_ok=True)
    try:
        if args.trace:
            run = runner.spawn("timed")
            traced = runner.spawn("traced")
            differ = _differing_outputs(run, traced)
            shutil.copyfile(os.path.join(traced["dir"], "spans.jsonl"),
                            os.path.join(runner.results, f"{args.workload}-{args.seed}.spans.jsonl"))
        else:
            setups = [runner.spawn("setup") for _ in range(SETUPS - 1)]
            run = runner.spawn("timed")
            setup_times = [s["setup_s"] for s in setups] + [run["setup_s"]]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    machine = _machine_facts()
    software = run["software"]
    print(f"# machine: nproc {machine['nproc']}, {machine['cpu']}, L3 {machine['l3']}, "
          f"python {software['python']}, numpy {software['numpy']}, scipy {software['scipy']}, "
          f"BLAS {software['blas']} with {software['blas_threads']} thread(s) "
          f"(OPENBLAS_NUM_THREADS={runner.env['OPENBLAS_NUM_THREADS']})")
    print(f"# workload {args.workload}, seed {args.seed}: {len(run['round_s'])} round(s) in "
          f"{sum(run['round_s']):.2f} s, {run['attempted']} commands, one closed-loop client")
    if args.workload == "compute_large":
        mb = LARGE_ATOMS * LARGE_ATOMS * 8 / 1e6
        print(f"# cost matrix {LARGE_ATOMS}x{LARGE_ATOMS} float64: {mb:.1f} MB (computed from n*m*8); "
              f"it fits in L3, so no bandwidth figure is reported")
    problems = list(run["problems"])

    if args.trace:
        problems += traced["problems"] + [f"traced output differs: {rel}" for rel in differ]
        values = dict(traced["layers"])
        values["trace.overhead_s"] = traced["wall_s"] - run["wall_s"]
        values["trace.spans"] = traced["spans"]
        units = dict(LAYER_UNITS, **{"trace.overhead_s": "s", "trace.spans": "count"})
        print(f"# per-layer metrics of one traced round ({traced['spans']} spans); untraced wall_s "
              f"{run['wall_s']:.4f} s, traced {traced['wall_s']:.4f} s; "
              f"traced outputs byte-identical: {not differ}")
        _print_table([(name, values[name], units[name], "") for name in units])
        attempted = run["attempted"] + traced["attempted"]
        failed = run["failed"] + traced["failed"]
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": run["wall_s"],
            "peak_rss_mb": run["peak_rss_mib"],
        }
        units = END_TO_END_UNITS
        notes = {
            "setup_s": f"median of {SETUPS} set-ups",
            "wall_s": f"median of {len(run['round_s']) - 1} round(s) after the first",
            "peak_rss_mb": "ru_maxrss of the timed process",
        }
        printed = _printed_only(run)
        _print_table([(name, values[name], units[name], notes[name]) for name in units] + printed)
        attempted, failed = run["attempted"], run["failed"]

    for problem in problems:
        print(f"# problem: {problem}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine, "software": software, "problems": problems,
              "metrics": values, "units": units, "round_s": run["round_s"],
              "setup_samples_s": [] if args.trace else setup_times,
              "printed": {name: value for name, value, _, _ in printed} if not args.trace else {}}
    with open(os.path.join(runner.results, f"{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
