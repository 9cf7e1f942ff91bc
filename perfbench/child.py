"""One benchmark process: set up a workload, run its timed phase, check outputs.

run.py starts this script in a fresh process per set-up and per timed run:

    python3 perfbench/child.py --workload NAME --seed N --seconds S \
        --mode setup|timed|traced --dir DIR --src SRC

Set-up is `import sinkdiv`, writing the seeded inputs, and one untimed
warm-up command; its end is stamped on the system-wide monotonic clock so the
parent can time it from the moment it started the process. The timed phase
calls `sinkdiv.cli.main` in a closed loop, one command after another, in
rounds of the workload's command list. A timed run runs at least three rounds
and starts another only while it is expected to end within S seconds, then
reruns the warm-up command once, untimed. Its first round warms the process
and is left out of wall_s, the median of the other rounds. Every output is checked; a repeated command's
output bytes must equal its first run's, across rounds and for the warm-up.
A traced run installs the span wrappers and runs exactly one round, so its
counts repeat exactly for a seed. Results go to DIR/result.json.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import sinkdiv
import sinkdiv.cli as cli
from workloads import WORKLOADS, Outcome


MIN_ROUNDS = 3


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _software_facts() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                threads = getter()
                break
    import platform

    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


class SweepTap:
    """Keeps the per-row converged flags of the last sweep.

    The sweep CSV has a fixed header without them, so they are read from the
    return value of the CLI's epsilon_sweep binding. This is the only hook in
    an untraced run; it adds one call per sweep command.
    """

    def __init__(self):
        self.flags = None
        inner = cli.epsilon_sweep

        def tapped(*args, **kwargs):
            records = inner(*args, **kwargs)
            self.flags = [bool(r.converged) for r in records]
            return records

        cli.epsilon_sweep = tapped


def _execute(tap, command, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    tap.flags = None
    stdout, stderr = io.StringIO(), io.StringIO()
    crash = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(command.argv(out_dir))
    except Exception:  # a crash is a failed command, reported with its traceback
        code, crash = -1, traceback.format_exc()
    seconds = time.perf_counter() - start
    outcome = Outcome(command=command, out_dir=out_dir, exit_code=code,
                      stdout=stdout.getvalue(), sweep_converged=tap.flags)
    if crash or code not in (0, 2):
        outcome.problems.append(f"{command.label}: exit {code}: {crash or stderr.getvalue().strip()}")
    return outcome, seconds


def _read_outputs(outcome) -> dict:
    contents = {}
    for _, name in outcome.command.outputs:
        with open(os.path.join(outcome.out_dir, name), "rb") as handle:
            contents[name] = handle.read()
    return contents


def _check(workload, outcome, first_outputs):
    if outcome.problems:
        return
    label = outcome.command.label
    try:
        workload.check(outcome)
        outputs = _read_outputs(outcome)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        outcome.problems.append(f"{label}: output unreadable: {exc!r}")
        return
    expected = workload.expected_exit(outcome)
    if outcome.exit_code != expected:
        outcome.problems.append(f"{label}: exit {outcome.exit_code}, expected {expected}")
    if label not in first_outputs:
        first_outputs[label] = outputs
    elif outputs != first_outputs[label]:
        outcome.problems.append(f"{label}: rerun output differs from the first run")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--src", required=True)
    args = parser.parse_args(argv)

    os.chdir(args.dir)
    os.makedirs("in", exist_ok=True)
    src = os.path.realpath(args.src)
    if not os.path.realpath(sinkdiv.__file__).startswith(src + os.sep):
        raise SystemExit(f"sinkdiv imported from {sinkdiv.__file__}, not from {src}")

    workload = WORKLOADS[args.workload]
    workload.prepare(args.seed)
    tracer = None
    if args.mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    tap = SweepTap()
    warm, _ = _execute(tap, workload.warmup, "out/warmup")
    if warm.problems:
        raise SystemExit(f"warm-up failed: {warm.problems}")
    ready = _monotonic()
    result = {"ready": ready}

    if args.mode != "setup":
        if tracer is not None:
            # spans of the warm-up are not part of the measured round
            del tracer.spans[:]
        executed = [(warm, None)]
        round_s = []
        phase_start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for command in workload.commands:
                if tracer is not None:
                    tracer.command = len(executed)
                executed.append(_execute(tap, command, f"out/r{len(round_s)}"))
            round_s.append(time.perf_counter() - round_start)
            if tracer is not None:
                break
            elapsed = time.perf_counter() - phase_start
            # the first round in a process is slower on large arrays and is
            # not counted; at least two more rounds run after it
            if len(round_s) >= MIN_ROUNDS and elapsed + statistics.median(round_s) > args.seconds:
                break
        if tracer is None:
            rerun, _ = _execute(tap, workload.warmup, "out/rerun")
            executed.append((rerun, None))

        first_outputs = {}
        for outcome, _ in executed:
            _check(workload, outcome, first_outputs)
        timed = [(o, s) for o, s in executed if s is not None]
        # rounds repeat byte for byte, so the shares are taken over the first
        # round and the timed commands, and repeat exactly for a seed
        records = [flag for o, _ in executed if o.out_dir == "out/r0" for flag in o.records]
        p50 = [s for o, s in timed
               if o.command.kind in workload.p50_commands or o.command.label in workload.p50_commands]
        energies = {o.command.label: o.energy
                    for o, _ in executed if o.out_dir == "out/r0" and o.energy is not None}
        result.update({
            "round_s": round_s,
            "wall_s": statistics.median(round_s[1:] or round_s),
            "cmd_p50_s": statistics.median(p50),
            "cmd_p50_samples": len(p50),
            "p50_commands": list(workload.p50_commands),
            "attempted": len(executed),
            "failed": sum(1 for o, _ in executed if o.problems),
            "timed_commands": len(timed),
            "nonzero_or_failed": sum(1 for o, _ in timed if o.problems or o.exit_code != 0),
            "exit_2": sum(1 for o, _ in timed if o.exit_code == 2),
            "records": len(records),
            "unconverged": sum(1 for flag in records if not flag),
            "dither_energy": energies,
            "problems": [p for o, _ in executed for p in o.problems],
            "first_round_outputs": sorted(
                os.path.join(o.out_dir, name)
                for o, _ in executed if o.out_dir == "out/r0" for _, name in o.command.outputs
            ),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "software": _software_facts(),
        })
        if tracer is not None:
            from spans import layer_metrics

            result["layers"] = layer_metrics(tracer.spans)
            result["spans"] = len(tracer.spans)
            tracer.write_jsonl("spans.jsonl")

    with open("result.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
