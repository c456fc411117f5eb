"""projheat benchmark: drive the CLI as a user does, check every output, time it.

    python3 perfbench/run.py --workload series_grid --seed 1 --seconds 30 --trace 0

Run from the root of a projheat source tree (``src/projheat`` must be
there; nothing is installed).  One benchmark process runs one command at a
time, each in a fresh interpreter (``python -m projheat ...``), so
interpreter start-up is part of every timing: a closed loop with one
client.  A run repeats whole passes over the workload's commands (see
``workloads.py``) until ``--seconds`` have gone by, checking every
command's output (see ``checks.py``); an untraced run times the start-up
alone three times before each pass.

With ``--trace 0`` the end-to-end metrics are reported:

- ``setup_s``: median wall time of ``python -m projheat --help`` over the
  start-up timings of the run;
- ``pass_s``: median wall time of one pass, interpreter starts included;
- ``points_per_s``: median over passes of work units per second of
  command wall time: a unit is a requested grid point, or one whole
  suite run on ``selftest`` (so there it is 1 / pass wall time);
- ``peak_rss_mb``: the largest peak resident set of any one command,
  from the rusage of the benchmark's waited-for children.

With ``--trace 1`` every command runs under ``tracecmd.py`` instead, and
the per-layer metrics named in BENCHMARK.json are reported: per pass,
calls and counters of each traced function and the median of its self
time; the import cost of numpy and projheat; the traced pass time (its
excess over ``pass_s`` is the tracing overhead); and, on ``selftest``, the
time and report count of each verify group.  A per-layer metric the
workload never touches reads 0.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A command that
exits non-zero counts as failed; an output that exits 0 but fails a check
makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata

from checks import check_output
from tracecmd import MARKER
from workloads import WORKLOADS, make_commands

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: start-up timings before each pass of an untraced run; their median is setup_s
SETUP_PER_PASS = 3
#: interpreter starts per probe (bare, numpy, projheat) in a traced run
IMPORT_REPEATS = 5
#: rows per grid command and pass checked against the mpmath oracle, besides one corner
ORACLE_SAMPLE = 12


@dataclass
class Child:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float


def run_child(args: list) -> Child:
    """Run ``python <args>`` in the source tree and time it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    # bytecode is cached as for an installed package, whatever the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=False)
    return Child(proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start)


@dataclass
class Pass:
    walls: list = field(default_factory=list)  # per command, in order
    units: int = 0
    spans: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.walls)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)  # commands that exited non-zero
    problems: list = field(default_factory=list)  # checks that outputs failed


def run_pass(commands: list, trace: bool, rng: random.Random, tally: Tally) -> Pass:
    """Run each command once, check its output and add up its costs."""
    one = Pass()
    prefix = [os.path.join(HERE, "tracecmd.py")] if trace else ["-m", "projheat"]
    for command in commands:
        child = run_child(prefix + command.argv())
        tally.attempted += 1
        one.walls.append(child.wall_s)
        if child.returncode != 0:
            tally.failed += 1
            tally.failures.append(f"exit {child.returncode}: {' '.join(command.argv())}: "
                                  f"{child.stderr.strip()[-300:]}")
            continue
        one.units += command.units()
        problems = check_output(command, child.stdout, rng, ORACLE_SAMPLE)
        tally.problems += [f"{' '.join(command.argv())}: {p}" for p in problems]
        if trace:
            _merge_spans(one.spans, _trace_line(child.stderr))
    return one


def _trace_line(stderr: str) -> dict:
    lines = [line for line in stderr.splitlines() if line.startswith(MARKER)]
    if not lines:
        raise RuntimeError(f"traced child printed no trace line: {stderr[-300:]}")
    return json.loads(lines[-1][len(MARKER):])


def _merge_spans(into: dict, spans: dict) -> None:
    for name, stats in spans.items():
        target = into.setdefault(name, {})
        for key, value in stats.items():
            target[key] = target.get(key, 0) + value


def measure(commands: list, seconds: float, trace: bool, seed: int, tally: Tally,
            setup_walls: list = None) -> list:
    """Whole passes until ``seconds`` have gone by (at least one).

    Given ``setup_walls``, SETUP_PER_PASS start-up timings are added to it
    before each pass, so that set-up is sampled over the same stretch of
    time as the passes and not in one burst.
    """
    rng = random.Random(f"oracle:{seed}")
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        if setup_walls is not None:
            setup_walls += [setup_wall() for _ in range(SETUP_PER_PASS)]
        passes.append(run_pass(commands, trace, rng, tally))
    return passes


def setup_wall() -> float:
    """Wall time of one ``python -m projheat --help``."""
    child = run_child(["-m", "projheat", "--help"])
    if child.returncode != 0 or "usage:" not in child.stdout:
        raise RuntimeError(f"projheat --help failed: {child.stderr.strip()[-300:]}")
    return child.wall_s


def import_seconds() -> dict:
    """Median start-up with each import, minus a bare interpreter's."""
    probes = {"bare": "pass", "numpy": "import numpy", "projheat": "import projheat"}
    walls = {name: [] for name in probes}
    for _ in range(IMPORT_REPEATS):
        for name, code in probes.items():
            child = run_child(["-c", code])
            if child.returncode != 0:
                raise RuntimeError(f"python -c {code!r} failed: {child.stderr[-300:]}")
            walls[name].append(child.wall_s)
    bare = statistics.median(walls["bare"])
    return {f"import.{name}_s": statistics.median(walls[name]) - bare
            for name in ("numpy", "projheat")}


def end_to_end(setup_s: float, passes: list) -> dict:
    return {
        "setup_s": setup_s,
        "pass_s": statistics.median(p.wall_s for p in passes),
        "points_per_s": statistics.median(p.units / p.wall_s for p in passes),
        # on Linux: the largest peak RSS of any one child waited for so far
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def per_layer(names: list, passes: list, imports: dict, groups: dict) -> dict:
    """Each named layer metric, per pass; 0 for what this workload never ran."""
    def per_pass(span, key):
        return statistics.median(p.spans.get(span, {}).get(key, 0) for p in passes)

    values = dict(imports)
    values["traced.pass_s"] = statistics.median(p.wall_s for p in passes)
    for name in names:
        if name in values:
            continue
        span, key = name.rsplit(".", 1)
        if span.startswith("verify.") and key in ("s", "reports"):
            values[name] = groups.get(span[len("verify."):], {}).get(key, 0)
        elif key == "useful_ratio":
            ratios = [p.spans.get(span, {}).get("nodes_final", 0)
                      / max(p.spans.get(span, {}).get("nodes_evaluated", 0), 1)
                      for p in passes]
            values[name] = statistics.median(ratios)
        else:
            values[name] = per_pass(span, key)
    return {name: values[name] for name in names}


def machine_info() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # end children too when stopped: SystemExit unwinds through their cleanup
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "projheat", "cli.py")):
        print(f"run.py: no projheat source tree at {ROOT}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    tier = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in tier}

    commands = make_commands(args.workload, args.seed)
    tally = Tally()
    if args.trace:
        imports = import_seconds()
        passes = measure(commands, args.seconds, True, args.seed, tally)
        groups = {}
        if args.workload == "selftest":
            child = run_child([os.path.join(HERE, "tracecmd.py"), "--groups"])
            if child.returncode != 0:
                raise RuntimeError(f"verify group timing failed: {child.stderr[-300:]}")
            groups = _trace_line(child.stderr)
        values = per_layer(list(units), passes, imports, groups)
    else:
        setup_walls = []
        passes = measure(commands, args.seconds, False, args.seed, tally, setup_walls)
        values = end_to_end(statistics.median(setup_walls), passes)

    for key, value in machine_info().items():
        print(f"machine.{key}: {value}")
    print(f"workload {args.workload}: seed {args.seed}, {len(passes)} passes of "
          f"{len(commands)} commands, {tally.attempted} attempted, {tally.failed} failed")
    for i, p in enumerate(passes):
        print(f"pass {i + 1}: {p.wall_s:.4f} s; per command "
              + " ".join(f"{w:.4f}" for w in p.walls))
    for line in tally.failures[:10] + tally.problems[:20]:
        print(f"PROBLEM {line}", file=sys.stderr)
    for name in units:
        print(f"{name}: {values[name]:.6g} {units[name]}")
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
