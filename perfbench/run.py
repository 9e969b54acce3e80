#!/usr/bin/env python3
"""Benchmark of the planesched CLI: the schedule, verify and estimate paths.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every command is a fresh ``python3 -m planesched.cli`` process started from
this checkout's ``src/``, one at a time, with SCHED_THREADS unset.  A run
sets its inputs up, repeats the workload's timed commands while another pass
fits in ``--seconds`` (at least one pass), then sets up again until it has
at least 3 set-ups and 4 s of them; ``setup_s`` is their median.  Every
command's output is checked; a command fails
if it exits non-zero or fails its check.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json.
With ``--trace 1`` the run makes one pass in which every command runs
twice, back to back: plainly and through ``traced_cli.py``.  It reports
per-layer self times and counters, the tracer's own calibrated cost, and
checks that the self times account for the plain runs' wall time up to that
cost.

See perfbench/README.md for why each workload exists and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import traced_cli

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, "_work")
SETUP_REPEATS = 3  # at least this many set-ups per untraced run,
SETUP_SECONDS = 4.0  # and more while their total stays below this
MAPPINGS = ("jw", "parity")
SHOTS = 2000
ENERGY_AGREEMENT = 1e-9  # exact energies, jw against parity
SHOT_SIGMAS = 5.0  # a shots energy must lie within this many stderr of exact
# traced wall time minus the tracer's cost may differ from the plain twins'
# wall time by this share of it; adjacent runs of one command on the shared
# host this was tuned on differ by up to a quarter
ACCOUNTING_TOLERANCE = 0.5

perf = time.perf_counter


class BenchError(RuntimeError):
    """The run cannot produce metrics: no program, or a command it needs failed."""


# ---------------------------------------------------------------------------
# one command


@dataclass
class Command:
    """One child process: what ran, how long, how much memory, and its verdict."""

    kind: str  # "probe" | "setup" | "timed" | "traced" | "twin" | "figures"
    argv: list[str]
    wall_s: float = 0.0
    rss_mb: float = 0.0
    code: int = 0
    stdout: str = ""
    trace: dict | None = None
    twin: Command | None = None  # a traced command's plain run
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.problems)

    def stats(self) -> dict[str, str]:
        return parse_stats(self.stdout)


def parse_stats(text: str) -> dict[str, str]:
    """The CLI's stable ``key: value`` lines."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def parse_families(value: str) -> dict[str, int]:
    return {k: int(v) for k, v in (item.split(":") for item in value.split())}


def src_digest() -> str:
    """Content hash of src/, naming the program version a run measured."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# output checks; each returns a list of problems, empty when the output is right


def _drop_matrices(pairs):
    # gate matrices are most of the file; dropping them while parsing keeps
    # the check at a fraction of the program's own memory and time
    return {k: (None if k == "matrix" else v) for k, v in pairs}


def check_schedule_file(path: str, stats: dict[str, str], digests: dict[str, str],
                        key: str) -> list[str]:
    """The file parses and agrees with the stats lines; its sha256 is stable.

    ``digests`` maps ``key`` to the sha256 seen first for the same program
    version; a different digest for the same key is a failure.
    """
    try:
        with open(path, "rb") as f:
            raw = f.read()
        data = json.loads(raw, object_pairs_hook=_drop_matrices)
        cliques = data["cliques"]
        found = {
            "orbitals": str(data["n_orbitals"]),
            "mapping": data["mapping"],
            "cliques_total": str(len(cliques)),
            "families": data["families"],
            "gate_count_total": str(sum(len(c["gates"]) for c in cliques)),
            "depth_max": str(max(c["depth"] for c in cliques)),
        }
        want = {k: stats.get(k) for k in found}
        want["families"] = parse_families(stats.get("families", ""))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path}: unreadable schedule or stats: {exc!r}"]
    problems = [f"{path}: {k} is {found[k]!r} in the file, {want[k]!r} in the stats"
                for k in found if found[k] != want[k]]
    digest = hashlib.sha256(raw).hexdigest()
    if digests.setdefault(key, digest) != digest:
        problems.append(f"{path}: sha256 {digest} differs from {digests[key]} "
                        "seen earlier for the same program")
    return problems


def check_verify(stdout: str) -> list[str]:
    if parse_stats(stdout).get("verify_result") != "pass":
        return ["verify did not print 'verify_result: pass'"]
    return []


def check_estimates(exact: dict[str, float],
                    shots: dict[str, tuple[float, float]]) -> list[str]:
    """Exact energies agree across mappings; shots energies sit near them."""
    problems = []
    values = list(exact.values())
    if max(values) - min(values) > ENERGY_AGREEMENT:
        problems.append(f"exact energies disagree across mappings: {exact}")
    for mapping, (energy, stderr) in shots.items():
        ref = exact[mapping]
        if not abs(energy - ref) <= SHOT_SIGMAS * stderr:
            problems.append(f"{mapping}: shots energy {energy} is more than "
                            f"{SHOT_SIGMAS} x {stderr} from exact {ref}")
    return problems


# ---------------------------------------------------------------------------
# running commands


class Runner:
    """Starts the program's processes one at a time and keeps every outcome."""

    def __init__(self, seed: int, run_dir: str) -> None:
        self.seed = seed
        self.dir = run_dir
        self.env = dict(os.environ)
        self.env.pop("SCHED_THREADS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH", "")) if p)
        self.commands: list[Command] = []
        self.version = src_digest()
        self.digest_path = os.path.join(WORK, "digests.json")
        try:
            with open(self.digest_path) as f:
                self.digests: dict[str, str] = json.load(f)
        except (OSError, ValueError):
            self.digests = {}
        self.schedules: dict[str, tuple[str, dict[str, str]]] = {}  # mapping -> file, stats
        self.pairs = 0

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def spawn(self, kind: str, args: list[str]) -> Command:
        """Run ``python3 <args>``; wall time and peak RSS come from outside."""
        cmd = Command(kind, args)
        err_path = self.path("stderr.txt")
        with open(err_path, "w") as err:
            start = perf()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env,
                                    stdout=subprocess.PIPE, stderr=err, text=True)
            try:
                cmd.stdout = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            cmd.wall_s = perf() - start
        proc.stdout.close()
        proc.returncode = cmd.code = os.waitstatus_to_exitcode(status)
        cmd.rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        if cmd.code != 0:
            with open(err_path) as f:
                tail = f.read()[-400:].strip()
            cmd.problems.append(f"exit code {cmd.code}: {tail}")
        self.commands.append(cmd)
        return cmd

    def cli(self, kind: str, *args: str) -> Command:
        """One CLI command.

        ``traced`` runs it twice, back to back: plainly (the twin) and through
        the span recorder.  Which goes first alternates from one command to
        the next, so that the host's drift enters their difference as little
        as it can.  Tracing must not change the output.
        """
        argv = ["-m", "planesched.cli", *args]
        if kind != "traced":
            return self.spawn(kind, argv)
        self.pairs += 1
        if self.pairs % 2:
            twin = self.spawn("twin", argv)
            cmd = self.traced(args)
        else:
            cmd = self.traced(args)
            twin = self.spawn("twin", argv)
        cmd.twin = twin
        if twin.code == 0 and twin.stdout != cmd.stdout:
            cmd.problems.append("the traced run printed other output than the plain run")
        return cmd

    def traced(self, args: tuple[str, ...]) -> Command:
        spans = self.path("spans.json")
        if os.path.exists(spans):
            os.remove(spans)
        cmd = self.spawn("traced", [os.path.join(BENCH_DIR, "traced_cli.py"), spans, *args])
        try:
            with open(spans) as f:
                data = json.load(f)
            cmd.trace = {**data["trace"], "overhead": data["overhead"]}
        except (OSError, ValueError, KeyError) as exc:
            cmd.problems.append(f"no span file: {exc!r}")
            return cmd
        if cmd.trace["missing"]:
            cmd.problems.append("hooks not found, so their layers go unmeasured: "
                                + ", ".join(cmd.trace["missing"]))
        return cmd

    def import_probe(self) -> Command:
        """A fresh interpreter importing planesched.cli from this checkout."""
        cmd = self.spawn("probe", ["-c", "import planesched.cli, planesched; "
                                   "print('module_file: ' + planesched.__file__)"])
        where = cmd.stats().get("module_file", "")
        if not os.path.abspath(where).startswith(SRC + os.sep):
            cmd.problems.append(f"planesched imported from {where!r}, not from {SRC}")
        return cmd

    def schedule(self, kind: str, n: int, mapping: str) -> Command:
        """``schedule`` to a file, checked against its own stats lines."""
        out = self.path(f"schedule_n{n}_{mapping}.json")
        cmd = self.cli(kind, "schedule", "--orbitals", str(n), "--mapping", mapping,
                       "--out", out)
        if cmd.code == 0:
            cmd.problems += check_schedule_file(
                out, cmd.stats(), self.digests, f"{self.version}/n{n}/{mapping}")
            self.schedules[mapping] = (out, cmd.stats())
        return cmd

    def save_digests(self) -> None:
        with open(self.digest_path, "w") as f:
            json.dump(self.digests, f, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    n: int
    mappings: tuple[str, ...]
    setup: Callable[[Runner, int], list[Command]]  # input generation, after the probe
    timed: Callable[[Runner, str, int], list[Command]]  # one pass of (kind, n)


def no_inputs(r: Runner, n: int) -> list[Command]:
    return []


def schedule_pass(r: Runner, kind: str, n: int) -> list[Command]:
    return [r.schedule(kind, n, m) for m in MAPPINGS]


def roundtrip_setup(r: Runner, n: int) -> list[Command]:
    return schedule_pass(r, "setup", n)


def verify(r: Runner, kind: str, n: int, mapping: str, out: str | None) -> Command:
    args = ["verify", "--orbitals", str(n), "--mapping", mapping]
    cmd = r.cli(kind, *args, *(["--out", out] if out else []))
    cmd.problems += check_verify(cmd.stdout)
    return cmd


def roundtrip_pass(r: Runner, kind: str, n: int) -> list[Command]:
    return [verify(r, kind, n, m, r.schedules[m][0]) for m in MAPPINGS]


def verify_pass(r: Runner, kind: str, n: int) -> list[Command]:
    return [verify(r, kind, n, "jw", None)]


def hamiltonian_path(r: Runner, n: int) -> str:
    return r.path(f"hamiltonian_n{n}.json")


def estimate_setup(r: Runner, n: int) -> list[Command]:
    path = hamiltonian_path(r, n)
    cmd = r.spawn("setup", ["-c", "import sys; from planesched.universe import "
                            "random_hamiltonian as rh; "
                            "rh(int(sys.argv[1]), int(sys.argv[2])).save(sys.argv[3])",
                            str(n), str(r.seed), path])
    if cmd.code == 0 and not os.path.isfile(path):
        cmd.problems.append(f"{path} was not written")
    return [cmd]


def estimate_pass(r: Runner, kind: str, n: int) -> list[Command]:
    """Exact and shots estimates under both mappings, checked against each other."""
    base = ["estimate", "--hamiltonian", hamiltonian_path(r, n), "--state", f"random:{r.seed}"]
    exact: dict[str, float] = {}
    shots: dict[str, tuple[float, float]] = {}
    cmds = []
    for m in MAPPINGS:
        for extra in ([], ["--shots", str(SHOTS), "--seed", str(r.seed)]):
            cmd = r.cli(kind, *base, "--mapping", m, *extra)
            cmds.append(cmd)
            s = cmd.stats()
            try:
                if extra:
                    shots[m] = (float(s["energy"]), float(s["energy_stderr"]))
                else:
                    exact[m] = float(s["energy"])
            except (KeyError, ValueError):
                cmd.problems.append("no energy in the output")
    if len(exact) == len(MAPPINGS) and len(shots) == len(MAPPINGS):
        problems = check_estimates(exact, shots)
        for cmd in cmds:
            cmd.problems += problems
    return cmds


# why each workload exists: perfbench/README.md
WORKLOADS = {
    "schedule_n18": Workload(18, MAPPINGS, no_inputs, schedule_pass),
    "roundtrip_n10": Workload(10, MAPPINGS, roundtrip_setup, roundtrip_pass),
    "verify_n6": Workload(6, ("jw",), no_inputs, verify_pass),
    "estimate_n7": Workload(7, MAPPINGS, estimate_setup, estimate_pass),
}


# ---------------------------------------------------------------------------
# metrics


def setup_once(r: Runner, wl: Workload) -> float:
    cmds = [r.import_probe(), *wl.setup(r, wl.n)]
    return sum(c.wall_s for c in cmds)


def paper_figures(r: Runner, wl: Workload) -> dict[str, float]:
    """Schedule size and the paper's figures at the workload's N and mappings.

    Workloads that write no schedule get one untimed ``schedule`` per mapping.
    """
    for m in wl.mappings:
        if m not in r.schedules:
            r.schedule("figures", wl.n, m)
    if any(m not in r.schedules for m in wl.mappings):
        raise BenchError("schedule command failed; no paper figures")
    stats = [r.schedules[m][1] for m in wl.mappings]
    cliques = {int(s["cliques_total"]) for s in stats}
    if len(cliques) != 1:
        raise BenchError(f"clique counts differ across mappings: {cliques}")
    total = cliques.pop()
    return {
        "schedule_bytes": sum(os.path.getsize(r.schedules[m][0]) for m in wl.mappings),
        "cliques_total": total,
        "clique_ratio": total / int(stats[0]["closed_form_total"]),
        "gate_count_total": sum(int(s["gate_count_total"]) for s in stats),
        "depth_max": max(int(s["depth_max"]) for s in stats),
    }


def self_times(cmds: list[Command]) -> tuple[dict[str, float], dict[str, int], float, int]:
    """Per-span-name self time, summed counters, time outside every span, span count."""
    times: dict[str, float] = {}
    counters: dict[str, int] = {}
    unattributed = 0.0
    n_spans = 0
    for cmd in cmds:
        trace = cmd.trace or {"spans": [], "counters": {}}
        spans = trace["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        covered = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            times[name] = times.get(name, 0.0) + (end - start) - child[i]
            if parent < 0:
                covered += end - start
        unattributed += cmd.wall_s - covered
        n_spans += len(spans)
        for key, k in trace["counters"].items():
            counters[key] = counters.get(key, 0) + k
    return times, counters, unattributed, n_spans


def per_layer(traced: list[Command]) -> dict[str, float]:
    """Per-layer metrics of a traced pass; checks the accounting of its time.

    The span self times plus the time outside every span make up the traced
    wall time.  Less the tracer's own cost, that must match the plain twins'
    wall time to within ACCOUNTING_TOLERANCE; otherwise every traced command
    of the pass fails.
    """
    times, counters, unattributed, n_spans = self_times(traced)
    values: dict[str, float] = {}
    names = [*traced_cli.SPANS, "cli.import", *(f"cli.{c}" for c in traced_cli.COMMANDS)]
    for name in names:
        values[f"{name}_s"] = times.get(name, 0.0)
    for name in traced_cli.COUNTERS:
        values[name] = counters.get(name, 0)
    tables = values["circuits.decode_tables"]
    values["circuits.decode_distinct_ratio"] = (
        values["circuits.decode_tables_distinct"] / tables if tables else 0.0)
    values["cli.checks_skipped"] = sum(
        1 for c in traced for v in c.stats().values() if v.startswith("skipped"))
    traced_wall = sum(c.wall_s for c in traced)
    untraced_wall = sum(c.twin.wall_s for c in traced)
    overhead = sum(c.trace["overhead"]["total_s"] for c in traced if c.trace)
    residual = traced_wall - overhead - untraced_wall
    if abs(residual) > ACCOUNTING_TOLERANCE * untraced_wall:
        for c in traced:
            c.problems.append(
                f"self times {traced_wall - unattributed:.3f} s and unattributed "
                f"{unattributed:.3f} s, less tracer cost {overhead:.3f} s, miss the "
                f"untraced {untraced_wall:.3f} s by more than {ACCOUNTING_TOLERANCE:.0%}")
    values.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": overhead,
        "trace.residual_share": residual / untraced_wall if untraced_wall else 0.0,
        "trace.unattributed_s": unattributed,
        "trace.spans": n_spans,
    })
    return values


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(SRC, "planesched", "cli.py")):
        raise BenchError(f"no program to measure: {SRC}/planesched/cli.py is missing")
    wl = WORKLOADS[workload]
    spec = load_spec()
    os.makedirs(WORK, exist_ok=True)
    run_dir = os.path.join(WORK, f"run-{workload}-{seed}-{os.getpid()}")
    os.makedirs(run_dir)
    r = Runner(seed, run_dir)
    try:
        setups = [setup_once(r, wl)]
        broken = [p for c in r.commands for p in c.problems]
        if broken:
            raise BenchError("set-up failed: " + "; ".join(broken))
        samples: dict[str, int] = {}
        if trace:
            values = per_layer(wl.timed(r, "traced", wl.n))
            section = "per_layer"
        else:
            passes: list[list[Command]] = []
            start = perf()
            while True:
                pass_start = perf()
                passes.append(wl.timed(r, "timed", wl.n))
                elapsed = perf() - start
                if elapsed + (perf() - pass_start) > seconds:
                    break
            # the other set-ups come after the passes, so that the median spans
            # the run rather than one moment of a machine whose speed drifts
            while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
                setups.append(setup_once(r, wl))
            values = {
                "wall_s": statistics.median(sum(c.wall_s for c in p) for p in passes),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(max(c.rss_mb for c in p) for p in passes),
                **paper_figures(r, wl),
            }
            samples = {"wall_s": len(passes), "peak_rss_mb": len(passes),
                       "setup_s": len(setups)}
            section = "end_to_end"
        r.save_digests()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted = len(r.commands)
    failed = sum(c.failed for c in r.commands)
    if not trace:
        values["ok_share"] = (attempted - failed) / attempted
        samples["ok_share"] = attempted
    for cmd in r.commands:
        for problem in cmd.problems:
            print(f"check_failed: {cmd.kind} {' '.join(cmd.argv[-8:])}: {problem}")
    metrics = {}
    for m in spec[section]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{workload:14s} {m['name']:34s} {values[m['name']]:>16.6g} "
              f"{m['unit']:6s} n={samples.get(m['name'], 1)}")
    if trace:
        with open(os.path.join(WORK, f"trace-{workload}-{seed}.json"), "w") as f:
            json.dump([{"argv": c.argv, "wall_s": c.wall_s, "twin_wall_s": c.twin.wall_s,
                        **(c.trace or {})}
                       for c in r.commands if c.kind == "traced"], f)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
