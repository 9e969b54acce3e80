"""Negative controls for the benchmark's output checks, at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench

Each test runs the real CLI through the benchmark's own Runner, then breaks
one output the way a faulty program would and asserts that the benchmark
counts the command as failed.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run as bench  # noqa: E402


@pytest.fixture
def runner(tmp_path):
    r = bench.Runner(seed=5, run_dir=str(tmp_path))
    r.digests = {}  # keep the tests away from recorded digests
    return r


def flip_first_decode_value(path: str) -> None:
    with open(path) as f:
        data = json.load(f)
    values = data["cliques"][1]["decode"][0]["values"]
    values[0] = 1 if values[0] != 1 else -1
    with open(path, "w") as f:
        f.write(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")


def test_intact_round_trip_passes(runner):
    (sched,) = [c for c in bench.roundtrip_setup(runner, 4) if "jw" in c.argv]
    assert not sched.failed, sched.problems
    (check,) = [c for c in bench.roundtrip_pass(runner, "timed", 4) if "jw" in c.argv]
    assert not check.failed, check.problems


def test_flipped_decode_value_fails_verify(runner):
    bench.roundtrip_setup(runner, 4)
    flip_first_decode_value(runner.schedules["jw"][0])
    cmds = bench.roundtrip_pass(runner, "timed", 4)
    jw = [c for c in cmds if "jw" in c.argv]
    assert jw and all(c.failed for c in jw)
    assert not any(c.failed for c in cmds if "parity" in c.argv)


def test_flipped_decode_value_changes_digest(runner):
    (cmd,) = [c for c in bench.schedule_pass(runner, "timed", 4) if "jw" in c.argv]
    path = runner.schedules["jw"][0]
    flip_first_decode_value(path)
    key = f"{runner.version}/n4/jw"
    problems = bench.check_schedule_file(path, cmd.stats(), runner.digests, key)
    assert any("sha256" in p for p in problems)


def test_schedule_file_must_match_stats(runner):
    (cmd,) = [c for c in bench.schedule_pass(runner, "timed", 4) if "jw" in c.argv]
    stats = dict(cmd.stats(), cliques_total="24")
    problems = bench.check_schedule_file(runner.schedules["jw"][0], stats, {}, "k")
    assert any("cliques_total" in p for p in problems)


class PerturbingRunner(bench.Runner):
    """Adds ``delta`` to the energy printed by the estimate commands ``match`` picks."""

    def __init__(self, *args, match, delta: float, **kwargs):
        super().__init__(*args, **kwargs)
        self.match, self.delta = match, delta

    def cli(self, kind, *args):
        cmd = super().cli(kind, *args)
        if self.match(args):
            energy = float(cmd.stats()["energy"])
            cmd.stdout = cmd.stdout.replace(
                f"energy: {energy:.12f}", f"energy: {energy + self.delta:.12f}")
        return cmd


def estimate_failures(r: bench.Runner) -> list[bool]:
    assert not any(c.failed for c in bench.estimate_setup(r, 3))
    return [c.failed for c in bench.estimate_pass(r, "timed", 3)]


def test_exact_energies_pass(tmp_path):
    assert estimate_failures(bench.Runner(seed=5, run_dir=str(tmp_path))) == [False] * 4


def test_perturbed_exact_energy_fails(tmp_path):
    r = PerturbingRunner(seed=5, run_dir=str(tmp_path), delta=1e-6,
                         match=lambda args: "parity" in args and "--shots" not in args)
    assert all(estimate_failures(r))


def test_perturbed_shots_energy_fails(tmp_path):
    r = PerturbingRunner(seed=5, run_dir=str(tmp_path), delta=10.0,
                         match=lambda args: "jw" in args and "--shots" in args)
    assert all(estimate_failures(r))


def test_check_estimates_thresholds():
    exact = {"jw": 1.0, "parity": 1.0 + 1e-10}
    assert bench.check_estimates(exact, {"jw": (1.4, 0.1)}) == []
    assert bench.check_estimates(exact, {"jw": (1.6, 0.1)})
    assert bench.check_estimates({"jw": 1.0, "parity": 1.0 + 1e-8}, {})


def test_traced_pass_accounts_for_plain_wall_time(runner):
    cmds = bench.verify_pass(runner, "traced", 4)
    values = bench.per_layer(cmds)
    assert [c.kind for c in runner.commands] == ["twin", "traced"]
    assert not any(c.failed for c in runner.commands), [c.problems for c in cmds]
    assert values["trace.overhead_s"] > 0
    assert values["trace.spans"] > 0
    assert values["trace.untraced_wall_s"] == cmds[0].twin.wall_s


def test_unreported_tracer_cost_fails_accounting(runner):
    cmds = bench.verify_pass(runner, "traced", 4)
    for c in cmds:
        c.wall_s += 2 * c.twin.wall_s  # time the overhead figure does not explain
    bench.per_layer(cmds)
    assert all(c.failed for c in cmds)
    assert any("untraced" in p for c in cmds for p in c.problems)


class HookLosingRunner(bench.Runner):
    """Rewrites each span file as if a hooked function had been renamed away."""

    def spawn(self, kind, args):
        cmd = super().spawn(kind, args)
        if kind == "traced":
            with open(args[1]) as f:
                data = json.load(f)
            data["trace"]["missing"].append("planesched.circuits.emit")
            with open(args[1], "w") as f:
                json.dump(data, f)
        return cmd


def test_missing_hook_fails_the_command(tmp_path):
    r = HookLosingRunner(seed=5, run_dir=str(tmp_path))
    (cmd,) = bench.verify_pass(r, "traced", 4)
    assert cmd.failed
    assert any("planesched.circuits.emit" in p for p in cmd.problems)


def test_tracer_lists_hooks_it_cannot_find(monkeypatch):
    import traced_cli

    monkeypatch.syspath_prepend(bench.SRC)
    monkeypatch.setattr(traced_cli, "SPANS", {"cli.gone": (("planesched.cli", "gone"),)})
    monkeypatch.setattr(traced_cli, "COUNTED", {})
    tracer = traced_cli.Tracer()
    tracer.install()
    assert tracer.missing == ["planesched.cli.gone"]
