"""Command-line behavior: stats, verification, estimation, exit codes."""

import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import planesched
from planesched import circuits
from planesched.cli import main
from planesched.sim import (
    dense_hamiltonian,
    occupation_to_qubit_state,
    random_occupation_state,
)
from planesched.universe import FAMILIES, random_hamiltonian


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def parse_stats(out: str) -> dict:
    stats = {}
    for line in out.splitlines():
        if ": " in line:
            key, value = line.split(": ", 1)
            stats[key] = value
    return stats


def test_schedule_writes_file_and_stats(tmp_path, capsys):
    out_path = tmp_path / "sched.json"
    code, out = run(
        capsys, "schedule", "--orbitals", "6", "--mapping", "jw", "--out", str(out_path)
    )
    assert code == 0
    stats = parse_stats(out)
    assert stats["cliques_total"] == "61"
    assert stats["closed_form_total"] == "61"
    assert stats["cover_lower_bound"] == "15"
    assert "part:1" in stats["families"]
    data = json.loads(out_path.read_text())
    assert data["n_orbitals"] == 6
    assert len(data["cliques"]) == 61


def test_schedule_output_is_byte_identical(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "schedule", "--orbitals", "4", "--out", str(p1))
    run(capsys, "schedule", "--orbitals", "4", "--out", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_stats_family_breakdown_n4(capsys):
    code, out = run(capsys, "stats", "--orbitals", "4")
    assert code == 0
    stats = parse_stats(out)
    assert stats["families"] == "part:1 one_body:6 diff_spin:9 same_spin:9"
    assert stats["cliques_total"] == "25"


@pytest.mark.parametrize("n, closed_form, construction", [
    (3, 13, 10), (4, 25, 25), (5, 41, 45), (16, 481, 545),
])
def test_stats_and_schedule_print_the_construction_total(tmp_path, capsys, n, closed_form,
                                                         construction):
    """``closed_form_total`` stays the paper's 2N^2 - 2N + 1; the
    construction's own count is the number of cliques built."""
    for command in (["stats"], ["schedule", "--out", str(tmp_path / "s.json")]):
        code, out = run(capsys, *command, "--orbitals", str(n))
        assert code == 0
        stats = parse_stats(out)
        assert int(stats["closed_form_total"]) == closed_form
        assert int(stats["construction_total"]) == int(stats["cliques_total"]) == construction


@pytest.mark.parametrize("mapping", ["jw", "parity"])
def test_stats_depth_at_32_orbitals_is_within_the_paper_bound(capsys, mapping):
    """Each measurement is a depth-O(N) circuit on a line of qubits: at
    N = 32 the deepest clique circuit stays at most 24 layers."""
    code, out = run(capsys, "stats", "--orbitals", "32", "--mapping", mapping)
    assert code == 0
    assert int(parse_stats(out)["depth_max"]) <= 24


@pytest.mark.parametrize("mapping", ["jw", "parity"])
@pytest.mark.parametrize("n", [6, 10, 18, 32])
def test_stats_depth_is_one_layer_above_its_lower_bound(capsys, n, mapping):
    """The pair (0, n-1) needs ceil((n-2)/2) swap layers and then its
    rotation, 2 layers under jw and 1 under parity; at these sizes the
    deepest clique takes one layer more."""
    code, out = run(capsys, "stats", "--orbitals", str(n), "--mapping", mapping)
    assert code == 0
    stats = parse_stats(out)
    bound = -(-(n - 2) // 2) + (2 if mapping == "jw" else 1)
    assert int(stats["depth_lower_bound"]) == bound
    assert int(stats["depth_max"]) - bound == 1


def test_verify_passes(capsys):
    for n in ("3", "6"):
        code, out = run(capsys, "verify", "--orbitals", n)
        assert code == 0
        assert "verify_result: pass" in out
    code, out = run(capsys, "verify", "--orbitals", "8")
    assert code == 0
    assert "cover_lower_bound: 35" in out


def test_verify_detects_corrupted_schedule(tmp_path, capsys):
    path = tmp_path / "sched.json"
    code, _ = run(capsys, "schedule", "--orbitals", "3", "--out", str(path))
    assert code == 0
    code, out = run(capsys, "verify", "--orbitals", "3", "--out", str(path))
    assert code == 0
    assert "schedule_file_check: pass" in out
    data = json.loads(path.read_text())
    data["cliques"][5]["decode"][0]["op"][0] = 99
    path.write_text(json.dumps(data))
    code, out = run(capsys, "verify", "--orbitals", "3", "--out", str(path))
    assert code == 1
    assert "schedule_file_check: fail" in out
    assert "schedule_file_problem" in out


def test_verify_accepts_reformatted_schedule(tmp_path, capsys):
    path = tmp_path / "sched.json"
    assert run(capsys, "schedule", "--orbitals", "4", "--mapping", "parity",
               "--out", str(path))[0] == 0
    path.write_text(json.dumps(json.loads(path.read_text()), indent=2))
    code, out = run(capsys, "verify", "--orbitals", "4", "--mapping", "parity",
                    "--out", str(path))
    assert code == 0
    assert "schedule_file_check: pass" in out


def test_verify_rejects_schedule_for_other_orbitals_or_mapping(tmp_path, capsys):
    path = tmp_path / "sched.json"
    assert run(capsys, "schedule", "--orbitals", "4", "--mapping", "parity",
               "--out", str(path))[0] == 0
    code, out = run(capsys, "verify", "--orbitals", "3", "--mapping", "jw", "--out", str(path))
    assert code == 1
    assert "schedule_file_check: fail" in out
    problems = [line for line in out.splitlines() if line.startswith("schedule_file_problem: ")]
    assert any("n_orbitals" in line for line in problems)
    assert any("mapping" in line for line in problems)
    assert "verify_result: fail" in out


def test_verify_names_a_schedule_file_from_another_plane(tmp_path, capsys):
    # a file written when N=10 took the order-11 plane differs from today's
    # order-9 file in every clique; the header names the cause in one line
    path = tmp_path / "sched.json"
    assert run(capsys, "schedule", "--orbitals", "4", "--out", str(path))[0] == 0
    data = json.loads(path.read_text())
    assert data["plane_order"] == 3
    data["plane_order"] = 5
    path.write_text(json.dumps(data))
    code, out = run(capsys, "verify", "--orbitals", "4", "--out", str(path))
    assert code == 1
    problems = [line for line in out.splitlines() if line.startswith("schedule_file_problem: ")]
    assert problems == ["schedule_file_problem: plane_order: file has 5, expected 3"]
    assert "verify_result: fail" in out


@pytest.mark.parametrize("mapping", ["jw", "parity"])
def test_verify_passes_on_planes_of_order_nine(capsys, mapping):
    for n in ("9", "10"):
        code, out = run(capsys, "verify", "--orbitals", n, "--mapping", mapping)
        assert code == 0
        assert "lemma_checks: pass (order 9)" in out
        assert "cover_size: 81" in out
        assert "verify_result: pass" in out


def test_verify_out_after_failed_emission(tmp_path, capsys, monkeypatch):
    path = tmp_path / "sched.json"
    assert run(capsys, "schedule", "--orbitals", "3", "--out", str(path))[0] == 0

    def fail(universe, mapping):
        raise circuits.DiagonalizationError("injected")

    monkeypatch.setattr(circuits, "emit_schedule", fail)
    code, out = run(capsys, "verify", "--orbitals", "3", "--out", str(path))
    assert code == 1
    assert "emission_check: fail" in out
    assert out.count("schedule_file_check: fail") == 1
    assert "verify_result: fail" in out


def test_estimate_exact_matches_dense(tmp_path, capsys):
    for n in (2, 3):
        ham = random_hamiltonian(n, seed=n)
        path = tmp_path / f"ham{n}.json"
        ham.save(str(path))
        code, out = run(
            capsys,
            "estimate",
            "--hamiltonian",
            str(path),
            "--state",
            "random:7",
            "--mapping",
            "jw",
        )
        assert code == 0
        energy = float(parse_stats(out)["energy"])
        occ = random_occupation_state(2 * n, seed=7)
        psi = occupation_to_qubit_state(occ, "jw", 2 * n)
        exact = float(np.real(np.vdot(psi, dense_hamiltonian(ham, "jw") @ psi)))
        assert abs(energy - exact) < 1e-9
        families = [k for k in parse_stats(out) if k.startswith("energy_")]
        assert set(families) == {
            "energy_nuclear",
            "energy_part",
            "energy_one_body",
            "energy_diff_spin",
            "energy_same_spin",
        }


def test_estimate_basis_state(tmp_path, capsys):
    ham = random_hamiltonian(2, seed=4)
    path = tmp_path / "ham.json"
    ham.save(str(path))
    code, out = run(
        capsys, "estimate", "--hamiltonian", str(path), "--state", "basis:1100"
    )
    assert code == 0
    assert "energy:" in out


def test_estimate_amplitude_file(tmp_path, capsys):
    ham = random_hamiltonian(2, seed=4)
    hpath = tmp_path / "ham.json"
    ham.save(str(hpath))
    occ = random_occupation_state(4, seed=9)
    spath = tmp_path / "state.json"
    spath.write_text(
        json.dumps({"amplitudes": [[float(a.real), float(a.imag)] for a in occ]})
    )
    code, out = run(capsys, "estimate", "--hamiltonian", str(hpath), "--state", str(spath))
    assert code == 0
    code2, out2 = run(
        capsys, "estimate", "--hamiltonian", str(hpath), "--state", "random:9"
    )
    assert parse_stats(out)["energy"] == parse_stats(out2)["energy"]


def test_estimate_shots_reproducible(tmp_path, capsys):
    ham = random_hamiltonian(2, seed=1)
    path = tmp_path / "ham.json"
    ham.save(str(path))
    args = (
        "estimate", "--hamiltonian", str(path), "--state", "random:3",
        "--shots", "200", "--seed", "12",
    )
    code, out1 = run(capsys, *args)
    assert code == 0
    _, out2 = run(capsys, *args)
    assert out1 == out2
    assert "energy_stderr:" in out1
    stats = parse_stats(out1)
    family_lines = [k for k in stats if k.startswith("energy_stderr_")]
    assert family_lines == [f"energy_stderr_{f}" for f in FAMILIES]
    family_sum = sum(float(stats[k]) ** 2 for k in family_lines)
    assert abs(family_sum - float(stats["energy_stderr"]) ** 2) < 1e-9


def test_estimate_prints_every_family_at_odd_n(tmp_path, capsys):
    """Odd N builds no ``part`` or ``one_body`` clique; their lines stay and
    read 0, exact and sampled."""
    path = tmp_path / "ham.json"
    random_hamiltonian(3, seed=3).save(str(path))
    base = ("estimate", "--hamiltonian", str(path), "--state", "random:2")
    _, exact = run(capsys, *base)
    code, sampled = run(capsys, *base, "--shots", "100", "--seed", "4")
    assert code == 0
    for out, prefix in ((exact, "energy_"), (sampled, "energy_stderr_")):
        stats = parse_stats(out)
        values = {f: stats[prefix + f] for f in FAMILIES}
        assert values["part"] == values["one_body"] == "0.000000000000"
        assert float(values["diff_spin"]) != 0 and float(values["same_spin"]) != 0


def test_estimate_too_large_exact(tmp_path, capsys):
    ham = random_hamiltonian(8, seed=0)
    path = tmp_path / "ham8.json"
    ham.save(str(path))
    code = main(["estimate", "--hamiltonian", str(path)])
    capsys.readouterr()
    assert code == 1


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["stats", "--orbitals", "4", "--mapping", "bogus"])
    assert err.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["stats", "--orbitals", "1"])
    assert err.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    capsys.readouterr()


def test_grid_flag(capsys):
    code, out = run(capsys, "stats", "--orbitals", "6", "--grid")
    assert code == 0
    assert "label_grid:" in out
    assert "alpha: S" in out


GRID_PINS = {  # orbitals -> (plane order, grid); only labels 0..N-1 are marked
    2: (2, """\
y=1 . S
y=0 S .
    0 1
alpha: .
"""),
    6: (5, """\
y=4 . . S S .
y=3 . . . . .
y=2 . . . . .
y=1 . S . . S
y=0 S . . . .
    0 1 2 3 4
alpha: S
"""),
    7: (7, """\
y=6 . . . . . . .
y=5 . . . . . . .
y=4 . . S . . S .
y=3 . . . . . . .
y=2 . . . S S . .
y=1 . S . . . . S
y=0 S . . . . . .
    0 1 2 3 4 5 6
alpha: .
"""),
    10: (9, """\
y=8 . . . . . . . . .
y=7 . . . . . . . . .
y=6 . . . . S . . . S
y=5 . . . . . . . . .
y=4 . . . . . . . . .
y=3 . . . . . S . S .
y=2 . . . S . . S . .
y=1 . S S . . . . . .
y=0 S . . . . . . . .
    0 1 2 3 4 5 6 7 8
alpha: S
"""),
}


@pytest.mark.parametrize("n", sorted(GRID_PINS))
def test_grid_output_is_pinned(capsys, n):
    """At N=7 the plane order, 7, exceeds N-1; at N=10 it is 9 = N-1, a
    prime power, whose grid cells are GF(9) element codes."""
    order, grid = GRID_PINS[n]
    code, out = run(capsys, "stats", "--orbitals", str(n), "--grid")
    assert code == 0
    stats_part, grid_part = out.split("label_grid:\n")
    assert f"plane_order: {order}\n" in stats_part
    assert grid_part == grid


def assert_one_line_error(capsys, stdout: str | None = None) -> None:
    """One ``error:`` line on stderr; with ``stdout``, stdout must equal it."""
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert stdout is None or captured.out == stdout


def test_estimate_rejects_non_finite_hamiltonian(tmp_path, capsys):
    data = random_hamiltonian(2, seed=5).to_dict()
    data["g"][0][1][0][1][1][0] = float("nan")
    nan_path = tmp_path / "nan.json"
    nan_path.write_text(json.dumps(data))
    data = random_hamiltonian(2, seed=5).to_dict()
    data["e_nuc"] = float("inf")
    inf_path = tmp_path / "inf.json"
    inf_path.write_text(json.dumps(data))
    for path in (nan_path, inf_path):
        assert main(["estimate", "--hamiltonian", str(path)]) == 1
        assert_one_line_error(capsys)


def test_estimate_bad_inputs_are_one_line_errors(tmp_path, capsys):
    one = random_hamiltonian(1, seed=0)
    one_path = tmp_path / "one.json"
    one.save(str(one_path))
    assert main(["estimate", "--hamiltonian", str(one_path)]) == 1
    assert_one_line_error(capsys)

    ham_path = tmp_path / "ham.json"
    random_hamiltonian(2, seed=4).save(str(ham_path))
    for content in ({"amps": []}, [1, 2], {"amplitudes": [1, 2]}):
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(content))
        code = main(["estimate", "--hamiltonian", str(ham_path), "--state", str(state_path)])
        assert code == 2
        assert_one_line_error(capsys)

    # the sampler's counts are int64: 2**63 - 1 shots is the largest that runs;
    # one shot would print a standard error of 0, so it is refused
    for shots in (-5, 1, 2**63, 10**20):
        with pytest.raises(SystemExit) as err:
            main(["estimate", "--hamiltonian", str(ham_path), "--shots", str(shots)])
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert "Traceback" not in err_text and "error: --shots" in err_text
    code, out = run(capsys, "estimate", "--hamiltonian", str(ham_path),
                    "--shots", str(2**63 - 1))
    assert code == 0 and "energy_stderr:" in out


TOO_BIG = 10**400  # an exact JSON integer beyond float range


@pytest.mark.parametrize("malformed", [
    "list", {"e_nuc": None}, {"n_orbitals": [2]}, {"n_orbitals": 2.5}, {"n_orbitals": -3},
    {"h": {}},
    {"e_nuc": TOO_BIG},
    {"h": np.full((2, 2, 2), TOO_BIG, dtype=object).tolist()},
    {"g": np.full((2,) * 6, TOO_BIG, dtype=object).tolist()},
    # JSON true/false and numeric strings are not numbers, though numpy reads them as such
    {"h": np.full((2, 2, 2), True).tolist()},
    {"g": np.full((2,) * 6, False).tolist()},
    {"h": np.full((2, 2, 2), "0.5").tolist()},
    # one leaf of the wrong kind among numbers: a bool, a string, a null
    {"h": [[[0.5, 0.0], [0.0, 0.5]], [[0.5, True], [True, 0.5]]]},
    {"h": [[[0.5, "0.0"], ["0.0", 0.5]], [[0.5, 0.0], [0.0, 0.5]]]},
    {"g": np.insert(np.zeros(63, dtype=object), 5, None).reshape((2,) * 6).tolist()},
    # ragged nesting: rows of different lengths
    {"h": [[[0.5, 0.0], [0.0]], [[0.5, 0.0], [0.0, 0.5]]]},
    {"g": [np.zeros((2,) * 5).tolist(), np.zeros((2,) * 4 + (3,)).tolist()]},
    # mixed nesting: numbers beside lists at one level
    {"h": [[[0.5, 0.0], 0.0], [[0.5, 0.0], [0.0, 0.5]]]},
    {"h": [[[0.5, [0.0]], [0.0, 0.5]], [[0.5, 0.0], [0.0, 0.5]]]},
    # h[0, 1] - h[1, 0] overflows a float
    {"h": [[[0.0, 1e308], [-1e308, 0.0]]] * 2},
])
@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy's would print to stderr
def test_estimate_rejects_malformed_hamiltonian(tmp_path, capsys, malformed):
    data = random_hamiltonian(2, seed=4).to_dict()
    data = [data] if malformed == "list" else {**data, **malformed}
    path = tmp_path / "ham.json"
    path.write_text(json.dumps(data))
    assert main(["estimate", "--hamiltonian", str(path)]) == 1
    assert_one_line_error(capsys)


@pytest.mark.parametrize("key", ["n_orbitals", "e_nuc", "h", "g"])
def test_estimate_names_a_missing_hamiltonian_key(tmp_path, capsys, key):
    data = random_hamiltonian(2, seed=4).to_dict()
    del data[key]
    path = tmp_path / "ham.json"
    path.write_text(json.dumps(data))
    assert main(["estimate", "--hamiltonian", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot load Hamiltonian from {path}: missing key {key!r}\n"


def test_estimate_names_the_shape_of_a_bad_g(tmp_path, capsys):
    path = tmp_path / "ham.json"
    path.write_text(json.dumps({**random_hamiltonian(2, seed=4).to_dict(), "g": 0}))
    assert main(["estimate", "--hamiltonian", str(path)]) == 1
    assert capsys.readouterr().err == (f"error: cannot load Hamiltonian from {path}: "
                                       "g must have shape (2, 2, 2, 2, 2, 2), got ()\n")


def test_estimate_names_a_negative_n_orbitals(tmp_path, capsys):
    path = tmp_path / "ham.json"
    path.write_text(json.dumps({**random_hamiltonian(2, seed=4).to_dict(), "n_orbitals": -3}))
    assert main(["estimate", "--hamiltonian", str(path)]) == 1
    assert capsys.readouterr().err == (f"error: cannot load Hamiltonian from {path}: "
                                       "n_orbitals must not be negative, got -3\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy's would print to stderr
@pytest.mark.parametrize("h_entry", [1e308, 5e307])
def test_estimate_rejects_an_overflowing_hamiltonian(tmp_path, capsys, h_entry):
    """Finite entries whose sums overflow: h + h^T is infinite at 1e308; at
    5e307 the coefficients are finite, but the sampled terms' sum is not."""
    data = random_hamiltonian(2, seed=4).to_dict()
    data["h"] = np.full((2, 2, 2), h_entry).tolist()
    data["g"] = np.zeros((2,) * 6).tolist()
    path = tmp_path / "ham.json"
    path.write_text(json.dumps(data))
    args = ["estimate", "--hamiltonian", str(path)]
    for extra in ([], ["--shots", "10"]):
        if h_entry == 1e308 or extra:
            assert main(args + extra) == 1, extra
            assert_one_line_error(capsys, stdout="")
        else:  # a huge energy that is a float is still printed
            code, out = run(capsys, *args)
            assert code == 0 and float(parse_stats(out)["energy"]) > 1e307


def test_schedule_to_a_missing_directory_exits_one(tmp_path, capsys):
    out_path = tmp_path / "missing" / "s.json"
    assert main(["schedule", "--orbitals", "3", "--out", str(out_path)]) == 1
    assert_one_line_error(capsys, stdout="")


def test_estimate_orbitals_option_is_a_usage_error(tmp_path, capsys):
    """``estimate`` takes N from the Hamiltonian file, so even a matching
    ``--orbitals`` is an unknown option: exit 2 and one error line."""
    path = tmp_path / "ham.json"
    random_hamiltonian(2, seed=4).save(str(path))
    with pytest.raises(SystemExit) as err:
        main(["estimate", "--hamiltonian", str(path), "--orbitals", "2"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        "planesched: error: unrecognized arguments: --orbitals 2"]


def test_traced_cli_hooks_resolve(monkeypatch):
    """Every function the traced benchmark wraps is still where it looks."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    traced_cli = importlib.import_module("traced_cli")
    sites = [site for table in (traced_cli.SPANS, traced_cli.COUNTED)
             for sites in table.values() for site in sites]
    assert sites
    missing = [f"{module}.{attr}" for module, attr in sites
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing, missing


def python_process(argv: list[str], program: tuple[str, ...] = ("-m", "planesched.cli"),
                   stdout=subprocess.PIPE, **env: str) -> subprocess.CompletedProcess:
    """Run ``python <program> <argv>``, the CLI by default, in a child process
    that imports this same copy of the package, with ``env`` added."""
    package_root = os.path.dirname(os.path.dirname(planesched.__file__))
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *program, *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=120)


@pytest.mark.parametrize("mapping", ["jw", "parity"])
@pytest.mark.parametrize("command", ["verify", "schedule", "estimate", "estimate_shots"])
def test_traced_cli_runs_every_command_as_the_plain_cli_does(tmp_path, mapping, command):
    """The traced benchmark harness runs each command it traces to the end,
    every hook found, and prints, and writes, exactly what the plain
    command does."""
    script = os.path.join(os.path.dirname(__file__), "..", "perfbench", "traced_cli.py")
    spans = tmp_path / "spans.json"
    ham_path = tmp_path / "ham.json"
    random_hamiltonian(2, seed=4).save(str(ham_path))
    argv = {"verify": ["verify", "--orbitals", "4"],
            "schedule": ["schedule", "--orbitals", "4"],
            "estimate": ["estimate", "--hamiltonian", str(ham_path)],
            "estimate_shots": ["estimate", "--hamiltonian", str(ham_path), "--shots", "50"],
            }[command] + ["--mapping", mapping]

    def output(side: str, argv: list[str], *program: str) -> tuple[str, bytes]:
        out_file = tmp_path / f"{side}.json"
        if command == "schedule":
            argv = [*argv, "--out", str(out_file)]
        result = python_process(argv, *program)
        assert result.returncode == 0, (side, result.stderr)
        written = out_file.read_bytes() if command == "schedule" else b""
        return result.stdout.replace(str(out_file), "<out>"), written

    traced = output("traced", [str(spans), *argv], (script,))
    assert json.loads(spans.read_text())["trace"]["missing"] == []
    assert traced == output("plain", argv)
    assert traced[0]


def test_schedules_do_not_depend_on_the_hash_seed(tmp_path):
    """String hashing is salted per process; no schedule byte and no line
    of ``verify`` may follow it."""
    for mapping in ("jw", "parity"):
        written = []
        for seed in ("0", "1"):
            path = tmp_path / f"{mapping}-{seed}.json"
            argv = ["schedule", "--orbitals", "7", "--mapping", mapping, "--out", str(path)]
            result = python_process(argv, PYTHONHASHSEED=seed)
            assert result.returncode == 0, result.stderr
            written.append(path.read_bytes())
        assert written[0] == written[1], mapping
    verified = [python_process(["verify", "--orbitals", "6"], PYTHONHASHSEED=seed)
                for seed in ("0", "1")]
    assert [r.returncode for r in verified] == [0, 0], [r.stderr for r in verified]
    assert verified[0].stdout == verified[1].stdout


def test_out_of_memory_is_one_error_line(monkeypatch, capsys, tmp_path):
    def no_memory(n):
        raise MemoryError

    monkeypatch.setattr("planesched.cli.build_universe", no_memory)
    for argv in (["stats"], ["verify"], ["schedule", "--out", str(tmp_path / "s.json")]):
        assert main([*argv, "--orbitals", "100000"]) == 1, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: not enough memory for --orbitals 100000\n"), argv


def test_a_closed_stdout_is_not_a_routing_failure(monkeypatch, tmp_path):
    """The reader goes away as the routing line is written: the routing
    check has passed, so no failure line is attempted, and the command ends
    with exit 1 instead of an exception."""

    class ClosingStdout:
        def __init__(self, fd):
            self.fd, self.attempted = fd, []

        def write(self, text):
            self.attempted.append(text)
            if text.startswith("routing_check"):
                raise BrokenPipeError(32, "Broken pipe")
            return len(text)

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    with open(tmp_path / "stdout", "w") as target:
        stdout = ClosingStdout(target.fileno())
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["verify", "--orbitals", "4"]) == 1
    assert "routing_check: pass" in stdout.attempted
    assert not any("fail" in text for text in stdout.attempted), stdout.attempted


# an empty PYTHONUNBUFFERED leaves stdout buffered
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_pipe_exits_one_without_a_traceback(unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = python_process(["verify", "--orbitals", "4"], stdout=write_end,
                                PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (1, "")


def test_estimate_rejects_negative_seed(tmp_path, capsys):
    ham_path = tmp_path / "ham.json"
    random_hamiltonian(2, seed=4).save(str(ham_path))
    with pytest.raises(SystemExit) as err:
        main(["estimate", "--hamiltonian", str(ham_path), "--shots", "10", "--seed", "-5"])
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert "Traceback" not in err_text and "error: --seed" in err_text


def test_estimate_rejects_zero_or_non_finite_amplitudes(tmp_path, capsys):
    ham_path = tmp_path / "ham.json"
    random_hamiltonian(2, seed=4).save(str(ham_path))
    zeros = [[0.0, 0.0]] * 16
    with_nan = [[0.25, 0.0]] * 15 + [[float("nan"), 0.0]]
    with_inf = [[0.25, 0.0]] * 15 + [[0.0, float("inf")]]
    too_big = [[0.25, 0.0]] * 15 + [[TOO_BIG, 0.0]]
    booleans = [[True, False]] + [[False, False]] * 15
    for amplitudes in (zeros, with_nan, with_inf, too_big, booleans):
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps({"amplitudes": amplitudes}))
        for extra in ([], ["--shots", "10"]):
            code = main(["estimate", "--hamiltonian", str(ham_path),
                         "--state", str(state_path), *extra])
            assert code == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err and err.startswith("error: bad state spec")
            assert err.count("\n") == 1


# nesting far deeper than the interpreter's recursion limit: the json
# decoder raises RecursionError, which each load must report as bad input
DEEP_JSON = "[" * 100_000
DEEP_ERROR = "maximum recursion depth exceeded"


def test_verify_out_reports_a_too_deeply_nested_schedule_file(tmp_path, capsys):
    path = tmp_path / "sched.json"
    path.write_text(DEEP_JSON)
    code, out = run(capsys, "verify", "--orbitals", "3", "--out", str(path))
    assert code == 1
    problems = [line for line in out.splitlines() if line.startswith("schedule_file_problem: ")]
    assert len(problems) == 1
    assert problems[0].startswith("schedule_file_problem: unreadable schedule file: ")
    assert DEEP_ERROR in problems[0]
    assert "schedule_file_check: fail" in out and out.endswith("verify_result: fail\n")


def test_verify_out_reports_a_schedule_file_too_large_to_load(tmp_path, capsys, monkeypatch):
    """Running out of memory while loading the file is the file's problem,
    not a failed run: the other checks still report."""
    path = tmp_path / "sched.json"
    path.write_text("{}")

    def too_large(path):
        raise MemoryError

    monkeypatch.setattr(circuits, "load_schedule_dict", too_large)
    assert main(["verify", "--orbitals", "2", "--out", str(path)]) == 1
    out, err = capsys.readouterr()
    problems = [line for line in out.splitlines() if line.startswith("schedule_file_problem: ")]
    assert problems == ["schedule_file_problem: unreadable schedule file: too large to load"]
    assert "schedule_file_check: fail" in out and out.endswith("verify_result: fail\n")
    assert err == ""


def test_estimate_reports_a_too_deeply_nested_hamiltonian(tmp_path, capsys):
    path = tmp_path / "ham.json"
    path.write_text(DEEP_JSON)
    assert main(["estimate", "--hamiltonian", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot load Hamiltonian from {path}: ")
    assert DEEP_ERROR in captured.err and captured.err.count("\n") == 1


def test_estimate_reports_a_too_deeply_nested_state_file(tmp_path, capsys):
    ham_path, state_path = tmp_path / "ham.json", tmp_path / "state.json"
    random_hamiltonian(2, seed=4).save(str(ham_path))
    state_path.write_text(DEEP_JSON)
    assert main(["estimate", "--hamiltonian", str(ham_path), "--state", str(state_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: bad state spec {str(state_path)!r}: ")
    assert DEEP_ERROR in captured.err and captured.err.count("\n") == 1


def test_cli_runs_without_scipy(tmp_path):
    """``schedule``, ``verify`` and ``stats`` use the standard library only;
    ``estimate`` loads numpy and ``sim``, and scipy loads when the dense
    oracle runs.  Pauli coefficients are integers, so ``fractions`` never
    loads.  No class is a dataclass, so neither ``dataclasses`` nor the
    ``inspect`` it imports loads before numpy does."""
    ham_path = tmp_path / "ham.json"
    random_hamiltonian(2, seed=4).save(str(ham_path))
    schedule_path = str(tmp_path / "s.json")
    script = f"""
import contextlib, io, sys
import planesched
import planesched.cli as cli
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
numpy_free = lambda: "numpy" not in sys.modules and "planesched.sim" not in sys.modules
heavy = lambda: [m for m in ("dataclasses", "inspect") if m in sys.modules]
assert numpy_free()
assert not loaded(), loaded()
assert "fractions" not in sys.modules
assert not heavy(), heavy()
with contextlib.redirect_stdout(io.StringIO()):
    for mapping in ("jw", "parity"):
        for argv in (["schedule", "--orbitals", "3", "--out", {schedule_path!r}],
                     ["verify", "--orbitals", "3"],
                     ["verify", "--orbitals", "3", "--out", {schedule_path!r}],
                     ["stats", "--orbitals", "3", "--grid"]):
            assert cli.main(argv + ["--mapping", mapping]) == 0, argv
            assert not heavy(), (argv, heavy())
assert numpy_free(), sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["estimate", "--hamiltonian", {str(ham_path)!r}],
                 ["estimate", "--hamiltonian", {str(ham_path)!r}, "--shots", "10"]):
        assert cli.main(argv) == 0, argv
assert "numpy" in sys.modules and not loaded(), loaded()
assert "fractions" not in sys.modules
from planesched import sim, universe
dense = sim.dense_hamiltonian(universe.random_hamiltonian(2, seed=4), "jw")
assert dense.shape == (16, 16) and loaded()
"""
    result = python_process([script], ("-c",))
    assert result.returncode == 0, result.stderr


ESTIMATE_EXACT_N4 = """\
orbitals: 4
mapping: {mapping}
state: random:7
energy_nuclear: 0.320163665858
energy_part: -1.891705610222
energy_one_body: -0.134943693660
energy_diff_spin: -0.053450321350
energy_same_spin: 0.022958980853
energy: -1.736976978522
"""

ESTIMATE_SHOTS_N4 = {
    "jw": """\
orbitals: 4
mapping: jw
state: random:7
shots_per_clique: 500
seed: 3
energy: -1.778828314972
energy_stderr: 0.182394283010
energy_stderr_part: 0.125451113150
energy_stderr_one_body: 0.109313578537
energy_stderr_diff_spin: 0.040985192341
energy_stderr_same_spin: 0.062453568676
""",
    "parity": """\
orbitals: 4
mapping: parity
state: random:7
shots_per_clique: 500
seed: 3
energy: -1.769923500183
energy_stderr: 0.177244155985
energy_stderr_part: 0.119833378414
energy_stderr_one_body: 0.108011181520
energy_stderr_diff_spin: 0.041571691545
energy_stderr_same_spin: 0.060504804583
""",
}


@pytest.mark.parametrize("mapping", ["jw", "parity"])
def test_estimate_output_is_pinned(tmp_path, capsys, mapping):
    """The full printed output, exact and sampled, so a change to the
    statevector kernel or the sample stream shows up as a diff."""
    path = tmp_path / "ham4.json"
    random_hamiltonian(4, seed=5).save(str(path))
    args = ("estimate", "--hamiltonian", str(path), "--mapping", mapping, "--state", "random:7")
    assert run(capsys, *args) == (0, ESTIMATE_EXACT_N4.format(mapping=mapping))
    assert run(capsys, *args, "--shots", "500", "--seed", "3") == (0, ESTIMATE_SHOTS_N4[mapping])
