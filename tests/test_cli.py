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
    data["cliques"][5]["ops"][0][0] = 99
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
    10: (11, """\
y=10 . . . . . . . . . . .
y=9 . . . S . . . . S . .
y=8 . . . . . . . . . . .
y=7 . . . . . . . . . . .
y=6 . . . . . . . . . . .
y=5 . . . . S . . S . . .
y=4 . . S . . . . . . S .
y=3 . . . . . S S . . . .
y=2 . . . . . . . . . . .
y=1 . S . . . . . . . . .
y=0 S . . . . . . . . . .
    0 1 2 3 4 5 6 7 8 9 10
alpha: .
"""),
}


@pytest.mark.parametrize("n", sorted(GRID_PINS))
def test_grid_output_is_pinned(capsys, n):
    """At N=10 the plane order, 11, exceeds N-1."""
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

    # the sampler's counts are int64: 2**63 - 1 shots is the largest that runs
    for shots in (-5, 2**63, 10**20):
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
    "list", {"e_nuc": None}, {"n_orbitals": [2]}, {"n_orbitals": 2.5}, {"h": {}},
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


def test_estimate_orbitals_mismatch_exits_two(tmp_path, capsys):
    path = tmp_path / "ham.json"
    random_hamiltonian(2, seed=4).save(str(path))
    assert main(["estimate", "--hamiltonian", str(path), "--orbitals", "3"]) == 2
    assert_one_line_error(capsys, stdout="")


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
    # the child imports this same copy of the package
    package_root = os.path.dirname(os.path.dirname(planesched.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, timeout=120)
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
energy: -1.933252774197
energy_stderr: 0.178938296539
energy_stderr_part: 0.119476810597
energy_stderr_one_body: 0.109274908292
energy_stderr_diff_spin: 0.041801000085
energy_stderr_same_spin: 0.063685763774
""",
    "parity": """\
orbitals: 4
mapping: parity
state: random:7
shots_per_clique: 500
seed: 3
energy: -1.954714063092
energy_stderr: 0.179938841542
energy_stderr_part: 0.123389934914
energy_stderr_one_body: 0.106718459119
energy_stderr_diff_spin: 0.041842403112
energy_stderr_same_spin: 0.063350567816
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
