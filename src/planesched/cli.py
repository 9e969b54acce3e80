"""Command-line front end: schedule | verify | estimate | stats.

Stats go to stdout as stable ``key: value`` lines; the schedule itself is
written only to the requested file.  Exit codes: 0 success, 1 verification
failure, 2 usage error.  Only ``estimate`` imports ``sim`` and numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TYPE_CHECKING

from . import circuits as circuits_mod
from . import cover as cover_mod
from . import graphcheck as graph_mod
from .universe import (
    FAMILIES,
    Decomposition,
    TermKey,
    build_universe,
    classify_terms,
    decompose,
    load_hamiltonian,
    route_term,
)

if TYPE_CHECKING:
    import numpy as np


def _print_stats(stats: dict) -> None:
    for key, value in stats.items():
        if isinstance(value, dict):
            value = " ".join(f"{k}:{v}" for k, v in value.items())
        print(f"{key}: {value}")


def _build_schedule(n: int, mapping: str):
    universe = build_universe(n)
    return circuits_mod.emit_schedule(universe, mapping)


def cmd_schedule(args: argparse.Namespace) -> int:
    schedule = _build_schedule(args.orbitals, args.mapping)
    try:
        circuits_mod.write_schedule(schedule, args.out)
    except OSError as exc:
        print(f"error: cannot write schedule to {args.out}: {exc}", file=sys.stderr)
        return 1
    _print_stats(schedule.stats())
    print(f"schedule_file: {args.out}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    schedule = _build_schedule(args.orbitals, args.mapping)
    _print_stats(schedule.stats())
    if args.grid:
        pi = schedule.universe.pi
        from .plane import ascii_grid

        print("label_grid:")
        # only labels 0..N-1 are placed; the conic has p+1 points
        print(ascii_grid(pi, cover_mod.place_s_points(pi)[:args.orbitals]))
    return 0


def _schedule_file_problems(path: str, schedule: circuits_mod.Schedule | None) -> list[str]:
    """How the file differs from the schedule emitted for this run: nothing
    when the bytes are equal, else a field-by-field report."""
    if schedule is None:
        return ["no schedule to compare the file with: emission failed"]
    try:
        if circuits_mod.schedule_file_matches(schedule, path):
            return []
        data = circuits_mod.load_schedule_dict(path)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        return [f"unreadable schedule file: {exc}"]
    return circuits_mod.verify_schedule_dict(data, schedule)


def cmd_verify(args: argparse.Namespace) -> int:
    n = args.orbitals
    failures: list[str] = []

    universe = build_universe(n)
    pi = universe.pi
    if not cover_mod.check_no_three_collinear(pi):
        failures.append("three placed labels found on one line")
    if not cover_mod.check_unique_tangent(pi):
        failures.append("a placed label lacks a unique tangent")
    print(f"lemma_checks: {'pass' if not failures else 'fail'} (order {pi})")

    graph = graph_mod.build_graph(n)
    report = graph_mod.verify_cover(graph, universe.anchor_groups)
    print(f"cover_check: {'pass' if report.ok else 'fail'}")
    if not report.ok:
        failures.append("cover verification failed")
        print(report.summary())
    print(f"cover_lower_bound: {graph_mod.lower_bound(n)}")
    print(f"cover_size: {len(universe.anchor_groups)}")

    try:
        for term in classify_terms(n):
            route_term(term, universe)
        print("routing_check: pass")
    except Exception as exc:  # noqa: BLE001 - report and fail
        failures.append(f"routing failed: {exc}")
        print("routing_check: fail")

    try:
        schedule = circuits_mod.emit_schedule(universe, args.mapping)
        print("emission_check: pass")
    except circuits_mod.DiagonalizationError as exc:
        failures.append(f"emission failed: {exc}")
        print("emission_check: fail")
        schedule = None

    if schedule is not None:
        problems = circuits_mod.conjugation_problems(schedule)
        checked = sum(len(mc.ops) for mc in universe.cliques)
        print(f"conjugation_tripwire: {'pass' if not problems else 'fail'} "
              f"(exact, {checked} operators, {len(problems)} failing)")
        for p in problems[:10]:
            print(f"conjugation_problem: {p}")
        if problems:
            failures.append("conjugation tripwire failed")

    if args.out:
        problems = _schedule_file_problems(args.out, schedule)
        print(f"schedule_file_check: {'pass' if not problems else 'fail'}")
        for p in problems:
            print(f"schedule_file_problem: {p}")
        failures.extend(problems)

    print(f"verify_result: {'pass' if not failures else 'fail'}")
    return 0 if not failures else 1


def _parse_state(spec: str, n_qubits: int) -> np.ndarray:
    import numpy as np

    from . import sim as sim_mod

    if spec.startswith("random:"):
        return sim_mod.random_occupation_state(n_qubits, int(spec.split(":", 1)[1]))
    if spec.startswith("basis:"):
        bits = spec.split(":", 1)[1]
        if len(bits) != n_qubits:
            raise ValueError(f"basis spec needs {n_qubits} bits, got {len(bits)}")
        return sim_mod.basis_occupation_state(bits)
    with open(spec) as f:
        data = json.load(f)
    if not isinstance(data, dict) or not isinstance(data.get("amplitudes"), list):
        raise ValueError('amplitude file needs {"amplitudes": [[re, im], ...]}')
    try:
        amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"amplitudes must be [re, im] number pairs: {exc}") from exc
    if any(isinstance(x, bool) for pair in data["amplitudes"] for x in pair):
        raise ValueError("amplitudes must be [re, im] number pairs, not booleans")
    if amps.shape != (1 << n_qubits,):
        raise ValueError(f"amplitude file has {amps.shape[0]} entries, expected {1 << n_qubits}")
    if not np.all(np.isfinite(amps)):
        raise ValueError("amplitudes must be finite")
    norm = np.linalg.norm(amps)
    if norm == 0.0:
        raise ValueError("amplitudes are all zero")
    if abs(norm - 1.0) > 1e-9:
        amps = amps / norm
    return amps


def _family_contributions(
    primitives: dict[TermKey, float],
    schedule: circuits_mod.Schedule,
    decomposition: Decomposition,
    grouped: dict[int, list[TermKey]],
) -> dict[str, float]:
    const, coeffs = decomposition
    family_of = {term: schedule.universe.cliques[cid].family
                 for cid, terms in grouped.items() for term in terms}
    contributions = {"nuclear": const, **dict.fromkeys(FAMILIES, 0.0)}
    for term, c in coeffs.items():
        contributions[family_of[term]] += c * primitives[term]
    return contributions


def cmd_estimate(args: argparse.Namespace) -> int:
    # numpy loads here, not for the other commands; sim first, since it
    # pins the BLAS threads before numpy loads
    from . import sim as sim_mod
    import numpy as np

    try:
        ham = load_hamiltonian(args.hamiltonian)
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: cannot load Hamiltonian from {args.hamiltonian}: {exc}", file=sys.stderr)
        return 1
    n = ham.n_orbitals
    if n < 2:
        print(f"error: Hamiltonian in {args.hamiltonian} has n_orbitals {n}; need at least 2",
              file=sys.stderr)
        return 1
    if args.orbitals is not None and args.orbitals != n:
        print(f"error: --orbitals {args.orbitals} but Hamiltonian has {n}", file=sys.stderr)
        return 2
    try:
        sim_mod.check_size(2 * n)
    except sim_mod.SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    schedule = _build_schedule(n, args.mapping)
    try:
        occ = _parse_state(args.state, 2 * n)
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: bad state spec {args.state!r}: {exc}", file=sys.stderr)
        return 2
    state = sim_mod.occupation_to_qubit_state(occ, args.mapping, 2 * n)
    # an overflow is reported as one error line, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            decomposition = decompose(ham)
        except ValueError as exc:
            print(f"error: cannot decompose the Hamiltonian in {args.hamiltonian}: {exc}",
                  file=sys.stderr)
            return 1
        if args.shots == 0:
            grouped = sim_mod.terms_by_clique(schedule)
            primitives = sim_mod.primitive_expectations(state, schedule, grouped)
            report = sim_mod.assemble_report(primitives, schedule, ham, decomposition)
            contributions = _family_contributions(primitives, schedule, decomposition, grouped)
            energies = {f"energy_{family}": value for family, value in contributions.items()}
            energies["energy"] = report.energy
        else:
            sampled = sim_mod.estimate_energy_sampled(
                state, schedule, ham, args.shots, args.seed, decomposition
            )
            energies = {"energy": sampled.energy, "energy_stderr": sampled.stderr}
            for family, value in sampled.family_stderr.items():
                energies[f"energy_stderr_{family}"] = value
    for key, value in energies.items():
        if not math.isfinite(value):
            print(f"error: {key} is {value}: the Hamiltonian's coefficients overflow a float",
                  file=sys.stderr)
            return 1
    print(f"orbitals: {n}")
    print(f"mapping: {args.mapping}")
    print(f"state: {args.state}")
    if args.shots:
        print(f"shots_per_clique: {args.shots}")
        print(f"seed: {args.seed}")
    for key, value in energies.items():
        print(f"{key}: {value:.12f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planesched",
        description="Measurement scheduling for molecular Hamiltonians "
        "via finite projective planes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, orbitals_required: bool = True) -> None:
        p.add_argument("--orbitals", type=int, required=orbitals_required,
                       help="number of spatial orbitals N (2N spin orbitals)")
        p.add_argument("--mapping", choices=("jw", "parity"), default="jw")

    p_sched = sub.add_parser("schedule", help="emit all measurement circuits to a file")
    common(p_sched)
    p_sched.add_argument("--out", required=True, help="output schedule path (JSON)")
    p_sched.set_defaults(func=cmd_schedule)

    p_stats = sub.add_parser("stats", help="print clique and circuit statistics")
    common(p_stats)
    p_stats.add_argument("--grid", action="store_true",
                         help="also print the label placement grid")
    p_stats.set_defaults(func=cmd_stats)

    p_verify = sub.add_parser("verify", help="run construction and circuit checks")
    common(p_verify)
    p_verify.add_argument("--out", help="schedule file to cross-check, if any")
    p_verify.set_defaults(func=cmd_verify)

    p_est = sub.add_parser("estimate", help="estimate the energy of a state")
    common(p_est, orbitals_required=False)
    p_est.add_argument("--hamiltonian", required=True, help="Hamiltonian JSON file")
    p_est.add_argument("--state", default="random:0",
                       help="random:<seed>, basis:<bits>, or an amplitude file")
    p_est.add_argument("--shots", type=int, default=0, help="0 for exact estimation")
    p_est.add_argument("--seed", type=int, default=0, help="sampling seed")
    p_est.set_defaults(func=cmd_estimate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "orbitals", None) is not None and args.orbitals < 2:
        build_parser().error("--orbitals must be at least 2")
    # the sampler's multinomial counts are int64
    if not 0 <= getattr(args, "shots", 0) <= 2**63 - 1:
        build_parser().error("--shots must be 0 (exact) or positive, at most 2**63 - 1")
    if getattr(args, "seed", 0) < 0:
        build_parser().error("--seed must be 0 or positive")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
