"""Run one planesched CLI command with spans recorded around its layers.

Usage: python3 perfbench/traced_cli.py <spans.json> <cli arguments...>

The package is not edited.  After ``planesched.cli`` is imported, each
function below is replaced, at the module attribute its callers look it up
through, by a wrapper that records a span (name, start, end, parent index)
or bumps a counter.  Spans stay in memory and are written to <spans.json>
when the command returns.  A hook whose attribute no longer exists is listed
under ``missing``; the benchmark counts such a command as failed, so a
refactor that renames a layer function has to update the hooks with it.

The file also holds the tracer's own cost, ``overhead``: installing the
hooks, calibrating and encoding the spans are timed directly; the wrappers'
cost is a per-call cost, calibrated in the same process after the command,
times the number of wrapped calls.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import sys
import time

perf = time.perf_counter

COMMANDS = ("schedule", "verify", "estimate")
CALIBRATION_CALLS = 2000  # wrapped no-op calls per timing,
CALIBRATION_REPEATS = 5  # and timings per wrapper kind; the median counts

# span name -> every (module, attribute) through which the program calls it
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "universe.build_universe": (
        ("planesched.cli", "build_universe"),
        # verify_schedule_dict imports it from the module at call time
        ("planesched.universe", "build_universe"),
    ),
    "cover.build_cover": (("planesched.universe", "build_cover"),),
    "roundrobin.build_rounds": (("planesched.universe", "build_rounds"),),
    "cover.lemma_checks": (
        ("planesched.cover", "check_no_three_collinear"),
        ("planesched.cover", "check_unique_tangent"),
    ),
    "graphcheck.build_graph": (("planesched.graphcheck", "build_graph"),),
    "graphcheck.verify_cover": (("planesched.graphcheck", "verify_cover"),),
    "universe.classify_terms": (
        ("planesched.cli", "classify_terms"),
        ("planesched.sim", "classify_terms"),
    ),
    "universe.route_term": (
        ("planesched.cli", "route_term"),
        ("planesched.sim", "route_term"),
    ),
    "universe.decompose": (
        ("planesched.cli", "decompose"),
        ("planesched.sim", "decompose"),
    ),
    "universe.load_hamiltonian": (("planesched.cli", "load_hamiltonian"),),
    "circuits.emit": (("planesched.circuits", "emit"),),
    "swapnet.odd_even_sort": (("planesched.circuits", "odd_even_sort"),),
    "circuits.schedule_to_dict": (("planesched.circuits", "schedule_to_dict"),),
    # schedule_json's self time is the json.dumps of the finished dict
    "circuits.encode": (("planesched.circuits", "schedule_json"),),
    "circuits.write": (("planesched.circuits", "write_schedule"),),
    "circuits.load_schedule_dict": (("planesched.circuits", "load_schedule_dict"),),
    "circuits.verify_schedule_dict": (("planesched.circuits", "verify_schedule_dict"),),
    "sim.conjugate_by_circuit": (("planesched.sim", "conjugate_by_circuit"),),
    "sim.operator_matrix": (("planesched.sim", "operator_matrix"),),
    "sim.apply_circuit": (("planesched.sim", "apply_circuit"),),
    "sim.primitive_expectations": (("planesched.sim", "primitive_expectations"),),
    "sim.estimate_energy_sampled": (("planesched.sim", "estimate_energy_sampled"),),
    "sim.assemble_report": (("planesched.sim", "assemble_report"),),
}

# counter-only hooks: called too often, or too cheap, to be worth a span
COUNTED: dict[str, tuple[tuple[str, str], ...]] = {
    "circuits.decode_tables": (("planesched.circuits", "_decode_from_diagonal"),),
    "circuits.matrices_serialized": (("planesched.circuits", "_matrix_to_pairs"),),
    "sim.decode_value_vector_calls": (("planesched.sim", "decode_value_vector"),),
}


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# counters derived from a spanned call: span name -> f(args, result) -> {counter: n}
SPAN_COUNTERS = {
    "universe.build_universe": lambda a, r: {"universe.cliques": len(r.cliques)},
    "cover.build_cover": lambda a, r: {"cover.anchor_groups": len(r)},
    "roundrobin.build_rounds": lambda a, r: {"roundrobin.rounds": len(r)},
    "graphcheck.build_graph": lambda a, r: {"graphcheck.edges": len(r.edges)},
    "universe.classify_terms": lambda a, r: {"universe.terms": len(r)},
    "universe.route_term": lambda a, r: {"universe.route_calls": 1},
    "universe.decompose": lambda a, r: {"universe.decompose_calls": 1},
    "circuits.emit": lambda a, r: {"circuits.cliques_emitted": 1,
                                   "circuits.gates_emitted": len(r.gates)},
    "swapnet.odd_even_sort": lambda a, r: {"swapnet.swaps": r.swap_count},
    "circuits.write": lambda a, r: {"circuits.bytes_written": _file_size(a[1])},
    "circuits.load_schedule_dict": lambda a, r: {"circuits.bytes_read": _file_size(a[0])},
    "sim.conjugate_by_circuit": lambda a, r: {"sim.conjugations": 1},
    "sim.apply_circuit": lambda a, r: {"sim.circuits_applied": 1},
}

# every counter a dump can hold; one that never fired reads 0
COUNTERS = (*COUNTED, "circuits.decode_tables_distinct",
            "universe.cliques", "cover.anchor_groups", "roundrobin.rounds", "graphcheck.edges",
            "universe.terms", "universe.route_calls", "universe.decompose_calls",
            "circuits.cliques_emitted", "circuits.gates_emitted", "swapnet.swaps",
            "circuits.bytes_written", "circuits.bytes_read", "sim.conjugations",
            "sim.circuits_applied")


class Tracer:
    """Spans and counters of one process, kept in memory until ``dump``."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.decode_values: set[tuple[int, ...]] = set()
        self.missing: list[str] = []

    def count(self, name: str, k: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    def spanned(self, name: str, fn):
        derive = SPAN_COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            rec = [name, perf(), 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf()
                self.stack.pop()
            if derive is not None:
                for key, k in derive(args, result).items():
                    self.count(key, k)
            return result

        return wrapper

    def counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.count(name)
            result = fn(*args, **kwargs)
            if name == "circuits.decode_tables":
                self.decode_values.add(tuple(result.values))
            return result

        return wrapper

    def install(self) -> None:
        hooks = [(name, sites, self.spanned) for name, sites in SPANS.items()]
        hooks += [(name, sites, self.counted) for name, sites in COUNTED.items()]
        for name, sites, make in hooks:
            wrapped: dict[int, object] = {}  # one wrapper per function object
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = make(name, fn)
                setattr(module, attr, wrapped[id(fn)])

    def wrapped_calls(self) -> tuple[int, int]:
        """Calls that went through a span wrapper, and through a counter wrapper."""
        return len(self.spans) - 1, sum(self.counters.get(name, 0) for name in COUNTED)

    def dump(self, path: str, overhead: dict[str, float]) -> None:
        start = perf()
        counters = dict(self.counters)
        counters["circuits.decode_tables_distinct"] = len(self.decode_values)
        body = json.dumps({"spans": self.spans, "counters": counters,
                           "missing": self.missing})
        overhead["encode_s"] = perf() - start
        overhead["total_s"] = sum(overhead.values())
        with open(path, "w") as f:
            f.write(f'{{"overhead": {json.dumps(overhead)}, "trace": {body}}}')


def calibrate() -> tuple[float, float]:
    """Seconds one span wrapper, and one counter wrapper, add to a call."""
    probe = Tracer()

    def noop(*args):
        return None

    def per_call(fn) -> float:
        times = []
        for _ in range(CALIBRATION_REPEATS):
            start = perf()
            for _ in range(CALIBRATION_CALLS):
                fn(None)
            times.append(perf() - start)
        return statistics.median(times) / CALIBRATION_CALLS

    bare = per_call(noop)
    # a spanned hook that derives a counter, and a plain counted hook
    span = per_call(probe.spanned("sim.apply_circuit", noop)) - bare
    count = per_call(probe.counted("circuits.matrices_serialized", noop)) - bare
    return max(span, 0.0), max(count, 0.0)


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    start = perf()
    import planesched.cli as cli

    tracer.spans.append(["cli.import", start, perf(), -1])
    start = perf()
    tracer.install()
    overhead = {"install_s": perf() - start}
    root = tracer.spanned(f"cli.{cli_args[0]}", cli.main)
    try:
        code = root(cli_args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        start = perf()
        span_cost, count_cost = calibrate()
        spans, counts = tracer.wrapped_calls()
        overhead["calibrate_s"] = perf() - start
        overhead["wrappers_s"] = spans * span_cost + counts * count_cost
        tracer.dump(out_path, overhead)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
