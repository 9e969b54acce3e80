"""Measurement scheduling for molecular Hamiltonians via finite projective planes.

Builds the 2N^2 - 2N + 1 simultaneously measurable operator groups for a
2N-spin-orbital Hamiltonian, emits per-group measurement circuits under the
Jordan-Wigner and parity mappings, and verifies the whole pipeline against
exact statevector oracles at small N.
"""

from .circuits import Schedule, emit, emit_schedule, schedule_json, write_schedule
from .cover import build_cover, check_no_three_collinear, check_unique_tangent, place_s_points
from .gf import smallest_prime_at_least
from .graphcheck import build_graph, lower_bound, verify_cover
from .plane import build_plane
from .roundrobin import build_rounds
from .universe import (
    Hamiltonian,
    HoppingOp,
    MeasurementClique,
    Universe,
    build_universe,
    classify_terms,
    load_hamiltonian,
    random_hamiltonian,
    route_term,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    """``ExpectationReport`` and ``estimate_all`` come from ``sim``, which
    loads numpy, so they are imported on first use."""
    if name in ("ExpectationReport", "estimate_all"):
        from . import sim

        return getattr(sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ExpectationReport",
    "Hamiltonian",
    "HoppingOp",
    "MeasurementClique",
    "Schedule",
    "Universe",
    "build_cover",
    "build_graph",
    "build_plane",
    "build_rounds",
    "build_universe",
    "check_no_three_collinear",
    "check_unique_tangent",
    "classify_terms",
    "emit",
    "emit_schedule",
    "estimate_all",
    "load_hamiltonian",
    "lower_bound",
    "place_s_points",
    "random_hamiltonian",
    "route_term",
    "schedule_json",
    "smallest_prime_at_least",
    "verify_cover",
    "write_schedule",
]
