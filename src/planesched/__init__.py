"""Measurement scheduling for molecular Hamiltonians via finite projective planes.

Builds the 2N^2 - 2N + 1 simultaneously measurable operator groups for a
2N-spin-orbital Hamiltonian (N even, N - 1 a prime or an odd prime power;
2N^2 - N groups at odd N, N a prime or an odd prime power), emits
per-group measurement circuits under the Jordan-Wigner and parity
mappings, and verifies the whole pipeline against exact statevector oracles
at small N.
"""
