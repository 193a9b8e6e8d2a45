"""Dense state-vector simulator and the foundational quantum algorithm suite."""

from . import algorithms, circuit, gates, gf2, numtheory, oracles, qstate
from .circuit import Circuit, equiv_up_to_phase, run, simulate, unitary_of
from .gates import Gate, GateApplication, is_unitary, standard_gate
from .oracles import BooleanExpr, PermutationOracle, TruthTable
from .qstate import Distribution, StateVector, basis_state, kron, probabilities

__version__ = "0.1.0"

__all__ = [
    "BooleanExpr",
    "Circuit",
    "Distribution",
    "Gate",
    "GateApplication",
    "PermutationOracle",
    "StateVector",
    "TruthTable",
    "algorithms",
    "basis_state",
    "circuit",
    "equiv_up_to_phase",
    "gates",
    "gf2",
    "is_unitary",
    "kron",
    "numtheory",
    "oracles",
    "probabilities",
    "qstate",
    "run",
    "simulate",
    "standard_gate",
    "unitary_of",
]
