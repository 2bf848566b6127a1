"""Reversible-logic circuit toolkit.

Build and simulate Toffoli-family circuits, rewrite machines to control their
garbage bits, profile the reachable garbage configurations exhaustively, and
invert machines by running them backward over known configurations.
"""
from .ir import (
    Circuit,
    Gate,
    GateKind,
    InterfaceSpec,
    InvalidCircuitError,
    Machine,
    concat,
    inverse,
    inverse_machine,
    make_gate,
    remap,
)
from .sim import (
    EXHAUSTIVE_BOUND,
    BitState,
    ExhaustiveBoundError,
    FunctionTable,
    RestorationViolationError,
    initial_state,
    is_injective,
    run,
    step,
    truth_table,
)
from .transforms import NotInversePairError, bennett, copy_fanout, zero_garbage_compose
from .library import decrementer, incrementer, ripple_adder
from .analysis import (
    ConformanceReport,
    GarbageProfile,
    GrowthReport,
    InsufficientPointsError,
    classify_growth,
    conformance,
    garbage_configs,
    garbage_profile,
    growth_report,
)
from .invert import (
    InversionError,
    InversionResult,
    NoMatchingConfigError,
    TrialBudgetExceededError,
    invert_blind,
    invert_with_profile,
)
from .fileformat import CircuitSyntaxError, parse_circuit, serialize

__version__ = "0.1.0"

__all__ = [
    "BitState",
    "Circuit",
    "CircuitSyntaxError",
    "ConformanceReport",
    "EXHAUSTIVE_BOUND",
    "ExhaustiveBoundError",
    "FunctionTable",
    "GarbageProfile",
    "Gate",
    "GateKind",
    "GrowthReport",
    "InsufficientPointsError",
    "InterfaceSpec",
    "InvalidCircuitError",
    "InversionError",
    "InversionResult",
    "Machine",
    "NoMatchingConfigError",
    "NotInversePairError",
    "RestorationViolationError",
    "TrialBudgetExceededError",
    "bennett",
    "classify_growth",
    "concat",
    "conformance",
    "copy_fanout",
    "decrementer",
    "garbage_configs",
    "garbage_profile",
    "growth_report",
    "incrementer",
    "initial_state",
    "inverse",
    "inverse_machine",
    "invert_blind",
    "invert_with_profile",
    "is_injective",
    "make_gate",
    "parse_circuit",
    "remap",
    "ripple_adder",
    "run",
    "serialize",
    "step",
    "truth_table",
    "zero_garbage_compose",
]
