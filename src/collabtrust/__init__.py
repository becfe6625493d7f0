"""collabtrust: deterministic simulator for collaborative device checking.

A group of devices cross-checks each other's test-routine outputs; a device
whose output a strict majority of its checkers disputes is flagged and
excluded. The package models the routines, the adversaries (Trojan-style
functional faults, lying reporters, evading initiators), the majority
verdict rule, a seeded lossy network walked round by round, and
energy/detection accounting, all bit-reproducible from a single seed.
"""

from .adversary import (
    AdversaryProfile,
    FaultKind,
    InitiatorKind,
    Opinion,
    PayloadKind,
    ReportingKind,
    TrojanModel,
    apply_fault,
    choose_adversarial_operands,
    distort_opinion,
    trigger_probability,
)
from .errors import ContractError, GroupFormationError, ProtocolViolation, ScenarioError
from .metrics import EnergyModel, lossless_messages_per_round
from .report import Report, emit_report
from .routines import (
    Kind,
    RoutineSpec,
    compose,
    execute,
    generate_operands,
    routine_catalog,
)
from .scenario import Scenario, load_scenario, parse_scenario, scenario_from_dict
from .simnet import NetworkModel, RunResult, run_simulation
from .verdict import (
    Outcome,
    SuspicionLedger,
    Tally,
    Verdict,
    compute_verdict,
    decision_table,
    default_quorum,
    update_suspicion,
)

__version__ = "0.1.0"
