"""Exception types shared across the simulator."""


class ContractError(ValueError):
    """An operation was called with inputs that violate its contract."""


class ScenarioError(Exception):
    """A scenario document is malformed or violates a constraint.

    Raised at load/validation time, never during a run. The message names
    the offending path within the document.
    """


class GroupFormationError(Exception):
    """Not enough eligible devices remain to form a group."""


class ProtocolViolation(RuntimeError):
    """A run ended with one of its identities broken: message conservation or an energy ledger.

    This indicates a simulator bug, not a scenario problem; runs abort.
    """
