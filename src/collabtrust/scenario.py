"""Scenario documents: the JSON surface that configures a run.

`_build` reads each object of a document into the record it builds, so the
empty document is `Scenario()`: the five-device vignette, all devices
honest. Unknown keys and constraint violations are load-time errors that
name the offending path; a validated scenario never fails at run time.
"""

from __future__ import annotations

import functools
import json
from enum import Enum

from .adversary import (
    AdversaryProfile,
    FaultKind,
    InitiatorKind,
    PayloadKind,
    ReportingKind,
    TrojanModel,
)
from .errors import ContractError, ScenarioError
from .metrics import EnergyModel
from .record import Frozen
from .routines import Kind, RoutineSpec, routine_catalog
from .simnet import NetworkModel, RunPlan
from .verdict import default_quorum

# A run keeps state only for the devices that join a group, and the report
# is streamed out a chunk of rows at a time, so memory does not grow with
# the population; but the report still has a row for every device, about
# 180 bytes of JSON each, so the loader caps the population to bound what
# one run writes.
MAX_POPULATION = 100_000


class Scenario(Frozen):
    def __init__(
        self,
        population: int = 5,
        group_size: int = 5,
        rounds: int = 25,
        regroup_period: int = 5,
        seed: int = 0,
        quorum: int | None = None,  # None: default_quorum(group_size - 1)
        round_deadline: int = 10,
        repetitions: int = 1,
        flag_threshold: int = 1,
        network: NetworkModel = NetworkModel(),
        energy: EnergyModel = EnergyModel(),
        routines: tuple[RoutineSpec, ...] = (),
        adversaries: tuple[tuple[int, AdversaryProfile], ...] = (),
    ):
        self.population = population
        self.group_size = group_size
        self.rounds = rounds
        self.regroup_period = regroup_period
        self.seed = seed
        self.quorum = default_quorum(group_size - 1) if quorum is None else quorum
        self.round_deadline = round_deadline
        self.repetitions = repetitions
        self.flag_threshold = flag_threshold
        self.network = network
        self.energy = energy
        self.routines = routines
        self.adversaries = adversaries
        if self.population > MAX_POPULATION:
            raise ScenarioError(
                f"population: must be at most {MAX_POPULATION}, got {self.population}"
            )
        if self.group_size < 3:
            raise ScenarioError(f"group_size: must be at least 3, got {self.group_size}")
        if self.group_size > self.population:
            raise ScenarioError(
                f"group_size: must not exceed population ({self.group_size} > {self.population})"
            )
        if self.rounds < 1:
            raise ScenarioError(f"rounds: must be at least 1, got {self.rounds}")
        if self.regroup_period < 1:
            raise ScenarioError(
                f"regroup_period: must be at least 1, got {self.regroup_period}"
            )
        if not 1 <= self.quorum <= self.group_size - 1:
            raise ScenarioError(
                f"quorum: must be in [1, {self.group_size - 1}], got {self.quorum}"
            )
        if self.round_deadline < 1:
            raise ScenarioError(
                f"round_deadline: must be at least 1, got {self.round_deadline}"
            )
        if self.repetitions < 1:
            raise ScenarioError(f"repetitions: must be at least 1, got {self.repetitions}")
        if self.flag_threshold < 1:
            raise ScenarioError(
                f"flag_threshold: must be at least 1, got {self.flag_threshold}"
            )
        if self.network.latency_max >= self.round_deadline:
            raise ScenarioError(
                f"network.latency_max: must be below round_deadline "
                f"({self.network.latency_max} >= {self.round_deadline})"
            )
        seen = set()
        for device, profile in self.adversaries:
            if not 0 <= device < self.population:
                raise ScenarioError(
                    f"adversaries: device {device} outside population [0, {self.population})"
                )
            if device in seen:
                raise ScenarioError(f"adversaries: duplicate entry for device {device}")
            seen.add(device)
            if device in profile.targets:
                raise ScenarioError(
                    f"adversaries: device {device} lists itself in targets"
                )
            for target in profile.targets:
                if not 0 <= target < self.population:
                    raise ScenarioError(
                        f"adversaries: device {device} targets {target}, "
                        f"outside population [0, {self.population})"
                    )
        routine_ids = set()
        for spec in self.routines:
            if spec.id in routine_ids:
                raise ScenarioError(f"routines: duplicate id {spec.id}")
            routine_ids.add(spec.id)
        by_id = {spec.id: spec for spec in routine_catalog()}
        for spec in self.routines:
            by_id[spec.id] = spec
        table = tuple(by_id[i] for i in sorted(by_id))
        min_arity = min(spec.arity for spec in table)
        min_width = min(spec.width for spec in table)
        for device, profile in self.adversaries:
            model = profile.trojan
            if model is None:
                continue
            path = f"adversaries (device {device}).trigger"
            if model.operand_index >= min_arity:
                raise ScenarioError(
                    f"{path}.index: {model.operand_index} out of range; the narrowest "
                    f"routine takes {min_arity} operands"
                )
            if model.mask >= (1 << min_width):
                raise ScenarioError(
                    f"{path}.mask: {model.mask:#x} wider than the narrowest routine "
                    f"width {min_width}"
                )
            if model.payload is not PayloadKind.COMPLEMENT and model.payload_value >= (
                1 << min_width
            ):
                raise ScenarioError(
                    f"adversaries (device {device}).payload.value: "
                    f"{model.payload_value:#x} wider than width {min_width}"
                )

        # Derived once from the fields above, so not compared: the resolved
        # document, that is the routine table (the catalog with the
        # document's routines added or overriding, in id order) and the
        # sparse adversary map (devices it does not list are honest), and
        # the run plan, what every run derives from them and no seed changes.
        self.routine_order = table
        self.adversary_map = dict(self.adversaries)
        self.plan = RunPlan(self)


def _int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}: expected an integer, got {value!r}")
    return value


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ScenarioError(f"{path}: number out of range") from None


def _enum(cls, value, path: str):
    try:
        return cls(value)
    except ValueError:
        options = ", ".join(e.value for e in cls)
        raise ScenarioError(f"{path}: {value!r} is not one of {options}") from None


def _tuple_of(parse):
    """A parser of a JSON list into the tuple of its entries, each read by `parse`."""

    def parse_list(value, path: str) -> tuple:
        if not isinstance(value, list):
            raise ScenarioError(f"{path}: expected a list")
        return tuple(parse(entry, f"{path}[{i}]") for i, entry in enumerate(value))

    return parse_list


# The default of a parameter that has none.
_REQUIRED = object()


# Memoized, because a document may list thousands of entries of one kind.
@functools.cache
def _parameters(make) -> dict:
    """`make`'s parameters, in order, each mapped to its default or `_REQUIRED`.

    They are read from the code object of `make`, or of its `__init__` for
    a class (less `self`): its positional parameters, and the defaults of
    the last of them. `make` takes no keyword-only parameter.
    """
    func = make.__init__ if isinstance(make, type) else make
    code = func.__code__
    names = code.co_varnames[isinstance(make, type) : code.co_argcount]
    defaults = func.__defaults__ or ()
    return dict(zip(names, (_REQUIRED,) * (len(names) - len(defaults)) + defaults))


def _build(make, obj, path: str, **parsers):
    """`make(**keys)` from the JSON object `obj` at `path`; its keys are `make`'s parameters.

    The parameters and their defaults are those `_parameters` reads from
    `make`'s code. A key the object leaves out keeps its parameter's
    default; a parameter without one is a required key. A present key is
    read by its parser in `parsers` (called with the value and the key's
    path), else by its default's type: an Enum member's Enum, a number for
    a float, an integer otherwise. A ContractError from `make` is reported
    at `path`.
    """
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    prefix = f"{path}." if path else ""
    params = _parameters(make)
    for key in obj:
        if key not in params:
            # repr() keeps a key with a line break or control character on one line.
            name = key if isinstance(key, str) and key.isprintable() else repr(key)
            raise ScenarioError(f"{prefix}{name}: unknown key")
    required = [name for name, default in params.items() if default is _REQUIRED]
    if not obj.keys() >= set(required):
        raise ScenarioError(f"{path}: entries need {' and '.join(map(repr, required))}")
    kwargs = {}
    for key, value in obj.items():
        default = params[key]
        if key in parsers:
            kwargs[key] = parsers[key](value, prefix + key)
        elif isinstance(default, Enum):
            kwargs[key] = _enum(type(default), value, prefix + key)
        elif isinstance(default, float):
            kwargs[key] = _number(value, prefix + key)
        else:
            kwargs[key] = _int(value, prefix + key)
    try:
        return make(**kwargs)
    except ContractError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


_kind = functools.partial(_enum, Kind)
_parse_routine = functools.partial(_build, RoutineSpec, kind=_kind, steps=_tuple_of(_kind))


def _trigger(index=0, mask=0, match=0):
    return index, mask, match


def _payload(kind, value=None):
    return kind, value


def _adversary(
    device,
    fault=FaultKind.HONEST,
    trigger=None,
    payload=None,
    reporting=ReportingKind.HONEST,
    targets=(),
    p=None,
    initiator_policy=InitiatorKind.HONEST,
) -> tuple[int, AdversaryProfile]:
    """An adversaries entry: its device and profile, by the rules that span its keys."""
    trojan = None
    if fault is FaultKind.TROJAN:
        if trigger is None:
            raise ContractError("trigger: required for TROJAN fault")
        if payload is None:
            raise ContractError("payload: required for TROJAN fault")
        kind, value = payload
        if value is None and kind is not PayloadKind.COMPLEMENT:
            raise ContractError(f"payload.value: required for {kind.value}")
        trojan = TrojanModel(*trigger, payload=kind, payload_value=value or 0)
    elif trigger is not None or payload is not None:
        key = "trigger" if trigger is not None else "payload"
        raise ContractError(f"{key}: only applies to TROJAN fault")
    if not targets:
        if reporting in (ReportingKind.FRAME, ReportingKind.SHIELD):
            raise ContractError(f"targets: required for {reporting.value} reporting")
        if initiator_policy is InitiatorKind.EVADE:
            raise ContractError("targets: required for EVADE initiator_policy")
    if reporting is ReportingKind.RANDOM and p is None:
        raise ContractError("p: required for RANDOM reporting")
    if reporting is not ReportingKind.RANDOM and p is not None:
        raise ContractError("p: only applies to RANDOM reporting")
    return device, AdversaryProfile(
        fault=fault,
        trojan=trojan,
        reporting=reporting,
        targets=frozenset(targets),
        flip_probability=0.0 if p is None else p,
        initiator_policy=initiator_policy,
    )


_parse_adversary = functools.partial(
    _build,
    _adversary,
    trigger=functools.partial(_build, _trigger),
    payload=functools.partial(_build, _payload, kind=functools.partial(_enum, PayloadKind)),
    targets=_tuple_of(_int),
    p=_number,
)


def scenario_from_dict(doc: dict) -> Scenario:
    """Build and validate a Scenario from a parsed JSON object."""
    if not isinstance(doc, dict):
        raise ScenarioError("top level: expected a JSON object")
    return _build(
        Scenario,
        doc,
        "",
        network=functools.partial(_build, NetworkModel),
        energy=functools.partial(_build, EnergyModel),
        routines=_tuple_of(_parse_routine),
        adversaries=_tuple_of(_parse_adversary),
    )


def _parse_json(document: str):
    try:
        return json.loads(document)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"syntax error: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # An integer past the interpreter's digit limit, or nesting past its
        # recursion limit.
        raise ScenarioError(f"unreadable document: {exc}") from None


def parse_scenario(document: str) -> Scenario:
    """Parse a JSON scenario document; all errors are load-time ScenarioErrors."""
    return scenario_from_dict(_parse_json(document))


def read_scenario_doc(path: str) -> dict:
    """Read a scenario file into its JSON object, not yet validated."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file is not UTF-8: byte {exc.start}: {exc.reason}") from None
    doc = _parse_json(text)
    if not isinstance(doc, dict):
        raise ScenarioError("top level: expected a JSON object")
    return doc


def load_scenario(path: str) -> Scenario:
    return scenario_from_dict(read_scenario_doc(path))
