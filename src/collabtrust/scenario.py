"""Scenario documents: the JSON surface that configures a run.

Every field has a documented default (the zero-config scenario is the
five-device vignette: population 5, group 5, 25 rounds, lossless network,
all devices honest). Unknown keys and constraint violations are load-time
errors that name the offending path; a validated scenario never fails at
run time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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
from .routines import Kind, RoutineSpec, routine_catalog
from .simnet import NetworkModel
from .verdict import default_quorum

# A run keeps per-device state for the whole population from round 0, so the
# loader caps it well below what exhausts memory (100,000 devices take ~0.2 GiB).
MAX_POPULATION = 100_000


@dataclass(frozen=True)
class Scenario:
    population: int = 5
    group_size: int = 5
    rounds: int = 25
    regroup_period: int = 5
    seed: int = 0
    quorum: int = 3
    round_deadline: int = 10
    repetitions: int = 1
    flag_threshold: int = 1
    network: NetworkModel = field(default_factory=NetworkModel)
    energy: EnergyModel = field(default_factory=EnergyModel)
    routines: tuple[RoutineSpec, ...] = ()
    adversaries: tuple[tuple[int, AdversaryProfile], ...] = ()

    def __post_init__(self):
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
        table = self.routine_table()
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

    def routine_table(self) -> list[RoutineSpec]:
        """Built-in catalog with scenario overrides/additions, ordered by id."""
        table = {spec.id: spec for spec in routine_catalog()}
        for spec in self.routines:
            table[spec.id] = spec
        return [table[i] for i in sorted(table)]

    def profile_map(self) -> dict[int, AdversaryProfile]:
        profiles = {d: AdversaryProfile() for d in range(self.population)}
        profiles.update(dict(self.adversaries))
        return profiles

    def colluder_trojans(self, device: int) -> dict[int, TrojanModel]:
        """Trigger knowledge an evading initiator has about its colluders."""
        profiles = dict(self.adversaries)
        me = profiles.get(device)
        if me is None or me.initiator_policy is not InitiatorKind.EVADE:
            return {}
        out = {}
        for target in me.targets:
            target_profile = profiles.get(target)
            if target_profile is not None and target_profile.trojan is not None:
                out[target] = target_profile.trojan
        return out


_TOP_KEYS = {
    "population",
    "group_size",
    "rounds",
    "regroup_period",
    "seed",
    "quorum",
    "round_deadline",
    "repetitions",
    "flag_threshold",
    "network",
    "energy",
    "routines",
    "adversaries",
}
_NETWORK_KEYS = {"latency_min", "latency_max", "drop_prob", "seed"}
_ENERGY_KEYS = {"e_op", "e_tx", "e_rx"}
_ROUTINE_KEYS = {"id", "kind", "steps", "width"}
_ADVERSARY_KEYS = {
    "device",
    "fault",
    "trigger",
    "payload",
    "reporting",
    "targets",
    "p",
    "initiator_policy",
}
_TRIGGER_KEYS = {"index", "mask", "match"}
_PAYLOAD_KEYS = {"kind", "value"}


def _require_keys(obj: dict, allowed: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            # repr() keeps a key with a line break or control character on one line.
            name = key if isinstance(key, str) and key.isprintable() else repr(key)
            raise ScenarioError(f"{path}{name}: unknown key")


def _get_int(obj: dict, key: str, default: int, path: str) -> int:
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}{key}: expected an integer, got {value!r}")
    return value


def _get_number(obj: dict, key: str, default: float, path: str) -> float:
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}{key}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ScenarioError(f"{path}{key}: number out of range") from None


def _enum(cls, value, path: str):
    try:
        return cls(value)
    except ValueError:
        options = ", ".join(e.value for e in cls)
        raise ScenarioError(f"{path}: {value!r} is not one of {options}") from None


def _parse_network(obj, path: str) -> NetworkModel:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    _require_keys(obj, _NETWORK_KEYS, f"{path}.")
    seed = obj.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ScenarioError(f"{path}.seed: expected an integer or null, got {seed!r}")
    try:
        return NetworkModel(
            latency_min=_get_int(obj, "latency_min", 1, f"{path}."),
            latency_max=_get_int(obj, "latency_max", 3, f"{path}."),
            drop_prob=_get_number(obj, "drop_prob", 0.0, f"{path}."),
            seed=seed,
        )
    except ContractError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def _parse_energy(obj, path: str) -> EnergyModel:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    _require_keys(obj, _ENERGY_KEYS, f"{path}.")
    try:
        return EnergyModel(
            e_op=_get_int(obj, "e_op", 1, f"{path}."),
            e_tx=_get_int(obj, "e_tx", 2, f"{path}."),
            e_rx=_get_int(obj, "e_rx", 1, f"{path}."),
        )
    except ContractError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def _parse_routine(obj, path: str) -> RoutineSpec:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    _require_keys(obj, _ROUTINE_KEYS, f"{path}.")
    if "id" not in obj or "kind" not in obj:
        raise ScenarioError(f"{path}: routine entries need 'id' and 'kind'")
    kind = _enum(Kind, obj["kind"], f"{path}.kind")
    steps_raw = obj.get("steps", [])
    if not isinstance(steps_raw, list):
        raise ScenarioError(f"{path}.steps: expected a list")
    steps = tuple(_enum(Kind, s, f"{path}.steps[{i}]") for i, s in enumerate(steps_raw))
    try:
        return RoutineSpec(
            id=_get_int(obj, "id", 0, f"{path}."),
            kind=kind,
            width=_get_int(obj, "width", 8, f"{path}."),
            steps=steps,
        )
    except ContractError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def _parse_adversary(obj, path: str) -> tuple[int, AdversaryProfile]:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    _require_keys(obj, _ADVERSARY_KEYS, f"{path}.")
    if "device" not in obj:
        raise ScenarioError(f"{path}: adversary entries need 'device'")
    device = _get_int(obj, "device", 0, f"{path}.")
    fault = _enum(FaultKind, obj.get("fault", "HONEST"), f"{path}.fault")
    reporting = _enum(ReportingKind, obj.get("reporting", "HONEST"), f"{path}.reporting")
    policy = _enum(
        InitiatorKind, obj.get("initiator_policy", "HONEST"), f"{path}.initiator_policy"
    )

    trojan = None
    if fault is FaultKind.TROJAN:
        trig = obj.get("trigger")
        if not isinstance(trig, dict):
            raise ScenarioError(f"{path}.trigger: required for TROJAN fault")
        _require_keys(trig, _TRIGGER_KEYS, f"{path}.trigger.")
        pay = obj.get("payload")
        if not isinstance(pay, dict):
            raise ScenarioError(f"{path}.payload: required for TROJAN fault")
        _require_keys(pay, _PAYLOAD_KEYS, f"{path}.payload.")
        payload_kind = _enum(PayloadKind, pay.get("kind"), f"{path}.payload.kind")
        payload_value = _get_int(pay, "value", 0, f"{path}.payload.")
        if payload_kind is not PayloadKind.COMPLEMENT and "value" not in pay:
            raise ScenarioError(f"{path}.payload.value: required for {payload_kind.value}")
        try:
            trojan = TrojanModel(
                operand_index=_get_int(trig, "index", 0, f"{path}.trigger."),
                mask=_get_int(trig, "mask", 0, f"{path}.trigger."),
                match=_get_int(trig, "match", 0, f"{path}.trigger."),
                payload=payload_kind,
                payload_value=payload_value,
            )
        except ContractError as exc:
            raise ScenarioError(f"{path}.trigger: {exc}") from None
    elif "trigger" in obj or "payload" in obj:
        raise ScenarioError(f"{path}: trigger/payload only apply to TROJAN fault")

    targets_raw = obj.get("targets", [])
    if not isinstance(targets_raw, list):
        raise ScenarioError(f"{path}.targets: expected a list")
    targets = []
    for i, target in enumerate(targets_raw):
        if isinstance(target, bool) or not isinstance(target, int):
            raise ScenarioError(f"{path}.targets[{i}]: expected an integer")
        targets.append(target)
    needs_targets = (
        reporting in (ReportingKind.FRAME, ReportingKind.SHIELD)
        or policy is InitiatorKind.EVADE
    )
    if needs_targets and not targets:
        raise ScenarioError(f"{path}.targets: required for {reporting.value}/{policy.value}")

    p = _get_number(obj, "p", 0.0, f"{path}.")
    if reporting is ReportingKind.RANDOM:
        if "p" not in obj:
            raise ScenarioError(f"{path}.p: required for RANDOM reporting")
    elif "p" in obj:
        raise ScenarioError(f"{path}.p: only applies to RANDOM reporting")

    try:
        profile = AdversaryProfile(
            fault=fault,
            trojan=trojan,
            reporting=reporting,
            targets=frozenset(targets),
            flip_probability=p,
            initiator_policy=policy,
        )
    except ContractError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    return device, profile


def scenario_from_dict(doc: dict) -> Scenario:
    """Build and validate a Scenario from a parsed JSON object."""
    if not isinstance(doc, dict):
        raise ScenarioError("top level: expected a JSON object")
    _require_keys(doc, _TOP_KEYS, "")

    group_size = _get_int(doc, "group_size", 5, "")
    if "quorum" in doc:
        quorum = _get_int(doc, "quorum", 0, "")
    else:
        quorum = default_quorum(group_size - 1)

    routines_raw = doc.get("routines", [])
    if not isinstance(routines_raw, list):
        raise ScenarioError("routines: expected a list")
    adversaries_raw = doc.get("adversaries", [])
    if not isinstance(adversaries_raw, list):
        raise ScenarioError("adversaries: expected a list")

    return Scenario(
        population=_get_int(doc, "population", 5, ""),
        group_size=group_size,
        rounds=_get_int(doc, "rounds", 25, ""),
        regroup_period=_get_int(doc, "regroup_period", 5, ""),
        seed=_get_int(doc, "seed", 0, ""),
        quorum=quorum,
        round_deadline=_get_int(doc, "round_deadline", 10, ""),
        repetitions=_get_int(doc, "repetitions", 1, ""),
        flag_threshold=_get_int(doc, "flag_threshold", 1, ""),
        network=_parse_network(doc.get("network", {}), "network"),
        energy=_parse_energy(doc.get("energy", {}), "energy"),
        routines=tuple(
            _parse_routine(r, f"routines[{i}]") for i, r in enumerate(routines_raw)
        ),
        adversaries=tuple(
            _parse_adversary(a, f"adversaries[{i}]")
            for i, a in enumerate(adversaries_raw)
        ),
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
