"""Energy/traffic accounting and detection-quality statistics.

Energy is charged in abstract integer units and is exact: a device's total
is always e_op * ops + e_tx * sent + e_rx * received. Transmissions are
charged even when the channel drops the message (the radio still spent the
energy); receptions are charged for every delivery that reaches a device,
including late ones, which the event loop never hands to the protocol. The
event loop and the protocol charge a device by incrementing its
`DeviceUsage` counters directly; the ledger makes them on first use.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .adversary import HONEST_PROFILE, AdversaryProfile, FaultKind, ReportingKind
from .errors import ContractError
from .verdict import Outcome, Verdict


@dataclass(frozen=True)
class EnergyModel:
    """Unit costs; defaults follow the simulator's canonical unit model."""

    e_op: int = 1
    e_tx: int = 2
    e_rx: int = 1

    def __post_init__(self):
        if min(self.e_op, self.e_tx, self.e_rx) < 0:
            raise ContractError("energy costs must be non-negative")


@dataclass
class DeviceUsage:
    ops: int = 0
    sent: int = 0
    received: int = 0


class EnergyLedger:
    """Per-device usage counters plus the cost model to price them.

    A device's counters are made when it is first charged, so `usage` holds
    only the devices a run touched; a device never charged has energy 0.
    """

    def __init__(self, model: EnergyModel):
        self.model = model
        self.usage: defaultdict[int, DeviceUsage] = defaultdict(DeviceUsage)

    def energy(self, device: int) -> int:
        u = self.usage.get(device)
        if u is None:
            return 0
        m = self.model
        return m.e_op * u.ops + m.e_tx * u.sent + m.e_rx * u.received

    def total_energy(self) -> int:
        return sum(self.energy(d) for d in self.usage)


@dataclass
class TrafficCounters:
    """Message fate counts for one run; conservation is checked at its end."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    late: int = 0
    in_flight: int = 0
    purged: int = 0  # of the late: dropped from the queue at an exclusion, never received


def lossless_messages_per_round(n: int) -> int:
    """Closed form for a lossless round in a group of n.

    (n-1) challenge unicasts + (n-1) response unicasts + (n-1)^2 report
    unicasts = (n-1)(n+1).
    """
    return (n - 1) * (n + 1)


def is_stat_honest(profile: AdversaryProfile) -> bool:
    """A device whose verdicts count as disinterested: sound hardware, honest reports."""
    return profile.fault is FaultKind.HONEST and profile.reporting is ReportingKind.HONEST


@dataclass
class DetectionStats:
    """Detection quality of one run, folded verdict by verdict as it runs.

    The outcome counts are plain ints, so a fold tells outcomes apart by
    identity and hashes no Enum member.
    """

    detections: dict[int, int] = field(default_factory=dict)  # corrupt device -> first flagged round
    false_positives: int = 0
    trusted: int = 0
    flagged: int = 0
    inconclusive: int = 0

    def fold(
        self, v: Verdict, issuers: tuple[int, ...], profiles: dict[int, AdversaryProfile]
    ) -> None:
        """Count verdict `v` once for each device in `issuers` that reached it.

        Detection latency for a corrupt device is the first round an honest
        device flagged it; a false positive is any FLAGGED verdict whose
        checkee has a honest fault model. Devices missing from `profiles`
        are honest.
        """
        outcome = v.outcome
        if outcome is Outcome.TRUSTED:
            self.trusted += len(issuers)
            return
        if outcome is Outcome.INCONCLUSIVE:
            self.inconclusive += len(issuers)
            return
        self.flagged += len(issuers)
        if profiles.get(v.checkee, HONEST_PROFILE).fault is FaultKind.HONEST:
            self.false_positives += len(issuers)
        elif any(is_stat_honest(profiles.get(i, HONEST_PROFILE)) for i in issuers):
            prior = self.detections.get(v.checkee)
            if prior is None or v.round < prior:
                self.detections[v.checkee] = v.round

    def fold_quiet(self, members: tuple[int, ...], epoch: range, loud: int) -> None:
        """Count the verdict every member reaches in a group epoch's quiet rounds.

        The quiet rounds are those of `epoch` other than the `loud` ones
        folded one by one with `fold`. The framing bound makes each of them
        TRUSTED, so one call folds what `fold(v, members, ...)` would fold
        for each.
        """
        self.trusted += (len(epoch) - loud) * len(members)

