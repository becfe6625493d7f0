"""Energy and traffic accounting, and detection statistics, of one run.

EnergyLedger prices a device's DeviceUsage counters; the simulator charges
them directly, the round walk as it plays each round (simnet._run_rounds)
and the tally kernel in closed form (simnet._run_tally). TrafficCounters
counts message fates and DetectionStats folds verdicts.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence

from .adversary import HONEST_PROFILE, AdversaryProfile, FaultKind, ReportingKind
from .errors import ContractError
from .record import Frozen, Record
from .verdict import Outcome, Verdict


class EnergyModel(Frozen):
    """Unit costs; defaults follow the simulator's canonical unit model."""

    def __init__(self, e_op: int = 1, e_tx: int = 2, e_rx: int = 1):
        if min(e_op, e_tx, e_rx) < 0:
            raise ContractError("energy costs must be non-negative")
        self.e_op = e_op
        self.e_tx = e_tx
        self.e_rx = e_rx


class DeviceUsage(Record):
    def __init__(self, ops: int = 0, sent: int = 0, received: int = 0):
        self.ops = ops
        self.sent = sent
        self.received = received


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


class TrafficCounters(Record):
    """Message fate counts for one run; conservation is checked at its end."""

    def __init__(
        self,
        sent: int = 0,
        delivered: int = 0,
        dropped: int = 0,
        late: int = 0,
        in_flight: int = 0,
        purged: int = 0,
    ):
        self.sent = sent
        self.delivered = delivered
        self.dropped = dropped
        self.late = late
        self.in_flight = in_flight
        self.purged = purged  # of the late: to or from a checkee excluded in their round, never received


def lossless_messages_per_round(n: int) -> int:
    """Closed form for a lossless round in a group of n.

    (n-1) challenge unicasts + (n-1) response unicasts + (n-1)^2 report
    unicasts = (n-1)(n+1).
    """
    return (n - 1) * (n + 1)


def is_stat_honest(profile: AdversaryProfile) -> bool:
    """A device whose verdicts count as disinterested: sound hardware, honest reports."""
    return profile.fault is FaultKind.HONEST and profile.reporting is ReportingKind.HONEST


class DetectionStats(Record):
    """Detection quality of one run, folded verdict by verdict as it runs.

    The outcome counts are plain ints, so a fold tells outcomes apart by
    identity and hashes no Enum member. `detections` maps each corrupt
    device to the first round it was flagged in; None makes a new dict.
    """

    def __init__(
        self,
        detections: dict[int, int] | None = None,
        false_positives: int = 0,
        trusted: int = 0,
        flagged: int = 0,
        inconclusive: int = 0,
    ):
        self.detections = {} if detections is None else detections
        self.false_positives = false_positives
        self.trusted = trusted
        self.flagged = flagged
        self.inconclusive = inconclusive

    def fold(
        self, v: Verdict, issuers: Sequence[int], profiles: dict[int, AdversaryProfile]
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

