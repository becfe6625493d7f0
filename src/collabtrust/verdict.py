"""Majority-rule verdicts over comparison tallies, plus cross-round suspicion.

The flagging rule: a checkee is FLAGGED only when a strict majority of ALL
its checkers voted DISAGREE. Missing opinions count as abstentions, never as
disagreement, so packet loss alone can never flag a device; and a minority
of liars (at most floor((N-1)/2) in a group of N) can never frame an honest
one. Below the opinion quorum a round is INCONCLUSIVE rather than guessed.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum

from .errors import ContractError


class Outcome(Enum):
    TRUSTED = "TRUSTED"
    FLAGGED = "FLAGGED"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class Tally:
    """Opinion counts about one checkee in one round."""

    agree: int
    disagree: int
    missing: int
    n_checkers: int

    def __post_init__(self):
        if min(self.agree, self.disagree, self.missing) < 0:
            raise ContractError("tally counts must be non-negative")
        if self.agree + self.disagree + self.missing != self.n_checkers:
            raise ContractError(
                f"tally {self.agree}+{self.disagree}+{self.missing} != {self.n_checkers} checkers"
            )


@dataclass(frozen=True)
class Verdict:
    checkee: int
    round: int
    outcome: Outcome
    tally: Tally


def default_quorum(n_checkers: int) -> int:
    """Minimum received opinions for a definite verdict: floor(n/2) + 1."""
    return n_checkers // 2 + 1


def compute_verdict(tally: Tally, quorum: int) -> Outcome:
    """Apply the majority rule to one tally. Pure function."""
    if not 1 <= quorum <= tally.n_checkers:
        raise ContractError(
            f"quorum {quorum} out of range [1, {tally.n_checkers}]"
        )
    if tally.agree + tally.disagree < quorum:
        return Outcome.INCONCLUSIVE
    # Strict majority of all checkers, counting missing as non-disagree.
    if 2 * tally.disagree > tally.n_checkers:
        return Outcome.FLAGGED
    return Outcome.TRUSTED


class VerdictTable(dict):
    """(agree, disagree) -> (Tally, Outcome) for a group's n_checkers; the rest are missing.

    An entry is made, validated and decided on its first lookup and kept, so
    each split is decided once however many verdicts reach it, and a large
    group holds only the splits its runs reach.
    """

    def __init__(self, n_checkers: int, quorum: int):
        super().__init__()
        self.n_checkers, self.quorum = n_checkers, quorum

    def __missing__(self, split: tuple[int, int]) -> tuple[Tally, Outcome]:
        agree, disagree = split
        n = self.n_checkers
        tally = Tally(agree=agree, disagree=disagree, missing=n - agree - disagree, n_checkers=n)
        entry = self[split] = (tally, compute_verdict(tally, self.quorum))
        return entry


def verdict_table(n: int, quorum: int) -> VerdictTable:
    """The verdict table of a group of n at this quorum; raises if the quorum is out of range."""
    if not 1 <= quorum <= n - 1:
        raise ContractError(f"quorum {quorum} out of range [1, {n - 1}]")
    return VerdictTable(n - 1, quorum)


def lossless_verdicts(table: VerdictTable) -> tuple[tuple[Tally, Outcome], ...]:
    """The table's entries with no opinion missing; entry a has a AGREE votes."""
    n = table.n_checkers
    return tuple(table[agree, n - agree] for agree in range(n + 1))


def framing_bound(verdicts: tuple[tuple[Tally, Outcome], ...]) -> int:
    """The most dissenting checkers a lossless verdict table leaves TRUSTED.

    Entry a of the table is the round with a AGREE votes of n - 1, so this
    is the largest k whose entries n-1 .. n-1-k are all TRUSTED:
    floor((n-1)/2) under the majority rule. One more dissenter frames an
    honest checkee.
    """
    k = 0
    while k + 1 < len(verdicts) and verdicts[-2 - k][1] is Outcome.TRUSTED:
        k += 1
    return k


def oracle_outcome(agree: int, disagree: int, missing: int, quorum: int) -> Outcome:
    """Independent restatement of the rule, kept for cross-checking.

    Flag exactly when the disagreeing checkers outnumber everyone else
    (agreeing plus silent) combined; abstain below quorum. Deliberately
    avoids the `2*d > n` arithmetic used by compute_verdict.
    """
    if agree + disagree < quorum:
        return Outcome.INCONCLUSIVE
    if disagree > agree + missing:
        return Outcome.FLAGGED
    return Outcome.TRUSTED


def decision_table(
    n_checkers: int, quorum: int | None = None
) -> Iterator[tuple[int, int, int, Outcome]]:
    """Yield every (agree, disagree, missing) split of n_checkers with its outcome.

    Enumerated via oracle_outcome; the CLI exposes this table so the rule
    can be audited without reading code. There are (n+1)(n+2)/2 rows for
    n checkers, so they are yielded one at a time; a bad n_checkers raises
    when the first row is asked for.
    """
    if n_checkers < 1:
        raise ContractError(f"need at least 1 checker, got {n_checkers}")
    q = default_quorum(n_checkers) if quorum is None else quorum
    for agree in range(n_checkers, -1, -1):
        for disagree in range(n_checkers - agree, -1, -1):
            missing = n_checkers - agree - disagree
            yield agree, disagree, missing, oracle_outcome(agree, disagree, missing, q)


@dataclass
class SuspicionLedger:
    """Cross-round action state: per-device flag counts and exclusions."""

    flag_threshold: int = 1
    flags: dict[int, int] = field(default_factory=dict)
    excluded_at: dict[int, int] = field(default_factory=dict)
    first_flagged: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.flag_threshold < 1:
            raise ContractError(f"flag threshold must be >= 1, got {self.flag_threshold}")

    def flag_count(self, device: int) -> int:
        return self.flags.get(device, 0)

    def is_excluded(self, device: int) -> bool:
        return device in self.excluded_at

    def excluded_round(self, device: int) -> int | None:
        return self.excluded_at.get(device)


def update_suspicion(ledger: SuspicionLedger, v: Verdict) -> SuspicionLedger:
    """Fold one verdict into the ledger (mutates and returns it).

    Only FLAGGED changes anything; there is no decay or rehabilitation.
    """
    if v.outcome is not Outcome.FLAGGED:
        return ledger
    count = ledger.flags.get(v.checkee, 0) + 1
    ledger.flags[v.checkee] = count
    ledger.first_flagged.setdefault(v.checkee, v.round)
    if count >= ledger.flag_threshold and v.checkee not in ledger.excluded_at:
        ledger.excluded_at[v.checkee] = v.round
    return ledger
