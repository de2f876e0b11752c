"""Summary helpers for the benchmark report: tail percentile and failure tally."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

TAIL_BEYOND = 10

# Failure reasons that mean the program returned an answer and it was wrong.
# Any other reason (an exception, for instance) is a failed op whose output
# never existed, so it cannot be incorrect.
WRONG_OUTPUT = frozenset({"invalid-coloring", "over-bound", "wrong-chi", "bad-output"})


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """Value at the highest percentile that leaves `beyond` samples above it.

    Returns (value, percentile, samples above).  The value is the
    (beyond+1)-th largest sample, at percentile 100*(n-beyond)/n.  With
    `beyond` samples or fewer no such percentile exists: the maximum is
    returned at percentile 100 with no sample above it.
    """
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0, 0
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


@dataclass
class Tally:
    """Attempted ops and the reason each failed one failed."""

    attempted: int = 0
    reasons: Counter = field(default_factory=Counter)

    def add(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.reasons[reason] += 1

    @property
    def failed(self) -> int:
        return sum(self.reasons.values())

    @property
    def wrong(self) -> int:
        return sum(c for r, c in self.reasons.items() if r in WRONG_OUTPUT)
