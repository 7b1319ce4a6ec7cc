"""Lightweight instrumentation for simulation runs: named counters.

Counting costs no simulated time, so the fault injector, the dataflow
stats and the metrics registry can tally what happened without perturbing
the model.
"""

from __future__ import annotations


class Counters:
    """A bag of named integer counters with a strict-access policy.

    Reading a counter that was never incremented returns 0; that is the
    common "nothing happened" case in assertions.
    """

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}

    def add(self, name: str, amount: int = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + amount

    def __getitem__(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> dict[str, int]:
        return dict(self._counts)

    def reset(self) -> None:
        self._counts.clear()

    def __repr__(self) -> str:
        return f"Counters({self._counts!r})"
