"""Shared exception types and the search budget they report on."""

from __future__ import annotations

from dataclasses import dataclass


class FormatError(ValueError):
    """Malformed input text (DIMACS files, certificates, map files)."""


class BudgetExceeded(RuntimeError):
    """A search ran out of its state budget; the answer is unknown, not "no"."""


@dataclass(frozen=True)
class SearchBudget:
    """Cap on the number of search states a solver may enumerate."""

    max_states: int = 2**24

    def __post_init__(self):
        if self.max_states < 1:
            raise ValueError("budget must be positive")
