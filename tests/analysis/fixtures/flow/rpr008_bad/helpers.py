"""Helpers whose names reveal nothing about their result units.

Naming conventions cannot classify a call to ``freight`` or
``payload``; only their summaries expose the kinds they return.
"""


def freight(entry):
    """Weighted transfer price of ``entry`` — the unit lives here."""
    return entry.fetch_cost


def payload(entry):
    """Raw on-disk byte size of ``entry``."""
    return entry.raw_bytes
