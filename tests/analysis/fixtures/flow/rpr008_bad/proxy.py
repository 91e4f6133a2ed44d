"""The PR-1 proxy bug, laundered through a helper chain.

Every site below is invisible in this file alone — the operand kinds
only surface through the callee summaries of ``helpers``.
"""

from rpr008_bad.helpers import freight, payload


def admit(num_bytes, budget_bytes):
    """Admission check quoted in raw bytes."""
    return num_bytes <= budget_bytes


def grown(total_bytes, entry):
    # BUG: raw accumulator plus a weighted price from a helper away.
    return total_bytes + freight(entry)


def misuse(entry, budget_bytes):
    # BUG: a weighted price flows into a raw-byte parameter.
    return admit(freight(entry), budget_bytes)


def build_request(make_request, entry):
    # BUG: the PR-1 pairing — cost and yield quoted in swapped kinds.
    return make_request(
        fetch_cost=payload(entry),
        yield_bytes=freight(entry),
    )
