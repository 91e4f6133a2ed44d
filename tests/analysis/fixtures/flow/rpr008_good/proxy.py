"""The corrected twin: every helper result lands in its own currency."""

from rpr008_good.helpers import freight, payload


def admit(num_bytes, budget_bytes):
    """Admission check quoted in raw bytes."""
    return num_bytes <= budget_bytes


def grown(total_cost, entry):
    # Weighted accumulator plus a weighted price: consistent.
    return total_cost + freight(entry)


def fits(entry, budget_bytes):
    # Raw byte size into a raw-byte parameter: consistent.
    return admit(payload(entry), budget_bytes)


def build_request(make_request, entry, link_weight):
    # Cost and yield quoted in one currency: the yield is weighed.
    return make_request(
        fetch_cost=freight(entry),
        yield_bytes=payload(entry) * link_weight,
    )
