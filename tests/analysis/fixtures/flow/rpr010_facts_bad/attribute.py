"""Attribution writing its memo entry ad hoc."""


def table_weights(plan):
    weights = tuple((entry.table_name, 1) for entry in plan.scope)
    # BUG: an ad-hoc dict write at the use site instead of
    # plan.facts.fill(...): no owner check, no compute kept for the
    # first-rebind verification.
    plan.facts._facts["table_weights"] = (None, None, weights)
    return weights
