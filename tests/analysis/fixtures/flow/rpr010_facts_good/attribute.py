"""Attribution filling its memo entry through the seam."""


def _table_weights(plan):
    return tuple((entry.table_name, 1) for entry in plan.scope)


def table_weights(plan):
    return plan.facts.fill("table_weights", _table_weights, plan)
