"""A ShapeFacts that edits its memo outside the fill seam."""


class ShapeFacts:
    def __init__(self):
        self._facts = {}

    def fill(self, name, compute, plan, owner=None):
        # Sanctioned mutator: allowed.
        held = self._facts.get(name)
        if held is not None and held[0] is owner:
            return held[2]
        value = compute(plan)
        self._facts[name] = (owner, compute, value)
        return value

    def forget(self, name):
        # BUG: a shared record dropped a fact behind every plan of the
        # shape; the next reader recomputes it from whichever plan it
        # holds, unverified.
        del self._facts[name]
