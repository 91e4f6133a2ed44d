"""Serving paths that route guarded mutations through the gate."""


class Gate:
    def __init__(self, ledger, heap):
        self.ledger = ledger
        self.heap = heap

    def locked_resolve(self, num_bytes):
        # Sanctioned lock holder: guarded mutation is allowed here.
        self.ledger.record_load("obj", num_bytes)
        if num_bytes > 0:
            self.heap.pop_min()
        return num_bytes

    def locked_resolve_run(self, run):
        # The run holder: one acquisition, guarded mutation per query.
        resolved = []
        for num_bytes in run:
            self.ledger.record_load("obj", num_bytes)
            self.heap.pop_min()
            resolved.append(num_bytes)
        return resolved


class Server:
    def __init__(self, gate):
        self.gate = gate

    def serve_one(self, num_bytes):
        # Guarded state is reached only through the lock-holder seam.
        return self.gate.locked_resolve(num_bytes)

    def serve_run(self, run):
        return self.gate.locked_resolve_run(run)
