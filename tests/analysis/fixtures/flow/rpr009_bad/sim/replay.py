"""A replay step that reaches entropy through a helper chain.

No hazard appears in this file, so linted alone it is clean; only the
transitive summary exposes the ``random.random()`` two hops away.
"""

from rpr009_bad.util import jitter


def step(state):
    # BUG: replay-critical, yet transitively entropy-dependent.
    return state + jitter()
