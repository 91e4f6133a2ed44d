"""Workload generation with a direct clock read.

``workload`` is replay-critical like ``core`` and ``sim`` — RPR002
reports a direct hazard here as it does there.
"""

import time


def arrival_time():
    # BUG: direct wall-clock read in a replay-critical package.
    return time.time()
