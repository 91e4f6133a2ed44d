"""Helpers outside the replay-critical packages.

RPR002 does not apply on this path — the hazards only matter
once a replay-critical function reaches them.
"""

import random
import time


def jitter():
    return random.random()


def stamp():
    return time.time()
