"""Plumbing shared by the command-line entry points."""

from __future__ import annotations

import functools
import os
import sys
from typing import Callable, List, Optional

Main = Callable[[Optional[List[str]]], int]


def quiet_on_broken_pipe(main: Main) -> Main:
    """Wrap a CLI ``main`` so a reader that closes early is not an error.

    A downstream pager or ``head`` that closes the pipe is normal use
    of a printing tool.  Stdout is flushed inside the guard, so output
    that fits in the buffer fails here rather than at interpreter
    shutdown, where no handler runs.  A pipe that breaks while ``main``
    runs exits 0; one that breaks at the final flush keeps ``main``'s
    exit code.
    """

    @functools.wraps(main)
    def guarded(argv: Optional[List[str]] = None) -> int:
        code = 0
        try:
            code = main(argv)
            sys.stdout.flush()
        except BrokenPipeError:
            # Detach stdout so the shutdown flush does not raise again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        return code

    return guarded
