"""Script entry point named by ``BENCHMARK.json``.

Runs from a bare checkout with no ``PYTHONPATH``: puts the checkout
root (for ``benchmarks.perf``) and ``src`` (for ``repro``) on the path,
then hands over to :mod:`benchmarks.perf.cli`.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    for entry in (ROOT / "src", ROOT):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))
    try:
        from benchmarks.perf.cli import main
    except ModuleNotFoundError as exc:
        # Nothing to measure without the program: no result line, exit 2.
        print(
            f"benchmarks/perf needs the repro sources under {ROOT / 'src'}: "
            f"{exc}",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.exit(main())
