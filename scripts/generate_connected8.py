#!/usr/bin/env python3
"""Regenerate tests/data/connected8.g6: all connected 8-vertex graphs.

Extends the 853 connected classes on 7 vertices by one vertex, the same
construction the library uses for n <= 7, one size past the public API's
cap. It takes a few seconds. Output is one graph6 line per isomorphism
class in canonical order.

Usage: python scripts/generate_connected8.py [OUT]
"""

import sys
import time
from pathlib import Path

from geb.enumeration import _classes
from geb.graph6 import write_graph6


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(__file__).resolve().parent.parent / "tests" / "data" / "connected8.g6"
    )
    start = time.perf_counter()
    graphs = _classes(8, connected=True)
    elapsed = time.perf_counter() - start
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="ascii") as fh:
        for g in graphs:
            fh.write(write_graph6(g) + "\n")
    print(f"{len(graphs)} connected graphs on 8 vertices -> {out} ({elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
