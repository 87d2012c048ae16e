"""Write analyze_pool.txt: the (ring, module) descriptors of every pair of the
default universe, one tab-separated pair per line, in universe order.

    python3 perfbench/make_pool.py

Building the default universe takes about 25 s, so the benchmark reads the
list from the file instead of building it on every run.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from zdbench.universe import generate_universe  # noqa: E402


def main() -> int:
    U = generate_universe()
    with open(os.path.join(HERE, "analyze_pool.txt"), "w", encoding="utf-8") as fh:
        for R, M in U.pairs():
            fh.write(f"{R.descriptor}\t{M.tag}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
