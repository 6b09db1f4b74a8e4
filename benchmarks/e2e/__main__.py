"""Entry point: put ``src/`` on the path, then hand over to the CLI."""

import os
import sys

from benchmarks.e2e import SRC

if __name__ == "__main__":
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"benchmarks.e2e: nothing to measure, {SRC}/repro is missing")
    sys.path.insert(0, SRC)
    from benchmarks.e2e.cli import main

    sys.exit(main())
