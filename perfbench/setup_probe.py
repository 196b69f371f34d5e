"""Set-up cost in a fresh process: import lcdmds and build the given fields.

Usage: python3 setup_probe.py SRC_DIR P^E [P^E ...]
Prints the time from before the import to the last field built, in scaled
CPU seconds (see refclock.py).
"""

import sys

from refclock import RefClock

with RefClock() as clock:
    start = clock.mark()
    sys.path.insert(0, sys.argv[1])
    import lcdmds

    for arg in sys.argv[2:]:
        p, e = arg.split("^")
        lcdmds.field(int(p), int(e))
    elapsed = clock.since(start)
print(elapsed)
