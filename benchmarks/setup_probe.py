"""Time a fresh interpreter's set-up: import ``coeffident`` and parse one argv.

usage: python3 -I setup_probe.py SRC_DIR ARGV...

Prints the seconds taken and the file the package was imported from.
Nothing but ``sys`` and ``time`` is imported before the clock starts, so
the package pays for every module it pulls in.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import coeffident.cli  # noqa: E402

coeffident.cli.parse_config(sys.argv[2:])
t1 = time.perf_counter()
print(repr(t1 - t0), coeffident.cli.__file__)
