"""Peak memory of the program over one workload's batch.

usage: python3 -I rss_probe.py SRC_DIR < ARGVS_JSON

Reads the batch's argv lists, as one JSON list, from stdin, runs each
through ``cli.parse_config`` and ``cli.run`` into a sink that keeps no
output, and prints its peak resident set in KiB and the number of
records written.  Nothing of the benchmark is imported and no output is
held, so the figure is the interpreter's, the package's and its caches'.

The peak is ``VmHWM`` of the process's own address space.  ``ru_maxrss``
will not do: Linux carries the launching process's peak into it across
fork and exec, so it reads at least the size of ``run.py``.
"""

import json
import sys

argvs = json.load(sys.stdin)
sys.path.insert(0, sys.argv[1])
from coeffident import cli  # noqa: E402


class Sink:
    """Counts the records written and keeps none of them."""

    records = 0

    def write(self, text: str) -> int:
        self.records += text.count("\n")
        return len(text)


sink = Sink()
for argv in argvs:
    code = cli.run(cli.parse_config(argv), sink)
    if code != 0:
        sys.exit(f"exit status {code} for {argv}")
with open("/proc/self/status") as fh:
    peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(peak_kb, sink.records, cli.__file__)
