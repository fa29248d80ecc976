"""Run one ``itmfree`` CLI command with its layers timed (traced cli_oneshot runs).

Usage: python -X importtime perfbench/cli_driver.py <itmfree CLI arguments>

Times ``import itmfree.cli``, wraps the names ``itmfree.cli.main`` resolves
(see ``Tracer.install``), runs ``main(argv)`` and writes one line
``PERFBENCH_TRACE <json>`` to stderr holding the import time, the spans and
the per-layer totals. stdout is the CLI's own, and the exit code is main's.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
import itmfree.cli as cli  # noqa: E402  (timed on purpose)

import_s = perf_counter() - t0

from tracer import Tracer  # noqa: E402

tracer = Tracer()
tracer.install(cli)
try:
    code = tracer.span("cli.main", cli.main)(sys.argv[1:])
finally:
    sys.stdout.flush()
    record = {"import_s": import_s, "spans": tracer.spans, "totals": tracer.totals}
    print("PERFBENCH_TRACE " + json.dumps(record), file=sys.stderr)
sys.exit(code)
