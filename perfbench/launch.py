"""Run one ``twcm`` CLI command, optionally traced, and record its timing.

Usage: python launch.py [--trace] RECORD.json -- <twcm cli arguments>

The launcher imports ``twcm.cli`` inside a span, installs the tracing
wrappers when ``--trace`` is given, calls ``twcm.cli.main`` and writes
the import time, the time of the ``main`` call, its own wall time and the
span aggregates to RECORD.json.  It exits with the command's exit code.
"""

import json
import sys
import time

from tracer import Tracer, install


def main(argv) -> int:
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    traced = opts[0] == "--trace"
    record_path = opts[-1]

    start = time.perf_counter()
    tr = Tracer()
    idx = tr.enter("cli.import")
    import twcm.cli  # noqa: PLC0415  (timed import)
    tr.exit(idx)
    import_s = time.perf_counter() - start
    if traced:
        tr.span("bench.install", install, tr)
    main_start = time.perf_counter()
    code = twcm.cli.main(cli_args)  # a cli.main span when traced
    end = time.perf_counter()
    record = {"import_s": import_s, "main_s": end - main_start, "wall_s": end - start,
              "traced": traced}
    if traced:
        record.update(tr.export())
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
