"""Run one mfqcka CLI command in this fresh process and record its timings.

Usage: python3 child.py RECORD TRACE SRC -- CLI-ARGUMENTS...

Imports ``mfqcka.cli`` (which must come from SRC), runs ``cli.main`` on the
arguments and writes RECORD, a JSON file with the exit code, the import
time and the ``time.monotonic()`` reading at the first call into the
computation (the end of set-up).  With TRACE=1 it also wraps the layer
boundaries (see spans.py), writes the spans next to RECORD, and, once the
command has finished, measures what one wrapped call costs.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main() -> int:
    record_path, trace, src = sys.argv[1], sys.argv[2] == "1", Path(sys.argv[3]).resolve()
    if sys.argv[4] != "--":
        raise SystemExit("usage: child.py RECORD TRACE SRC -- CLI-ARGUMENTS...")
    argv = sys.argv[5:]

    t0 = time.perf_counter()
    import mfqcka
    from mfqcka import cli, montecarlo, optimizer

    import_s = time.perf_counter() - t0
    if src not in Path(mfqcka.__file__).resolve().parents:
        raise SystemExit(f"mfqcka was imported from {mfqcka.__file__}, not from {src}")

    record: dict = {"import_s": import_s, "setup_end": None}

    def first_call(fn):
        def hooked(*args, **kwargs):
            if record["setup_end"] is None:
                record["setup_end"] = time.monotonic()
            return fn(*args, **kwargs)

        return hooked

    tracer = None
    if trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from spans import Tracer, span_cost_s

        tracer = Tracer()
        tracer.install()
    # The entry points the subcommands call once set-up is done.
    entries = [(optimizer, "scan_distances"), (optimizer, "optimize_at_distance"),
               (montecarlo, "run_protocol"), (cli, "_evaluate")]
    for module, attr in entries:
        setattr(module, attr, first_call(getattr(module, attr)))

    try:
        if tracer is None:
            code = cli.main(argv)
        else:
            code = tracer.wrap(cli.main, "cli.main", "cli")(argv)
    except SystemExit as exc:  # argparse errors
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()

    record["exit_code"] = code
    if tracer is not None:
        from mfqcka import matching, photonstats

        tracer.restore()
        record["span_cost_s"] = span_cost_s()
        record["count_matrix_cache"] = matching._count_matrix.cache_info()._asdict()
        record["port_weight_cache"] = photonstats._port_weight_sequence.cache_info()._asdict()
        tracer.save(str(Path(record_path).with_suffix(".npz")))
    Path(record_path).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
