"""One round of a workload in a fresh process: ``python3 child.py PLAN RESULT``.

Reads the plan (source directory, operations, whether to trace), imports
``surplus_lab.cli`` from that source directory, runs every operation in
order through the public CLI (or ``persistence.replay``) and writes the
wall time, peak resident set and each operation's exit code and output
as JSON to RESULT.  With tracing on, the spans go to the plan's spans file.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def run_op(cli, persistence, op: dict) -> dict:
    out, err = io.StringIO(), io.StringIO()
    record = {"rc": None, "error": None}
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if op["kind"] == "cli":
                record["rc"] = cli.main(op["argv"])
            else:
                persistence.replay(Path(op["manifest"]), Path(op["scratch"]))
                record["rc"] = 0
        except Exception:  # the round goes on; the failure is reported with its traceback
            record["error"] = traceback.format_exc(limit=4)
    record.update(seconds=time.perf_counter() - t0, stdout=out.getvalue(),
                  stderr=err.getvalue())
    return record


def peak_rss_kib() -> int:
    """The process's own peak resident set.

    ``ru_maxrss`` of a process started by fork or vfork also counts the
    parent's resident set at the fork, so the high-water mark of the
    process's own address space (``VmHWM``) is read where Linux gives it.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    src = Path(plan["src"]).resolve()
    sys.path.insert(0, str(src))
    import surplus_lab.cli as cli
    from surplus_lab import persistence

    if src not in Path(cli.__file__).resolve().parents:
        print(f"surplus_lab imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 4
    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    records = []
    start = time.perf_counter()
    for k, op in enumerate(plan["ops"]):
        if tracer is not None:
            tracer.command = k
        records.append(run_op(cli, persistence, op))
    wall = time.perf_counter() - start
    result = {"wall_s": wall, "ops": records, "maxrss_kib": peak_rss_kib()}
    if tracer is not None:
        result["trace"] = tracer.finish(Path(plan["spans"]))
    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
