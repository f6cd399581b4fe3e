"""Boot the scenario service under the benchmark's layer wrappers.

    python3 repobench/serve_boot.py OUT.json serve --port 0 --ready-file R

Runs ``python -m repro`` with the given arguments while every target of
``layers.TARGETS`` is wrapped.  SIGUSR1 marks the start of the measured
window and SIGUSR2 its end.  After the service drains (SIGTERM), the
spans that began inside the window are folded into self time and
written to OUT.json with the window's call tallies.
"""

from __future__ import annotations

import json
import signal
import sys
import time


def main() -> int:
    import harness
    harness.require_program()
    from layers import TARGETS, jobs_started
    from tracing import Recorder, fold, patched

    out_path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    marks: dict[int, tuple[float, dict[str, int]]] = {}

    def mark(signum, frame) -> None:
        marks[signum] = (time.perf_counter(), dict(rec.counts))

    signal.signal(signal.SIGUSR1, mark)
    signal.signal(signal.SIGUSR2, mark)
    from repro.__main__ import main as repro_main
    with patched(TARGETS, rec):
        code = repro_main(argv)
        rec.paused += 1
        (start, before), (end, after) = (marks[signal.SIGUSR1],
                                         marks[signal.SIGUSR2])
        window = fold(rec, start, end)
        started = jobs_started(rec, start, end)
    doc = {"self_s": window.self_s, "calls": window.calls,
           "work": window.work, "root_s": window.root_s,
           "window_s": end - start, "jobs_started": started,
           "counts": {k: v - before.get(k, 0) for k, v in after.items()}}
    with open(out_path, "w") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
