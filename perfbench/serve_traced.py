"""Launch ``python -m repro serve`` with the benchmark's tracing installed.

Usage: ``python3 perfbench/serve_traced.py serve <serve options>`` with
``src`` on ``PYTHONPATH``.  It runs the CLI's own ``serve`` command;
the only difference is that the engine the command opens (through
``repro.api.open``) and every ``engine.session()`` the service takes
from it are wrapped by :mod:`tracing`:

* kernels, core and api counters as in the in-process workloads;
* every service → api call (``session.ingest_many`` / ``delete_many``
  / ``flush``, ``engine.cgroup_by_many`` / ``snapshot``) is logged per
  asyncio task with ``time.monotonic_ns`` stamps, which the generator
  matches to its requests.

Tracing starts off.  The generator writes ``start`` / ``stop`` lines to
stdin (acknowledged on stdout) around each measured segment; on exit
the launcher prints one ``perfbench-trace-report {json}`` line.
"""

from __future__ import annotations

import json
import sys
import threading

import repro.api
from repro import __main__ as cli

from tracing import ServiceEvents, Tracer, fragment_counters, fragment_metrics


def main(argv) -> int:
    tracer = Tracer()
    tracer.active = True
    events = ServiceEvents(tracer)
    engines = []
    result = {"layers": {}, "events": []}
    plain_open = repro.api.open

    def traced_open(*args, **kwargs):
        engine = plain_open(*args, **kwargs)
        tracer.install_kernels()
        tracer.wrap_core(engine.raw)
        tracer.wrap_api(engine)
        events.wrap(engine, "cgroup_by_many", "cgroup_by")
        events.wrap(engine, "snapshot", "snapshot")
        open_session = engine.session

        def session(flush_threshold=None):
            s = open_session(flush_threshold)
            tracer.wrap_session(s)
            events.wrap(s, "ingest_many", "ingest")
            events.wrap(s, "delete_many", "delete")
            events.wrap(s, "flush", "flush")
            return s

        engine.session = session
        engines.append(engine)
        return engine

    def control() -> None:
        """``start`` / ``stop`` lines from the generator toggle tracing.

        Counters accumulate over every start/stop stretch; each ``stop``
        refreshes the report.
        """
        before = None
        for line in sys.stdin:
            command = line.strip()
            if command == "start":
                if before is None:
                    before = fragment_counters(engines[-1])
                    tracer.reset()
                    events.events.clear()
                tracer.enabled = True
            elif command == "stop":
                tracer.enabled = False
                layers = tracer.report()
                layers.update(
                    fragment_metrics(before, fragment_counters(engines[-1]))
                )
                result["layers"] = layers
                result["events"] = list(events.events)
            print(f"perfbench-trace {command}", flush=True)

    repro.api.open = traced_open
    threading.Thread(target=control, daemon=True).start()
    code = cli.main(argv)
    print("perfbench-trace-report " + json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
