"""Boot ``repro.server`` with the benchmark's control op installed.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced_server.py --spans-out FILE --path DIR --port 0

Every argument but ``--spans-out`` goes to ``python -m repro.server``.
The ``perfbench`` op this adds lets the benchmark's client start and stop
a count window and the span wrappers inside the server process:

* ``{"op": "perfbench", "action": "count_start"}`` /
  ``"count_stop"`` -> ``{"counts": {...}}`` (see ``spans.CountWindow``);
* ``"trace_start"`` / ``"trace_stop"`` -> the tracer report; the server's
  spans are written to ``--spans-out`` when tracing stops.
"""

from __future__ import annotations

import argparse
import sys

from spans import CountWindow, Tracer


def control_op(spans_out):
    state = {}

    def op_perfbench(server, session, message):
        action = message.get("action")
        if action == "count_start":
            state["window"] = CountWindow(server.store)
            state["window"].start()
            return {}
        if action == "count_stop":
            return {"counts": state.pop("window").stop()}
        if action == "trace_start":
            state["tracer"] = Tracer()
            state["tracer"].install()
            return {}
        if action == "trace_stop":
            tracer = state.pop("tracer")
            report = tracer.uninstall()
            tracer.write(spans_out)
            return report
        raise ValueError(f"unknown perfbench action {action!r}")

    return op_perfbench


def main(argv=None):
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--spans-out", required=True)
    args, server_argv = parser.parse_known_args(argv)

    from repro.server import __main__ as server_main
    from repro.server.server import SQLGraphServer

    SQLGraphServer._HANDLERS["perfbench"] = control_op(args.spans_out)
    return server_main.main(server_argv)


if __name__ == "__main__":
    sys.exit(main())
