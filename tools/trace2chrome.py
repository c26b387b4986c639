#!/usr/bin/env python3
"""Convert a DNJ span-trace dump to the Chrome trace-event format.

The input is the JSON document produced by the tracer (any of: the wire
`stats` op with format=2, api::Service::dump_trace(), or
dnj_server_trace_dump): {"clock": "steady_ns", "sample_every": N,
"spans": [{trace, span, parent, stage, thread, start_ns, end_ns, tag}]}.

The output is a chrome://tracing / Perfetto-compatible event array:
complete ("X") events with microsecond timestamps, one process per trace
id and one thread row per tracer ring, so a request's nested stages
(net_read -> queue_wait -> service -> codec stages -> net_write) render as
a flame graph per request.

Usage:
    tools/trace2chrome.py dump.json -o trace.json
    dnj_client --scrape-trace | tools/trace2chrome.py > trace.json

Load the result via chrome://tracing "Load" or https://ui.perfetto.dev.
"""

import argparse
import json
import sys


def convert(doc):
    spans = doc.get("spans", [])
    events = []
    for s in spans:
        start_ns = int(s["start_ns"])
        end_ns = int(s["end_ns"])
        events.append({
            "name": s.get("stage", "span"),
            "ph": "X",
            "ts": start_ns / 1000.0,
            "dur": max(end_ns - start_ns, 0) / 1000.0,
            "pid": int(s.get("trace", 0)),
            "tid": int(s.get("thread", 0)),
            "args": {
                "span": int(s.get("span", 0)),
                "parent": int(s.get("parent", 0)),
                "tag": int(s.get("tag", 0)),
            },
        })
    # Name each per-trace "process" so the tracing UI labels rows usefully.
    for pid in sorted({e["pid"] for e in events}):
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {"name": f"trace {pid}"},
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": doc.get("clock", "steady_ns"),
            "sample_every": doc.get("sample_every", 0),
        },
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("input", nargs="?", default="-",
                    help="trace dump JSON (default: stdin)")
    ap.add_argument("-o", "--output", default="-",
                    help="chrome trace JSON destination (default: stdout)")
    args = ap.parse_args()

    try:
        if args.input == "-":
            doc = json.load(sys.stdin)
        else:
            with open(args.input) as f:
                doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"trace2chrome: cannot read trace dump: {e}", file=sys.stderr)
        return 2

    if "spans" not in doc:
        print("trace2chrome: input has no \"spans\" array — is this a "
              "tracer dump?", file=sys.stderr)
        return 2

    out = convert(doc)
    n = sum(1 for e in out["traceEvents"] if e["ph"] == "X")
    if args.output == "-":
        json.dump(out, sys.stdout)
        sys.stdout.write("\n")
    else:
        with open(args.output, "w") as f:
            json.dump(out, f)
            f.write("\n")
        print(f"trace2chrome: wrote {n} spans to {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
