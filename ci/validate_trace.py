#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file produced by --trace-out.

Usage:
  python3 ci/validate_trace.py TRACE.json [--require-categories a,b,c]
                               [--require-coverage SPAN=FRACTION ...]

Checks (non-zero exit on the first failure):

  * the file parses as JSON and has the {"traceEvents": [...]} shape the
    obs::Tracer exporter emits (Perfetto/chrome://tracing loadable);
  * the ring dropped nothing (otherData.dropped == 0) unless
    --allow-dropped is passed — a CI sweep's ring must hold every span;
  * every event is a complete ("X") span with the required fields, a
    non-negative ts/dur, and a span_id arg;
  * events are sorted by ts (the exporter's contract) and the earliest
    span sits at ts == 0 (times are relative to the first span);
  * span ids are unique;
  * every required category (default: the end-to-end flow set decomp,
    partition, explore, cache) appears at least once — a traced cold
    sweep that misses one of these lost a whole subsystem's spans;
  * for every --require-coverage SPAN=FRACTION, each span named SPAN
    exists and its direct children (by parent_id) cover at least FRACTION
    of its duration, so an unspanned gap on the critical path fails
    instead of hiding in the parent's self time.

A parent_id pointing at a span that is not in the file is reported but not
fatal: the ring may legitimately have dropped an old parent on very long
sessions.
"""
import argparse
import json
import sys

REQUIRED_EVENT_FIELDS = ("name", "cat", "ph", "ts", "dur", "pid", "tid",
                         "args")
DEFAULT_CATEGORIES = "decomp,partition,explore,cache"


def fail(message):
    print(f"validate_trace: FAIL: {message}")
    return 1


def parse_coverage(rule):
    """'explore.decompile=0.9' -> ('explore.decompile', 0.9)."""
    name, sep, fraction = rule.rpartition("=")
    try:
        value = float(fraction)
    except ValueError:
        value = -1.0
    if not sep or not name or not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"expected SPAN=FRACTION with FRACTION in [0, 1], got {rule!r}")
    return name, value


def child_coverage(parent, children):
    """Share of `parent`'s duration covered by the union of its children's
    intervals, each clipped to the parent's."""
    start, end = parent["ts"], parent["ts"] + parent["dur"]
    intervals = sorted((max(start, c["ts"]), min(end, c["ts"] + c["dur"]))
                       for c in children)
    covered, reach = 0.0, start
    for lo, hi in intervals:
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered / parent["dur"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    parser.add_argument("--require-categories", default=DEFAULT_CATEGORIES,
                        help="comma-separated categories that must appear "
                             f"(default: {DEFAULT_CATEGORIES}; '' disables)")
    parser.add_argument("--require-coverage", type=parse_coverage,
                        action="append", default=[],
                        metavar="SPAN=FRACTION",
                        help="every span named SPAN must have children "
                             "covering at least FRACTION of its duration "
                             "(repeatable)")
    parser.add_argument("--allow-dropped", action="store_true",
                        help="tolerate otherData.dropped > 0 (long sessions "
                             "legitimately wrap the ring)")
    args = parser.parse_args()

    try:
        with open(args.trace, encoding="utf-8") as handle:
            trace = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        return fail(f"cannot load {args.trace}: {error}")

    if not isinstance(trace, dict) or not isinstance(
            trace.get("traceEvents"), list):
        return fail("top level must be an object with a traceEvents list")
    events = trace["traceEvents"]
    if not events:
        return fail("trace contains no events")

    # The exporter stamps ring losses into otherData.dropped.  On the CI
    # traced sweep the ring must be sized to hold everything: a drop means
    # the trace silently lost spans, which defeats the category check
    # below.  --allow-dropped opts out for long-session captures.
    other_data = trace.get("otherData", {})
    dropped = other_data.get("dropped", 0) if isinstance(
        other_data, dict) else 0
    if dropped and not args.allow_dropped:
        return fail(f"{dropped} span(s) were dropped by the ring "
                    "(size the ring up, or pass --allow-dropped)")

    seen_ids = set()
    categories = {}
    last_ts = None
    for index, event in enumerate(events):
        where = f"event #{index}"
        if not isinstance(event, dict):
            return fail(f"{where} is not an object")
        for field in REQUIRED_EVENT_FIELDS:
            if field not in event:
                return fail(f"{where} is missing '{field}'")
        if event["ph"] != "X":
            return fail(f"{where} has phase '{event['ph']}', expected "
                        "complete spans ('X')")
        ts, dur = event["ts"], event["dur"]
        if not isinstance(ts, (int, float)) or ts < 0:
            return fail(f"{where} has invalid ts {ts!r}")
        if not isinstance(dur, (int, float)) or dur < 0:
            return fail(f"{where} has invalid dur {dur!r}")
        if last_ts is not None and ts < last_ts:
            return fail(f"{where} breaks monotonic start order "
                        f"({ts} after {last_ts})")
        last_ts = ts
        span_id = event["args"].get("span_id")
        if not isinstance(span_id, int) or span_id <= 0:
            return fail(f"{where} has invalid span_id {span_id!r}")
        if span_id in seen_ids:
            return fail(f"{where} duplicates span_id {span_id}")
        seen_ids.add(span_id)
        categories[event["cat"]] = categories.get(event["cat"], 0) + 1
    if events[0]["ts"] != 0:
        return fail(f"earliest span starts at ts={events[0]['ts']}, "
                    "expected 0 (relative timestamps)")

    dangling = sum(
        1 for event in events
        if isinstance(event["args"].get("parent_id"), int)
        and event["args"]["parent_id"] not in seen_ids)
    if dangling:
        print(f"validate_trace: note: {dangling} span(s) reference a parent "
              "outside the file (ring drop on a long session)")

    required = [c for c in args.require_categories.split(",") if c]
    missing = [c for c in required if c not in categories]
    if missing:
        return fail(f"required categories missing: {', '.join(missing)} "
                    f"(present: {', '.join(sorted(categories))})")

    children = {}
    for event in events:
        parent_id = event["args"].get("parent_id")
        if isinstance(parent_id, int):
            children.setdefault(parent_id, []).append(event)
    for name, fraction in args.require_coverage:
        spans = [event for event in events if event["name"] == name]
        if not spans:
            return fail(f"no '{name}' span to check coverage of")
        for span in spans:
            if span["dur"] <= 0:
                continue
            coverage = child_coverage(
                span, children.get(span["args"]["span_id"], []))
            if coverage < fraction:
                return fail(
                    f"'{name}' span {span['args']['span_id']} "
                    f"(ts={span['ts']}, dur={span['dur']}us): children "
                    f"cover {coverage:.1%}, required {fraction:.0%}")
        print(f"validate_trace: coverage OK: {len(spans)} '{name}' span(s) "
              f">= {fraction:.0%} covered by their children")

    summary = ", ".join(f"{name}={count}"
                        for name, count in sorted(categories.items()))
    print(f"validate_trace: OK: {len(events)} spans ({summary})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
