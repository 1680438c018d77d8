#!/usr/bin/env python3
"""Decode an IDF flight-recorder journal into a per-stage timeline.

The flight recorder (src/obs/flight_recorder.h) dumps JSONL events — one
object per line with fields seq, ts_us, type, tid, name, a, b, c. This tool
groups task events by stage and interleaves governor/storage activity
(spills, evictions, reloads, prefetch decisions) by timestamp, so a single
journal reads as "what the scheduler and the memory governor were doing to
each other" during a run.

Every event carries a `q` field: the id of the query whose work produced
it (0 = unattributed background work). `--query N` narrows every view to
one query; the summary always ends with a per-query attribution table.

`--chrome-trace OUT` renders the journal as a Chrome trace_event file
(load it in chrome://tracing or https://ui.perfetto.dev): begin/end pairs
on one thread — stage_begin/stage_end, op_begin/op_end, task_start/
task_finish, query_start/query_finish — become complete ("X") spans, every
other event an instant marker on its thread. Works on any journal:
--events-out dumps, /events tails, crash dumps.

Usage:
  tools/idf_events.py journal.jsonl              # per-stage timeline
  tools/idf_events.py journal.jsonl --summary    # counts only
  tools/idf_events.py journal.jsonl --raw        # normalized event dump
  tools/idf_events.py journal.jsonl --query 7    # one query's events only
  tools/idf_events.py journal.jsonl --strict     # nonzero exit on bad input
  tools/idf_events.py journal.jsonl --chrome-trace trace.json

Malformed (truncated) lines and unknown event kinds are skipped and
counted; they fail the run (exit 2) only under --strict, so a journal from
a newer binary still decodes on a best-effort basis.

Stdlib only; no third-party dependencies.
"""

import argparse
import json
import sys
from collections import Counter, defaultdict

# Payload-field meaning per event type (see obs::EventType).
TASK_EVENTS = {"task_start", "task_finish", "task_fail", "steal",
               "resident_hit", "resident_miss"}
GOVERNOR_EVENTS = {"evict", "spill_write", "reload_demand", "reload_prefetch",
                   "prefetch_skip", "batch_seal"}
ENGINE_EVENTS = {"recovery_block", "executor_kill"}
SHUFFLE_EVENTS = {"shuffle_push", "shuffle_drain", "shuffle_stall"}
QUERY_EVENTS = {"query_submit", "query_admit", "query_reject", "query_start",
                "query_finish", "query_cancel", "query_deadline"}
CHAOS_EVENTS = {"chaos_arm", "chaos_fault"}
META_EVENTS = {"crash", "build_info"}
SPAN_EVENTS = {"stage_begin", "stage_end", "op_begin", "op_end"}

KNOWN_EVENTS = (TASK_EVENTS | GOVERNOR_EVENTS | ENGINE_EVENTS |
                SHUFFLE_EVENTS | QUERY_EVENTS | CHAOS_EVENTS | META_EVENTS |
                SPAN_EVENTS)

# Chrome-trace span kinds: begin type -> category, end type -> category.
SPAN_BEGIN = {"stage_begin": "stage", "op_begin": "op",
              "task_start": "task", "query_start": "query"}
SPAN_END = {"stage_end": "stage", "op_end": "op", "task_finish": "task",
            "task_fail": "task", "query_finish": "query"}

QUERY_REJECT_REASONS = {0: "queue full", 1: "reservation does not fit",
                        2: "service shut down"}

# chaos_fault packs a = site << 8 | kind (see idf::chaos::Site / Fault).
CHAOS_SITES = {1: "task", 2: "reload", 3: "shuffle-push", 4: "shuffle-pull",
               5: "admission"}
CHAOS_FAULTS = {1: "task-delay", 2: "evict-world", 3: "kill-executor",
                4: "cancel-query", 5: "expire-query", 6: "budget-squeeze",
                7: "reload-fail", 8: "reload-delay", 9: "prefetch-fail",
                10: "shuffle-delay", 11: "shuffle-abort", 12: "admit-delay"}


def load_events(path):
    """Parses a JSONL journal. Malformed lines (a crash dump may be truncated
    mid-line) and unknown event kinds (journal from a newer binary) are
    skipped and counted, not fatal — see --strict."""
    events = []
    dropped = 0
    unknown = Counter()
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                ev = json.loads(line)
            except json.JSONDecodeError:
                dropped += 1
                continue
            if not isinstance(ev, dict) or "type" not in ev:
                dropped += 1
                continue
            if ev["type"] not in KNOWN_EVENTS:
                unknown[ev["type"]] += 1
                continue
            events.append(ev)
    events.sort(key=lambda e: (e.get("ts_us", 0), e.get("seq", 0)))
    return events, dropped, unknown


def fmt_bytes(n):
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024.0
    return f"{n}B"


def describe(ev):
    """One human line per event; a/b/c meanings follow obs::EventType docs."""
    t = ev["type"]
    a, b, c = ev.get("a", 0), ev.get("b", 0), ev.get("c", 0)
    if t == "task_start":
        return f"task {a} start on executor {b}"
    if t == "task_finish":
        return f"task {a} finish on executor {b} ({c} us)"
    if t == "task_fail":
        return f"task {a} FAILED on executor {b} ({c} us)"
    if t == "steal":
        return f"task {a} stolen from lane {b}"
    if t == "resident_hit":
        return f"task {a} dispatched resident (inputs in memory)"
    if t == "resident_miss":
        return f"task {a} dispatched non-resident (spilled inputs)"
    if t == "evict":
        return f"evict {fmt_bytes(a)} rdd={b} shard={c}"
    if t == "spill_write":
        return f"spill write {fmt_bytes(a)} rdd={b} shard={c}"
    if t == "reload_demand":
        return f"demand reload {fmt_bytes(a)} rdd={b} shard={c}"
    if t == "reload_prefetch":
        return f"prefetch reload {fmt_bytes(a)} rdd={b} shard={c}"
    if t == "prefetch_skip":
        return f"prefetch skipped (no headroom) {fmt_bytes(a)} rdd={b} shard={c}"
    if t == "batch_seal":
        return f"batch sealed {fmt_bytes(a)} rdd={b} shard={c}"
    if t == "shuffle_push":
        return f"shuffle push {fmt_bytes(a)} map={b} -> reduce={c}"
    if t == "shuffle_drain":
        return f"shuffle drain {fmt_bytes(a)} map={b} -> reduce={c}"
    if t == "shuffle_stall":
        side = "push (window full)" if c == 0 else "drain (waiting for data)"
        return f"shuffle stall {a / 1000.0:.1f}ms on task {b}, {side}"
    if t == "query_submit":
        return (f"query {a} submitted (reservation {fmt_bytes(b)}, "
                f"queue depth {c})")
    if t == "query_admit":
        return (f"query {a} admitted (reservation {fmt_bytes(b)}, "
                f"queued {c / 1000.0:.1f}ms)")
    if t == "query_reject":
        reason = QUERY_REJECT_REASONS.get(c, f"reason {c}")
        return f"query {a} REJECTED ({reason}, reservation {fmt_bytes(b)})"
    if t == "query_start":
        return f"query {a} start (reservation {fmt_bytes(b)}, priority {c})"
    if t == "query_finish":
        outcome = "OK" if b == 0 else f"status code {b}"
        return f"query {a} finish {outcome} ({c / 1000.0:.1f}ms running)"
    if t == "query_cancel":
        phase = "while queued" if b == 0 else "while running"
        return f"query {a} cancelled {phase} ({c / 1000.0:.1f}ms after submit)"
    if t == "query_deadline":
        phase = "while queued" if b == 0 else "while running"
        return (f"query {a} deadline expired {phase} "
                f"({c / 1000.0:.1f}ms after submit)")
    if t == "recovery_block":
        return f"recovery: recomputed rdd={a} partition={b} ({c} us)"
    if t == "executor_kill":
        return f"executor {a} killed, {b} blocks lost"
    if t == "stage_begin":
        return f"stage {ev.get('name', '?')!r} begin ({a} tasks)"
    if t == "stage_end":
        return (f"stage {ev.get('name', '?')!r} end ({a} tasks, "
                f"{b / 1000.0:.1f}ms task time, {c / 1000.0:.1f}ms wall)")
    if t == "op_begin":
        return f"operator {ev.get('name', '?')} begin"
    if t == "op_end":
        return (f"operator {ev.get('name', '?')} end ({a} rows, "
                f"{fmt_bytes(b)}, {c / 1000.0:.1f}ms)")
    if t == "chaos_arm":
        return f"chaos armed, seed {a} (replay with IDF_CHAOS_SEED={a})"
    if t == "chaos_fault":
        site = CHAOS_SITES.get(a >> 8, f"site-{a >> 8}")
        kind = CHAOS_FAULTS.get(a & 0xFF, f"kind-{a & 0xFF}")
        aux = ""
        if kind in ("task-delay", "reload-delay", "shuffle-delay",
                    "admit-delay"):
            aux = f" ({c} us)"
        elif kind == "evict-world":
            aux = f" ({c} evicted)"
        elif kind in ("reload-fail", "prefetch-fail"):
            aux = f" (reload #{c})"
        elif kind == "kill-executor":
            aux = f" (executor {c})"
        return f"CHAOS {kind} at {site} site, key {b:#x}{aux}"
    if t == "crash":
        return f"FATAL SIGNAL {a} — journal dumped by crash handler"
    if t == "build_info":
        return f"build {ev.get('name', '?')} (up {a}s)"
    return f"{t} a={a} b={b} c={c}"


def build_stages(events):
    """Groups events into per-stage windows.

    Task events carry the stage name; governor/storage events carry none, so
    they are attributed to whichever stages are live at their timestamp
    (between the stage's first task_start and last task end)."""
    stages = {}  # name -> dict(first_ts, last_ts, events)
    order = []
    for ev in events:
        if ev["type"] in TASK_EVENTS and ev.get("name"):
            name = ev["name"]
            if name not in stages:
                stages[name] = {"first": ev["ts_us"], "last": ev["ts_us"],
                                "events": []}
                order.append(name)
            st = stages[name]
            st["first"] = min(st["first"], ev["ts_us"])
            st["last"] = max(st["last"], ev["ts_us"])
            st["events"].append(ev)
    unattributed = []
    for ev in events:
        if ev["type"] in TASK_EVENTS and ev.get("name"):
            continue
        ts = ev.get("ts_us", 0)
        hosts = [n for n in order
                 if stages[n]["first"] <= ts <= stages[n]["last"]]
        if hosts:
            for n in hosts:
                stages[n]["events"].append(ev)
        else:
            unattributed.append(ev)
    for st in stages.values():
        st["events"].sort(key=lambda e: (e.get("ts_us", 0), e.get("seq", 0)))
    return order, stages, unattributed


def print_timeline(events, out=sys.stdout):
    crash = [e for e in events if e["type"] == "crash"]
    if crash:
        build = [e for e in events if e["type"] == "build_info"]
        print("=" * 66, file=out)
        print(f"  CRASH JOURNAL: {describe(crash[0])}", file=out)
        if build:
            print(f"  {describe(build[-1])}", file=out)
        print("=" * 66, file=out)
    order, stages, unattributed = build_stages(events)
    base_ts = events[0]["ts_us"] if events else 0
    for name in order:
        st = stages[name]
        tasks = Counter(e["type"] for e in st["events"])
        dur_ms = (st["last"] - st["first"]) / 1000.0
        print(f"\nstage {name!r}  "
              f"[{tasks['task_start']} tasks, {dur_ms:.1f} ms window]",
              file=out)
        gov = sum(1 for e in st["events"] if e["type"] in GOVERNOR_EVENTS)
        if gov:
            print(f"  governor activity during stage: {gov} events", file=out)
        shuf = sum(1 for e in st["events"] if e["type"] in SHUFFLE_EVENTS)
        if shuf:
            print(f"  shuffle activity during stage: {shuf} events", file=out)
        for ev in st["events"]:
            rel_ms = (ev["ts_us"] - base_ts) / 1000.0
            marker = "·" if ev["type"] in TASK_EVENTS else ">"
            print(f"  {rel_ms:10.3f}ms {marker} tid={ev.get('tid', 0):<3} "
                  f"q={ev.get('q', 0):<3} {describe(ev)}", file=out)
    if unattributed:
        print(f"\noutside any stage window ({len(unattributed)} events):",
              file=out)
        for ev in unattributed:
            rel_ms = (ev.get("ts_us", 0) - base_ts) / 1000.0
            print(f"  {rel_ms:10.3f}ms > tid={ev.get('tid', 0):<3} "
                  f"q={ev.get('q', 0):<3} {describe(ev)}", file=out)


def print_summary(events, out=sys.stdout):
    by_type = Counter(e["type"] for e in events)
    print(f"{len(events)} events", file=out)
    for t, n in sorted(by_type.items()):
        print(f"  {t:<16} {n}", file=out)
    spilled = sum(e.get("a", 0) for e in events if e["type"] == "spill_write")
    reloaded = sum(e.get("a", 0) for e in events
                   if e["type"] in ("reload_demand", "reload_prefetch"))
    if spilled or reloaded:
        print(f"  bytes spilled={fmt_bytes(spilled)} "
              f"reloaded={fmt_bytes(reloaded)}", file=out)
    pushed = sum(e.get("a", 0) for e in events if e["type"] == "shuffle_push")
    stalled_us = sum(e.get("a", 0) for e in events
                     if e["type"] == "shuffle_stall")
    if pushed or stalled_us:
        print(f"  shuffle pushed={fmt_bytes(pushed)} "
              f"stalled={stalled_us / 1000.0:.1f}ms", file=out)
    submits = by_type.get("query_submit", 0)
    if submits:
        finishes = [e for e in events if e["type"] == "query_finish"]
        failed = sum(1 for e in finishes if e.get("b", 0) != 0)
        queued_us = sum(e.get("c", 0) for e in events
                        if e["type"] == "query_admit")
        run_us = sum(e.get("c", 0) for e in finishes)
        print(f"  queries: {submits} submitted, "
              f"{by_type.get('query_admit', 0)} admitted, "
              f"{by_type.get('query_reject', 0)} rejected, "
              f"{by_type.get('query_cancel', 0)} cancelled, "
              f"{by_type.get('query_deadline', 0)} expired, "
              f"{failed} failed", file=out)
        if finishes:
            print(f"  query time: queued {queued_us / 1000.0:.1f}ms total, "
                  f"running {run_us / 1000.0:.1f}ms total "
                  f"({run_us / len(finishes) / 1000.0:.1f}ms mean)", file=out)
    arms = [e for e in events if e["type"] == "chaos_arm"]
    faults = [e for e in events if e["type"] == "chaos_fault"]
    if arms or faults:
        seeds = sorted({e.get("a", 0) for e in arms})
        by_kind = Counter(CHAOS_FAULTS.get(e.get("a", 0) & 0xFF,
                                           f"kind-{e.get('a', 0) & 0xFF}")
                          for e in faults)
        kinds = ", ".join(f"{k}={n}" for k, n in sorted(by_kind.items()))
        print(f"  chaos: armed seeds {seeds}, {len(faults)} faults injected"
              + (f" ({kinds})" if kinds else ""), file=out)
    stage_ends = [e for e in events if e["type"] == "stage_end"]
    if stage_ends:
        wall_us = sum(e.get("c", 0) for e in stage_ends)
        task_us = sum(e.get("b", 0) for e in stage_ends)
        print(f"  stages: {len(stage_ends)} finished, "
              f"wall {wall_us / 1000.0:.1f}ms, "
              f"task time {task_us / 1000.0:.1f}ms", file=out)
    op_us = defaultdict(int)
    op_count = Counter()
    for e in events:
        if e["type"] == "op_end":
            op_count[e.get("name", "?")] += 1
            op_us[e.get("name", "?")] += e.get("c", 0)
    for name, n in sorted(op_count.items()):
        print(f"  operator {name}: {n} runs, "
              f"{op_us[name] / 1000.0:.1f}ms inclusive", file=out)
    by_stage = defaultdict(Counter)
    stage_wall_us = defaultdict(int)
    for e in events:
        if e["type"] in TASK_EVENTS and e.get("name"):
            by_stage[e["name"]][e["type"]] += 1
        elif e["type"] == "stage_end" and e.get("name"):
            stage_wall_us[e["name"]] += e.get("c", 0)
    for name, counts in by_stage.items():
        hits, misses = counts["resident_hit"], counts["resident_miss"]
        extra = f", residency {hits}H/{misses}M" if hits or misses else ""
        print(f"  stage {name!r}: {counts['task_start']} tasks, "
              f"{counts['steal']} steals{extra}, "
              f"wall {stage_wall_us[name] / 1000.0:.1f}ms", file=out)
    print_query_table(events, out=out)


def print_query_table(events, out=sys.stdout):
    """Per-query attribution: what each query id cost, from its events."""
    by_q = defaultdict(Counter)
    for e in events:
        q = e.get("q", 0)
        t = e["type"]
        by_q[q][t] += 1
        if t == "spill_write":
            by_q[q]["spilled_bytes"] += e.get("a", 0)
        elif t in ("reload_demand", "reload_prefetch"):
            by_q[q]["reloaded_bytes"] += e.get("a", 0)
        elif t == "shuffle_stall":
            by_q[q]["stall_us"] += e.get("a", 0)
    if set(by_q) <= {0}:
        return
    print("  per-query attribution:", file=out)
    for q in sorted(by_q):
        c = by_q[q]
        who = "(unattributed)" if q == 0 else ""
        parts = [f"{c['task_finish'] + c['task_fail']} tasks"]
        if c["steal"]:
            parts.append(f"{c['steal']} steals")
        if c["resident_hit"] or c["resident_miss"]:
            parts.append(f"{c['resident_hit']}H/{c['resident_miss']}M")
        if c["spilled_bytes"]:
            parts.append(f"spilled {fmt_bytes(c['spilled_bytes'])}")
        if c["reloaded_bytes"]:
            parts.append(f"reloaded {fmt_bytes(c['reloaded_bytes'])}")
        if c["stall_us"]:
            parts.append(f"stalled {c['stall_us'] / 1000.0:.1f}ms")
        print(f"    q={q:<4} {', '.join(parts)} {who}".rstrip(), file=out)


def span_key(ev):
    """What a begin and its end share on one thread (besides the kind)."""
    t = ev["type"]
    if t in ("task_start", "task_finish", "task_fail"):
        return (ev.get("name", ""), ev.get("a", 0))
    if t in ("query_start", "query_finish"):
        return ev.get("a", 0)
    return ev.get("name", "")


def span_name(cat, ev):
    if cat == "task":
        return f"{ev.get('name', '?')} #{ev.get('a', 0)}"
    if cat == "query":
        return ev.get("name") or f"query {ev.get('a', 0)}"
    return ev.get("name", "?")


def span_args(cat, begin, end):
    args = {"q": begin.get("q", 0)}
    if cat == "task":
        args.update(stage=begin.get("name", ""), task=begin.get("a", 0),
                    executor=begin.get("b", 0))
        if end is not None and end["type"] == "task_fail":
            args["failed"] = True
    elif cat == "stage" and end is not None:
        args.update(tasks=end.get("a", 0), task_us=end.get("b", 0),
                    wall_us=end.get("c", 0))
    elif cat == "op" and end is not None:
        args.update(rows=end.get("a", 0), bytes=end.get("b", 0))
    elif cat == "query":
        args["query"] = begin.get("a", 0)
        if end is not None:
            args["status"] = end.get("b", 0)
    return args


def chrome_trace(events):
    """Pairs begin/end events per thread into complete ("X") spans; every
    other event becomes a thread-scoped instant. Returns (trace dict, stats).

    An end closes the innermost open span of its kind and key on its
    thread; spans opened above it that never ended (a failed stage, a
    reload fault unwinding an operator) close with it, marked
    "unterminated". Ends whose begin is not in the journal (the ring lapped
    past it, or a task cancelled before its body ran) are dropped and
    counted; spans still open at the end of the journal (a crash dump) end
    at the journal's last timestamp, marked "open"."""
    out = []
    stacks = defaultdict(list)  # tid -> [(cat, key, begin event)]
    stats = Counter()

    def emit(cat, begin, end_ts, end, **flags):
        args = span_args(cat, begin, end)
        args.update(flags)
        out.append({"name": span_name(cat, begin), "cat": cat, "ph": "X",
                    "ts": begin["ts_us"],
                    "dur": max(0, end_ts - begin["ts_us"]), "pid": 1,
                    "tid": begin.get("tid", 0), "args": args})
        stats["spans"] += 1

    for ev in events:
        t = ev["type"]
        tid = ev.get("tid", 0)
        if t in SPAN_BEGIN:
            stacks[tid].append((SPAN_BEGIN[t], span_key(ev), ev))
            continue
        if t in SPAN_END:
            cat, key = SPAN_END[t], span_key(ev)
            stack = stacks[tid]
            at = next((i for i in range(len(stack) - 1, -1, -1)
                       if stack[i][0] == cat and stack[i][1] == key), None)
            if at is None:
                stats["unmatched_ends"] += 1
                continue
            for inner_cat, _, inner in stack[at + 1:]:
                emit(inner_cat, inner, ev["ts_us"], None, unterminated=True)
                stats["unterminated"] += 1
            emit(cat, stack[at][2], ev["ts_us"], ev)
            del stack[at:]
            continue
        out.append({"name": t, "cat": "event", "ph": "i", "s": "t",
                    "ts": ev.get("ts_us", 0), "pid": 1, "tid": tid,
                    "args": {"q": ev.get("q", 0), "detail": describe(ev)}})
        stats["instants"] += 1
    last_ts = events[-1]["ts_us"] if events else 0
    for stack in stacks.values():
        for cat, _, begin in stack:
            emit(cat, begin, last_ts, None, open=True)
            stats["open"] += 1
    out.sort(key=lambda e: (e["ts"], e["tid"]))
    return {"traceEvents": out, "displayTimeUnit": "ms"}, stats


def write_chrome_trace(events, path):
    first_seq = min((e.get("seq", 0) for e in events), default=0)
    if first_seq > 0:
        print(f"warning: journal starts at seq {first_seq}: the ring lapped "
              f"(or this is a tail slice), so spans begun before it are "
              f"missing", file=sys.stderr)
    trace, stats = chrome_trace(events)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(trace, f, separators=(",", ":"))
    print(f"chrome trace written to {path}: {stats['spans']} spans, "
          f"{stats['instants']} instants ({stats['unmatched_ends']} ends "
          f"without a begin dropped, {stats['unterminated']} unterminated, "
          f"{stats['open']} still open)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("journal", help="flight-recorder JSONL journal")
    parser.add_argument("--summary", action="store_true",
                        help="print aggregate counts only")
    parser.add_argument("--raw", action="store_true",
                        help="print every event, decoded, in time order")
    parser.add_argument("--query", type=int, metavar="ID",
                        help="only events attributed to this query id")
    parser.add_argument("--strict", action="store_true",
                        help="exit 2 when any line was malformed or any "
                             "event kind was unknown")
    parser.add_argument("--chrome-trace", metavar="OUT",
                        help="write the journal as a Chrome trace_event "
                             "JSON file instead of printing a report")
    args = parser.parse_args()

    events, dropped, unknown = load_events(args.journal)
    if dropped:
        print(f"warning: skipped {dropped} malformed line(s)", file=sys.stderr)
    if unknown:
        kinds = ", ".join(f"{k} x{n}" for k, n in sorted(unknown.items()))
        print(f"warning: skipped {sum(unknown.values())} event(s) of "
              f"unknown kind(s): {kinds}", file=sys.stderr)
    if args.strict and (dropped or unknown):
        return 2
    if args.query is not None:
        events = [e for e in events if e.get("q", 0) == args.query]
        if not events:
            print(f"no events attributed to query {args.query}",
                  file=sys.stderr)
            return 1
    if not events:
        print("no events in journal", file=sys.stderr)
        return 1

    if args.chrome_trace:
        write_chrome_trace(events, args.chrome_trace)
    elif args.summary:
        print_summary(events)
    elif args.raw:
        base_ts = events[0]["ts_us"]
        for ev in events:
            rel_ms = (ev["ts_us"] - base_ts) / 1000.0
            print(f"{rel_ms:10.3f}ms tid={ev.get('tid', 0):<3} "
                  f"q={ev.get('q', 0):<3} {describe(ev)}")
    else:
        print_timeline(events)
        print()
        print_summary(events)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Piped into `head` etc.: exit quietly, and detach stdout so the
        # interpreter's shutdown flush doesn't raise a second error.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
