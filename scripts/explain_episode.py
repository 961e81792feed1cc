#!/usr/bin/env python3
"""Explain episode span chains in an LG_TRACE_OUT (Perfetto JSON) trace.

Every LIFEGUARD episode, whichever driver ran it (core::Lifeguard, the fleet
EpisodeManager or the service plane), is one `episode` span with one
`episode.<state>` child per state residency (core/episode.h).

Usage:
    explain_episode.py TRACE                # list every episode span
    explain_episode.py TRACE SPAN_ID        # print one episode's chain
    explain_episode.py --check TRACE [...]  # exit 1 unless every ended
                                            # episode is well formed

SPAN_ID is the span's `id` arg as the trace prints it (0x-prefixed hex) or
a decimal integer. The chain lists each residency with its notes
(deferrals, escalations, stall ages), then the episode's outcome and its
summary notes. --check requires every ended `episode` span to carry an
`outcome` note and to have only `episode.<state>` children.
"""

import json
import signal
import sys

STATES = ["monitor", "suspect", "isolate", "remediate", "verify", "holddown"]
OUTCOMES = ["open", "resolved-self", "no-blame", "declined", "remediated",
            "verify-timeout", "captive"]
# Episode-level notes whose value is an enum code, not a quantity.
CODED = {"outcome": OUTCOMES, "stalled_in_state": [s.upper() for s in STATES]}


def load_spans(path):
    """Span events of a trace, keyed by span id (int), in trace order."""
    with open(path) as f:
        trace = json.load(f)
    spans = {}
    for ev in trace.get("traceEvents", []):
        if ev.get("ph") != "X":
            continue
        args = ev.get("args", {})
        span = {
            "name": ev["name"],
            "begin": ev["ts"] / 1e6,
            "end": (ev["ts"] + ev["dur"]) / 1e6,
            "open": bool(args.get("open", False)),
            "parent": int(args["parent"], 16) if "parent" in args else 0,
            "a": args.get("a", 0),
            "b": args.get("b", 0),
            "notes": [(k, v) for k, v in args.get("notes", [])],
        }
        spans[int(args["id"], 16)] = span
    return spans


def children_of(spans):
    kids = {}
    for sid, span in spans.items():
        kids.setdefault(span["parent"], []).append(sid)
    # Dicts keep trace order, which breaks ties between equal begin times
    # (a zero-length residency before the one it handed over to).
    return kids


def ipv4(n):
    return ".".join(str((n >> s) & 0xFF) for s in (24, 16, 8, 0))


def fmt_note(key, value):
    names = CODED.get(key)
    if names is not None and 0 <= int(value) < len(names):
        return f"{key}={names[int(value)]}"
    return f"{key}={value:g}"


def outcome_of(span):
    for key, value in span["notes"]:
        if key == "outcome":
            return OUTCOMES[int(value)] if 0 <= int(value) < len(OUTCOMES) \
                else f"outcome {value:g}"
    return "open" if span["open"] else "?"


def window(span):
    end = "open" if span["open"] else f"{span['end']:.3f}"
    return f"{span['begin']:.3f} .. {end}"


def explain(spans, sid):
    episode = spans.get(sid)
    if episode is None or episode["name"] != "episode":
        print(f"no episode span with id 0x{sid:016x}", file=sys.stderr)
        return 1
    print(f"episode 0x{sid:016x}: target {ipv4(episode['a'])} "
          f"(AS {episode['b']}), {window(episode)} s")
    for cid in children_of(spans).get(sid, []):
        child = spans[cid]
        state = child["name"].split(".", 1)[-1].upper()
        dur = "open" if child["open"] else \
            f"{child['end'] - child['begin']:.1f} s"
        notes = " ".join(fmt_note(k, v) for k, v in child["notes"])
        print(f"  {state:<10} {window(child)} ({dur})"
              + (f"  {notes}" if notes else ""))
    summary = " ".join(fmt_note(k, v) for k, v in episode["notes"]
                       if k != "outcome")
    print(f"  outcome: {outcome_of(episode)}"
          + (f"  {summary}" if summary else ""))
    return 0


def check(path):
    """Problems with the ended episode spans of one trace."""
    spans = load_spans(path)
    kids = children_of(spans)
    problems = []
    episodes = 0
    for sid, span in spans.items():
        if span["name"] != "episode" or span["open"]:
            continue
        episodes += 1
        if not any(key == "outcome" for key, _ in span["notes"]):
            problems.append(f"episode 0x{sid:016x} ended without an outcome")
        for cid in kids.get(sid, []):
            name = spans[cid]["name"]
            if not name.startswith("episode.") or \
                    name.split(".", 1)[1] not in STATES[1:]:
                problems.append(f"episode 0x{sid:016x} has child '{name}'")
    if episodes == 0:
        problems.append("no ended episode spans (was the trace taken with "
                        "spans on?)")
    return episodes, problems


def main(argv):
    if len(argv) >= 2 and argv[0] == "--check":
        failed = False
        for path in argv[1:]:
            episodes, problems = check(path)
            for p in problems:
                print(f"{path}: {p}", file=sys.stderr)
            failed |= bool(problems)
            print(f"{path}: {episodes} ended episodes, "
                  f"{len(problems)} problems")
        return 1 if failed else 0
    if len(argv) == 1:
        spans = load_spans(argv[0])
        for sid, span in spans.items():
            if span["name"] == "episode":
                print(f"0x{sid:016x}  {ipv4(span['a']):<15} AS {span['b']:<6}"
                      f" {window(span):<24} {outcome_of(span)}")
        return 0
    if len(argv) == 2:
        return explain(load_spans(argv[0]), int(argv[1], 0))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # quiet under `| head`
    sys.exit(main(sys.argv[1:]))
