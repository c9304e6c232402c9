"""One pass of a workload, run in a fresh interpreter.

Usage: python3 worker.py SPEC.json RESULT.json

SPEC holds the source directory, the command list and whether to
trace.  The worker times the import of linkdyn, then runs the commands
one after another (a closed loop with one caller) through
linkdyn.cli.main with stdout captured, times each call, checks its
outcome and writes one record per command to RESULT.  A fresh process
per pass keeps module caches cold, as they are for a CLI user.

Before each command and after the last one the worker also times
reference_kernel, a fixed piece of pure-Python work.  Its time tracks
how fast the machine runs at that moment; run.py divides by it to
take the host's speed drift out of the figures.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import resource
import sys
from contextlib import redirect_stdout
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import outcomes  # noqa: E402


def reference_kernel() -> list:
    """Fixed dict, tuple and integer work that linkdyn does not share."""
    table = {}
    for i in range(2000):
        table[(i * 7919) % 10007, i & 7] = i
    return sorted(table.items())[:3]


def timed_reference() -> float:
    t0 = perf_counter()
    reference_kernel()
    return perf_counter() - t0


def run(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    start = perf_counter()
    import linkdyn.cli as cli

    import_s = perf_counter() - start
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    records = []
    ref_s = first_ref_s = timed_reference()
    for cmd in spec["commands"]:
        if tracer is not None:
            tracer.command = cmd["id"]
        buf = io.StringIO()
        t0 = perf_counter()
        with redirect_stdout(buf):
            code = cli.main(cmd["argv"])
        seconds = perf_counter() - t0
        out = buf.getvalue()
        if "save_stdout" in cmd:
            with open(cmd["save_stdout"], "w", encoding="utf-8") as fh:
                fh.write(out)
        ref_after = timed_reference()
        records.append(
            {
                "id": cmd["id"],
                "seconds": seconds,
                "ref_s": (ref_s + ref_after) / 2,
                "exit": code,
                "digest": outcomes.digest(out),
                "problem": outcomes.problem(cmd, code, out),
            }
        )
        ref_s = ref_after
    result = {
        "import_s": import_s,
        "ref_s": first_ref_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "records": records,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = summarize(tracer, spec.get("spans_out"))
    return result


def summarize(tracer, spans_out: str | None) -> dict:
    """Per-name and per-command totals; optionally write the spans."""
    selfs = tracer.self_times()
    by_name: dict[str, list[float]] = {}
    by_command: dict[str, dict[str, float]] = {}
    for (name, start, end, parent, cmd), self_s in zip(tracer.spans, selfs):
        calls_self = by_name.setdefault(name, [0, 0.0])
        calls_self[0] += 1
        calls_self[1] += self_s
        per = by_command.setdefault(str(cmd), {})
        per[name + ".calls"] = per.get(name + ".calls", 0) + 1
        per[name + ".self_s"] = per.get(name + ".self_s", 0.0) + self_s
    counts: dict[str, int] = {}
    for (key, cmd), n in tracer.counts.items():
        counts[key] = counts.get(key, 0) + n
        per = by_command.setdefault(str(cmd), {})
        per[key] = per.get(key, 0) + n
    if spans_out:
        with gzip.open(spans_out, "wt", encoding="utf-8") as fh:
            for span, self_s in zip(tracer.spans, selfs):
                name, start, end, parent, cmd = span
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "command": cmd, "self_s": self_s}) + "\n")
    return {"by_name": by_name, "counts": counts, "by_command": by_command}


def main() -> int:
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
