"""linkdyn benchmark: end-to-end CLI timings and a traced per-layer run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload family-sweep --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py):
  family-sweep   stratified sample of the 307-diagram small family:
                 check, construct on yes, oracle --nmax 30
  prism-scale    prisms of A5 rings, k = 4, 6, 8, 10 (yes) and 9 (no):
                 check, cycles, construct --machine, verify --matrix
  present-rings  A3 and B3 rings: construct, present, realize --p;
                 a4 --p for every prime from 5 to 199

A pass runs the workload's command list once, in a fresh interpreter,
one command after another (a closed loop with one caller), so module
caches start cold as they do for a CLI user.  With --trace 0 the run
repeats passes on the same fixtures until --seconds is used and times
each command by its best pass; short bursts of load from elsewhere on
the machine then do not reach the figures.  With --trace 1 it runs one
untraced and one traced pass of every workload, checks that stdout is
byte-identical between them and reports per-layer counts and self
times, each taken from the workload named in SPAN_WORKLOAD or
COUNT_WORKLOAD.

BENCHMARK.json times family-sweep and present-rings only.  prism-scale
runs under --trace 1 and on request: its times follow the seeded vertex
numbering (on a 2-vCPU VM, enumerate_cycles at k = 10 takes 55 to 95 ms
by numbering), so across seeds its construct, check and cycles totals
spread by 14 to 25 %, more than a bound can absorb.

The report goes to stdout; its last line is one JSON object with the
keys correct, attempted, failed and metrics.  Per-command stdout
digests and the spans of traced passes are written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from worker import timed_reference  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORK = os.path.join(ROOT, ".bench_work")

# Times are scaled to a machine on which worker.reference_kernel takes
# exactly REF_S: each command's wall time is multiplied by REF_S over
# the kernel's time measured next to it.  On a shared host the speed
# drifts by 10 % and more within a minute, and the scaling takes that
# drift out while leaving every change in linkdyn's own speed in.
REF_S = 0.002

SETUP_REPS = 7
MIN_PASSES = 3
MIN_SAMPLES = 100
RUN_LIMIT_S = 170  # a run must end within 180 s

COMMAND_KINDS = ("check", "construct", "cycles", "verify", "oracle", "realize", "present", "a4")

# the workload whose traced pass reports each spanned function ...
SPAN_WORKLOAD = {
    "cli.main": "family-sweep",
    "cli.parse": "family-sweep",
    "existence.check": "prism-scale",
    "cycles.enumerate_cycles": "prism-scale",
    "cycles.genus_gcd": "prism-scale",
    "diagram.classify_components": "family-sweep",
    "braiding.construct": "prism-scale",
    "braiding.admissible_orders": "prism-scale",
    "braiding.verify": "family-sweep",
    "braiding.brute_force_exists": "family-sweep",
    "presentation.emit_presentation": "present-rings",
    "presentation.cyclotomic_polynomial": "present-rings",
    "realization.realize_free": "present-rings",
    "realization.realize_mod_p": "present-rings",
    "realization.a4_solve_zp2": "present-rings",
}
# ... and each named count
COUNT_WORKLOAD = {
    "cycles.enumerate_cycles.cycles_returned": "prism-scale",
    "braiding.RootExpr.created": "family-sweep",
    "presentation.QValue.is_zero.calls": "present-rings",
}


class BenchError(RuntimeError):
    """A worker crashed or timed out."""


# ----------------------------------------------------------------- workers


def run_worker(spec: dict, directory: str, deadline: float) -> dict:
    """Run worker.py on spec in a fresh interpreter and return its result.

    The worker is killed, and BenchError raised, at the deadline (a
    perf_counter value).
    """
    spec_path = os.path.join(directory, "spec.json")
    result_path = os.path.join(directory, "result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"src": SRC, **spec}, fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
        cwd=ROOT,
        timeout=max(1.0, deadline - perf_counter()),
        stdout=subprocess.DEVNULL,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def set_up(workload: str, seed: int, directory: str, deadline: float) -> tuple[list[dict], list[float]]:
    """Build the fixtures SETUP_REPS times, each followed by a fresh import.

    Returns the commands and one set-up time per repetition: fixture
    generation plus the worker's import of linkdyn.  The first
    repetition also byte-compiles the sources of a fresh checkout.
    """
    times = []
    for _ in range(SETUP_REPS):
        scale = REF_S / timed_reference()
        t0 = perf_counter()
        commands = workloads.build(workload, seed, directory)
        fixture_s = perf_counter() - t0
        imported = run_worker({"commands": []}, directory, deadline)
        times.append(fixture_s * scale + imported["import_s"] * REF_S / imported["ref_s"])
    return commands, times


def failures(commands: list[dict], passes: list[dict]) -> list[str]:
    """Wrong outcomes, and stdout that differs between passes."""
    out = []
    for t, cmd in enumerate(commands):
        records = [p["records"][t] for p in passes]
        label = f"{cmd['fixture']} {cmd['kind']}"
        out += [f"{label}: {r['problem']}" for r in records if r["problem"]]
        if len({(r["exit"], r["digest"]) for r in records}) > 1:
            out.append(f"{label}: stdout differs between passes")
    return out


def write_digests(name: str, commands: list[dict], records: list[dict]) -> str:
    """One line per command: its arguments, exit code and stdout digest.

    Paths are cut to file names, so the files of two checkouts compare
    line by line for the same seed.
    """
    path = os.path.join(OUT, name)
    with open(path, "w", encoding="utf-8") as fh:
        for cmd, rec in zip(commands, records):
            args = " ".join(os.path.basename(a) for a in cmd["argv"])
            fh.write(f"{args} exit={rec['exit']} {rec['digest']}\n")
    return path


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def scaled(rec: dict) -> float:
    """A command's wall time at reference speed."""
    return rec["seconds"] * REF_S / rec["ref_s"]


def result_json(bad: list[str], attempted: int, metrics: dict) -> dict:
    return {
        "correct": not bad,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# ------------------------------------------------------------------- timed


def timed_run(workload: str, seed: int, seconds: float, workdir: str, deadline: float) -> dict:
    commands, setup_times = set_up(workload, seed, workdir, deadline)
    passes: list[dict] = []
    start = perf_counter()
    while True:
        passes.append(run_worker({"commands": commands}, workdir, deadline))
        elapsed = perf_counter() - start
        n = len(passes)
        if perf_counter() + elapsed / n > deadline:
            break
        if n >= MIN_PASSES and n * len(commands) >= MIN_SAMPLES and elapsed * (n + 1) / n > seconds:
            break

    # per command: median over passes; pooled: every timed sample
    per_command = [statistics.median(scaled(p["records"][t]) for p in passes) for t in range(len(commands))]
    pooled = [scaled(rec) for p in passes for rec in p["records"]]
    per_kind: dict[str, float] = {}
    for cmd, s in zip(commands, per_command):
        per_kind[cmd["kind"]] = per_kind.get(cmd["kind"], 0.0) + s
    bad = failures(commands, passes)
    attempted = len(pooled)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (max(p["peak_rss_kb"] for p in passes) / 1024, "MB"),
        "commands_per_s": (len(commands) / sum(per_command), "1/s"),
        "cmd_ms.p50": (1000 * quantile(pooled, 0.5), "ms"),
        "cmd_ms.p90": (1000 * quantile(pooled, 0.9), "ms"),
        "construct_s": (per_kind["construct"], "s"),
    }

    print(f"workload {workload}  seed {seed}  passes {len(passes)}  commands {len(commands)}  "
          f"attempted {attempted}")
    report = dict(metrics)
    report.update({f"{k}_s": (per_kind[k], "s") for k in COMMAND_KINDS if k in per_kind})
    report["failed_ratio"] = (len(bad) / attempted, "ratio")
    for name, (value, unit) in report.items():
        note = f"  (n={attempted} samples)" if name.startswith("cmd_ms") else ""
        print(f"  {name:<16} {value:12.6f} {unit}{note}")
    raw = [p["records"][t]["seconds"] for p in passes for t in range(len(commands))]
    print(f"  unscaled wall: {len(raw) / sum(raw):.4f} commands/s, reference kernel median "
          f"{1000 * statistics.median(rec['ref_s'] for p in passes for rec in p['records']):.4f} ms")
    for line in bad[:20]:
        print(f"  FAILED {line}")
    digests = write_digests(f"digests-{workload}-seed{seed}.txt", commands, passes[0]["records"])
    print(f"  stdout digests: {os.path.relpath(digests, ROOT)}")
    return result_json(bad, attempted, metrics)


# ------------------------------------------------------------------ traced


def traced_run(seed: int, workdir: str, deadline: float) -> dict:
    commands: dict[str, list[dict]] = {}
    plain: dict[str, dict] = {}
    traced: dict[str, dict] = {}
    run_worker({"commands": []}, workdir, deadline)  # byte-compile outside the timed passes
    for w in workloads.WORKLOADS:
        commands[w] = workloads.build(w, seed, os.path.join(workdir, w))
        plain[w] = run_worker({"commands": commands[w]}, workdir, deadline)
        spans = os.path.join(OUT, f"spans-{w}-seed{seed}.jsonl.gz")
        traced[w] = run_worker({"commands": commands[w], "trace": True, "spans_out": spans}, workdir, deadline)

    bad = []
    for w in workloads.WORKLOADS:
        bad += failures(commands[w], [plain[w], traced[w]])
        write_digests(f"digests-traced-{w}-seed{seed}.txt", commands[w], traced[w]["records"])
    attempted = 2 * sum(len(c) for c in commands.values())

    metrics: dict[str, tuple[float, str]] = {}
    for name, w in SPAN_WORKLOAD.items():
        calls, self_s = traced[w]["trace"]["by_name"].get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    for name, w in COUNT_WORKLOAD.items():
        metrics[name] = (traced[w]["trace"]["counts"].get(name, 0), "count")
    family = traced["family-sweep"]["trace"]
    verified = family["by_name"].get("braiding.verify", (0, 0.0))[0]
    metrics["braiding.verify.ok_ratio"] = (family["counts"].get("braiding.verify.ok", 0) / max(verified, 1), "ratio")
    plain_s = sum(scaled(r) for p in plain.values() for r in p["records"])
    traced_s = sum(scaled(r) for p in traced.values() for r in p["records"])
    metrics["tracing_overhead_ratio"] = (traced_s / plain_s, "ratio")
    metrics.update(prism_curve(commands["prism-scale"], traced["prism-scale"]))

    print(f"traced run  seed {seed}  attempted {attempted}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:14.6f} {unit}")
    print_oracle_shares(commands["family-sweep"], traced["family-sweep"])
    print_construct_cycles(commands["prism-scale"], traced["prism-scale"])
    for line in bad[:20]:
        print(f"  FAILED {line}")
    return result_json(bad, attempted, metrics)


def prism_curve(commands: list[dict], result: dict) -> dict[str, tuple[float, str]]:
    """Per k: traced check, construct and cycles seconds, and the cycles
    that enumerate_cycles returned inside construct."""
    curve: dict[str, tuple[float, str]] = {}
    by_command = result["trace"]["by_command"]
    for cmd, rec in zip(commands, result["records"]):
        key = f"prism.k{cmd['k']}"
        if cmd["kind"] in ("check", "construct", "cycles"):
            curve[f"{key}.{cmd['kind']}_s"] = (rec["seconds"], "s")
        if cmd["kind"] == "construct":
            returned = by_command.get(str(cmd["id"]), {}).get("cycles.enumerate_cycles.cycles_returned", 0)
            curve[f"{key}.cycles_returned"] = (returned, "count")
    return curve


def print_oracle_shares(commands: list[dict], result: dict) -> None:
    totals: dict[str, float] = {}
    by_command = result["trace"]["by_command"]
    for cmd in commands:
        if cmd["kind"] == "oracle":
            for key, value in by_command.get(str(cmd["id"]), {}).items():
                if key.endswith(".self_s"):
                    totals[key[: -len(".self_s")]] = totals.get(key[: -len(".self_s")], 0.0) + value
    whole = sum(totals.values()) or 1.0
    print("  self-time shares under oracle (family-sweep):")
    for name, value in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"    {name:<40} {value / whole:7.1%}")


def print_construct_cycles(commands: list[dict], result: dict) -> None:
    by_command = result["trace"]["by_command"]
    print("  enumerate_cycles inside construct (prism-scale):")
    for cmd in commands:
        if cmd["kind"] == "construct":
            per = by_command.get(str(cmd["id"]), {})
            print(f"    k={cmd['k']:<3} calls {per.get('cycles.enumerate_cycles.calls', 0):3d}  "
                  f"returned {per.get('cycles.enumerate_cycles.cycles_returned', 0):6d}")


# -------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "linkdyn", "cli.py")):
        print(f"error: no linkdyn sources under {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.trace:
            result = traced_run(args.seed, workdir, deadline)
        else:
            result = timed_run(args.workload, args.seed, args.seconds, workdir, deadline)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
