"""The benchmark's workloads: fixed command lists built from a seed.

build writes a workload's `.dg` fixtures into a directory and returns
its commands, each with the facts the outcome checker needs.  The same
seed always gives the same fixtures and commands: for family-sweep the
seed picks the sample and its order, for the other two it picks the
vertex relabelling of every diagram.
"""

from __future__ import annotations

import os
import random

import fixtures as fx

WORKLOADS = ("family-sweep", "prism-scale", "present-rings")

FAMILY_SAMPLE = 60
PRISM_KS = (4, 6, 8, 9, 10)
A3_RINGS = tuple(range(4, 17, 2))  # odd n decides no
B3_RINGS = tuple(range(4, 11))
A4_PRIMES = tuple(p for p in range(5, 200) if all(p % d for d in range(2, p)))


def _write(directory: str, f: fx.Fixture) -> str:
    path = os.path.join(directory, f.name + ".dg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f.text)
    return path


def _family(rng: random.Random, directory: str) -> list[dict]:
    cmds = []
    for f in fx.family_sample(fx.family(), FAMILY_SAMPLE, rng):
        path = _write(directory, f)
        facts = {"decision": f.decision, "text": f.text}
        cmds.append({"kind": "check", "fixture": f.name, "argv": ["check", path], **facts})
        if f.decision == "yes":
            cmds.append({"kind": "construct", "fixture": f.name, "argv": ["construct", path], **facts})
        cmds.append({"kind": "oracle", "fixture": f.name, "argv": ["oracle", path], **facts})
    return cmds


def _prisms(rng: random.Random, directory: str) -> list[dict]:
    cmds = []
    for k in PRISM_KS:
        f = fx.prism(k, rng)
        path = _write(directory, f)
        matrix = os.path.join(directory, f.name + ".matrix")
        facts = {"decision": f.decision, "k": k, "cycles": f.facts["cycles"]}
        cmds.append({"kind": "check", "fixture": f.name, "argv": ["check", path], **facts})
        cmds.append({"kind": "cycles", "fixture": f.name, "argv": ["cycles", path], **facts})
        cmds.append(
            {
                "kind": "construct",
                "fixture": f.name,
                "argv": ["construct", path, "--machine"],
                "save_stdout": matrix,
                **facts,
            }
        )
        if f.decision == "yes":
            cmds.append(
                {
                    "kind": "verify",
                    "fixture": f.name,
                    "argv": ["verify", path, "--matrix", matrix],
                    **facts,
                }
            )
    return cmds


def _rings(rng: random.Random, directory: str) -> list[dict]:
    cmds = []
    rings = [fx.ring("A3", n, rng) for n in A3_RINGS]
    rings += [fx.ring("B3", n, rng) for n in B3_RINGS]
    for f in rings:
        path = _write(directory, f)
        order = f.facts["root_order"]
        facts = {"decision": "yes", "root_order": order, "size": fx.read_dg(f.text).size}
        cmds.append({"kind": "construct", "fixture": f.name, "argv": ["construct", path], **facts})
        cmds.append({"kind": "present", "fixture": f.name, "argv": ["present", path], **facts})
        cmds.append(
            {"kind": "realize", "fixture": f.name, "argv": ["realize", path, "--p", str(order)], **facts}
        )
    for p in A4_PRIMES:
        cmds.append({"kind": "a4", "fixture": f"a4-{p}", "argv": ["a4", "--p", str(p)], "p": p})
    return cmds


_BUILDERS = {"family-sweep": _family, "prism-scale": _prisms, "present-rings": _rings}


def build(workload: str, seed: int, directory: str) -> list[dict]:
    """Write the workload's fixtures and return its numbered commands."""
    os.makedirs(directory, exist_ok=True)
    cmds = _BUILDERS[workload](random.Random(seed), directory)
    for t, cmd in enumerate(cmds):
        cmd["id"] = t
    return cmds
