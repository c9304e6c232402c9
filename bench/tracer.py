"""Outside-in tracer: spans around linkdyn's public functions.

The tracer changes no linkdyn file.  install() replaces each listed
function with a wrapper in every linkdyn module namespace that binds
it, so calls through `from .x import f` aliases and through deferred
imports (construct's `from .existence import check`) are seen too.
Two hooks only count: RootExpr construction and QValue.is_zero.

A span is [name, start, end, parent, command id].  Spans stay in
memory until the worker writes them out at the end of its pass.  A
span's self time is its duration minus the time its child spans cover;
the code is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# (module, function) pairs that get a span
SPANNED = (
    ("cli", "main"),
    ("cli", "parse"),
    ("existence", "check"),
    ("cycles", "enumerate_cycles"),
    ("cycles", "genus_gcd"),
    ("diagram", "classify_components"),
    ("braiding", "construct"),
    ("braiding", "admissible_orders"),
    ("braiding", "verify"),
    ("braiding", "brute_force_exists"),
    ("presentation", "emit_presentation"),
    ("presentation", "cyclotomic_polynomial"),
    ("realization", "realize_free"),
    ("realization", "realize_mod_p"),
    ("realization", "a4_solve_zp2"),
)


PACKAGE = "linkdyn"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # (name, command id) -> count
        self.command = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _span(self, name: str, fn, observe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.command])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _count(self, key: str):
        def bump(amount: int = 1) -> None:
            self.counts[(key, self.command)] += amount

        return bump

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        """Point every name in the package that is bound to original at wrapper."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        mods = {m: sys.modules[f"{PACKAGE}.{m}"] for m, _ in SPANNED}
        returned = self._count("cycles.enumerate_cycles.cycles_returned")
        verified_ok = self._count("braiding.verify.ok")
        observers = {
            "cycles.enumerate_cycles": lambda found: returned(len(found)),
            "braiding.verify": lambda report: verified_ok(int(report.ok)),
        }
        for mod, fn in SPANNED:
            name = f"{mod}.{fn}"
            original = getattr(mods[mod], fn)
            self._rebind(original, self._span(name, original, observers.get(name)))

        braiding = sys.modules[f"{PACKAGE}.braiding"]
        root_expr = braiding.RootExpr
        post_init = root_expr.__post_init__
        created = self._count("braiding.RootExpr.created")

        def counted_post_init(obj) -> None:
            created()
            post_init(obj)

        self._set(root_expr, "__post_init__", counted_post_init)

        qvalue = sys.modules[f"{PACKAGE}.presentation"].QValue
        is_zero = vars(qvalue)["is_zero"]
        zero_calls = self._count("presentation.QValue.is_zero.calls")

        def counted_is_zero(obj) -> bool:
            zero_calls()
            return is_zero.fget(obj)

        self._set(qvalue, "is_zero", property(counted_is_zero, doc=is_zero.__doc__))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------ analysis

    def self_times(self) -> list[float]:
        """Self time of each span, in span order."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]
