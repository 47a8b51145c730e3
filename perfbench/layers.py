"""Per-layer timing from outside the program.

``Tracer.install`` replaces each public function listed in ``LAYERS`` by a
timing wrapper in every shiftlab module that looks it up by name, so a call
from ``cli`` into ``conjugacy`` and a call from ``conjugacy`` into
``seqspace`` are both seen.  ``uninstall`` puts the originals back.  A
layer's self time is its span minus the time covered by the spans it opened.
Hot scalar helpers (``weight_at``, ``_pow_diff``, ``FinSeqVector``
construction) are deliberately not wrapped: their cost lands in the self
time of the caller.
"""

from __future__ import annotations

import importlib
import time


def _coords(i):
    return lambda args: len(args[i].coords)


def _arg(i):
    return lambda args: args[i]


# metric prefix -> (module, attribute, {counter suffix: count from positional args})
LAYERS = {
    "seqspace.tail_power_sums": ("seqspace", "tail_power_sums", {"coords": _coords(0)}),
    "seqspace.apply_shift": ("seqspace", "apply_shift", {"calls": lambda a: 1, "coords": _coords(1)}),
    "seqspace.lp_norm": ("seqspace", "lp_norm", {"coords": _coords(0)}),
    "seqspace.random_vectors": ("seqspace", "random_vectors", {}),
    "seqspace.subtract": ("seqspace", "subtract", {}),
    "seqspace.vector_from_dict": ("seqspace", "vector_from_dict", {}),
    "seqspace.vector_to_dict": ("seqspace", "vector_to_dict", {}),
    "seqspace.weights_to_dict": ("seqspace", "weights_to_dict", {}),
    "conjugacy.h_map": ("conjugacy", "h_map", {"coords": _coords(0)}),
    "conjugacy.g_map": ("conjugacy", "g_map", {"coords": _coords(0)}),
    "conjugacy.DiagStep.apply": ("conjugacy", "DiagStep.apply", {}),
    "conjugacy.build_conjugator": ("conjugacy", "build_conjugator", {}),
    "conjugacy.conjugacy_residual": ("conjugacy", "conjugacy_residual", {}),
    "dynamics.beta_profile": ("dynamics", "beta_profile", {"entries": _arg(1)}),
    "dynamics.horizon_evidence": ("dynamics", "horizon_evidence", {}),
    "dynamics.classify": ("dynamics", "classify", {}),
    "dynamics.orbit_norms": ("dynamics", "orbit_norms", {"steps": _arg(2)}),
    # steps = shift applications: the k-th basis vector is shifted k-1 times
    "dynamics.escape_demo": ("dynamics", "escape_demo", {"steps": lambda a: a[2] * (a[2] - 1) // 2}),
}

MODULES = ("seqspace", "conjugacy", "dynamics", "cli")


class Tracer:
    """Aggregated spans: per layer, total self time and counters."""

    def __init__(self, package: str) -> None:
        self._modules = {name: importlib.import_module(f"{package}.{name}") for name in MODULES}
        self._modules[""] = importlib.import_module(package)
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._stack = [0]
        self._patches: list[tuple[object, str, object]] = []
        self.main = self._wrap("cli.main", self._modules["cli"].main, {})

    def _wrap(self, name, fn, counters):
        self.self_ns.setdefault(name, 0)
        for suffix in counters:
            self.counts.setdefault(f"{name}.{suffix}", 0)
        stack, self_ns, counts = self._stack, self.self_ns, self.counts
        clock = time.perf_counter_ns
        items = [(f"{name}.{suffix}", count) for suffix, count in counters.items()]

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - t0
                child = stack.pop()
                stack[-1] += span
                self_ns[name] += span - child
                for key, count in items:
                    counts[key] += count(args)

        return traced

    def install(self) -> None:
        for name, (module, attr, counters) in LAYERS.items():
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                owner = getattr(self._modules[module], cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, self._wrap(name, original, counters))
                continue
            original = getattr(self._modules[module], attr)
            wrapped = self._wrap(name, original, counters)
            for mod in self._modules.values():
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
