"""In-memory span tracing of marlcert's layers, from outside the package.

`Tracer.install` replaces every public function of the traced modules
(plus a few named private hot spots) with a wrapper that records one span
per call: name, start, end and the span that was open when it started.
The wrapper is installed under every module attribute that holds the
original function, so ``certify.sample_tally`` and ``smoothing.sample_tally``
both record, whichever name the caller looks up.  `Tracer.uninstall` puts
the originals back.

Besides spans the wrappers keep exact counts: calls, an optional work
amount per call (rows, elements) and, for functions given a key, how many
calls repeat a key already seen in the current invocation.  Spans live in
flat arrays and are summarised by `Tracer.summary`; `Tracer.save` writes
them out.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

LAYERS = ("smoothing", "stats", "nn", "envs", "policy", "certify", "attack", "cli", "seeds")

# private functions that profiles single out as hot spots
PRIVATE_HOT_SPOTS = ("policy._td_update", "attack._smoothed_modal", "cli._build_id")


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


@dataclass(frozen=True)
class Probe:
    """What a wrapper counts besides calls and time.

    ``amount`` returns the work done by one call (rows, elements);
    ``key`` returns the call's input identity for ``repeat_frac``.
    """

    amount: Optional[Callable] = None
    key: Optional[Callable] = None


def _noise_key(args, kwargs):
    # (seed, step_index, agent, count, dim): everything but sigma, which
    # scales the block exactly and so could be applied to a cached block
    return (
        _arg(args, kwargs, 2, "seed"),
        _arg(args, kwargs, 3, "step_index"),
        _arg(args, kwargs, 4, "agent"),
        _arg(args, kwargs, 5, "count"),
        _arg(args, kwargs, 0, "dim"),
    )


PROBES = {
    "smoothing.gaussian_noise_block": Probe(
        amount=lambda a, k: _arg(a, k, 5, "count"), key=_noise_key
    ),
    "nn.forward_batch": Probe(amount=lambda a, k: len(_arg(a, k, 1, "X"))),
    "stats.std_normal_quantile_vec": Probe(
        amount=lambda a, k: np.size(_arg(a, k, 0, "p"))
    ),
    "stats.chi2_quantile": Probe(
        key=lambda a, k: (_arg(a, k, 0, "df"), _arg(a, k, 1, "p"))
    ),
    "envs.observe": Probe(
        key=lambda a, k: (
            id(_arg(a, k, 0, "spec")),
            _arg(a, k, 1, "state"),
            _arg(a, k, 2, "agent"),
        )
    ),
}


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans nest (one thread, stack discipline), so the children of a span
    are disjoint and their durations add up to the time they cover.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    covered = np.zeros_like(duration)
    nested = parent >= 0
    np.add.at(covered, parent[nested], duration[nested])
    return duration - covered


class Tracer:
    def __init__(self, package):
        self._package = package
        self._patched = []  # (module, attribute, original)
        self.names = []
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack = []
        self._amounts = Counter()
        self._repeats = Counter()
        self._seen = {}

    # --- installation ---

    def _modules(self):
        return [getattr(self._package, name) for name in LAYERS]

    def _targets(self):
        """(span name, function) for every traced function."""
        targets = []
        for module in self._modules():
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    targets.append((f"{layer}.{attr}", value))
        for name in PRIVATE_HOT_SPOTS:
            layer, attr = name.split(".")
            targets.append((name, getattr(getattr(self._package, layer), attr)))
        return targets

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, fn in self._targets():
            wrappers[id(fn)] = (fn, self._wrap(name, fn, PROBES.get(name, Probe())))
        modules = [self._package] + self._modules()
        for module in modules:
            for attr, value in list(vars(module).items()):
                found = wrappers.get(id(value))
                if found is not None and found[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, found[1])

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def new_invocation(self):
        """Start a new top-level call: keys seen before no longer repeat."""
        self._seen = {}

    def _wrap(self, name, fn, probe):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        span_name = self._span_name
        span_parent = self._span_parent
        span_start = self._span_start
        span_end = self._span_end
        stack = self._stack
        amounts = self._amounts
        repeats = self._repeats
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if probe.amount is not None:
                amounts[name] += int(probe.amount(args, kwargs))
            if probe.key is not None:
                seen = self._seen.setdefault(name, set())
                key = probe.key(args, kwargs)
                if key in seen:
                    repeats[name] += 1
                else:
                    seen.add(key)
            index = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(index)
            span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[index] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # --- results ---

    def arrays(self):
        return (
            np.frombuffer(self._span_name, dtype=np.int32).astype(np.int64),
            np.frombuffer(self._span_parent, dtype=np.int32).astype(np.int64),
            np.frombuffer(self._span_start, dtype=np.float64).copy(),
            np.frombuffer(self._span_end, dtype=np.float64).copy(),
        )

    def summary(self) -> dict:
        """Per function: calls, self_s, amount and repeat_frac (if probed)."""
        names, parents, start, end = self.arrays()
        own = self_times(start, end, parents)
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=own, minlength=len(self.names))
        out = {}
        for name_id, name in enumerate(self.names):
            entry = {"calls": int(calls[name_id]), "self_s": float(self_s[name_id])}
            probe = PROBES.get(name, Probe())
            if probe.amount is not None:
                entry["amount"] = self._amounts[name]
            if probe.key is not None:
                n = entry["calls"]
                entry["repeat_frac"] = self._repeats[name] / n if n else 0.0
            out[name] = entry
        return out

    def count_under(self, child: str, ancestor: str) -> int:
        """Spans named ``child`` that run inside a span named ``ancestor``."""
        names, parents, _, _ = self.arrays()
        child_id = self.names.index(child)
        ancestor_id = self.names.index(ancestor)
        count = 0
        for index in np.flatnonzero(names == child_id):
            p = parents[index]
            while p >= 0 and names[p] != ancestor_id:
                p = parents[p]
            count += int(p >= 0)
        return count

    def save(self, path):
        names, parents, start, end = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=names,
            parent=parents,
            start=start,
            end=end,
        )
