"""Timing and tracing of gapshrink from outside, by rebinding module names.

Nothing in the program changes: a wrapper replaces a function wherever a
gapshrink module holds a reference to it (its defining module and every
``from .x import f`` binding), and ``uninstall`` puts the originals back.

Always installed (cheap, a few calls per round):
  * the sampler entry points ``gibbs_*`` open a span ``samplers.<model>``;
  * the certification suites ``certify.check_*`` open ``certify.<suite>``;
  * ``experiments._map_tasks`` and the replication functions
    ``experiments._exp*_rep`` open spans, and a replication that runs in a
    pool worker ships its spans and counters back with its result.

Installed only when tracing:
  * every other public function of every gapshrink module counts calls and
    inclusive seconds under ``<module>.<function>``, and, for its outermost
    call into the module, under ``<module>``;
  * ``stream`` as bound in a sampler module also closes the span of the
    previous Gibbs block and opens ``<model>.<block>``, the block named after
    the stream id constant (``_THETA`` -> ``theta``);
  * ``slice_sample_1d`` counts logf evaluations, ``truncated_normal`` the
    values drawn and ``prox_fused`` its ADMM iterations.

Spans are kept in memory as [name, start, end, parent, info] lists; the
high-frequency calls only add to counters.
"""

from __future__ import annotations

import inspect
import os
import re
import sys
import time
from collections import defaultdict

perf = time.perf_counter

_SHIP_KEY = "_perfbench_record"
_BLOCK_CONST = re.compile(r"_[A-Z][A-Z0-9_]*$")
_REP_FUNCTIONS = ("_exp1_rep", "_exp2_rep", "_exp3_rep")
# extra quantity accumulated per call, besides calls and seconds
_EXTRA = {
    ("rng", "truncated_normal"): lambda out: getattr(out, "size", 1),
    ("oracles", "prox_fused"): lambda out: out.iterations,
}


def _layer(module_name):
    parts = module_name.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


def _program_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gapshrink" or name.startswith("gapshrink."))]


def _resolve(module_name, attr):
    return getattr(sys.modules[module_name], attr)


def block_names(module):
    """Stream id -> block name, from a sampler module's integer constants."""
    names = {}
    for attr, value in vars(module).items():
        if _BLOCK_CONST.match(attr) and type(value) is int:
            if value in names:
                raise ValueError(f"{module.__name__}: stream id {value} named twice")
            names[value] = attr[1:].lower()
    return names


class _ShippedRep:
    """Replication wrapper that pickles by name, so a pool worker forked from
    this process resolves it to the same installed wrapper."""

    def __init__(self, probe, attr, original):
        self.probe = probe
        self.attr = attr
        self.original = original

    def __reduce__(self):
        return (_resolve, ("gapshrink.experiments", self.attr))

    def __call__(self, payload):
        probe = self.probe
        in_worker = os.getpid() != probe.pid
        mark = probe.mark()
        span = probe.open("experiments." + self.attr.strip("_"))
        try:
            metrics, chains, summaries = self.original(payload)
        finally:
            probe.close(span)
        if in_worker:
            summaries = dict(summaries)
            summaries[_SHIP_KEY] = probe.since(mark)
        return metrics, chains, summaries


class Probe:
    """Spans and counters of one benchmark process (and its pool workers)."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans = []
        self.counters = defaultdict(lambda: [0, 0.0, 0.0])
        self._stack = []
        self._models = []
        self._block = None
        self._depth = defaultdict(int)
        self._patches = []

    # spans -----------------------------------------------------------------
    def open(self, name, info=None):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf(), None, parent, info])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index):
        self.spans[index][2] = perf()
        self._stack.remove(index)

    def _switch_block(self, name, sweep, now):
        if self._block is not None:
            self.spans[self._block][2] = now
        parent = self._stack[-1]
        self.spans.append([name, now, None, parent, None])
        self._block = len(self.spans) - 1
        info = self.spans[parent][4]
        info["sweeps"] = max(info["sweeps"], sweep)

    def _end_block(self):
        if self._block is not None:
            self.spans[self._block][2] = perf()
            self._block = None

    # snapshots, for per-round windows and for shipping out of pool workers --
    def mark(self):
        return len(self.spans), {k: list(v) for k, v in self.counters.items()}

    def since(self, mark):
        start, before = mark
        counters = {}
        for key, (calls, secs, extra) in self.counters.items():
            c0, s0, e0 = before.get(key, (0, 0.0, 0.0))
            if calls != c0:
                counters[key] = [calls - c0, secs - s0, extra - e0]
        return {"start": start, "spans": [list(s) for s in self.spans[start:]],
                "counters": counters}

    def merge(self, record):
        """Append spans and counters shipped back from a pool worker."""
        offset = len(self.spans) - record["start"]
        for name, t0, t1, parent, info in record["spans"]:
            if parent is not None and parent >= record["start"]:
                parent += offset
            self.spans.append([name, t0, t1, parent, info])
        for key, (calls, secs, extra) in record["counters"].items():
            c = self.counters[key]
            c[0] += calls
            c[1] += secs
            c[2] += extra

    # wrappers ----------------------------------------------------------------
    def _count(self, key, layer, dt, outermost, extra=0.0):
        c = self.counters[key]
        c[0] += 1
        c[1] += dt
        c[2] += extra
        if outermost:
            c = self.counters[layer]
            c[0] += 1
            c[1] += dt

    def _counted(self, layer, fname, f):
        key = f"{layer}.{fname}"
        extra = _EXTRA.get((layer, fname))
        depth = self._depth

        def wrapper(*args, **kwargs):
            d = depth[layer]
            depth[layer] = d + 1
            t0 = perf()
            try:
                out = f(*args, **kwargs)
            finally:
                depth[layer] = d
                dt = perf() - t0
            self._count(key, layer, dt, d == 0, extra(out) if extra else 0.0)
            return out

        return wrapper

    def _slice(self, f):
        depth = self._depth

        def wrapper(logf, *args, **kwargs):
            evals = [0]

            def counted_logf(x):
                evals[0] += 1
                return logf(x)

            d = depth["rng"]
            depth["rng"] = d + 1
            t0 = perf()
            try:
                out = f(counted_logf, *args, **kwargs)
            finally:
                depth["rng"] = d
                dt = perf() - t0
            self._count("rng.slice_sample_1d", "rng", dt, d == 0, evals[0])
            return out

        return wrapper

    def _block_stream(self, f, blocks):
        def wrapper(seed, chain=0, sweep=0, block=0):
            t0 = perf()
            if self._models:
                self._switch_block(f"{self._models[-1]}.{blocks[block]}", sweep, t0)
            out = f(seed, chain, sweep, block)
            self._count("rng.stream", "rng", perf() - t0, True)
            return out

        return wrapper

    def _sampler(self, model, f, traced):
        def wrapper(*args, **kwargs):
            span = self.open(f"samplers.{model}", {"sweeps": 0})
            if traced:
                self._models.append(model)
            try:
                return f(*args, **kwargs)
            finally:
                if traced:
                    self._end_block()
                    self._models.pop()
                self.close(span)

        return wrapper

    def _suite(self, name, f):
        def wrapper(*args, **kwargs):
            span = self.open(f"certify.{name}")
            try:
                return f(*args, **kwargs)
            finally:
                self.close(span)

        return wrapper

    def _map_tasks(self, f):
        from gapshrink import experiments

        def wrapper(fn, payloads):
            workers = experiments._n_workers(len(payloads))
            span = self.open("experiments.map_tasks", {"workers": workers})
            try:
                results = f(fn, payloads)
            finally:
                self.close(span)
            for _, _, summaries in results:
                record = summaries.pop(_SHIP_KEY, None)
                if record is not None:
                    self.merge(record)
            return results

        return wrapper

    # installation --------------------------------------------------------------
    def _rebind(self, original, wrapper_for):
        """Point every gapshrink binding of `original` at its wrapper."""
        for module in _program_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper_for(module))

    def install(self, traced):
        """Wrap the program; `traced` adds counters and block spans."""
        if self._patches:
            raise RuntimeError("probe already installed")
        from gapshrink import experiments, samplers

        sampler_modules = {m.__name__: m for m in _program_modules()
                           if m.__name__.startswith("gapshrink.samplers.")}
        special = set()
        for name in samplers.__all__:
            f = getattr(samplers, name)
            if name.startswith("gibbs_"):
                special.add(f)
                w = self._sampler(name[len("gibbs_"):], f, traced)
                self._rebind(f, lambda m, w=w: w)
        from gapshrink import certify

        for name in certify.__all__:
            if name.startswith("check_"):
                f = getattr(certify, name)
                special.add(f)
                suite = name[len("check_"):].removeprefix("gap_")
                w = self._suite(suite, f)
                self._rebind(f, lambda m, w=w: w)
        for attr in _REP_FUNCTIONS:
            f = getattr(experiments, attr)
            special.add(f)
            w = _ShippedRep(self, attr, f)
            self._rebind(f, lambda m, w=w: w)
        f = experiments._map_tasks
        special.add(f)
        w = self._map_tasks(f)
        self._rebind(f, lambda m, w=w: w)
        if not traced:
            return

        from gapshrink import rng

        blocks = {name: block_names(m) for name, m in sampler_modules.items()}
        plain_stream = self._counted("rng", "stream", rng.stream)
        special.add(rng.stream)
        self._rebind(
            rng.stream,
            lambda m: (self._block_stream(rng.stream, blocks[m.__name__])
                       if m.__name__ in blocks else plain_stream),
        )
        special.add(rng.slice_sample_1d)
        w = self._slice(rng.slice_sample_1d)
        self._rebind(rng.slice_sample_1d, lambda m: w)

        for module in _program_modules():
            for name in getattr(module, "__all__", ()):
                f = vars(module).get(name)
                if (inspect.isfunction(f) and f not in special
                        and f.__module__ == module.__name__):
                    special.add(f)
                    w = self._counted(_layer(module.__name__), name, f)
                    self._rebind(f, lambda m, w=w: w)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []
