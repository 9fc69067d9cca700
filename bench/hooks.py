"""Per-layer tracing from outside the package.

Each hooked function is replaced by a timing wrapper in every stellite
module that holds it, so a call is seen wherever the function is looked
up: by module attribute (lang.thread_local_block), by name imported into
another module (verifier's block_local, cut, hist_ext and refines_ext;
blocklocal's complete) or as a module global (closure inside complete and
derive_hb). A generator function is timed across every step of its
iteration, not only the call that creates it. Times are self times: a
span's duration minus the spans of hooked functions it called.

Spans are aggregated per layer as they close, not kept one by one:
load_dup alone makes about a million refines_ext calls at V=3.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Hook:
    module: str  # stellite submodule that defines the function
    func: str
    time: str  # metric suffix of the layer's self time
    count: str | None = None  # metric suffix of the work count, if any
    # result -> work count; a generator's work count is its yields
    measure: object = None

    @property
    def layer(self):
        return f"{self.module}.{self.func}"


HOOKS = (
    Hook("verifier", "enumerate_contexts", "s", "contexts", len),
    Hook("lang", "thread_local_block", "s", "pre_executions", len),
    Hook("blocklocal", "block_local", "self_s", "executions", len),
    Hook("axiomatic", "complete", "s", "executions"),
    Hook("axiomatic", "closure", "s"),
    Hook("cut", "cut", "s", "kept", bool),
    Hook("history", "hist_ext", "self_s"),
    Hook("history", "deny", "s"),
    Hook("history", "refines_ext", "s"),
    Hook("axiomatic", "enumerate_program", "self_s", "executions",
         lambda res: len(res.executions)),
)


class Tracer:
    """Installs the hooks and accumulates self time, calls and work
    counts per layer until uninstalled."""

    def __init__(self):
        self.hooks = HOOKS
        self.missing = []
        self._patched = []  # (module, attribute, original)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.work = defaultdict(int)
        # child-time accumulators of the open spans; [0] is the root
        self._stack = [0.0]

    def reset(self):
        """Zero the accumulators in place; the wrappers hold them."""
        self.self_s.clear()
        self.calls.clear()
        self.work.clear()
        self._stack[:] = [0.0]

    def _wrap(self, hook, fn):
        name = hook.layer
        stack, self_s, calls, work = (self._stack, self.self_s, self.calls,
                                      self.work)
        measure = hook.measure

        def close(t0):
            dt = perf_counter() - t0
            self_s[name] += dt - stack.pop()
            stack[-1] += dt

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(t0)
                    work[name] += 1
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                close(t0)
            calls[name] += 1
            if measure is not None:
                work[name] += measure(out)
            return out
        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None
                   and (n == "stellite" or n.startswith("stellite."))]
        self.missing = []
        for hook in self.hooks:
            owner = sys.modules.get(f"stellite.{hook.module}")
            original = getattr(owner, hook.func, None)
            if not callable(original):
                self.missing.append(hook.layer)
                continue
            wrapper = self._wrap(hook, original)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for (mod, attr, original) in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def layer_metrics(self):
        """Per-layer self time, calls and work counts of the spans since
        the last reset, by metric name."""
        out = {}
        for hook in self.hooks:
            name = hook.layer
            out[f"{name}.{hook.time}"] = self.self_s[name]
            out[f"{name}.calls"] = self.calls[name]
            if hook.count is not None:
                out[f"{name}.{hook.count}"] = self.work[name]
        return out
