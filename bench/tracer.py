"""Span tracer installed from outside the program.

`Tracer.install` replaces every public function of the traced latshell
modules with a wrapper, in its own module and in every latshell module
that imported it by name, so calls are caught wherever they are looked up.
Spans are kept in memory as (function id, start, end, parent span) and
written out only when the run ends.  A span's self time is its duration
minus the durations of its direct children; calls run on one thread, so
children nest inside their parent.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("poset", "lattice", "labeling", "complexes", "morse", "groups", "cli")

# Left unwrapped so that cli.main's self time covers argument parsing,
# input hashing and report serialising, which run does on main's behalf.
UNWRAPPED = {"cli.run"}


def _facets_of_arg(args, result):
    return "facets", len(args[0].facets)


def _facets_of_result(args, result):
    return "facets", len(result.facets)


def _found(args, result):
    return "found", len(result)


def _exit_code(args, result):
    return f"exit{result}", 1


# Work counts recorded next to the timings, keyed by traced function; each
# returns a counter suffix and the amount to add.  Every traced function
# also counts the calls that raised, under "<function>.raised".
WORK = {
    "groups.subgroups": _found,
    "complexes.verify_shelling": _facets_of_arg,
    "complexes.betti_numbers": _facets_of_arg,
    "poset.order_complex": _facets_of_result,
    "cli.main": _exit_code,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (name id, start, end, parent index)
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _wrap(self, qualname: str, fn):
        fid = len(self.names)
        self.names.append(qualname)
        work = WORK.get(qualname)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                key = f"{qualname}.raised"
                counts[key] = counts.get(key, 0) + 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, start, end, parent)
            if work is not None:
                suffix, n = work(args, result)
                key = f"{qualname}.{suffix}"
                counts[key] = counts.get(key, 0) + n
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of each layer module of latshell."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "latshell"
                                           or name.startswith("latshell."))}
        wrapped = {}
        for layer in LAYERS:
            mod = modules[f"latshell.{layer}"]
            for attr, fn in vars(mod).items():
                # a generator's span would time only its creation
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or inspect.isgeneratorfunction(fn)
                        or fn.__module__ != mod.__name__
                        or f"{layer}.{attr}" in UNWRAPPED):
                    continue
                wrapped[fn] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    self._originals.append((mod, attr, val))
                    setattr(mod, attr, wrapped[val])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._originals):
            setattr(mod, attr, val)
        self._originals.clear()

    def self_times(self) -> tuple[dict, dict]:
        """Self seconds and call counts per traced function."""
        child = [0.0] * len(self.spans)
        for fid, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        seconds: dict[str, float] = {}
        calls: dict[str, int] = {}
        for k, (fid, start, end, parent) in enumerate(self.spans):
            name = self.names[fid]
            seconds[name] = seconds.get(name, 0.0) + (end - start) - child[k]
            calls[name] = calls.get(name, 0) + 1
        return seconds, calls

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "counts": self.counts,
                       "spans": self.spans}, fh, separators=(",", ":"))
