"""Span tracing by rebinding the program's module attributes.

A hook named "module.function" wraps `pulsegate.<module>.<function>` and
every other binding of the same function object in the loaded `pulsegate`
modules (for example `rotation_unitary` is bound in `su2`, `greedy` and
`cli`), so a call is traced whichever module makes it. Nothing under the
program's source tree is edited, and `uninstall` puts every original
binding back.

Each call records one span: hook name, start, end, parent span and the
target id current when it began. Spans stay in memory, in flat arrays,
until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

PACKAGE = "pulsegate"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.target = array("i")
        self.start = array("q")
        self.end = array("q")
        self.current_target = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def __len__(self) -> int:
        return len(self.start)

    def set_target(self, target_id: int) -> None:
        self.current_target = target_id

    def wrap(self, hook: str, fn, on_return=None):
        if hook not in self._ids:
            self._ids[hook] = len(self.names)
            self.names.append(hook)
        nid = self._ids[hook]
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.target.append(self.current_target)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def install(self, hooks, on_return=None) -> None:
        """Wrap every binding of each hooked function.

        A hook whose module is loaded but lacks the function is recorded in
        `missing`; one whose module is not loaded is skipped.
        """
        on_return = on_return or {}
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for hook in hooks:
            module_name, _, attr = hook.partition(".")
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            if module is None:  # not loaded by this workload: nothing to wrap
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.add(hook)
                continue
            wrapper = self.wrap(hook, original, on_return.get(hook))
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)
                        self._restore.append((m, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._restore):
            setattr(module, name, original)
        self._restore.clear()

    def truncate(self, n: int) -> None:
        """Drop every span from index n on."""
        for column in (self.name_id, self.parent, self.target, self.start, self.end):
            del column[n:]

    def write(self, path, first: int = 0, last: int | None = None) -> None:
        """Write spans [first, last) as tab-separated lines: name start end parent target."""
        last = len(self) if last is None else last
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\ttarget\n")
            for i in range(first, last):
                fh.write(
                    f"{self.names[self.name_id[i]]}\t{self.start[i]}\t{self.end[i]}"
                    f"\t{self.parent[i]}\t{self.target[i]}\n"
                )


def self_times(parent, start, end) -> list[int]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [end[i] - start[i] for i in range(len(start))]
    for i, kids in children.items():
        lo, hi = start[i], end[i]
        covered = 0
        reach = lo
        for s, e in sorted((start[c], end[c]) for c in kids):
            s, e = max(s, reach), min(e, hi)
            if e > s:
                covered += e - s
                reach = e
        out[i] -= covered
    return out


def totals(tracer: Tracer, first: int = 0, last: int | None = None):
    """Per hook: (calls, self ns, inclusive ns) over spans [first, last)."""
    last = len(tracer) if last is None else last
    parent = [p - first if p >= first else -1 for p in tracer.parent[first:last]]
    start = tracer.start[first:last]
    end = tracer.end[first:last]
    own = self_times(parent, start, end)
    out: dict[str, list[int]] = {}
    for k, nid in enumerate(tracer.name_id[first:last]):
        row = out.setdefault(tracer.names[nid], [0, 0, 0])
        row[0] += 1
        row[1] += own[k]
        row[2] += end[k] - start[k]
    return out
