"""In-memory spans recorded from outside the program.

Each wrap replaces a module attribute, so it must go on every module that
looks the name up: ``protocol.py`` imports ``born_measure`` by name, so
the call it makes goes through ``gpeps.protocol.born_measure``, not through
``gpeps.spectral.born_measure``.  :meth:`Tracer.wrap_function` therefore
patches every loaded ``gpeps`` module that binds the original object.

The program is single-threaded here (trials run with ``--threads 1``), so
a plain stack gives each span its parent.  A span takes its trial id from a
``trial`` keyword argument (``run_protocol(prepared, trial=k)``), or else
from its parent.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    trial: int | None
    pass_index: int
    info: dict

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "trial": self.trial,
            "pass": self.pass_index,
            "info": self.info,
        }


def self_time(start: float, end: float, children: list[tuple[float, float]]) -> float:
    """Duration of ``[start, end]`` minus the union of the child intervals.

    Children are clipped to the parent interval; overlapping children are
    counted once.
    """
    covered = 0.0
    cursor = start
    for c_start, c_end in sorted(children):
        c_start = max(c_start, cursor)
        c_end = min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            cursor = c_end
    return (end - start) - covered


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of every span in a list of span dicts, keyed by span id."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        span["id"]: self_time(span["start"], span["end"], children.get(span["id"], []))
        for span in spans
    }


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    """Records a span around every call of the wrapped functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pass_index = 0
        self._stack: list[Span] = []
        self._patches = Patches()

    def _wrapper(self, name: str, fn: Callable, info: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            trial = kwargs.get("trial")
            if trial is None and parent is not None:
                trial = parent.trial
            span = Span(
                id=len(self.spans),
                name=name,
                start=time.perf_counter(),
                end=0.0,
                parent=parent.id if parent is not None else None,
                trial=trial,
                pass_index=self.pass_index,
                info={},
            )
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def wrap_function(self, module_name: str, attr: str, name: str,
                      info: Callable | None = None) -> None:
        """Wrap ``module_name.attr`` in every ``gpeps`` module that binds it."""
        original = getattr(sys.modules[module_name], attr)
        traced = self._wrapper(name, original, info)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "gpeps" and getattr(mod, attr, None) is original:
                self._patches.set(mod, attr, traced)

    def wrap_method(self, cls: type, attr: str, name: str,
                    info: Callable | None = None) -> None:
        self._patches.set(cls, attr, self._wrapper(name, getattr(cls, attr), info))

    def uninstall(self) -> None:
        self._patches.restore()
