"""Spans around calls into the public functions of each zorbit layer.

``Tracer.install`` replaces every public function of the layer modules,
wherever the package binds it, with a wrapper that records a span:
``(span_id, parent_id, trace_id, name, start, end)`` with times from
``time.perf_counter``.  Spans stay in memory until ``write`` at exit.
The library itself is not changed; calls it makes between its own
modules go through the rebound names, so nested spans get their parent.

Run as a script, this file is the traced stand-in for ``python -m zorbit``:

    python bench/tracing.py SPANS_FILE zorbit-arguments...

It runs ``zorbit.cli.main`` under a tracer, writes the spans to
SPANS_FILE as JSON and exits with the CLI's exit code.  Sweep pool
workers are separate processes; their spans are not recorded, so their
time shows as self time of ``dynamics.sweep``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("kadic", "transform", "hypothesis", "dynamics", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [span_id, parent_id, trace_id, name, start, end]
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str, trace_id: int | None = None) -> list:
        parent = self._stack[-1] if self._stack else None
        if trace_id is None and parent is not None:
            trace_id = parent[2]
        span = [len(self.spans), None if parent is None else parent[0], trace_id, name, 0.0, 0.0]
        self.spans.append(span)
        self._stack.append(span)
        span[4] = time.perf_counter()
        return span

    def end(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            span = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(span)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer, in every module binding them."""
        modules = {layer: importlib.import_module(f"zorbit.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[fn] = self.wrap(f"{layer}.{attr}", fn)
        for namespace in (importlib.import_module("zorbit"), *modules.values()):
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((namespace, attr, value))
                    setattr(namespace, attr, wrappers[value])

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def adopt(self, spans: list[list], parent: list) -> None:
        """Append spans recorded in a child process under ``parent``."""
        offset = len(self.spans)
        for span_id, parent_id, _, name, start, end in spans:
            new_parent = parent[0] if parent_id is None else parent_id + offset
            self.spans.append([span_id + offset, new_parent, parent[2], name, start, end])

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per layer: each span's duration minus that of its direct children.

    The layer is the span name up to its first dot (``dynamics.sweep`` is
    in ``dynamics``).  Spans of one thread nest, so children never overlap.
    """
    children = defaultdict(float)
    for _, parent_id, _, _, start, end in spans:
        if parent_id is not None:
            children[parent_id] += end - start
    totals: dict[str, float] = defaultdict(float)
    for span_id, _, _, name, start, end in spans:
        totals[name.split(".", 1)[0]] += end - start - children[span_id]
    return dict(totals)


def main(argv: list[str]) -> int:
    spans_file, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    tracer.install()
    from zorbit import cli

    code = cli.main(cli_args)
    tracer.uninstall()
    tracer.write(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
