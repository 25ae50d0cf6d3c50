"""Benchmark-owned tracing: wrappers around the program's public entry points.

Nothing here changes the program.  :func:`install` rebinds each traced name
where the program looks it up (module globals, class attributes and
iterator ``__iter__`` methods) to a wrapper that keeps, per span name, the
summed wall time, the summed *self* time (duration minus the time covered
by nested traced spans) and the call count.  Spans are never stored one by
one: per-op iterator boundaries are sums and counts.  :func:`uninstall`
restores every original, so traced and untraced trials can alternate in
one process.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

_END = object()


class Tracer:
    """Span sums keyed by name: ``[total_ns, self_ns, calls, items]``."""

    def __init__(self) -> None:
        self.spans: Dict[str, List[int]] = {}
        self.counts: Dict[str, int] = {}
        self.samples: Dict[str, List[int]] = {}
        # One accumulator per open span: the time its traced children took.
        self._stack: List[int] = [0]

    def _acc(self, name: str) -> List[int]:
        return self.spans.setdefault(name, [0, 0, 0, 0])

    def wrap(self, name: str, fn: Callable, items: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` as a span; ``items(args)`` optionally counts the work it got."""
        acc = self._acc(name)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                acc[0] += elapsed
                acc[1] += elapsed - child
                acc[2] += 1
                if items is not None:
                    acc[3] += items(args)

        traced.__wrapped__ = fn
        return traced

    def wrap_iter(self, name: str, iter_method: Callable) -> Callable:
        """Wrap an ``__iter__`` so every ``next()`` of the iterator is a span."""
        acc = self._acc(name)
        stack = self._stack
        clock = time.perf_counter_ns

        def timed(iterator):
            advance = iterator.__next__
            while True:
                stack.append(0)
                start = clock()
                try:
                    item = advance()
                except StopIteration:
                    item = _END
                finally:
                    elapsed = clock() - start
                    child = stack.pop()
                    stack[-1] += elapsed
                    acc[0] += elapsed
                    acc[1] += elapsed - child
                    acc[2] += 1
                if item is _END:
                    return
                acc[3] += 1
                yield item

        def traced_iter(obj):
            return timed(iter_method(obj))

        traced_iter.__wrapped__ = iter_method
        return traced_iter

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def sample(self, name: str, value: int) -> None:
        self.samples.setdefault(name, []).append(value)

    def merge(self, other: Dict) -> None:
        """Add a dumped tracer (``{"spans": ..., "counts": ...}``) into this one."""
        for name, values in other.get("spans", {}).items():
            acc = self._acc(name)
            for index, value in enumerate(values):
                acc[index] += value
        for name, value in other.get("counts", {}).items():
            self.count(name, value)
        for name, values in other.get("samples", {}).items():
            self.samples.setdefault(name, []).extend(values)

    def dump(self) -> Dict:
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counts": dict(self.counts),
            "samples": {k: list(v) for k, v in self.samples.items()},
        }

    def self_us(self, *names: str) -> float:
        return sum(self.spans.get(n, (0, 0))[1] for n in names) / 1000.0

    def total_us(self, *names: str) -> float:
        return sum(self.spans.get(n, (0,))[0] for n in names) / 1000.0

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0, 0))[2]

    def items(self, name: str) -> int:
        return self.spans.get(name, (0, 0, 0, 0))[3]


Patch = Tuple[object, str, object]


def rebind(patches: List[Patch], owner, attribute: str, replacement) -> None:
    patches.append((owner, attribute, owner.__dict__[attribute]))
    setattr(owner, attribute, replacement)


def install(tracer: Tracer, *, service: bool = False) -> List[Patch]:
    """Install the wrappers; return what :func:`uninstall` needs to undo them.

    ``service=True`` adds the gateway/tenant names (used inside the gateway
    process, by ``gateway.py``).
    """
    import repro.core.base as base
    import repro.experiments.runner as runner
    import repro.workloads.temporal as temporal

    patches: List[Patch] = []
    rebind(
        patches,
        base,
        "coalesce_batch",
        tracer.wrap("coalesce", base.coalesce_batch, items=lambda args: len(args[1])),
    )
    engine = base.DynamicMISBase
    rebind(patches, engine, "apply_batch", tracer.wrap("core.apply_batch", engine.apply_batch))
    rebind(patches, engine, "apply_update", tracer.wrap("core.apply_update", engine.apply_update))

    original_cursor = runner.StreamCursor

    class TracedCursor(original_cursor):
        __slots__ = ()
        __next__ = tracer.wrap("protocol.next", original_cursor.__next__)
        take = tracer.wrap("protocol.take", original_cursor.take)

    rebind(patches, runner, "StreamCursor", TracedCursor)
    save = runner.save_checkpoint
    rebind(patches, runner, "save_checkpoint", _checkpoint_wrapper(tracer, "replay.checkpoint", save))
    for cls, name in (
        (temporal.TemporalEventSource, "temporal.parse"),
        (temporal.TemporalUpdateStream, "temporal.window"),
    ):
        rebind(patches, cls, "__iter__", tracer.wrap_iter(name, cls.__iter__))

    if service:
        import repro.service.gateway as gateway
        import repro.service.tenant as tenant

        rebind(patches, tenant, "chain_fingerprint", tracer.wrap("tenant.fingerprint", tenant.chain_fingerprint))
        rebind(
            patches,
            tenant,
            "save_checkpoint",
            _checkpoint_wrapper(tracer, "tenant.checkpoint", tenant.save_checkpoint),
        )
        rebind(patches, tenant.Tenant, "offer", tracer.wrap("tenant.offer", tenant.Tenant.offer))
        for name in ("decode_line", "encode_line", "operations_from_wire"):
            rebind(patches, gateway, name, tracer.wrap("gateway.wire", getattr(gateway, name)))
    return patches


def _checkpoint_wrapper(tracer: Tracer, name: str, save: Callable) -> Callable:
    """Span around a checkpoint write that also keeps each call's duration;
    the file size is read outside the span."""
    traced = tracer.wrap(name, save)
    acc = tracer.spans[name]

    def save_and_measure(*args, **kwargs):
        before = acc[0]
        path = traced(*args, **kwargs)
        tracer.sample(name, acc[0] - before)
        tracer.count(name + ".bytes", path.stat().st_size)
        return path

    return save_and_measure


def uninstall(patches: List[Patch]) -> None:
    for owner, attribute, original in reversed(patches):
        setattr(owner, attribute, original)
    patches.clear()
