"""Spans around the public functions of ekrcheck, recorded from outside the library.

``python3 bench/spans.py <ekrcheck arguments>`` stands in for
``python3 -m ekrcheck``.  It wraps the public functions of the traced
modules, runs ``ekrcheck.cli.main`` and writes what the process recorded
to ``$EKR_BENCH_TRACE_DIR/<pid>.json``.  Pool workers are forked from the
traced process: they inherit the wrappers, start with an empty record and
write their own file when they exit.  This relies on the ``fork`` start
method, the default for ``ProcessPoolExecutor`` on Linux before Python 3.14.

The time the CLI process spends inside a ``with ProcessPoolExecutor`` block,
starting workers, waiting for their results and shutting them down, is
its own span, ``pool.wait``, so that it is not counted as ``cli.main``'s
own work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import multiprocessing.util
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

TRACE_DIR_ENV = "EKR_BENCH_TRACE_DIR"
SPAWNED_ENV = "EKR_BENCH_SPAWNED"  # time.monotonic() in the parent just before the spawn

TRACED_MODULES = ("cli", "rook", "search", "graphs", "cycles")
# Called r times for every interval built; a span there would cost more
# than the work it measures.
UNWRAPPED = frozenset({"cycles.diagonal_interval"})
POOL_WAIT = "pool.wait"

# Work counted per call, from the call's arguments and result.
WORK = {
    "rook.enumerate_placements": lambda args, kwargs, result: len(result),
    "graphs.enumerate_independent": lambda args, kwargs, result: len(result),
    "graphs.maximal_independent_sets": lambda args, kwargs, result: len(result),
    "cycles.enumerate_cyclic_orders": lambda args, kwargs, result: len(result),
    "search.max_intersecting_family":
        lambda args, kwargs, result: len(set(args[0] if args else kwargs["sets"])),
    "cycles.interval_start": lambda args, kwargs, result: int(result is not None),
}


class Tracer:
    """Nested spans, aggregated per name as they close.

    Spans in one process nest strictly, so the time a span's children
    cover is the sum of their durations; a span's self time is its
    duration minus that sum.  ``stats`` maps a name to
    ``[calls, self_s, work, max_work]``; ``top_s`` is the time covered by
    spans that have no parent.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        self.stats: dict[str, list] = {}
        self.top_s = 0.0
        self._open: list[list] = []  # [name, start, time covered by children]

    def enter(self, name: str) -> None:
        self._open.append([name, self.clock(), 0.0])

    def exit(self, work: int = 0, end: float | None = None) -> None:
        """Close the innermost span at ``end``, read now when not given."""
        if end is None:
            end = self.clock()
        name, start, child_s = self._open.pop()
        duration = end - start
        if self._open:
            self._open[-1][2] += duration
        else:
            self.top_s += duration
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0, 0]
        entry[0] += 1
        entry[1] += duration - child_s
        entry[2] += work
        entry[3] = max(entry[3], work)


def _wrap(fn, name: str, tracer: Tracer):
    measure = WORK.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.exit()
            raise
        # Close the span before counting the work, which may cost time too.
        end = tracer.clock()
        tracer.exit(measure(args, kwargs, result) if measure else 0, end)
        return result

    return traced


def _pool_class(tracer: Tracer) -> type:
    class TracedPool(ProcessPoolExecutor):
        def __enter__(self):
            tracer.enter(POOL_WAIT)
            return super().__enter__()

        def __exit__(self, *exc_info):
            try:
                return super().__exit__(*exc_info)
            finally:
                tracer.exit()

    return TracedPool


def install(tracer: Tracer) -> None:
    """Wrap each public function of the traced modules in every ekrcheck
    namespace that binds it, so that ``search.enumerate_placements`` is
    caught as well as ``rook.enumerate_placements``, and give ``cli`` a
    process pool that records ``pool.wait``."""
    wrapped = {}
    for short in TRACED_MODULES:
        module = importlib.import_module(f"ekrcheck.{short}")
        for attr, value in vars(module).items():
            name = f"{short}.{attr}"
            if (inspect.isfunction(value) and value.__module__ == module.__name__
                    and not attr.startswith("_") and name not in UNWRAPPED):
                wrapped[value] = _wrap(value, name, tracer)
    for module_name, module in list(sys.modules.items()):
        if module_name == "ekrcheck" or module_name.startswith("ekrcheck."):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])
    importlib.import_module("ekrcheck.cli").ProcessPoolExecutor = _pool_class(tracer)


def dump(tracer: Tracer, trace_dir: str, startup_s: float | None) -> None:
    """Write this process's record; ``startup_s`` is None in pool workers."""
    path = os.path.join(trace_dir, f"{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"startup_s": startup_s, "top_s": tracer.top_s, "stats": tracer.stats}, fh)


def _start_worker(trace_dir: str, tracer: Tracer) -> None:
    tracer.reset()
    # Pool workers leave through os._exit, which skips atexit; the
    # multiprocessing finalizers still run.
    multiprocessing.util.Finalize(None, dump, args=(tracer, trace_dir, None), exitpriority=0)


def main(argv: list[str]) -> int:
    spawned = float(os.environ[SPAWNED_ENV])
    trace_dir = os.environ[TRACE_DIR_ENV]
    tracer = Tracer()
    install(tracer)
    # Runs in each multiprocessing child after it has cleared the finalizers
    # it inherited.
    multiprocessing.util.register_after_fork(tracer, functools.partial(_start_worker, trace_dir))
    from ekrcheck import cli

    startup_s = time.monotonic() - spawned
    code = cli.main(argv)
    dump(tracer, trace_dir, startup_s)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
