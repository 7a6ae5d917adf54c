"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public callables of ``gammadep`` at every site where a
caller looks them up: each module attribute that holds the function object
(``inference.gamma_stats``, ``simgen.permutation_test``, ...) and the class
attribute for methods (``PairStatCore.triple``). The program itself is not
edited. A target missing from the program is recorded in ``absent`` and
its metrics are reported as absent instead of failing the run, because a
later change to the program may remove or rename it.

Each span records (id, parent, name, thread, wall start, wall end, thread
CPU start, thread CPU end). Spans stay in a list and are written once, by
``write_tsv``, when the run ends. Layer times are thread CPU seconds, so a
thread blocked on the interpreter lock or on a worker pool is not counted
as busy. A span opened on a worker thread whose own stack is empty takes as
parent the innermost open span of the thread that opened the root span.

In memory mode the tracer records no spans; it records, per span name, the
largest tracemalloc peak reached inside the call above the traced bytes at
entry. Nested calls share tracemalloc's single peak counter, so before a
call resets it the peak seen so far is folded into every open call.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
import tracemalloc
from collections import defaultdict

# (span name, module that defines the target, attribute path in that module)
TARGETS = (
    ("cli.main", "cli", ("main",)),
    ("cli.read_csv", "cli", ("read_csv",)),
    ("cli.report_to_dict", "cli", ("report_to_dict",)),
    ("cli._emit", "cli", ("_emit",)),
    ("simgen.size_power_experiment", "simgen", ("size_power_experiment",)),
    ("inference.permutation_test", "inference", ("permutation_test",)),
    ("inference.PermutationPlan.permutation", "inference", ("PermutationPlan", "permutation")),
    ("metric.gamma_stats", "metric", ("gamma_stats",)),
    ("ustat.stat_core_for", "ustat", ("stat_core_for",)),
    ("ustat.PairStatCore.triple", "ustat", ("PairStatCore", "triple")),
    ("kernels.resolve_kernel_spec", "kernels", ("resolve_kernel_spec",)),
    ("kernels.median_bandwidth", "kernels", ("median_bandwidth",)),
    ("kernels.build_pair_matrices", "kernels", ("build_pair_matrices",)),
    ("variance.jackknife_fast", "variance", ("jackknife_fast",)),
)

# Modules whose namespaces are searched for lookup sites of a target.
PACKAGE = "gammadep"
SITE_MODULES = ("__init__", "cli", "simgen", "inference", "metric", "ustat", "kernels", "variance")


class Tracer:
    def __init__(self):
        self.spans = []
        self.peaks = {}
        self.absent = []
        self.memory = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack = None
        self._open_frames = []
        self._patches = []

    # -- installation -------------------------------------------------

    def _modules(self):
        mods = {}
        for name in SITE_MODULES:
            full = PACKAGE if name == "__init__" else f"{PACKAGE}.{name}"
            try:
                mods[name] = importlib.import_module(full)
            except ImportError:
                continue
        return mods

    def install(self, memory: bool = False) -> None:
        """Wrap every target at each of its lookup sites."""
        self.memory = memory
        self.absent = []
        self._root_stack = self._stack()
        mods = self._modules()
        for span, mod_name, path in TARGETS:
            owner = mods.get(mod_name)
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            original = getattr(owner, path[-1], None) if owner is not None else None
            if not callable(original):
                self.absent.append(span)
                continue
            wrapper = self._wrap(span, original)
            if len(path) > 1:
                self._patch(owner, path[-1], wrapper)
                continue
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, span, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.memory:
                return self._measure_memory(span, fn, args, kwargs)
            return self._record(span, fn, args, kwargs)

        return wrapper

    # -- recording ----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            root = self._root_stack
            parent = root[-1] if root else None
        sid = next(self._ids)
        stack.append(sid)
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            c1 = time.thread_time()
            stack.pop()
            self.spans.append((sid, parent, span, threading.get_ident(), t0, t1, c0, c1))

    def _measure_memory(self, span, fn, args, kwargs):
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._open_frames:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        frame = [current, current]
        self._open_frames.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open_frames.pop()
            peak = max(frame[1], tracemalloc.get_traced_memory()[1])
            for outer in self._open_frames:
                outer[1] = max(outer[1], peak)
            self.peaks[span] = max(self.peaks.get(span, 0), peak - frame[0])

    def write_tsv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tthread\tstart_s\tend_s\tcpu_start_s\tcpu_end_s\n")
            for sid, parent, span, thread, t0, t1, c0, c1 in self.spans:
                fh.write(f"{sid}\t{parent or ''}\t{span}\t{thread}\t{t0!r}\t{t1!r}\t{c0!r}\t{c1!r}\n")


def span_totals(spans):
    """Per span name: call count, summed thread CPU, and summed self CPU.

    Self CPU is a span's CPU minus that of its children on the same thread.
    A parent whose children ran on worker threads is also charged, per
    worker, the CPU that worker spent between its first and last child
    outside any child: that is the parent's own code running on the worker.

    Also returns, per root span (one per traced call), its wall time and the
    CPU summed over every thread under it.
    """
    by_id = {s[0]: s for s in spans}
    count = defaultdict(int)
    cpu = defaultdict(float)
    self_cpu = {s[0]: s[7] - s[6] for s in spans}
    worker_children = defaultdict(list)
    for sid, parent, name, thread, _t0, _t1, c0, c1 in spans:
        count[name] += 1
        cpu[name] += c1 - c0
        if parent is None or parent not in by_id:
            continue
        if by_id[parent][3] == thread:
            self_cpu[parent] -= c1 - c0
        else:
            worker_children[(parent, thread)].append((c0, c1))
    for (parent, _thread), intervals in worker_children.items():
        window = max(c1 for _, c1 in intervals) - min(c0 for c0, _ in intervals)
        self_cpu[parent] += window - sum(c1 - c0 for c0, c1 in intervals)

    self_by_name = defaultdict(float)
    for sid, value in self_cpu.items():
        self_by_name[by_id[sid][2]] += value

    roots = {s[0]: {"name": s[2], "wall": s[5] - s[4], "cpu": 0.0, "self": self_cpu[s[0]]}
             for s in spans if s[1] is None}

    def root_of(sid):
        while by_id[sid][1] is not None:
            sid = by_id[sid][1]
        return sid

    for sid in self_cpu:
        roots[root_of(sid)]["cpu"] += self_cpu[sid]
    return count, cpu, self_by_name, list(roots.values())
