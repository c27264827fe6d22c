"""Spans around calls into cubescore's layers, recorded from outside the package.

The traced run replaces public names where their callers look them up:
``cubescore._kernel.iter_sign_blocks`` (every walk calls it through the module
attribute, and ``_kernel.modal_signed_sum`` through its module globals, which
are the same dictionary), ``cubescore._kernel.map_blocks``, ``block_rng`` and
``sample_signs``, the operations' own module attributes, and for the CLI the
names ``cubescore.cli`` imported directly (``load_matrix``, ``save_matrix``,
each operation and each ``_cmd_*`` handler) plus ``cubescore._json.dumps``.
No file under ``src/`` changes.

A span is ``[name, start, end, parent, op_id, attrs]``.  Spans are kept in
memory and summarized after each call.  Each thread has its own stack, and
the ``map_blocks`` wrapper also wraps the per-block callable so blocks run on
pool threads become children of the ``map_blocks`` span and their busy time
is summed across threads.
"""

from __future__ import annotations

import resource
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

STEP = "kernel.iter_sign_blocks.next"
BLOCK = "kernel.map_blocks.block"
DRAW = "kernel.block_rng.draw"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ops = 0

    # --- recording ---

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, parent: int | None = None, **attrs) -> int:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            if parent is None:
                self._ops += 1
                op = self._ops
            else:
                op = self.spans[parent][4]
            idx = len(self.spans)
            self.spans.append([name, 0.0, None, parent, op, attrs])
        stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, parent: int | None = None, **attrs):
        idx = self.begin(name, parent, **attrs)
        try:
            yield idx
        finally:
            self.end(idx)

    def clear(self) -> None:
        self.spans = []

    # --- installing wrappers; the traced processes exit afterwards, so
    # nothing restores the originals ---

    def wrap_call(self, owner, attr: str, name, faults: bool = False, attrs_of=None) -> None:
        """Span every call of ``owner.attr``; ``name`` is a string or a function
        of the call's arguments.  With ``faults`` the span records the minor
        page faults the process took during the call; ``attrs_of(args,
        result)`` adds counts measured from the call's input and output."""
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = tracer.begin(label)
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt if faults else 0
            try:
                result = fn(*args, **kwargs)
            finally:
                if faults:
                    tracer.spans[idx][5]["minflt"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
                tracer.end(idx)
            if attrs_of is not None:
                tracer.spans[idx][5].update(attrs_of(args, result))
            return result

        setattr(owner, attr, traced)

    def install_kernel(self, kernel) -> None:
        tracer = self
        iter_sign_blocks = kernel.iter_sign_blocks
        map_blocks = kernel.map_blocks
        block_rng = kernel.block_rng
        sample_signs = kernel.sample_signs

        def traced_iter(*args, **kwargs):
            gen = iter_sign_blocks(*args, **kwargs)
            while True:
                idx = tracer.begin(STEP)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.end(idx)
                # computed, not measured: the float64 block image is read and
                # written once per step
                tracer.spans[idx][5].update(blocks=1, bytes=16 * item[0].size)
                yield item

        def traced_map(fn, nblocks, threads=1):
            outer = tracer.begin("kernel.map_blocks", threads=int(threads))

            def block(i):
                with tracer.span(BLOCK, parent=outer):
                    return fn(i)

            try:
                return map_blocks(block, nblocks, threads)
            finally:
                tracer.end(outer)

        def traced_rng(seed, index):
            with tracer.span("kernel.block_rng"):
                rng = block_rng(seed, index)
            return _TracedGenerator(tracer, rng)

        def traced_signs(rng, rows, n):
            with tracer.span("kernel.sample_signs", rows=int(rows)):
                return sample_signs(rng, rows, n)

        kernel.iter_sign_blocks = traced_iter
        kernel.map_blocks = traced_map
        kernel.block_rng = traced_rng
        kernel.sample_signs = traced_signs
        self.wrap_call(kernel, "modal_signed_sum", "kernel.modal_signed_sum")

    def install_ops(self, owners: dict) -> None:
        """Wrap each operation in ``OPERATIONS`` whose function name ``owners``
        maps to the object the caller looks the name up on."""
        for func, owner in owners.items():
            self.wrap_call(owner, func, OPERATIONS[func], faults=True)


class _TracedGenerator:
    """Forwards to a block's ``numpy.random.Generator``, timing its draws."""

    def __init__(self, tracer: Tracer, rng):
        self._tracer = tracer
        self._rng = rng

    def random(self, *args, **kwargs):
        with self._tracer.span(DRAW):
            return self._rng.random(*args, **kwargs)

    def integers(self, *args, **kwargs):
        with self._tracer.span(DRAW):
            return self._rng.integers(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _arg(args, kwargs, key: str, pos: int, default):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _mode_name(base: str, pos: int):
    return lambda args, kwargs: f"{base}.{_arg(args, kwargs, 'mode', pos, 'exact')}"


def _threads_name(base: str, pos: int):
    def name(args, kwargs):
        threads = _arg(args, kwargs, "threads", pos, 1)
        return base if threads == 1 else f"{base}.{threads}t"

    return name


#: Span name of each operation the benchmark calls, by function name.
OPERATIONS = {
    "exact_score": "score.exact_score",
    "threshold_score": _mode_name("score.threshold_score", 2),
    "mc_score": _threads_name("score.mc_score", 4),
    "bernoulli_permanent": _mode_name("permanent.bernoulli_permanent", 1),
    "ryser_value": "permanent.ryser_value",
    "balls_in_bins_estimate": "permanent.balls_in_bins_estimate",
    "concentration_probability": "structure.concentration_probability",
    "rank_one_orthogonal": "constructors.rank_one_orthogonal",
}


def summarize(spans: list[list]) -> dict:
    """Flat per-layer totals over a list of finished spans.

    For every span name: ``<name>.s`` (total duration), ``<name>.calls`` and
    ``<name>.self_s`` (duration minus the direct children's durations), and
    ``<name>.<attr>`` summed for each count a span carries (minor faults,
    bytes, rows).  Blocks of ``map_blocks`` add their time outside rng and
    draw spans to ``<operation>.block_rest_s``, and the blocks of calls with
    more than one thread add to ``kernel.map_blocks.mt_busy_s`` against
    ``kernel.map_blocks.mt_thread_s``, the wall time times the thread count.
    """
    out: dict = defaultdict(float)
    child_s = defaultdict(float)
    for name, start, end, parent, op, attrs in spans:
        if parent is not None:
            child_s[parent] += end - start
    for i, (name, start, end, parent, op, attrs) in enumerate(spans):
        dur = end - start
        out[f"{name}.s"] += dur
        out[f"{name}.calls"] += 1
        if name != "kernel.map_blocks":  # its children overlap on pool threads
            out[f"{name}.self_s"] += dur - child_s[i]
        for key, value in attrs.items():
            if key != "threads":
                out[f"{name}.{key}"] += value
        if name == "kernel.map_blocks" and attrs["threads"] > 1:
            out["kernel.map_blocks.mt_thread_s"] += dur * attrs["threads"]
        if name == BLOCK:
            if spans[parent][5]["threads"] > 1:
                out["kernel.map_blocks.mt_busy_s"] += dur
            owner = parent
            while owner is not None and "minflt" not in spans[owner][5]:
                owner = spans[owner][3]
            if owner is not None:
                out[f"{spans[owner][0]}.block_rest_s"] += dur - child_s[i]
    return dict(out)
