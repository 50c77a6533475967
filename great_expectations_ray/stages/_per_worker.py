"""Run a per-batch stage class as Ray Data tasks, one instance per worker.

``map_per_worker(ds, Cls, {...})`` is the task form of an actor-pool
``ds.map_batches(Cls, fn_constructor_kwargs={...})``: each worker process
builds ``Cls(**ctor_kwargs)`` once per call and keeps it in a small
module-level LRU, so a broadcast ref the constructor ``ray.get``s is fetched
once per worker, and the instance lives across that worker's batches as an
actor's did, on Ray's pooled workers instead of a new actor pool per call.
A map with a ``batch_size`` still runs as its own task operator after the
read: Ray 2.49's ``_can_fuse_map_ops`` fuses no such map into a read.

A stage may also cut its batch into row-aligned byte windows
(``row_windows``) and run them on the worker's one ``window_pool``.
``unsplit_reads`` keeps Ray from cutting each read task's output into more
blocks for the duration of a call.
"""

from __future__ import annotations

import os
import threading
import uuid
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

#: instances kept per worker process; the oldest call's instance (and the
#: broadcast objects it holds) is dropped first
MAX_INSTANCES = 4
_INSTANCES: OrderedDict = OrderedDict()

#: threads of the one window pool per worker process.  Ray counts a task as
#: one CPU, but numpy, Arrow's RE2 kernels and hashlib release the GIL, so a
#: task's windows also use the CPUs Ray's scheduler leaves idle between
#: tasks: with unsplit reads on 4 CPUs, ``corpus_filter`` took 1.84 and
#: 2.05 s a call with 4 threads against 2.19 and 2.32 s with 1 (medians of
#: 7 alternating calls in one session).  Fixed, like ``MAX_INSTANCES``:
#: over-subscribing a worker's CPUs by this much was measured to cost
#: nothing when every slot is busy.
WINDOW_THREADS = min(4, len(os.sched_getaffinity(0)))
#: content bytes per window: a window's per-byte temporaries stay in cache,
#: and a 4096-row batch of source code gives the pool a few windows to share
WINDOW_BYTES = 1 << 20
_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()


def window_pool() -> ThreadPoolExecutor:
    """This process's window pool, started on first use and kept for life."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(WINDOW_THREADS, thread_name_prefix="window")
        return _POOL


def row_windows(lengths: np.ndarray) -> list[tuple[int, int]]:
    """Row ranges ``[a, b)`` that cover all rows in order, each of at most
    ``WINDOW_BYTES`` of ``lengths`` (a row longer than that goes alone).
    There is always at least one range, so an empty batch is ``[(0, 0)]``."""
    cum = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
    n, out, a = len(lengths), [], 0
    while True:
        b = int(np.searchsorted(cum, cum[a] + WINDOW_BYTES, side="right")) - 1
        b = min(max(b, a + 1), n)
        out.append((a, b))
        if b >= n:
            return out
        a = b


def _call_instance(batch, *, cls, ctor_kwargs, token):
    inst = _INSTANCES.get(token)
    if inst is None:
        inst = cls(**ctor_kwargs)
        _INSTANCES[token] = inst
        while len(_INSTANCES) > MAX_INSTANCES:
            _INSTANCES.popitem(last=False)
    else:
        _INSTANCES.move_to_end(token)
    return inst(batch)


def map_per_worker(ds, cls, ctor_kwargs=None, **map_kwargs):
    """``ds.map_batches`` over ``cls(**ctor_kwargs)`` as tasks (see module)."""
    return ds.map_batches(
        _call_instance,
        fn_kwargs={"cls": cls, "ctor_kwargs": dict(ctor_kwargs or {}),
                   "token": uuid.uuid4().hex},
        **map_kwargs,
    )


_UNSPLIT_LOCK = threading.Lock()
_UNSPLIT_DEPTH = 0
_UNSPLIT_SAVED: tuple | None = None  # (context, caller's value)


@contextmanager
def unsplit_reads():
    """Plan reads inside the block without Ray's extra block split.

    Ray 2.49 splits each read task's output into ``k`` blocks until a read
    has ``read_op_min_num_blocks`` (default 200) blocks; a split read does
    not fuse with the map after it and its tasks hold their CPU slots until
    the map has taken their blocks.  ``SetReadParallelismRule`` reads that
    field from the *global* ``DataContext`` when a Dataset is planned, not
    from the copy the Dataset sealed, so setting it to 1 here reaches a
    Dataset the caller built earlier.  Ray's own floor of 2 blocks per CPU
    stays: an input of fewer files than that is still split.  The first
    caller in saves the value and the last one out restores it, so
    overlapping calls from threads leave the caller's value behind."""
    global _UNSPLIT_DEPTH, _UNSPLIT_SAVED
    from ray.data import DataContext

    with _UNSPLIT_LOCK:
        if _UNSPLIT_DEPTH == 0:
            ctx = DataContext.get_current()
            _UNSPLIT_SAVED = (ctx, ctx.read_op_min_num_blocks)
            ctx.read_op_min_num_blocks = 1
        _UNSPLIT_DEPTH += 1
    try:
        yield
    finally:
        with _UNSPLIT_LOCK:
            _UNSPLIT_DEPTH -= 1
            if _UNSPLIT_DEPTH == 0:
                ctx, value = _UNSPLIT_SAVED
                ctx.read_op_min_num_blocks = value
                _UNSPLIT_SAVED = None
