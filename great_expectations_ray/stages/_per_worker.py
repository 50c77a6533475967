"""Run a per-batch stage class as Ray Data tasks, one instance per worker.

``map_per_worker(ds, Cls, {...})`` is the task form of an actor-pool
``ds.map_batches(Cls, fn_constructor_kwargs={...})``: each worker process
builds ``Cls(**ctor_kwargs)`` once per call and keeps it in a small
module-level LRU, so a broadcast ref the constructor ``ray.get``s is fetched
once per worker, the instance lives across that worker's batches as an
actor's did, and the read and the stage fuse into one task operator on Ray's
pooled workers instead of starting a new actor pool per call.
"""

from __future__ import annotations

import uuid
from collections import OrderedDict

#: instances kept per worker process; the oldest call's instance (and the
#: broadcast objects it holds) is dropped first
MAX_INSTANCES = 4
_INSTANCES: OrderedDict = OrderedDict()


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
