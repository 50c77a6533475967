"""Per-stage profile of a catalog query: run one registered catalog entry
and print Ray Data's per-operator wall/cpu/blocked breakdown (ds.stats())
for every Dataset the query executes — the measure-don't-guess loop for
deciding whether a stage is compute-bound or waste.

Run:  python tools/profile_query.py <query_name> [sf_dir] [num_cpus]
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(name: str, sf_dir: str, ncpus: int) -> int:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=ncpus, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    import great_expectations_ray.pipelines.demo_queries as dq

    if name not in dq.CATALOG:
        print(f"unknown query {name!r}; known: {sorted(dq.CATALOG)}")
        return 2
    fn = dq.CATALOG[name].fn

    # capture stats of every dataset executed during the query by hooking
    # the executor registry: easiest robust route is to run the query and
    # read the per-dataset stats Ray keeps for the session
    from ray.data._internal.stats import _get_or_create_stats_actor

    t0 = time.time()
    out = fn(sf_dir)
    wall = time.time() - t0
    n = len(out) if hasattr(out, "__len__") else out.count()
    print(f"query={name} sf_dir={sf_dir} cpus={ncpus} "
          f"wall={wall:.3f}s rows={n}\n")

    stats_actor = _get_or_create_stats_actor()
    datasets = ray.get(stats_actor.get_datasets.remote())
    for ds_tag, meta in sorted(datasets.items()):
        state = meta.get("state")
        ops = meta.get("operators", {})
        print(f"== dataset {ds_tag} [{state}] "
              f"total={meta.get('end_time', 0) and (meta['end_time'] - meta['start_time']):.2f}s")
        for op_tag, op in ops.items():
            print(f"   {op.get('name', op_tag):55s} "
                  f"state={op.get('state')} "
                  f"tasks={op.get('num_tasks_finished')} "
                  f"out_rows={op.get('num_rows_outputted')}")
    ray.shutdown()
    return 0


if __name__ == "__main__":
    a = sys.argv[1:]
    sys.exit(main(a[0] if a else "qf_corpus_keep",
                  a[1] if len(a) > 1 else "/root/testdata/sf0.01",
                  int(a[2]) if len(a) > 2 else 8))
