"""Connected-components clustering for fuzzy dedup.

The standard web-scale near-dup pipeline is LSH bucketing -> candidate EDGES
-> connected components -> keep one doc per component (the shape published
for C4/RefinedWeb-style dedup and implemented by e.g. NVIDIA NeMo Curator's
fuzzy-dedup stage; the round structure follows Kiveris et al., "Connected
Components in MapReduce and Beyond", SoCC'14).  The existing
``stages/neardup.py`` marks *bucket-local* duplicates (doc shares a bucket
with a lower id); this stage adds the *transitive* grouping: A~B and B~C put
A, B, C in ONE cluster even when A and C never share a bucket.

Scale shape:
- edges are emitted per LSH bucket as a STAR (bucket-min -> member), so a
  bucket of size s contributes s-1 edges, never s² pairs;
- components run hash-min label propagation with shortcut doubling: per
  round ONE two-sided bucketed exchange (deliver labels along edges plus
  label edges) and ONE bucketed group-min — labels only ever decrease, the
  loop stops when a round changes nothing, and the label edges make rounds
  O(log max-cluster-diameter);
- the driver only ever sees per-round scalar counters, never the node set.

No reference counterpart (great_expectations has no dedup operators); this
is part of the training-data surface the north rule asks for.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from great_expectations_ray.stages._per_worker import map_per_worker


def minhash_bucket_edges(
    ds,
    *,
    text_col: str = "content",
    id_col: str,
    num_perm: int = 128,
    bands: int = 16,
    shingle_k: int = 8,
    seed: int = 17,
    max_bucket_size: int = 100_000,
    n_buckets: int = 64,
):
    """Candidate-pair edges from MinHash LSH buckets: per (band, bkey) group
    emit (bucket-min-id -> other-id) star edges.  Groups larger than
    ``max_bucket_size`` are truncated to the cap (ordered by id, so the kept
    members still cluster with the representative) — a degenerate bucket
    cannot melt a reducer."""
    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed, key_groups
    from great_expectations_ray.stages.neardup import band_keys, minhash_signatures

    def explode(tbl: pa.Table) -> pa.Table:
        sig = minhash_signatures(
            tbl.column(text_col), num_perm=num_perm, shingle_k=shingle_k, seed=seed
        )
        bk = band_keys(sig, bands)
        ids = np.asarray(tbl.column(id_col))
        return pa.table({
            id_col: pa.array(np.repeat(ids, bands)),
            "band": pa.array(np.tile(np.arange(bands, dtype=np.int64), len(sig))),
            "bkey": pa.array(bk.reshape(-1)),
        })

    def edges_bucket(g: pa.Table) -> pa.Table:
        g, bounds = key_groups(g, ["band", "bkey"], [(id_col, "ascending")])
        # representative (bucket min) for every row: its run's first row
        rep_idx = np.repeat(bounds[:-1], np.diff(bounds))
        # position within the group (0 = representative)
        pos = np.arange(g.num_rows) - rep_idx
        member = (pos > 0) & ((pos < max_bucket_size) if max_bucket_size else True)
        ids = g.column(id_col)
        out = pa.table({"src": ids.take(rep_idx[member]), "dst": ids.filter(pa.array(member))})
        return out.group_by(["src", "dst"]).aggregate([])

    exploded = ds.select_columns([id_col, text_col]).map_batches(
        explode, batch_format="pyarrow", zero_copy_batch=True
    )
    return grouped_apply_bucketed(
        exploded, ["band", "bkey"], edges_bucket, n_buckets=n_buckets
    )


def _driver_union_find(pairs) -> dict:
    """Path-halving union-find over an iterable of (u, v) pairs; returns
    {node: min-id-of-component} for every node seen.  Works for any orderable
    id type (ints, strings)."""
    parent: dict = {}

    def find(x):
        r = x
        while parent[r] != r:
            r = parent[r]
        while parent[x] != r:  # path compression
            parent[x], x = r, parent[x]
        return r

    for u, v in pairs:
        if u not in parent:
            parent[u] = u
        if v not in parent:
            parent[v] = v
        ru, rv = find(u), find(v)
        if ru != rv:
            # union by id order keeps the root = the component min directly
            if rv < ru:
                ru, rv = rv, ru
            parent[rv] = ru
    return {n: find(n) for n in parent}


def connected_components(
    edges,
    *,
    src: str = "src",
    dst: str = "dst",
    max_iters: int = 30,
    n_buckets: int = 64,
    max_driver_edges: int = 1_000_000,
):
    """(node, component) for every node appearing in ``edges``; component =
    the minimum node id in the connected component.

    ADAPTIVE, like ``stages/boilerplate.py``'s set-vs-join split: when the
    edge set is small (``count() <= max_driver_edges`` — edges are CANDIDATE
    PAIRS after LSH banding, typically a tiny fraction of the corpus) the
    components come from one driver-local union-find over the collected
    pairs — O(E α(E)) and no propagation rounds.  Above the cap the
    distributed path runs:

    Hash-min label propagation WITH shortcut doubling: each round every node
    takes the min of its own label and the labels of its neighbours over
    ``E ∪ {u <-> label(u)}`` — the label edges let a hub re-broadcast the
    round's min to all members, so convergence needs O(log diameter) rounds,
    not O(diameter).  One round = one two-sided bucketed exchange
    (deliver labels along edges) + one bucketed group-min; the driver sees
    only a per-round changed-count scalar.  Stops when a round changes
    nothing.  Both paths emit identical (node, component) labels.

    Isolated nodes (no edges) are the caller's concern — they are their own
    component by definition and never enter the exchange."""
    import ray.data as rd

    from great_expectations_ray.functions.bucketed import (
        grouped_apply_bucketed,
        tag_sides,
        two_sided_exchange,
    )

    if max_driver_edges and edges.count() <= max_driver_edges:
        batches = list(edges.iter_batches(batch_format="pyarrow"))
        tbl = pa.concat_tables(batches) if batches else pa.table(
            {src: pa.array([], pa.int64()), dst: pa.array([], pa.int64())}
        )
        labels = _driver_union_find(
            zip(tbl.column(src).to_pylist(), tbl.column(dst).to_pylist())
        )
        node_type = tbl.schema.field(src).type
        return rd.from_arrow(pa.table({
            "node": pa.array(list(labels.keys()), node_type),
            "component": pa.array(list(labels.values()), node_type),
        }))

    # symmetrize once: messages must flow both directions
    def sym(tbl: pa.Table) -> pa.Table:
        s = tbl.column(src).combine_chunks()
        d = tbl.column(dst).combine_chunks()
        return pa.table({
            "node": pa.concat_arrays([s, d]),
            "nbr": pa.concat_arrays([d, s]),
        })

    edges_sym = edges.map_batches(sym, batch_format="pyarrow",
                                  zero_copy_batch=True).materialize()

    def msgs(node, cand, is_self: int) -> pa.Table:
        return pa.table({"node": node, "cand": cand,
                         "is_self": np.full(len(node), is_self, dtype=np.int8)})

    # initial labels: min(self, direct neighbours) via one group-min
    def init_cand(tbl: pa.Table) -> pa.Table:
        u = pc.unique(tbl.column("node"))
        return pa.concat_tables([msgs(tbl.column("node"), tbl.column("nbr"), 0),
                                 msgs(u, u, 1)])

    def label_min(g: pa.Table) -> pa.Table:
        lbl = g.group_by("node").aggregate([("cand", "min")])
        # changed iff the min differs from the node's own previous label
        own = g.filter(pc.equal(g.column("is_self"), 1)).group_by("node") \
            .aggregate([("cand", "min")]).rename_columns(["node", "own"])
        j = lbl.join(own, "node", join_type="left outer")
        changed = pc.fill_null(pc.not_equal(j.column("cand_min"), j.column("own")), True)
        return pa.table({"node": j.column("node"), "cand": j.column("cand_min"),
                         "changed": pc.cast(changed, pa.int8())})

    inbox0 = edges_sym.map_batches(init_cand, batch_format="pyarrow", zero_copy_batch=True)
    labels = grouped_apply_bucketed(
        inbox0, ["node"], label_min, n_buckets=n_buckets
    ).materialize()

    for _ in range(max_iters):
        if not labels.sum("changed"):
            break
        lbl_pairs = labels.drop_columns(["changed"])

        # deliver label(u) along E ∪ label edges: ONE two-sided exchange on
        # node of the edge rows (node/nbr) and the label rows.  Each label
        # row u -> label(u) travels twice: as u's own label (is_own=1) and
        # as the reverse edge label(u) -> u (is_own=0: the hub re-broadcasts
        # ITS label to u — pointer jumping, what makes rounds O(log
        # diameter)).  Per node emit label(u) to every neighbour, to the
        # label target (shortcut), and back to u itself
        def label_rows(tbl: pa.Table) -> pa.Table:
            n_ = tbl.column("node").combine_chunks()
            c_ = tbl.column("cand").combine_chunks()
            return pa.table({
                "node": pa.concat_arrays([n_, c_]),
                "other": pa.concat_arrays([c_, n_]),
                "is_own": np.repeat(np.array([1, 0], dtype=np.int8), len(n_)),
            })

        def deliver(e: pa.Table, lbl: pa.Table) -> pa.Table:
            is_own = pc.equal(lbl.column("is_own"), 1)
            own = lbl.filter(is_own).select(["node", "other"]) \
                .rename_columns(["node", "cand"])
            rev = lbl.filter(pc.invert(is_own)).select(["node", "other"]) \
                .rename_columns(["node", "nbr"])
            e = pa.concat_tables([e, rev], promote_options="permissive") \
                .join(own, "node", join_type="left outer")
            return pa.concat_tables([
                msgs(e.column("nbr"), e.column("cand"), 0),  # to every neighbour
                msgs(own.column("cand"), own.column("cand"), 0),  # to the label target
                # back to u itself (carries the old label for change detection)
                msgs(own.column("node"), own.column("cand"), 1)])

        inbox = two_sided_exchange(tag_sides(
            edges_sym, lbl_pairs.map_batches(label_rows, batch_format="pyarrow"),
            ["node"], n_buckets=n_buckets), deliver)
        labels = grouped_apply_bucketed(
            inbox, ["node"], label_min, n_buckets=n_buckets
        ).materialize()

    return labels.map_batches(
        lambda t: pa.table({"node": t.column("node"),
                            "component": t.column("cand")}),
        batch_format="pyarrow",
    )


def cluster_near_duplicates(
    ds,
    *,
    text_col: str = "content",
    id_col: str,
    num_perm: int = 128,
    bands: int = 16,
    shingle_k: int = 8,
    seed: int = 17,
    max_iters: int = 30,
    n_buckets: int = 64,
    max_driver_edges: int = 1_000_000,
):
    """Full fuzzy-dedup clustering: (id, cluster, keep) for EVERY input row.
    ``cluster`` = min doc id of the transitive near-dup component (self for
    docs with no candidates); ``keep`` = True on exactly one doc per
    cluster.

    When the candidate-edge set fits the driver cap, the label map is built
    by driver union-find and BROADCAST (``ray.put`` once, fetched once per
    worker — the ``_ParagraphRewriter`` pattern), replacing the assignment
    hash join; lookups are vectorized ``np.searchsorted`` for numeric ids.
    Above the cap the distributed propagation + bucketed join path runs.
    Both paths emit identical rows."""
    import ray

    from great_expectations_ray.functions.joins import hash_bucket_join

    edges = minhash_bucket_edges(
        ds, text_col=text_col, id_col=id_col, num_perm=num_perm,
        bands=bands, shingle_k=shingle_k, seed=seed, n_buckets=n_buckets,
    ).materialize()

    src_schema = ds.schema()
    id_type = dict(zip(src_schema.names, src_schema.types))[id_col]

    if max_driver_edges and edges.count() <= max_driver_edges:
        batches = list(edges.iter_batches(batch_format="pyarrow"))
        pairs_tbl = pa.concat_tables(batches) if batches else pa.table(
            {"src": pa.array([], id_type), "dst": pa.array([], id_type)}
        )
        labels = _driver_union_find(zip(
            pairs_tbl.column("src").to_pylist(),
            pairs_tbl.column("dst").to_pylist(),
        ))
        numeric = pa.types.is_integer(id_type) or pa.types.is_floating(id_type)
        if numeric:
            keys = np.array(sorted(labels), dtype=id_type.to_pandas_dtype())
            vals = np.array([labels[k] for k in keys.tolist()],
                            dtype=id_type.to_pandas_dtype())
            ref = ray.put((keys, vals))
        else:
            ref = ray.put(labels)

        class _Assign:
            """Fetches the label map once per worker; vectorized lookup."""

            def __init__(self):
                self.m = ray.get(ref)

            def __call__(self, tbl: pa.Table) -> pa.Table:
                ids = pc.cast(tbl.column(id_col), id_type)
                if numeric:
                    keys_, vals_ = self.m
                    a = np.asarray(ids.combine_chunks())
                    if len(keys_) == 0:
                        cl = ids
                    else:
                        pos = np.minimum(np.searchsorted(keys_, a),
                                         len(keys_) - 1)
                        cl = pa.array(
                            np.where(keys_[pos] == a, vals_[pos], a), id_type)
                else:
                    m = self.m
                    cl = pa.array(
                        [m.get(i, i) for i in ids.to_pylist()], id_type)
                return pa.table({
                    id_col: ids,
                    "cluster": cl,
                    "keep": pc.equal(ids, cl),
                })

        return map_per_worker(ds.select_columns([id_col]), _Assign,
                              batch_format="pyarrow", zero_copy_batch=True)

    comp = connected_components(edges, max_iters=max_iters,
                                n_buckets=n_buckets, max_driver_edges=0)

    joined = hash_bucket_join(
        ds.select_columns([id_col]),
        comp.map_batches(
            lambda t: t.rename_columns([id_col, "cluster"]),
            batch_format="pyarrow"),
        on=id_col, how="left", n_buckets=n_buckets,
    )

    def finish(tbl: pa.Table) -> pa.Table:
        ids = tbl.column(id_col)
        cl = pc.coalesce(pc.cast(tbl.column("cluster"), id_type), ids)
        return pa.table({
            id_col: ids,
            "cluster": cl,
            "keep": pc.equal(ids, cl),
        })

    return joined.map_batches(finish, batch_format="pyarrow")


def keep_best_in_cluster(
    clustered,
    score_ds,
    *,
    id_col: str,
    score_col: str,
    n_buckets: int = 64,
):
    """Best-of-cluster retention: ``keep`` = True on the HIGHEST-``score_col``
    doc of each cluster (ties -> min id) — the production alternative to
    keep-first, where the retained representative is the best-quality member
    (longest / highest quality score) rather than the lowest id.

    Shape: one ``hash_bucket_join`` ships (id, cluster) against (id, score)
    — both tiny verdict columns, never text — then ONE bucketed group on
    ``cluster`` picks the argmax vectorized (sort + first-of-group, no
    per-cluster Python).  Docs missing from ``score_ds`` rank below every
    scored doc (score -inf), so a cluster keeps a scored member when it has
    one."""
    from great_expectations_ray.functions.bucketed import grouped_apply_bucketed, key_groups
    from great_expectations_ray.functions.joins import hash_bucket_join

    joined = hash_bucket_join(
        clustered.select_columns([id_col, "cluster"]),
        score_ds.select_columns([id_col, score_col]),
        on=id_col, how="left", n_buckets=n_buckets,
    )

    def pick(g: pa.Table) -> pa.Table:
        s = pc.fill_null(pc.cast(g.column(score_col), pa.float64()), float("-inf"))
        g = g.set_column(g.column_names.index(score_col), score_col, s)
        g, bounds = key_groups(g, ["cluster"], [(score_col, "descending"),
                                                (id_col, "ascending")])
        keep = np.zeros(g.num_rows, dtype=bool)
        keep[bounds[:-1]] = True
        return g.select([id_col, "cluster"]).append_column("keep", pa.array(keep))

    return grouped_apply_bucketed(joined, ["cluster"], pick)
