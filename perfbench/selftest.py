"""Shows that every correctness gate rejects a corrupted result.

    python3 perfbench/selftest.py [--seed N]

Runs each workload's public call once on the seed's inputs, checks that the
clean record passes its gates, then corrupts a copy of the record in one
way at a time (a flipped keep bit, a deleted lineage fragment, an altered
unexpected count, ...) and checks that the gates fail.  Exits 1 if a
clean result fails or a corrupted one passes.
"""

from __future__ import annotations

import argparse
import copy
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import pyarrow as pa  # noqa: E402
import pyarrow.compute as pc  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402

from perfbench import inputs  # noqa: E402
from perfbench import workloads as W  # noqa: E402
from perfbench.session import start_ray  # noqa: E402


def _rewrite(lineage_dir: str, path: str, column: str, fn) -> None:
    """Replace ``column`` of the row ``path`` with ``fn(column)`` in
    whichever lineage fragment holds it."""
    for f in sorted(Path(lineage_dir).glob("*.parquet")):
        t = pq.read_table(f)
        hit = pc.equal(t.column("path"), path)
        if pc.any(hit).as_py():
            col = pc.if_else(hit, fn(t.column(column)), t.column(column))
            pq.write_table(t.set_column(t.column_names.index(column), column, col), f)
            return
    raise LookupError(path)


def _copy_record(record: dict, tmp: Path) -> dict:
    out = tmp / "copy"
    shutil.rmtree(out, ignore_errors=True)
    shutil.copytree(record["out_dir"], out)
    return dict(copy.deepcopy(record), out_dir=str(out), data_dir=str(out / "data"),
                lineage_dir=str(out / "lineage"))


def corpus_cases(gates: W.Gates, record: dict, tmp: Path):
    o = gates.oracle
    ascii_path = o.filter(pc.is_valid(o.column("keep"))).column("path")[0].as_py()
    non_ascii_path = o.filter(pc.is_null(o.column("keep"))).column("path")[0].as_py()

    def flip_keep(r):
        _rewrite(r["lineage_dir"], ascii_path, "keep", pc.invert)

    def set_bit(r):  # the alnum-ratio rule (bit 3) on an ASCII row
        _rewrite(r["lineage_dir"], ascii_path, "rule_bitmap",
                 lambda c: pc.bit_wise_xor(c, pa.scalar(8, c.type)))

    def alter_digest(r):
        _rewrite(r["lineage_dir"], non_ascii_path, "scrubbed_sha256",
                 lambda c: pc.utf8_replace_slice(c, 0, 1, "x"))

    def drop_fragment(r):
        sorted(Path(r["lineage_dir"]).glob("*.parquet"))[0].unlink()

    def drop_rollup_row(r):
        r["rollup_row_counts"][0] -= 1

    def oracle_only(r):
        return W.check_oracle(W.read_dir(r["lineage_dir"], W.LINEAGE_CHECK_COLS), o)

    for label, corrupt, check in (
            ("flipped keep bit", flip_keep, gates.check),
            ("deleted lineage fragment", drop_fragment, gates.check),
            ("rollup row count off by one", drop_rollup_row, gates.check),
            # the oracle gate alone: it must catch what the reference shares
            ("flipped keep bit (oracle gate alone)", flip_keep, oracle_only),
            ("rule bit set on an ASCII row (oracle gate alone)", set_bit, oracle_only),
            ("digest of a non-ASCII row altered (oracle gate alone)", alter_digest,
             oracle_only)):
        bad = _copy_record(record, tmp)
        corrupt(bad)
        yield label, bad, check


def table_cases(gates: W.Gates, record: dict):
    def alter(r):
        r["result"]["results"][0]["result"]["unexpected_count"] += 1

    def observed(r):
        r["result"]["results"][2]["result"]["observed_value"] += 1e-6

    for label, corrupt in (("altered unexpected count", alter),
                           ("altered observed value", observed)):
        bad = copy.deepcopy(record)
        corrupt(bad)
        yield label, bad, gates.check


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    manifests = {k: json.loads(inputs.ensure(k, args.seed).read_text())
                 for k in ("corpus", "lineitem")}
    tmp = W.ROOT / ".bench_out" / "selftest"
    start_ray(W.cpu_count())
    failures = 0
    for name in W.WORKLOADS:
        manifest = manifests[W.INPUT_KIND[name]]
        wl = W.Workload(name, manifest, str(tmp / "ops"))
        record = wl.record(wl.call())
        gates = W.Gates(name, manifest)
        clean = gates.check(record)
        print(f"{name}: clean result -> {'pass' if not clean else clean}")
        failures += bool(clean)
        cases = (corpus_cases(gates, record, tmp) if name == "corpus_filter"
                 else table_cases(gates, record))
        for label, bad, check in cases:
            errors = check(bad)
            print(f"{name}: {label} -> {'rejected: ' + errors[0] if errors else 'ACCEPTED'}")
            failures += not errors
        W.discard(record)
    shutil.rmtree(tmp, ignore_errors=True)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
