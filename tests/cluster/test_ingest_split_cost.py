"""Split-heavy ingest costs a bounded number of key hashes per row.

Bucket splits (Algorithm 1) give each child a reference component over the
parent's immutable components.  A reference filters its target by hash prefix
once, when it is built; the maintenance pass that follows every ingest batch
then reads sizes without re-hashing anything.  Re-hashing the whole target on
every size query made split-heavy ingest quadratic (over 100 hashes per row on
this load), so the per-row count is pinned here.
"""

import random

import pytest

import repro.lsm.component as component_module
from repro.api import KIB, BucketingConfig, ClusterConfig, Database, LSMConfig

ROWS = 8_000
BATCH = 50


@pytest.fixture
def component_hashes(monkeypatch):
    calls = [0]
    original = component_module.hash_key

    def counting(key):
        calls[0] += 1
        return original(key)

    monkeypatch.setattr(component_module, "hash_key", counting)
    return calls


def test_split_heavy_ingest_hashes_at_most_ten_keys_per_row(component_hashes):
    keys = list(range(ROWS))
    random.Random(7).shuffle(keys)
    rows = [{"k": key, "v": key * 3, "pad": "p" * 40} for key in keys]
    config = ClusterConfig(
        num_nodes=3,
        partitions_per_node=2,
        lsm=LSMConfig(memory_component_bytes=32 * KIB),
        bucketing=BucketingConfig(max_bucket_bytes=48 * KIB),
    )
    with Database(config, strategy="dynahash") as db:
        dataset = db.create_dataset("rows", primary_key="k")
        for start in range(0, ROWS, BATCH):
            dataset.insert(rows[start:start + BATCH])
        partitions = db.cluster.dataset("rows").partitions.values()
        splits = sum(len(p.primary.split_history) for p in partitions)
        hashes = component_hashes[0]
        assert dataset.count() == ROWS
        assert dataset.get(keys[-1]) == rows[-1]

    assert splits >= 6
    assert hashes / ROWS <= 10, f"{hashes / ROWS:.1f} component key hashes per row"
