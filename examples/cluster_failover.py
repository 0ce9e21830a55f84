"""Operating a multi-node AFT deployment: scaling, failure, and recovery.

Run with::

    python examples/cluster_failover.py

This example drives the cluster-management surface of the library the way an
operator (or an autoscaling policy) would:

* build a 3-node cluster over shared in-memory storage and talk to it
  through the :class:`repro.AftClient` facade,
* watch commit metadata flow between nodes via the background multicast,
* kill a node that has acknowledged a commit but never broadcast it and show
  that the fault manager's Commit Set scan makes the data visible anyway
  (the §4.2 liveness guarantee),
* let the cluster replace the failed node and warm the newcomer's metadata
  cache from storage, and
* run the garbage collector and show the storage footprint shrinking.

Transactions go through the facade; the *operator* actions (failure
injection, replacement, GC) are the in-process cluster's management surface,
reached via ``client.cluster``.
"""

from __future__ import annotations

import repro
from repro import AftCluster, ClusterConfig, InMemoryStorage
from repro.config import AftConfig


def main() -> None:
    cluster = AftCluster(
        InMemoryStorage(),
        cluster_config=ClusterConfig(num_nodes=3, node_config=AftConfig(multicast_interval=1.0)),
    )
    client = repro.connect("inproc://", cluster=cluster)

    # A little traffic so every node owns some commits.
    for index in range(30):
        with client.transaction() as txn:
            txn.put(f"profile:{index % 10}", f"version-{index}")
    cluster.run_multicast_round()
    print("cluster is serving:", [node.node_id for node in cluster.live_nodes()])

    # ------------------------------------------------------------------ #
    # A node commits and immediately dies, before the next multicast round.
    # ------------------------------------------------------------------ #
    txid = client.start_transaction()
    owner = next(n for n in cluster.nodes if n.transaction_status(txid) is not None)
    client.put(txid, "orders:1001", "3x widget")
    client.commit_transaction(txid)
    cluster.fail_node(owner)
    print(f"{owner.node_id} committed orders:1001 and crashed before broadcasting it")

    # The fault manager's periodic Commit Set scan finds the orphaned commit
    # record and pushes it to the surviving nodes: the data is never lost.
    cluster.run_fault_scan()
    with client.transaction() as txn:
        print("surviving nodes can read it:", txn.get("orders:1001"))

    # ------------------------------------------------------------------ #
    # Replace the failed node; the replacement bootstraps from storage.
    # ------------------------------------------------------------------ #
    replacements = cluster.replace_failed_nodes()
    newcomer = replacements[0]
    print(f"replacement {newcomer.node_id} joined with {len(newcomer.metadata_cache)} cached commit records")
    with client.transaction() as txn:
        print("cluster serves old data  :", txn.get("orders:1001"))

    # ------------------------------------------------------------------ #
    # Garbage collection: superseded versions are swept from storage.
    # ------------------------------------------------------------------ #
    keys_before = cluster.storage.size()
    for node in cluster.nodes:
        node.forget_finished_transactions()
    cluster.run_multicast_round()
    cluster.run_local_gc()
    deleted = cluster.run_global_gc()
    keys_after = cluster.storage.size()
    print(f"global GC deleted {len(deleted)} superseded transactions "
          f"({keys_before} -> {keys_after} storage keys)")

    client.close()
    cluster.shutdown()


if __name__ == "__main__":
    main()
