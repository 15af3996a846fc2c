"""A batched scan routes its fetches by the node each key was listed on.

``KVCluster.list_keys`` returns every key with the node the listing walk
read it from, and ``multi_get(listed_on=...)`` groups a batch by those
owners instead of hashing each key onto the ring a second time — but
only while placement stands as the listing saw it. This is a
differential: every scenario runs twice on identically built clusters,
once as shipped and once with the owners **withheld** from the listing
(the ring names every node, as before the listing carried them), with a
membership event or a commit fired *between the listing and its first
fetch*. Answers and per-node counters must be equal; what a quiet
cluster gains is asserted separately — no ring lookup at all.
"""

from __future__ import annotations

import socket
import sys
import threading

import pytest

from repro.baav import KVInstance
from repro.baav.block import Block
from repro.baav.schema import kv_schema
from repro.errors import BaaVError
from repro.kv import KVCluster, TaaVRelation, codec
from repro.kv.hashring import HashRing
from repro.kv.remote import Sent
from repro.mvcc.versions import VersionStore
from repro.relational import AttrType, Relation, RelationSchema

REL = RelationSchema.of(
    "R", {"k": AttrType.INT, "g": AttrType.INT, "v": AttrType.STR}, ["k"]
)
#: 12 blocks of 5 tuples: 3 segments each at split_threshold=2, so the
#: tail-segment wave runs for every key
ROWS = [(k, k % 12, f"v{k}") for k in range(60)]
BY_G = kv_schema("r_by_g", REL, ["g"])


class Deployment:
    """One cluster holding ROWS as a segmented KV instance and as TaaV."""

    def __init__(self, transport: str, replication: int, withhold: bool):
        self.cluster = KVCluster(
            4, replication_factor=replication, transport=transport
        )
        self.versions = VersionStore()
        self.cluster.attach_versions(self.versions)
        self.instance = KVInstance(BY_G, self.cluster, split_threshold=2)
        self.instance.build_from(Relation(REL, ROWS))
        self.taav = TaaVRelation(REL, self.cluster)
        self.taav.load(ROWS)
        if withhold:
            listed = self.cluster.list_keys
            self.cluster.list_keys = lambda namespace: listed(
                namespace
            )._replace(owners=None)

    def fire_before_first_fetch(self, event) -> None:
        """Run ``event(self)`` once, after the listing, before the fetch."""
        fetch = self.cluster.multi_get
        fired = []

        def multi_get(*args, **kwargs):
            if not fired:
                fired.append(True)
                event(self)
            return fetch(*args, **kwargs)

        self.cluster.multi_get = multi_get

    def commit(self, epoch: int, writes) -> None:
        """Install ``writes(self)`` at ``epoch`` from a writer thread (the
        calling thread may be a pinned reader)."""

        def install():
            with self.versions.recording(epoch):
                writes(self)

        writer = threading.Thread(target=install)
        writer.start()
        writer.join(timeout=30)
        assert not writer.is_alive()

    def observe(self, read):
        """``read(self)``'s answer (or the error it died of) plus what
        every node counted serving it."""
        self.cluster.reset_counters()
        try:
            answer = read(self)
        except BaaVError as exc:  # a tail segment on a node that is gone
            answer = type(exc).__name__
        counters = {
            node_id: (c.gets, c.values_read, c.round_trips)
            for node_id, c in self.cluster.get_stats().per_node.items()
        }
        return answer, counters


def scan_blocks(deployment: Deployment):
    return sorted(
        (key, sorted(block.entries))
        for key, block in deployment.instance.scan(batch_size=4)
    )


def fetch_tuples(deployment: Deployment):
    return sorted(deployment.taav.fetch_all(batch_size=4).rows)


READS = {"baav-scan": scan_blocks, "taav-fetch-all": fetch_tuples}
#: what each reads ROWS as when no copy is lost
RIGHT = {
    "baav-scan": sorted(
        ((g,), sorted(((k, f"v{k}"), 1) for k in range(g, 60, 12)))
        for g in range(12)
    ),
    "taav-fetch-all": sorted(ROWS),
}


def nothing(deployment: Deployment) -> None:
    pass


def overwrite_delete_insert(deployment: Deployment) -> None:
    """Rewrite block 1 and tuple 1, drop block 2 and tuple 2, add block
    12 and tuple 60 — every segment, so the state stays well-formed."""
    instance, taav = deployment.instance, deployment.taav
    instance._write_block((1,), Block.from_rows([(k, "new") for k in range(5)]))
    for segment in range(3):
        instance.cluster.delete(
            instance.namespace, codec.encode_key((2, segment))
        )
    instance._write_block((12,), Block.from_rows([(99, "born")]))
    taav.load([(1, 1, "new")])
    taav.delete_by_key((2,))
    taav.insert((60, 0, "born"))


#: name -> (before the listing, between the listing and the first fetch)
MEMBERSHIP = {
    "quiet": (nothing, nothing),
    "add_node": (nothing, lambda d: d.cluster.add_node()),
    "remove_node": (nothing, lambda d: d.cluster.remove_node(0)),
    "partition": (nothing, lambda d: d.cluster.fail_node(1)),
    "kill": (nothing, lambda d: d.cluster.fail_node(1, kill=True)),
    "recover_node": (
        lambda d: d.cluster.fail_node(1),
        lambda d: d.cluster.recover_node(1),
    ),
    "listed-while-down": (lambda d: d.cluster.fail_node(2), nothing),
}


def run(transport, replication, read, before, between, pinned=False):
    """The same scenario as shipped and with the owners withheld."""
    observed = []
    for withhold in (False, True):
        deployment = Deployment(transport, replication, withhold)
        with deployment.cluster:
            before(deployment)
            deployment.fire_before_first_fetch(between)
            if pinned:
                with deployment.versions.reading(0):
                    observed.append(deployment.observe(read))
            else:
                observed.append(deployment.observe(read))
    return observed


@pytest.mark.parametrize("read", sorted(READS))
@pytest.mark.parametrize("scenario", sorted(MEMBERSHIP))
@pytest.mark.parametrize("replication", [1, 2])
@pytest.mark.parametrize("transport", ["local", "socket"])
def test_membership_change_between_listing_and_fetch(
    transport, replication, scenario, read
):
    before, between = MEMBERSHIP[scenario]
    routed, withheld = run(transport, replication, READS[read], before, between)
    assert routed == withheld
    if replication == 2 or scenario in ("quiet", "add_node", "remove_node"):
        # no copy was lost: the scan is also simply right
        assert routed[0] == RIGHT[read]


@pytest.mark.parametrize("read", sorted(READS))
@pytest.mark.parametrize("replication", [1, 2])
def test_peer_death_between_listing_and_fetch(replication, read):
    routed, withheld = run(
        "socket",
        replication,
        READS[read],
        nothing,
        lambda d: d.cluster.nodes[1].process.sigkill(),
    )
    assert routed == withheld
    if replication == 2:
        assert routed[0] == RIGHT[read]


@pytest.mark.parametrize("read", sorted(READS))
@pytest.mark.parametrize("replication", [1, 2])
@pytest.mark.parametrize("transport", ["local", "socket"])
@pytest.mark.parametrize("when", ["before-listing", "before-fetch"])
def test_pinned_reader_under_commits(when, transport, replication, read):
    """A reader pinned at epoch 0 while epoch 1 overwrites, deletes and
    inserts keys: committed before the listing the overlay rewrites it
    (no owners to trust), committed after it the listed owners are used
    and the overlay answers the touched keys — epoch 0 either way."""
    commit = lambda d: d.commit(1, overwrite_delete_insert)
    before, between = (
        (commit, nothing) if when == "before-listing" else (nothing, commit)
    )
    routed, withheld = run(
        transport, replication, READS[read], before, between, pinned=True
    )
    assert routed == withheld
    assert routed[0] == RIGHT[read]


# -- what the route saves -----------------------------------------------------


@pytest.fixture()
def ring_lookups(monkeypatch):
    """Every key ``HashRing.node_for`` is asked about from here on."""
    asked = []
    node_for = HashRing.node_for

    def counting(self, key):
        asked.append(key)
        return node_for(self, key)

    monkeypatch.setattr(HashRing, "node_for", counting)
    return asked


@pytest.mark.parametrize("read", sorted(READS))
def test_quiet_cluster_scan_asks_the_ring_nothing(read, ring_lookups):
    deployment = Deployment("local", 1, withhold=False)
    del ring_lookups[:]  # the load placed every key by the ring
    assert READS[read](deployment) == RIGHT[read]
    assert ring_lookups == []


def test_point_reads_and_stale_listings_still_ask_the_ring(ring_lookups):
    deployment = Deployment("local", 1, withhold=False)
    del ring_lookups[:]
    deployment.instance.multi_get([(3,)])
    assert len(ring_lookups) == 3  # one per segment: no listing, no owners
    del ring_lookups[:]
    deployment.fire_before_first_fetch(lambda d: d.cluster.add_node())
    assert scan_blocks(deployment) == RIGHT["baav-scan"]
    # the generation moved under the listing: every segment hashed again
    assert len(ring_lookups) >= 36


# -- the wave a batched scan ships ahead ------------------------------------


def unread_answers(cluster) -> int:
    """Pooled connections holding bytes nobody has read."""
    stale = 0
    for node in cluster.nodes.values():
        for sock in node.client._pool:
            timeout = sock.gettimeout()
            sock.setblocking(False)
            try:
                stale += bool(sock.recv(1, socket.MSG_PEEK))
            except BlockingIOError:
                pass
            finally:
                sock.settimeout(timeout)
    return stale


def between_send_and_receive(
    deployment: Deployment, event, ahead: bool = True
) -> list:
    """Run ``event(deployment)`` once, right after the scan ships its
    first wave ahead (``ahead=False``: where it would ship it, shipping
    none); returns the waves shipped."""
    send_ahead = deployment.cluster.send_multi_get
    waves = []

    def send_then_fire(*args):
        wave = send_ahead(*args) if ahead else None
        if not waves:
            event(deployment)
        waves.append(wave)
        return wave

    deployment.cluster.send_multi_get = send_then_fire
    return waves


def test_scan_closed_after_its_first_wave():
    """The wave shipped ahead of an abandoned scan is dropped with its
    connection: every node's next multi-get reads its own answer."""
    deployment = Deployment("socket", 1, withhold=False)
    with deployment.cluster as cluster:
        waves = between_send_and_receive(deployment, nothing)
        scan = deployment.instance.scan(batch_size=4)
        next(scan)
        assert waves and waves[0] is not None
        scan.close()
        assert unread_answers(cluster) == 0
        namespace = deployment.instance.namespace
        listing = cluster.list_keys(namespace)
        stored = dict(cluster.scan(namespace, count_as_gets=False))
        for node_id, node in cluster.nodes.items():
            mine = [
                key for key, owner in zip(listing.keys, listing.owners)
                if owner == node_id
            ][:2]
            fulls = [cluster.full_key(namespace, key) for key in mine]
            # more asks than pooled connections: each one is reused
            for _ in range(node.client._pool_size + 1):
                assert node.multi_get(fulls) == [stored[key] for key in mine]


#: membership changes fired between a wave's send and its receive
BETWEEN = {
    "add_node": (nothing, lambda d: d.cluster.add_node()),
    "recover_node": (
        lambda d: d.cluster.fail_node(1),
        lambda d: d.cluster.recover_node(1),
    ),
    "remove_node": (nothing, lambda d: d.cluster.remove_node(0)),
    "partition": (nothing, lambda d: d.cluster.fail_node(1)),
}


@pytest.mark.parametrize("read", sorted(READS))
@pytest.mark.parametrize("event", sorted(BETWEEN))
def test_membership_change_between_send_and_receive(event, read, monkeypatch):
    """A wave shipped under an older placement is closed unread and
    routed afresh: the answer, the work each node counted and the
    membership left behind equal a scan that shipped nothing ahead and
    saw the same change at the same point — a closed wave marks no node
    down."""
    received = []
    take = Sent.take
    monkeypatch.setattr(Sent, "take", lambda sent: received.append(sent) or take(sent))
    before, between = BETWEEN[event]
    observed = []
    for ahead in (True, False):
        deployment = Deployment("socket", 1, withhold=False)
        with deployment.cluster as cluster:
            before(deployment)
            waves = between_send_and_receive(deployment, between, ahead)
            observed.append(deployment.observe(READS[read]))
            if ahead:  # shipped under the old placement: closed, never read
                assert not [h for h in waves[0].sent.values() if h in received]
            else:
                assert waves[0] is None
            assert unread_answers(cluster) == 0
            observed.append(cluster.down_node_ids)
    assert observed[:2] == observed[2:]
    assert observed[1] == ([1] if event == "partition" else [])
    if event in ("add_node", "remove_node"):
        assert observed[0][0] == RIGHT[read]


@pytest.mark.parametrize("read", sorted(READS))
def test_replicated_scan_ships_waves_ahead(read):
    """With two copies a key is still read from its first live owner, a
    function of the key and the placement: over node processes the scan
    ships every wave ahead, and it answers and counts, node by node,
    as the in-process scan, which ships none."""
    observed = []
    for transport in ("socket", "local"):
        deployment = Deployment(transport, 2, withhold=False)
        with deployment.cluster as cluster:
            waves = between_send_and_receive(deployment, nothing)
            observed.append(deployment.observe(READS[read]))
            assert waves
            if transport == "socket":
                assert all(waves)
                assert unread_answers(cluster) == 0
            else:
                assert not any(waves)
    assert observed[0] == observed[1]
    assert observed[0][0] == RIGHT[read]


@pytest.mark.parametrize("read", sorted(READS))
def test_commit_racing_a_wave_shipped_ahead(read):
    """A pinned reader's scan ships a wave; epoch 1 then overwrites,
    deletes and inserts blocks and tuples before the wave is read. The
    scan still returns epoch 0's rows."""
    deployment = Deployment("socket", 1, withhold=False)
    with deployment.cluster as cluster:
        waves = between_send_and_receive(
            deployment, lambda d: d.commit(1, overwrite_delete_insert)
        )
        with deployment.versions.reading(0):
            assert READS[read](deployment) == RIGHT[read]
        assert waves[0] is not None
        assert unread_answers(cluster) == 0


@pytest.mark.stress
@pytest.mark.parametrize("read", sorted(READS))
def test_concurrent_scans_read_their_own_waves(read):
    """Four threads scan at once over node processes, each shipping
    waves ahead on the same connection pools: every scan reads its own
    answers, and no pooled connection is left holding one."""
    deployment = Deployment("socket", 1, withhold=False)
    with deployment.cluster as cluster:
        waves = between_send_and_receive(deployment, nothing)
        answers, errors = [], []

        def scan_five_times():
            try:
                for _ in range(5):
                    answers.append(READS[read](deployment))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=scan_five_times) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert answers == [RIGHT[read]] * 20
        assert waves and all(waves)
        assert unread_answers(cluster) == 0
