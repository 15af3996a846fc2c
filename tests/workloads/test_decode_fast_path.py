"""The generated datasets decode on the schema-compiled fast path.

A :func:`repro.kv.codec.row_decoder` speculates on the kinds a schema
declares and hands every row that deviates — a NULL, an int stored in a
FLOAT column — to the generic ``decode_row``. That is always *correct*,
so nothing but a count can tell when a generator or a schema drifts and
every row silently takes both paths. Counts, not clocks: scan every KV
instance and TaaV relation of the three workloads and count the rows a
speculating decoder gave up on.
"""

import pytest

from repro.baav import BaaVStore
from repro.kv import KVCluster, TaaVStore, codec
from repro.workloads.airca import airca_baav_schema
from repro.workloads.mot import mot_baav_schema
from repro.workloads.tpch import tpch_baav_schema

#: dataset -> (session fixture holding it, its BaaV schema, the least
#: share of its rows a speculating decoder must own). ``row_decoder``
#: declines keys and TaaV tuples that strings cut into runs of under two
#: numerics (no fallback either: their decoder *is* ``decode_row``);
#: value rows always go to a ``row_speculator``, whose verdict is what a
#: scan's size proof rests on. The floors follow the schemas and predate
#: the speculator (81 % of AIRCA's rows, the benchmark's dataset, wide
#: in numerics; 65 % of MOT's; 50 % of string-heavy TPC-H's)
DATASETS = {
    "airca": ("airca_small", airca_baav_schema, 0.75),
    "mot": ("mot_small", mot_baav_schema, 0.55),
    "tpch": ("tpch_tiny", tpch_baav_schema, 0.40),
}


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_generated_rows_stay_on_the_compiled_path(name, request, monkeypatch):
    fixture, baav_schema, least_speculated = DATASETS[name]
    db = request.getfixturevalue(fixture)
    cluster = KVCluster(4)
    store = BaaVStore.map_database(db, baav_schema(), cluster)
    taav = TaaVStore.from_database(db, cluster)

    # installed after the decoders were built: one that declined to
    # speculate holds the real decode_row and is not counted, a
    # speculating one reaches this only by giving a row up
    generic = codec.decode_row
    fallbacks = []

    def counting(data, pos=0):
        fallbacks.append(pos)
        return generic(data, pos)

    monkeypatch.setattr(codec, "decode_row", counting)

    rows = speculated = 0
    for instance in store:
        blocks = list(instance.scan(batch_size=64))
        values = sum(len(block.entries) for _, block in blocks)
        rows += len(blocks) + values
        if instance._decode_physical_key is not generic:
            speculated += len(blocks)
        if instance._decode_value_row is not generic:
            speculated += values
    for relation in db:
        tuples = sum(1 for _ in taav.relation(relation.schema.name).scan())
        assert tuples == len(relation)
        rows += tuples
        if taav.relation(relation.schema.name)._decode_tuple is not generic:
            speculated += tuples

    assert speculated >= least_speculated * rows, (speculated, rows)
    assert len(fallbacks) < 0.01 * speculated, (len(fallbacks), speculated)
