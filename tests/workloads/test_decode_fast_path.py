"""The generated datasets decode on the schema-compiled fast path.

A :func:`repro.kv.codec.row_decoder` speculates on the kinds a schema
declares and hands every row that deviates — a NULL, an int stored in a
FLOAT column — to the generic ``decode_row``. That is always *correct*,
so nothing but a count can tell when a generator or a schema drifts and
every row silently takes both paths. Counts, not clocks: scan every KV
instance and TaaV relation of the three workloads and count the rows a
speculating decoder gave up on, and the rows that missed the fixed
10-byte cell a DATE is read as (every dataset stores ISO dates).
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
#: fixed cells (no fallback either: their decoder *is* ``decode_row``);
#: value rows always go to a ``row_speculator``, whose verdict is what a
#: scan's size proof rests on. A DATE is a fixed cell, so the
#: ``⟨INT, DATE, INT⟩`` keys and most date-bearing tuples compile: the
#: shares read 94.3 % of AIRCA's rows (the benchmark's dataset), 96.4 %
#: of MOT's and 95.4 % of TPC-H's (87.8 %, 80.8 % and 83.2 % while a
#: date cut a row like a string); the floors leave two points
DATASETS = {
    "airca": ("airca_small", airca_baav_schema, 0.92),
    "mot": ("mot_small", mot_baav_schema, 0.94),
    "tpch": ("tpch_tiny", tpch_baav_schema, 0.93),
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
    # a row that the fixed DATE cells of its shape do not fit
    missed_date_cells = []
    read_cut = codec._date_cell_missed

    def counting_date_misses(cut, data, pos):
        missed_date_cells.append(pos)
        return read_cut(cut, data, pos)

    monkeypatch.setattr(codec, "_date_cell_missed", counting_date_misses)

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
    # every dataset stores ISO dates: all of them fit the 10-byte cell
    assert not missed_date_cells, len(missed_date_cells)
