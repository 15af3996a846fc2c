"""The REPRO_* environment knobs: one reader, one truthiness.

Each knob resolves *argument > environment > default*. The table drives
the owning module's own resolution (not just the helper), so a module
that grows its own parser again fails here.
"""

import pytest

from repro import lockdep
from repro.env import env_choice, env_flag
from repro.kv.cluster import DURABILITY_ENV, TRANSPORT_ENV, KVCluster


def _cluster_attr(attr):
    def resolve(arg):
        cluster = KVCluster(1, **({} if arg is None else {attr: arg}))
        try:
            return getattr(cluster, attr)
        finally:
            cluster.close()

    return resolve


#: (variable, resolve(argument) through the owning module, default);
#: choices add a second allowed value
FLAGS = [
    ("REPRO_LOCKDEP", lambda arg: lockdep.enabled(), False),
]
CHOICES = [
    (TRANSPORT_ENV, _cluster_attr("transport"), "local", "local"),
    (DURABILITY_ENV, _cluster_attr("durability"), "off", "wal"),
]


@pytest.mark.parametrize("name, resolve, default", FLAGS)
def test_flag_knobs(monkeypatch, name, resolve, default):
    monkeypatch.delenv(name, raising=False)
    assert resolve(None) is default
    for text, expected in [("", default), ("0", False), ("1", True)]:
        monkeypatch.setenv(name, text)
        assert resolve(None) is expected
    for text in ("false", "true", "yes", "2", " 1"):
        monkeypatch.setenv(name, text)
        with pytest.raises(ValueError, match=name):
            resolve(None)


@pytest.mark.parametrize("name, resolve, default, other", CHOICES)
def test_choice_knobs(monkeypatch, name, resolve, default, other):
    monkeypatch.delenv(name, raising=False)
    assert resolve(None) == default
    for text, expected in [("", default), (default, default), (other, other)]:
        monkeypatch.setenv(name, text)
        assert resolve(None) == expected
    monkeypatch.setenv(name, "nonsense")
    with pytest.raises(ValueError, match=name):
        resolve(None)
    # an explicit argument is used as given, the environment not even read
    assert resolve(default) == default


def test_helpers_directly(monkeypatch):
    monkeypatch.setenv("REPRO_TEST_KNOB", "b")
    assert env_choice("REPRO_TEST_KNOB", ("a", "b"), "a") == "b"
    monkeypatch.setenv("REPRO_TEST_KNOB", "1")
    assert env_flag("REPRO_TEST_KNOB", False) is True
    monkeypatch.delenv("REPRO_TEST_KNOB")
    assert env_choice("REPRO_TEST_KNOB", ("a", "b"), "a") == "a"
    assert env_flag("REPRO_TEST_KNOB", True) is True
