"""Unit tests for the NoC models (Fig. 11b ablation)."""

import pytest

from repro.hw.noc import (
    NOC_KINDS,
    MulticastTreeNoC,
    PointToPointNoC,
    canonical_noc_kind,
    make_noc,
)


def demands_shared_parent(n_pes):
    """n PEs all demanding word 3 of genome 7, as (genome, word) rows."""
    return [(7, 3) for _pe in range(n_pes)]


def demands_distinct(n_pes):
    return [(pe, 0) for pe in range(n_pes)]


class TestPointToPoint:
    def test_one_read_per_pe(self):
        noc = PointToPointNoC()
        assert noc.distribute(demands_shared_parent(8)) == 8
        assert noc.stats.sram_reads == 8
        assert noc.stats.genes_delivered == 8

    def test_cycles_counted(self):
        noc = PointToPointNoC()
        for _ in range(5):
            noc.distribute(demands_distinct(4))
        assert noc.stats.cycles == 5
        assert noc.stats.reads_per_cycle == 4.0


class TestMulticastTree:
    def test_shared_word_single_read(self):
        noc = MulticastTreeNoC()
        assert noc.distribute(demands_shared_parent(8)) == 1
        assert noc.stats.multicast_hits == 7

    def test_distinct_words_no_savings(self):
        noc = MulticastTreeNoC()
        assert noc.distribute(demands_distinct(8)) == 8
        assert noc.stats.multicast_hits == 0

    def test_mixed(self):
        noc = MulticastTreeNoC()
        demands = [(1, 0), (1, 0), (2, 0)]
        assert noc.distribute(demands) == 2

    def test_never_more_reads_than_p2p(self):
        p2p = PointToPointNoC()
        tree = MulticastTreeNoC()
        import random

        rng = random.Random(0)
        for _ in range(100):
            demands = [(rng.randrange(4), rng.randrange(10)) for _pe in range(16)]
            assert tree.distribute(demands) <= p2p.distribute(demands)


class TestFactory:
    def test_aliases(self):
        assert isinstance(make_noc("p2p"), PointToPointNoC)
        assert isinstance(make_noc("point-to-point"), PointToPointNoC)
        assert isinstance(make_noc("multicast"), MulticastTreeNoC)
        assert isinstance(make_noc("Multicast Tree"), MulticastTreeNoC)

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            make_noc("torus")


class TestCanonicaliser:
    """One shared spelling canonicaliser for every layer (NoC factory,
    platform specs, sweep axes)."""

    @pytest.mark.parametrize("spelling,expected", [
        ("p2p", "p2p"),
        ("P2P", "p2p"),
        ("point-to-point", "p2p"),
        ("point to point", "p2p"),
        ("bus", "p2p"),
        ("multicast", "multicast"),
        ("Multicast-Tree", "multicast"),
        ("tree", "multicast"),
    ])
    def test_accepted_spellings(self, spelling, expected):
        assert canonical_noc_kind(spelling) == expected
        assert expected in NOC_KINDS

    @pytest.mark.parametrize("bad", ["torus", "mesh", "", "p2p2", 3])
    def test_rejected_spellings_name_the_kinds(self, bad):
        with pytest.raises(ValueError, match="p2p"):
            canonical_noc_kind(bad)

    def test_soc_backend_accepts_long_spelling(self):
        from repro.api import ExperimentSpec, make_backend

        backend = make_backend("soc", platform={
            "kind": "soc", "params": {"noc": "point-to-point"},
        })
        config = backend._resolve_config(ExperimentSpec("CartPole-v0"))
        assert config.eve.noc == "p2p"


def test_reset_stats():
    noc = MulticastTreeNoC()
    noc.distribute(demands_shared_parent(4))
    old = noc.reset_stats()
    assert old.sram_reads == 1
    assert noc.stats.cycles == 0
