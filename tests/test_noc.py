"""Unit tests for the NoC models (Fig. 11b ablation)."""

import pytest

from repro.hw.noc import NOCS, MulticastTreeNoC, PointToPointNoC, make_noc
from repro.platforms import PlatformSpec


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
        """Each NoC kind has one spelling; no alias builds a model."""
        for alias in ("P2P", "point-to-point", "bus", "Multicast Tree"):
            with pytest.raises(ValueError):
                make_noc(alias)

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            make_noc("torus")


class TestCanonicaliser:
    """The names in ``NOCS`` are the only NoC kinds any layer (NoC
    factory, platform specs, sweep axes) accepts."""

    @pytest.mark.parametrize("spelling,expected", [
        ("p2p", "p2p"),
        ("multicast", "multicast"),
    ])
    def test_accepted_spellings(self, spelling, expected):
        assert isinstance(make_noc(spelling), NOCS[expected])
        assert PlatformSpec("soc", params={"noc": spelling}).params.noc == expected

    @pytest.mark.parametrize("bad", ["torus", "mesh", "", "p2p2", 3, "tree"])
    def test_rejected_spellings_name_the_kinds(self, bad):
        with pytest.raises(ValueError, match=r"use \['multicast', 'p2p'\]"):
            make_noc(bad)


def test_reset_stats():
    noc = MulticastTreeNoC()
    noc.distribute(demands_shared_parent(4))
    old = noc.reset_stats()
    assert old.sram_reads == 1
    assert noc.stats.cycles == 0
