"""Property tests for DHT durability invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ReplicatedDht
from repro.sim import Simulator


class TestDhtDurability:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=15),  # key id
                st.integers(min_value=0, max_value=999),  # value
            ),
            min_size=1,
            max_size=40,
        ),
        st.sampled_from(["hash", "adaptive"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_get_returns_last_put(self, operations, placement):
        sim = Simulator()
        dht = ReplicatedDht(sim, n_pairs=3, brick_rate=100.0, placement=placement)
        expected = {}

        def driver():
            for key_id, value in operations:
                key = f"k{key_id}"
                yield dht.put(key, value)
                expected[key] = value
            for key, value in expected.items():
                got = yield dht.get(key)
                assert got == value

        sim.run(until=sim.process(driver()))

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=30))
    @settings(max_examples=20, deadline=None)
    def test_adaptive_placement_is_stable(self, key_ids):
        """Once placed, a key's pair never changes (the bookkeeping
        contract adaptive placement relies on)."""
        sim = Simulator()
        dht = ReplicatedDht(sim, n_pairs=3, brick_rate=100.0, placement="adaptive")
        first_placement = {}

        def driver():
            for key_id in key_ids:
                key = f"k{key_id}"
                yield dht.put(key, key_id)
                pair = dht.pair_of(key)
                if key in first_placement:
                    assert pair == first_placement[key]
                else:
                    first_placement[key] = pair

        sim.run(until=sim.process(driver()))
        assert dht.bookkeeping_entries == len(set(key_ids))
