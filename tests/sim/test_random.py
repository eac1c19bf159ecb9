"""Unit tests for deterministic named seeds."""

from repro.sim import derive_seed


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(42, "faults") == derive_seed(42, "faults")

    def test_differs_by_name(self):
        assert derive_seed(42, "faults") != derive_seed(42, "workload")

    def test_differs_by_root(self):
        assert derive_seed(1, "faults") != derive_seed(2, "faults")

    def test_known_value_is_stable(self):
        # Pin a concrete value so accidental algorithm changes are caught:
        # a new derivation reseeds E06, E16 and E19.
        assert derive_seed(0, "x") == 15838549821452497134
