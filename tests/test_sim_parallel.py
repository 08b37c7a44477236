"""Multiprocessing layer: seed derivation and the group pool."""

import pytest

from repro.sim.parallel import derive_seed, run_group_pool


# ----------------------------------------------------------------------
# Seed derivation
# ----------------------------------------------------------------------
class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(0, 0) == derive_seed(0, 0)
        assert derive_seed(42, 3) == derive_seed(42, 3)

    def test_separated_across_indices_and_seeds(self):
        seeds = {derive_seed(seed, index)
                 for seed in range(4) for index in range(8)}
        assert len(seeds) == 32  # no collisions in a small grid

    def test_fits_in_63_bits(self):
        for index in range(16):
            value = derive_seed(123, index)
            assert 0 <= value < 2**63


# ----------------------------------------------------------------------
# Group pool
# ----------------------------------------------------------------------
def _square(spec):
    return spec * spec


class TestRunGroupPool:
    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            run_group_pool(_square, [1, 2], 0)

    def test_serial_path_preserves_order(self):
        results, wall = run_group_pool(_square, [3, 1, 2], 1)
        assert results == [9, 1, 4]
        assert wall >= 0.0

    def test_single_spec_stays_in_process(self):
        # len(specs) <= 1 short-circuits to serial even with shards > 1,
        # so a lambda (unpicklable) is fine here.
        results, _ = run_group_pool(lambda spec: spec + 1, [41], 4)
        assert results == [42]

    def test_spawn_pool_matches_serial(self):
        serial, _ = run_group_pool(_square, [5, 6, 7, 8], 1)
        pooled, _ = run_group_pool(_square, [5, 6, 7, 8], 2)
        assert pooled == serial
