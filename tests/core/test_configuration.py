import pickle

import numpy as np
import pytest

from repro.core.configuration import HW_FEATURES
from repro.errors import DSEError


class TestSpaceBasics:
    def test_size_is_product(self, sobel_space):
        expected = 1.0
        for s in sobel_space.slot_sizes():
            expected *= s
        assert sobel_space.size() == expected

    def test_random_configuration_valid(self, sobel_space, rng):
        for _ in range(20):
            config = sobel_space.random_configuration(rng)
            sobel_space.validate_configuration(config)

    def test_random_configurations_unique(self, sobel_space):
        configs = sobel_space.random_configurations(30, rng=0)
        assert len(set(configs)) == 30

    def test_validate_rejects_bad_length(self, sobel_space):
        with pytest.raises(DSEError):
            sobel_space.validate_configuration((0, 0))

    def test_validate_rejects_out_of_range(self, sobel_space):
        config = list(sobel_space.exact_configuration())
        config[0] = 10**6
        with pytest.raises(DSEError):
            sobel_space.validate_configuration(tuple(config))


class TestNeighbor:
    def test_differs_in_exactly_one_gene(self, sobel_space, rng):
        config = sobel_space.random_configuration(rng)
        for _ in range(20):
            other = sobel_space.neighbor(config, rng)
            diff = sum(a != b for a, b in zip(config, other))
            assert diff == 1

    def test_new_gene_in_range(self, sobel_space, rng):
        config = sobel_space.random_configuration(rng)
        neighbor = sobel_space.neighbor(config, rng)
        sobel_space.validate_configuration(neighbor)


class TestFeatures:
    def test_qor_features_shape(self, sobel_space):
        configs = sobel_space.random_configurations(7, rng=0)
        X = sobel_space.qor_features(configs)
        assert X.shape == (7, sobel_space.n_slots)

    def test_qor_features_are_wmeds(self, sobel_space):
        config = sobel_space.exact_configuration()
        X = sobel_space.qor_features([config])
        assert np.allclose(X, 0.0)  # exact circuits have zero WMED

    def test_hw_features_shape(self, sobel_space):
        configs = sobel_space.random_configurations(4, rng=1)
        X = sobel_space.hw_features(configs)
        assert X.shape == (4, 3 * sobel_space.n_slots)

    def test_hw_feature_subset(self, sobel_space):
        configs = sobel_space.random_configurations(4, rng=1)
        X = sobel_space.hw_features(configs, features=("area",))
        assert X.shape == (4, sobel_space.n_slots)

    def test_hw_feature_values_match_records(self, sobel_space):
        config = sobel_space.random_configuration(rng=np.random.default_rng(2))
        X = sobel_space.hw_features([config])
        for k, idx in enumerate(config):
            record = sobel_space.choices[k][idx]
            base = k * len(HW_FEATURES)
            assert X[0, base] == record.hardware.area
            assert X[0, base + 1] == record.hardware.power
            assert X[0, base + 2] == record.hardware.delay

    def test_area_columns(self, sobel_space):
        cols = sobel_space.area_columns()
        assert cols == [0, 3, 6, 9, 12]

    def test_unknown_feature_rejected(self, sobel_space):
        with pytest.raises(DSEError):
            sobel_space.hw_features(
                [sobel_space.exact_configuration()], features=("volume",)
            )


class TestRealisation:
    def test_records_mapping(self, sobel_space):
        config = sobel_space.exact_configuration()
        records = sobel_space.records(config)
        assert set(records) == {s.name for s in sobel_space.slots}
        assert all(r.is_exact() for r in records.values())

    def test_assignment_callables_match_circuits(self, sobel_space, rng):
        config = sobel_space.random_configuration(rng)
        impls = sobel_space.assignment_callables(config)
        records = sobel_space.records(config)
        a = rng.integers(0, 256, 50)
        b = rng.integers(0, 256, 50)
        for name, impl in impls.items():
            rec = records[name]
            assert np.array_equal(
                impl(a, b), rec.circuit.evaluate(a, b)
            )

    def test_assignment_callables_memoised(self, sobel_space):
        config = sobel_space.random_configuration(rng=3)
        first = sobel_space.assignment_callables(config)
        second = sobel_space.assignment_callables(config)
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] is second[name]

    def test_pickle_drops_impl_memo(self, sobel_space, rng):
        config = sobel_space.random_configuration(rng=9)
        impls = sobel_space.assignment_callables(config)
        clone = pickle.loads(pickle.dumps(sobel_space))
        assert clone._impl_memo == {}
        # The memo rebuilds to equivalent impls on first use.
        a = rng.integers(0, 256, 50)
        b = rng.integers(0, 256, 50)
        for name, impl in clone.assignment_callables(config).items():
            assert np.array_equal(impl(a, b), impls[name](a, b))

    def test_enumerate_all_small_space(self, sobel, tiny_library,
                                       sobel_profiles):
        from repro.core.preprocessing import reduce_library

        space = reduce_library(
            sobel, tiny_library, sobel_profiles, per_op_cap=2
        )
        grid = space.enumerate_all()
        assert grid.shape[0] == space.size()
        assert grid.shape[1] == space.n_slots
        # rows are unique configurations
        assert len(np.unique(grid, axis=0)) == grid.shape[0]


class TestNeighborsBatch:
    def test_each_differs_in_exactly_one_gene(self, sobel_space, rng):
        config = sobel_space.random_configuration(rng)
        batch = sobel_space.neighbors(config, 50, rng)
        assert len(batch) == 50
        for candidate in batch:
            sobel_space.validate_configuration(candidate)
            diffs = sum(
                1 for a, b in zip(candidate, config) if a != b
            )
            assert diffs == 1

    def test_count_zero_and_negative(self, sobel_space, rng):
        config = sobel_space.random_configuration(rng)
        assert sobel_space.neighbors(config, 0, rng) == []
        with pytest.raises(DSEError):
            sobel_space.neighbors(config, -1, rng)

    def test_deterministic_for_seed(self, sobel_space):
        config = sobel_space.random_configuration(
            np.random.default_rng(0)
        )
        a = sobel_space.neighbors(config, 20, np.random.default_rng(3))
        b = sobel_space.neighbors(config, 20, np.random.default_rng(3))
        assert a == b

    def test_covers_all_mutable_slots(self, sobel_space):
        """Over many draws every multi-choice slot gets mutated."""
        config = sobel_space.random_configuration(
            np.random.default_rng(1)
        )
        batch = sobel_space.neighbors(
            config, 500, np.random.default_rng(2)
        )
        mutated = set()
        for candidate in batch:
            for k, (a, b) in enumerate(zip(candidate, config)):
                if a != b:
                    mutated.add(k)
        expected = {
            k for k in range(sobel_space.n_slots)
            if len(sobel_space.choices[k]) > 1
        }
        assert mutated == expected
