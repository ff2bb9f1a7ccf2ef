import numpy as np
import pytest

from repro.core.pipeline import AutoAx, AutoAxConfig
from repro.core.pareto import dominates
from repro.errors import ValidationError


@pytest.fixture(scope="module")
def sobel_result(sobel, tiny_library, small_images):
    config = AutoAxConfig(
        n_train=40,
        n_test=20,
        engines=("K-Neighbors",),
        max_evaluations=800,
        seed=0,
    )
    return AutoAx(sobel, tiny_library, small_images, config=config).run()


class TestAutoAxConfig:
    def test_defaults_valid(self):
        AutoAxConfig()

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            AutoAxConfig(n_train=1)

    def test_empty_engines(self):
        with pytest.raises(ValueError):
            AutoAxConfig(engines=())

    @pytest.mark.parametrize("field", [
        "max_evaluations", "stagnation_limit", "max_samples", "per_op_cap",
    ])
    def test_non_positive_limits_rejected(self, field):
        with pytest.raises(ValidationError, match=field):
            AutoAxConfig(**{field: 0})


class TestPipelineRun:
    def test_space_sizes_decrease(self, sobel_result):
        assert (
            sobel_result.initial_space_size
            > sobel_result.reduced_space_size
            > len(sobel_result.pseudo_pareto)
            >= len(sobel_result.final_configs)
        )

    def test_models_selected_by_fidelity(self, sobel_result):
        best = max(
            sobel_result.qor_reports, key=lambda r: r.fidelity_test
        )
        assert sobel_result.qor_model.name == best.name

    def test_final_front_nondominated(self, sobel_result):
        pts = sobel_result.final_points
        minimised = np.stack([-pts[:, 0], pts[:, 1]], axis=1)
        for i in range(len(pts)):
            for j in range(len(pts)):
                assert not dominates(minimised[i], minimised[j])

    def test_final_points_real_ranges(self, sobel_result):
        pts = sobel_result.final_points
        assert np.all(pts[:, 0] <= 1.0 + 1e-9)  # SSIM
        assert np.all(pts[:, 1] > 0)  # area

    def test_3d_front_superset_of_2d(self, sobel_result):
        """Adding an objective can only grow the non-dominated set."""
        assert len(sobel_result.final_configs_3d) >= len(
            sobel_result.final_configs
        )

    def test_timings_recorded(self, sobel_result):
        assert set(sobel_result.timings) == {
            "preprocessing",
            "training_set",
            "model_construction",
            "pseudo_pareto",
            "final_analysis",
        }
        assert all(t >= 0 for t in sobel_result.timings.values())

    def test_summary_row(self, sobel_result):
        row = sobel_result.summary_row()
        assert row["final_pareto"] == len(sobel_result.final_configs)

    def test_front_spans_tradeoff(self, sobel_result):
        """The front should cover meaningfully different QoR levels."""
        pts = sobel_result.final_points
        assert pts[:, 0].max() - pts[:, 0].min() > 0.05
        assert pts[:, 1].max() > pts[:, 1].min()

    def test_configs_resolvable(self, sobel_result):
        for config in sobel_result.final_configs:
            records = sobel_result.space.records(config)
            assert len(records) == sobel_result.space.n_slots
