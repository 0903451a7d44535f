"""Edge-path tests across packages (error branches and small helpers)."""

import numpy as np
import pytest

from repro.corpus import apollo_spec, generate_corpus, write_corpus
from repro.corpus.generator import Corpus, CorpusFile
from repro.errors import CorpusError
from repro.gpu import CudaRuntime, Dim3
from repro.gpu.kernels import ALL_KERNELS_SOURCE


class TestPerfEdgeCases:
    def test_relative_without_baseline_rejected(self):
        from repro.perf import relative_to_baseline
        from repro.perf.detection import DetectionResult
        results = [DetectionResult(implementation="ISAAC",
                                   open_source=True, device="gpu",
                                   seconds_per_frame=0.01)]
        with pytest.raises(ValueError):
            relative_to_baseline(results)

    def test_gemm_gflops_positive_for_all_workloads(self):
        from repro.perf import CuBlasModel, GEMM_WORKLOADS
        model = CuBlasModel()
        for workload in GEMM_WORKLOADS:
            assert model.gemm_gflops(workload.shape) > 0

    def test_detection_result_fps(self):
        from repro.perf.detection import DetectionResult
        result = DetectionResult(implementation="x", open_source=False,
                                 device="d", seconds_per_frame=0.02)
        assert result.fps == pytest.approx(50.0)


class TestGpuEdgeCases:
    def test_launch_with_tuple_geometry(self):
        runtime = CudaRuntime(ALL_KERNELS_SOURCE)
        pointer = runtime.to_device([1.0, -2.0, 3.0, -4.0])
        runtime.launch("leaky_activate_kernel", (2, 2), 1, [pointer, 4])
        values = runtime.cuda_memcpy_dtoh(pointer)
        assert values == [1.0, -0.2, 3.0, -0.4]

    def test_null_pointer_argument_accepted(self):
        runtime = CudaRuntime(
            "__global__ void probe(float *p, int n) { "
            "if (p == 0) { return; } p[0] = 1.0f; }")
        runtime.launch("probe", 1, 1, [None, 0])  # no crash

    def test_offset_view_in_launch(self):
        runtime = CudaRuntime(ALL_KERNELS_SOURCE)
        pointer = runtime.to_device([0.0] * 8)
        shifted = pointer.offset_by(4)
        runtime.launch("leaky_activate_kernel", 1, 4, [shifted, 4])
        assert runtime.cuda_memcpy_dtoh(pointer)[:4] == [0.0] * 4

    def test_to_device_empty_sequence(self):
        runtime = CudaRuntime(ALL_KERNELS_SOURCE)
        pointer = runtime.to_device([])
        assert pointer.size == 1  # minimum allocation


class TestWeightStore:
    def test_image_deterministic_and_bounded(self):
        from repro.dnn import WeightStore
        first = WeightStore(seed=3).image(16, 16)
        second = WeightStore(seed=3).image(16, 16)
        assert np.array_equal(first, second)
        assert first.min() >= 0.0
        assert first.max() <= 1.0
        assert first.shape == (1, 3, 16, 16)

    def test_conv_weights_he_scale(self):
        from repro.dnn import WeightStore
        weights = WeightStore(seed=1).conv_weights(64, 32, 3)
        fan_in = 32 * 9
        assert weights.std() == pytest.approx(np.sqrt(2.0 / fan_in),
                                              rel=0.2)


class TestCorpusWriterSafety:
    def test_absolute_path_rejected(self, tmp_path):
        corpus = Corpus(apollo_spec(scale=0.01), [
            CorpusFile(path="/etc/evil.cc", source="int x;\n",
                       module="m")])
        with pytest.raises(CorpusError):
            write_corpus(corpus, str(tmp_path))

    def test_parent_escape_rejected(self, tmp_path):
        corpus = Corpus(apollo_spec(scale=0.01), [
            CorpusFile(path="../evil.cc", source="int x;\n", module="m")])
        with pytest.raises(CorpusError):
            write_corpus(corpus, str(tmp_path))


class TestCliSeed:
    def test_seed_changes_corpus(self, capsys):
        from repro.core.cli import main
        assert main(["--corpus", "0.02", "--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["--corpus", "0.02", "--seed", "2"]) == 0
        second = capsys.readouterr().out
        assert first != second


class TestReportRendering:
    def test_observations_to_dict_sorted(self, small_assessment):
        from repro.iso26262 import observations_to_dict
        payload = observations_to_dict(small_assessment.observations)
        numbers = [entry["number"] for entry in payload]
        assert numbers == sorted(numbers)

    def test_coverage_row_without_mcdc(self):
        from repro.coverage import CoverageRunner, TestVector
        runner = CoverageRunner(
            "int f(int a) { if (a) { return 1; } return 0; }", "f.c")
        runner.run_vector(TestVector("f", (1,)))
        row = runner.coverage(with_mcdc=False).as_row()
        assert "mcdc" not in row

    def test_campaign_render_without_mcdc(self):
        from repro.coverage import CoverageCampaign, CoverageRunner, \
            TestVector
        runner = CoverageRunner(
            "int f(int a) { if (a) { return 1; } return 0; }", "f.c")
        runner.run_vector(TestVector("f", (1,)))
        campaign = CoverageCampaign([runner.coverage(with_mcdc=False)])
        rendered = campaign.render()
        assert "mcdc" not in rendered
        assert "AVERAGE" in rendered
