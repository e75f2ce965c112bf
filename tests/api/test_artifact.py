"""Tests of the EmulatorArtifact save/load round trip and its error paths."""

import io
import zipfile
import zlib
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api.artifact import (
    META_KEY,
    SCHEMA_VERSION,
    ArtifactError,
    EmulatorArtifact,
    SchemaVersionError,
)
from repro.api.registry import UnknownBackendError
from repro.core import ClimateEmulator, EmulatorConfig
from repro.linalg import MixedPrecisionCholesky
from repro.serving.request import FieldRequest
from repro.storage import measured_artifact_report
from repro.util.compare import assert_states_bit_identical

#: The ``fitted_emulator`` fixture saved under artifact schema 1 (one NPZ
#: member per Cholesky tile, deflated members) by repro 1.10.0.
SCHEMA_1_ARTIFACT = Path(__file__).parent / "data" / "fitted_emulator_schema1.npz"


class TestRoundTrip:
    def test_bit_exact_emulation_after_reload(self, fitted_emulator, tmp_path):
        path = tmp_path / "emulator.npz"
        fitted_emulator.save(path)
        loaded = ClimateEmulator.load(path)

        original = fitted_emulator.emulate(2, rng=np.random.default_rng(11))
        reloaded = loaded.emulate(2, rng=np.random.default_rng(11))
        assert np.array_equal(original.data, reloaded.data)

    def test_round_trip_preserves_config_and_metadata(self, fitted_emulator, tmp_path):
        path = tmp_path / "emulator.npz"
        fitted_emulator.save(path)
        loaded = ClimateEmulator.load(path)
        assert loaded.config == fitted_emulator.config
        assert loaded.is_fitted
        assert loaded.training is None  # raw ensemble is not persisted
        summary = loaded.training_summary
        original = fitted_emulator.training_summary
        assert summary.grid == original.grid
        assert summary.n_times == original.n_times
        assert summary.n_ensemble == original.n_ensemble
        np.testing.assert_array_equal(summary.forcing_annual, original.forcing_annual)

    def test_round_trip_preserves_cholesky_factor_exactly(self, fitted_emulator, tmp_path):
        path = tmp_path / "emulator.npz"
        fitted_emulator.save(path)
        loaded = ClimateEmulator.load(path)
        original = fitted_emulator.spectral_model.cholesky
        restored = loaded.spectral_model.cholesky
        assert np.array_equal(original.lower(), restored.lower())
        assert original.variant == restored.variant
        assert original.flops_by_precision == restored.flops_by_precision
        assert original.factor.precision_counts() == restored.factor.precision_counts()
        assert original.factor.storage_bytes() == restored.factor.storage_bytes()

    def test_mixed_precision_round_trip(self, small_ensemble, tmp_path):
        emulator = ClimateEmulator(
            EmulatorConfig(lmax=8, var_order=1, tile_size=16,
                           precision_variant="DP/HP", covariance_jitter=1e-4,
                           rho_grid=(0.5,))
        )
        emulator.fit(small_ensemble)
        path = tmp_path / "hp.npz"
        emulator.save(path)
        loaded = ClimateEmulator.load(path)
        a = emulator.emulate(1, rng=np.random.default_rng(5))
        b = loaded.emulate(1, rng=np.random.default_rng(5))
        assert np.array_equal(a.data, b.data)
        counts = loaded.spectral_model.cholesky.factor.precision_counts()
        assert counts.get("HP", 0) > 0  # reduced-precision tiles survived

    def test_streaming_from_loaded_emulator(self, fitted_emulator, tmp_path):
        path = tmp_path / "emulator.npz"
        fitted_emulator.save(path)
        loaded = ClimateEmulator.load(path)
        chunks = list(loaded.emulate_stream(1, n_times=30, chunk_size=12,
                                            rng=np.random.default_rng(0)))
        assert [c.n_times for c in chunks] == [12, 12, 6]
        assert [c.metadata["stream_offset"] for c in chunks] == [0, 12, 24]

    def test_save_returns_exact_path(self, fitted_emulator, tmp_path):
        path = tmp_path / "artifact-without-extension"
        returned = fitted_emulator.save(path)
        assert returned == str(path)
        assert path.exists()


class TestLayout:
    def test_every_member_is_stored_not_deflated(self, fitted_emulator, tmp_path):
        path = tmp_path / "emulator.npz"
        fitted_emulator.save(path)
        with zipfile.ZipFile(path) as archive:
            infos = archive.infolist()
        assert infos
        assert {info.compress_type for info in infos} == {zipfile.ZIP_STORED}

    @pytest.mark.parametrize("tile_size", [4, 8, 16, 24])
    def test_member_count_grows_with_tile_rows(self, spd_matrix, tile_size):
        result = MixedPrecisionCholesky(tile_size=tile_size).factorize(spd_matrix)
        blob = EmulatorArtifact(state={"cholesky": result.state_dict()}).tobytes()
        with zipfile.ZipFile(io.BytesIO(blob)) as archive:
            names = archive.namelist()
        # One array per DP tile row, the precision codes and the metadata:
        # 18 members at tile 4, where one member per tile would be 136.
        assert len(names) == result.factor.n_tiles + 2
        assert f"{META_KEY}.npy" in names


class TestSchema1Compatibility:
    """A real schema-1 file, written before the factor was packed per tile
    row, keeps loading to the same bits."""

    def test_fixture_is_a_schema_1_artifact(self):
        artifact = EmulatorArtifact.load(SCHEMA_1_ARTIFACT)
        assert artifact.schema_version == 1
        assert "tiles" in artifact.state["spectral_model"]["cholesky"]

    def test_state_equals_a_fresh_schema_2_round_trip(self, fitted_emulator, tmp_path):
        v1 = ClimateEmulator.load(SCHEMA_1_ARTIFACT)
        path = tmp_path / "v2.npz"
        fitted_emulator.save(path)
        assert EmulatorArtifact.load(path).schema_version == SCHEMA_VERSION
        v2 = ClimateEmulator.load(path)
        assert_states_bit_identical(v1.state_dict(), v2.state_dict())
        a = v1.emulate(2, rng=np.random.default_rng(11))
        b = v2.emulate(2, rng=np.random.default_rng(11))
        assert np.array_equal(a.data, b.data)

    def test_served_chunk_keeps_its_pinned_crc(self):
        # The request and CRC-32 that TestPinnedBits (tests/serving/) pins.
        request = FieldRequest("ssp-high", realization=3, year_start=1, year_stop=2)
        served = repro.serve(str(SCHEMA_1_ARTIFACT), seed=0).get(request)
        assert zlib.crc32(np.ascontiguousarray(served).tobytes()) == 0xC99E633D


class TestMeasurement:
    def test_storage_summary_measured_bytes(self, fitted_emulator, tmp_path):
        summary = fitted_emulator.storage_summary()
        assert summary["measured_artifact_bytes"] > 0
        assert summary["measured_compression_factor"] > 0
        path = tmp_path / "emulator.npz"
        fitted_emulator.save(path)
        assert summary["measured_artifact_bytes"] == path.stat().st_size

    def test_measured_artifact_report(self, fitted_emulator):
        report = measured_artifact_report(fitted_emulator)
        assert report["measured_artifact_bytes"] > 0
        assert report["parameter_bytes"] == fitted_emulator.parameter_bytes()
        assert report["raw_bytes_float32"] > 0
        assert report["format_overhead_factor"] > 0

    def test_artifact_summary(self, fitted_emulator):
        artifact = fitted_emulator.to_artifact()
        summary = artifact.summary()
        assert summary["schema_version"] == SCHEMA_VERSION
        assert summary["n_arrays"] > 0
        assert summary["nbytes"] == artifact.nbytes()
        assert summary["config"]["lmax"] == fitted_emulator.config.lmax


class TestErrorPaths:
    def test_schema_version_mismatch(self, fitted_emulator, tmp_path):
        artifact = fitted_emulator.to_artifact()
        artifact.schema_version = SCHEMA_VERSION + 1
        path = tmp_path / "future.npz"
        artifact.save(path)
        with pytest.raises(SchemaVersionError) as excinfo:
            EmulatorArtifact.load(path)
        message = str(excinfo.value)
        assert str(SCHEMA_VERSION) in message and str(SCHEMA_VERSION + 1) in message

    def test_plain_npz_is_rejected(self, tmp_path):
        path = tmp_path / "random.npz"
        np.savez(path, data=np.zeros(3))
        with pytest.raises(ArtifactError, match="metadata"):
            EmulatorArtifact.load(path)

    def test_non_npz_file_is_rejected(self, tmp_path):
        path = tmp_path / "not-an-archive"
        path.write_bytes(b"definitely not an npz file")
        with pytest.raises(ArtifactError):
            EmulatorArtifact.load(path)

    def test_plain_npy_is_rejected(self, tmp_path):
        path = tmp_path / "array.npy"
        np.save(path, np.zeros(3))
        with pytest.raises(ArtifactError, match="plain array"):
            EmulatorArtifact.load(path)

    def test_truncated_artifact_is_rejected(self, fitted_emulator, tmp_path):
        path = tmp_path / "whole.npz"
        fitted_emulator.save(path)
        truncated = tmp_path / "truncated.npz"
        truncated.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(ArtifactError):
            EmulatorArtifact.load(truncated)

    def test_corrupt_member_fails_its_crc_check(self, fitted_emulator, tmp_path):
        path = tmp_path / "emulator.npz"
        fitted_emulator.save(path)
        member = "spectral_model/covariance.npy"
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo(member)
        blob = bytearray(path.read_bytes())
        # Past the local header and the .npy header: a flipped value byte.
        blob[info.header_offset + 30 + len(member) + len(info.extra) + 200] ^= 0xFF
        corrupt = tmp_path / "corrupt.npz"
        corrupt.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError, match="CRC"):
            EmulatorArtifact.load(corrupt)

    def test_unknown_backend_name_in_state_lists_available(self, fitted_emulator):
        state = fitted_emulator.state_dict()
        state["spectral_model"]["sht_method"] = "warp-drive"
        with pytest.raises(UnknownBackendError) as excinfo:
            EmulatorArtifact(state=state).to_emulator()
        message = str(excinfo.value)
        assert "'warp-drive'" in message and "'fast'" in message and "'direct'" in message

    def test_unfitted_emulator_has_no_state(self):
        with pytest.raises(RuntimeError):
            ClimateEmulator(EmulatorConfig(lmax=4)).state_dict()
