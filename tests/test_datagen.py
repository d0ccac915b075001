import json
import shutil
import struct

import numpy as np
import pytest

from momentset import cli, datagen
from momentset.config import RunConfig
from momentset.datagen import ConceptVocabulary, Narration, VideoRecord
from momentset.errors import DataFileError, FormatError, GenerationError


@pytest.fixture(scope="module")
def vocab():
    return ConceptVocabulary.generate(12, 64, np.random.default_rng(0))


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """One 20-s video with three narrations, in 10-s chunks."""
    out = tmp_path_factory.mktemp("data")
    cli.cmd_generate(RunConfig(videos=1, duration=20.0, fps=6, chunk_seconds=10.0,
                               vocab_size=12, moments_per_video=3, feature_dim=64,
                               conv_kernel=2), out)
    return out


def with_narrations(data, tmp_path, edit):
    """A copy of dataset ``data`` whose one video's manifest narrations are
    passed through ``edit``."""
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    path = copy / cli.MANIFEST_NAME
    manifest = json.loads(path.read_text())
    edit(manifest["videos"]["video0000"]["narrations"])
    path.write_text(json.dumps(manifest))
    return copy


def records_equal(a: VideoRecord, b: VideoRecord) -> bool:
    return (a.video_id == b.video_id and a.duration == b.duration
            and a.fps == b.fps and np.array_equal(a.features, b.features)
            and a.narrations == b.narrations)


class TestVocabulary:
    def test_unit_norm(self, vocab):
        np.testing.assert_allclose(
            np.linalg.norm(vocab.vectors, axis=1), 1.0, atol=1e-12)

    def test_pairwise_cosine_bound(self, vocab):
        g = vocab.vectors @ vocab.vectors.T
        np.fill_diagonal(g, 0.0)
        assert np.max(np.abs(g)) < 0.5

    def test_save_load_round_trip(self, vocab, tmp_path):
        vocab.save(tmp_path / "v.npz")
        again = ConceptVocabulary.load(tmp_path / "v.npz")
        np.testing.assert_array_equal(vocab.vectors, again.vectors)


class TestGenerateVideo:
    def test_zero_noise_in_moment_frames_hit_concept(self, vocab):
        rec = datagen.generate_video(vocab, 3, 60.0, 6, 0.0, rng_seed=1)
        times = (np.arange(rec.features.shape[0]) + 0.5) / rec.fps
        for n in rec.narrations:
            inside = (times >= n.a) & (times <= n.b)
            assert inside.any()
            cos = rec.features[inside] @ vocab.vectors[n.concept_id]
            np.testing.assert_allclose(cos, 1.0, atol=1e-6)

    def test_background_cosine_small(self, vocab):
        rec = datagen.generate_video(vocab, 1, 500.0, 6, 0.0, rng_seed=2)
        times = (np.arange(rec.features.shape[0]) + 0.5) / rec.fps
        n = rec.narrations[0]
        outside = (times < n.a) | (times > n.b)
        cos = rec.features[outside] @ vocab.vectors.T
        assert cos.shape[0] >= 1000
        assert abs(cos.mean()) < 3.0 / np.sqrt(vocab.dim)

    def test_deterministic(self, vocab):
        a = datagen.generate_video(vocab, 4, 50.0, 6, 0.1, rng_seed=3)
        b = datagen.generate_video(vocab, 4, 50.0, 6, 0.1, rng_seed=3)
        assert records_equal(a, b)

    def test_narrations_sorted_with_midpoint_timestamps(self, vocab):
        rec = datagen.generate_video(vocab, 5, 100.0, 6, 0.1, rng_seed=4)
        ts = [n.t for n in rec.narrations]
        assert ts == sorted(ts)
        for n in rec.narrations:
            assert n.t == pytest.approx((n.a + n.b) / 2)
            assert 0.0 <= n.a < n.b <= rec.duration

    def test_too_many_moments(self, vocab):
        with pytest.raises(GenerationError):
            datagen.generate_video(vocab, 100, 10.0, 1, 0.0, rng_seed=5)

    def test_unit_norm_frames(self, vocab):
        rec = datagen.generate_video(vocab, 2, 30.0, 6, 0.3, rng_seed=6)
        np.testing.assert_allclose(
            np.linalg.norm(rec.features, axis=1), 1.0, atol=1e-6)

    def test_nearest_concept_classifier_perfect_at_zero_noise(self, vocab):
        rec = datagen.generate_video(vocab, 4, 80.0, 6, 0.0, rng_seed=7)
        times = (np.arange(rec.features.shape[0]) + 0.5) / rec.fps
        for n in rec.narrations:
            inside = (times >= n.a) & (times <= n.b)
            sims = rec.features[inside] @ vocab.vectors.T
            assert np.all(np.argmax(sims, axis=1) == n.concept_id)


class TestSampleInterval:
    def narrs(self):
        return [Narration(0, 2.0, 1.5, 2.5), Narration(1, 5.0, 4.0, 6.0),
                Narration(2, 9.0, 8.5, 9.5)]

    def test_support_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            s = datagen.sample_interval(self.narrs(), 1, 12.0, rng)
            assert 2.0 <= s.start <= 5.0
            assert 5.0 <= s.end <= 9.0

    def test_boundary_convention_single_narration(self):
        rng = np.random.default_rng(1)
        narr = [Narration(0, 5.0, 4.0, 6.0)]
        for _ in range(200):
            s = datagen.sample_interval(narr, 0, 10.0, rng)
            assert 0.0 <= s.start <= 5.0
            assert 5.0 <= s.end <= 10.0

    def test_uniform_mean(self):
        rng = np.random.default_rng(2)
        starts = [datagen.sample_interval(self.narrs(), 1, 12.0, rng).start
                  for _ in range(10000)]
        assert abs(np.mean(starts) - 3.5) < 0.05


class TestChunking:
    def test_single_chunk_identity(self, vocab):
        rec = datagen.generate_video(vocab, 2, 600.0, 1, 0.1, rng_seed=8)
        assert datagen.chunk_bounds(600.0, 1, 600.0).tolist() == [0, len(rec.features)]
        assert datagen.chunk_narrations(rec.narrations, 600.0, 600.0, 1) == [rec.narrations]

    def test_frame_counts(self):
        assert np.diff(datagen.chunk_bounds(100.0, 6, 40.0)).tolist() == [240, 240, 120]
        assert datagen.chunk_lengths(100.0, 40.0, 3) == [40.0, 40.0, 20.0]

    def test_narration_rebasing(self):
        chunks = datagen.chunk_narrations([Narration(0, 50.0, 45.0, 55.0)], 100.0, 40.0, 3)
        assert [len(c) for c in chunks] == [0, 1, 0]
        n = chunks[1][0]
        assert n.t == pytest.approx(10.0)
        assert (n.a, n.b) == (5.0, 15.0)

    def test_timestamp_on_a_chunk_boundary_stays_in_its_chunk(self):
        # 339.0 // 13.56 is 24, and 339.0 - 24 * 13.56 rounds to just above
        # 13.56, the chunk's length
        n_chunks = len(datagen.chunk_bounds(382.17, 1, 13.56)) - 1
        narrations = datagen.chunk_narrations(
            [Narration(0, 339.0, 338.0, 340.0)], 382.17, 13.56, n_chunks)[24]
        assert narrations[0].t == datagen.chunk_lengths(382.17, 13.56, n_chunks)[24] == 13.56

    def test_chunk_narrations_at_the_chunk_edges(self):
        """A narration at exactly 1 * chunk_seconds opens chunk 1; one in the
        short last chunk is clipped to that chunk's 20 s."""
        narrations = [Narration(0, 40.0, 35.0, 45.0), Narration(1, 95.0, 90.0, 100.0)]
        cut = datagen.chunk_narrations(narrations, 100.0, 40.0, 3)
        assert cut == [[], [Narration(0, 0.0, 0.0, 5.0)], [Narration(1, 15.0, 10.0, 20.0)]]

    def test_reassembly_exact(self, vocab):
        rec = datagen.generate_video(vocab, 3, 100.0, 6, 0.1, rng_seed=11)
        bounds = datagen.chunk_bounds(100.0, 6, 30.0)
        joined = np.concatenate([rec.features[lo:hi] for lo, hi in zip(bounds, bounds[1:])])
        np.testing.assert_array_equal(joined, rec.features)


class TestFeatureStore:
    def test_round_trip(self, vocab, tmp_path):
        """A chunk file gives back its frames bit-exactly."""
        rec = datagen.generate_video(vocab, 3, 40.0, 6, 0.1, rng_seed=12)
        path = tmp_path / "vid.maln"
        datagen.store(rec.features, path)
        again = datagen.load(path)
        assert again.shape == rec.features.shape
        assert again.tobytes() == rec.features.tobytes()

    def test_features_held_as_float32(self, vocab, tmp_path):
        """generate_video, its chunk slices and load all yield the on-disk dtype."""
        rec = datagen.generate_video(vocab, 2, 30.0, 6, 0.1, rng_seed=19)
        bounds = datagen.chunk_bounds(30.0, 6, 20.0)
        chunks = [rec.features[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        datagen.store(chunks[1], tmp_path / "x.maln")
        again = datagen.load(tmp_path / "x.maln")
        assert [f.dtype for f in (rec.features, *chunks, again)] == [np.float32] * 4

    def test_store_of_float64_features_writes_reference_bytes(self, tmp_path):
        """Features of another dtype or layout are rounded to the f32 payload,
        row-major, as astype("<f4") rounds them."""
        feats = np.random.default_rng(20).standard_normal((3, 5)).T  # not C-contiguous
        datagen.store(feats, tmp_path / "v.maln")
        expect = struct.pack("<4sIII", b"MALN", 2, 5, 3) + feats.astype("<f4").tobytes()
        assert (tmp_path / "v.maln").read_bytes() == expect

    def test_file_size_formula(self, vocab, tmp_path):
        rec = datagen.generate_video(vocab, 2, 30.0, 6, 0.1, rng_seed=13)
        path = tmp_path / "x.maln"
        datagen.store(rec.features, path)
        T, C = rec.features.shape
        expect = 16 + T * C * 4
        assert path.stat().st_size == expect

    def test_bad_magic(self, vocab, tmp_path):
        rec = datagen.generate_video(vocab, 1, 20.0, 6, 0.1, rng_seed=14)
        path = tmp_path / "x.maln"
        datagen.store(rec.features, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            datagen.load(path)

    def test_version_mismatch(self, vocab, tmp_path):
        rec = datagen.generate_video(vocab, 1, 20.0, 6, 0.1, rng_seed=15)
        path = tmp_path / "x.maln"
        datagen.store(rec.features, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            datagen.load(path)

    def test_truncated(self, vocab, tmp_path):
        rec = datagen.generate_video(vocab, 1, 20.0, 6, 0.1, rng_seed=16)
        path = tmp_path / "x.maln"
        datagen.store(rec.features, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError):
            datagen.load(path)

    @pytest.mark.parametrize("j, field, value", [
        (0, "t", float("nan")), (0, "t", -5.0), (2, "t", 1e300), (2, "t", 20.5),
        (1, "t", 1.0), (0, "a", float("inf")), (1, "b", float("nan")),
        (1, "b", 10**400), (1, "a", 15.0), (1, "b", 5.0),
    ], ids=["t_nan", "t_negative", "t_huge", "t_past_end", "t_out_of_order",
            "a_inf", "b_nan", "b_huge_int", "a_after_t", "b_before_t"])
    def test_bad_narration_time(self, dataset, tmp_path, j, field, value):
        """Times that interval sampling cannot draw between are refused when
        the dataset loads, naming the manifest."""
        bad = with_narrations(dataset, tmp_path, lambda ns: ns[j].update({field: value}))
        with pytest.raises(DataFileError, match="manifest.json.*narration times"):
            cli.load_dataset(bad)

    def test_narration_times_at_the_bounds_load(self, dataset, tmp_path):
        def to_bounds(narrations):
            for n, t in zip(narrations, (0.0, 0.0, 20.0)):
                n.update(t=t, a=min(n["a"], t), b=max(n["b"], t))
        _, _, videos = cli.load_dataset(with_narrations(dataset, tmp_path, to_bounds))
        assert [[n.t for n in c.narrations] for c in videos["video0000"]] == [
            [0.0, 0.0], [10.0]]
