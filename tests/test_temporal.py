import numpy as np
import pytest

from helpers import finite_diff_check
from momentset import tensor as tt
from momentset.errors import ConfigError, NumericError, TimestampRangeError
from momentset.temporal import TemporalTable


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


class TestSinusoidalInit:
    def test_row_zero_alternates_zero_one(self):
        table = TemporalTable.init_sinusoidal(4, 6).table.data
        np.testing.assert_allclose(table[0], [0, 1, 0, 1, 0, 1], atol=1e-15)

    def test_adjacent_rows_more_similar_than_distant(self):
        t = TemporalTable.init_sinusoidal(16, 8).table.data
        assert cosine(t[3], t[4]) > cosine(t[3], t[5])
        # the locality property holds at every interior index
        for p in range(1, 14):
            assert cosine(t[p], t[p + 1]) > cosine(t[p], t[p + 2])

    def test_row_norms(self):
        d = 10
        t = TemporalTable.init_sinusoidal(8, d).table.data
        np.testing.assert_allclose(
            np.linalg.norm(t, axis=1), np.sqrt(d / 2), atol=1e-12)

    def test_odd_width_rejected(self):
        with pytest.raises(ConfigError):
            TemporalTable.init_sinusoidal(8, 7)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ConfigError):
            TemporalTable.init_sinusoidal(1, 8)


class TestInterpolate:
    def test_identity_at_same_length(self):
        table = TemporalTable.init_sinusoidal(8, 6)
        out = table.interpolate(8).data
        np.testing.assert_array_equal(out, table.table.data)

    def test_two_to_three_midpoint(self):
        table = TemporalTable.init_sinusoidal(2, 4)
        out = table.interpolate(3).data
        np.testing.assert_allclose(
            out[1], table.table.data.mean(axis=0), atol=1e-12)

    def test_matches_scalar_oracle(self):
        table = TemporalTable.init_sinusoidal(4, 6)
        src = table.table.data
        out = table.interpolate(7).data
        for k in range(7):
            x = k * (4 - 1) / (7 - 1)
            lo, hi = int(np.floor(x)), min(int(np.floor(x)) + 1, 3)
            frac = x - lo
            for c in range(6):
                expect = (1 - frac) * src[lo, c] + frac * src[hi, c]
                assert out[k, c] == pytest.approx(expect, abs=1e-12)

    def test_midway_is_average_of_adjacent_rows(self):
        table = TemporalTable.init_sinusoidal(5, 6)
        src = table.table.data
        out = table.interpolate(9).data  # odd output rows sit halfway
        for i in range(4):
            np.testing.assert_allclose(
                out[2 * i + 1], (src[i] + src[i + 1]) / 2, atol=1e-12)

    def test_target_one_uses_center(self):
        table = TemporalTable.init_sinusoidal(3, 4)
        np.testing.assert_allclose(
            table.interpolate(1).data[0], table.table.data[1], atol=1e-12)

    def test_gradient_flows_to_table(self):
        rng = np.random.default_rng(0)
        table = TemporalTable.init_sinusoidal(6, 4)
        finite_diff_check(
            lambda: tt.tmean(tt.sigmoid(table.interpolate(10))),
            [table.table], rng, probes_per_param=8)

    def test_every_table_entry_reaches_output(self):
        table = TemporalTable.init_sinusoidal(6, 4)
        out = tt.tmean(table.interpolate(11))
        tt.backward(out)
        assert np.all(table.table.grad != 0)
        tt.clear_tape()


class TestTimestampCodec:
    def test_embed_endpoints_and_grid(self):
        table = TemporalTable.init_sinusoidal(3, 4)
        src = table.table.data
        np.testing.assert_allclose(
            table.embed_timestamps([0.0], 10.0).data[0], src[0], atol=1e-12)
        np.testing.assert_allclose(
            table.embed_timestamps([10.0], 10.0).data[0], src[2], atol=1e-12)
        np.testing.assert_allclose(
            table.embed_timestamps([5.0], 10.0).data[0], src[1], atol=1e-12)

    def test_out_of_range(self):
        table = TemporalTable.init_sinusoidal(3, 4)
        with pytest.raises(TimestampRangeError):
            table.embed_timestamps([-0.1], 10.0)
        with pytest.raises(TimestampRangeError):
            table.embed_timestamps([10.1], 10.0)

    def test_decode_exact_row(self):
        table = TemporalTable.init_sinusoidal(11, 8)
        t = table.decode_timestamp(table.table.data[5], 100.0)
        assert t == pytest.approx(50.0)

    def test_grid_round_trip(self):
        rows, duration = 9, 40.0
        table = TemporalTable.init_sinusoidal(rows, 8)
        for i in range(rows):
            ts = i * duration / (rows - 1)
            emb = table.embed_timestamps([ts], duration).data
            assert table.decode_timestamp(emb, duration) == ts

    def test_decode_matches_brute_scan(self):
        rng = np.random.default_rng(1)
        table = TemporalTable.init_sinusoidal(12, 8)
        for _ in range(20):
            pred = rng.standard_normal(8)
            got = table.decode_timestamp(pred, 60.0)
            rows = table.table.data
            sims = [cosine(pred, rows[i]) for i in range(12)]
            best = int(np.argmax(sims))
            assert got == pytest.approx(best / 11 * 60.0)

    def test_decode_degenerate(self):
        table = TemporalTable.init_sinusoidal(4, 4)
        with pytest.raises(NumericError):
            table.decode_timestamp(np.zeros(4), 10.0)

    def test_decode_ties_prefer_smaller_index(self):
        table = TemporalTable(tt.Tensor(np.ones((4, 4)), requires_grad=True))
        assert table.decode_timestamp(np.ones(4), 30.0) == 0.0


def first_argmax_decode(table, preds, duration):
    """Row-by-row reference: cosine against every table row, first maximum."""
    rows = table.table.data
    out = []
    for p in preds:
        sims = [float(p @ r) / (np.linalg.norm(p) * max(np.linalg.norm(r), 1e-12))
                for r in rows]
        best = 0
        for i, s in enumerate(sims):
            if s > sims[best]:
                best = i
        out.append(best / (len(rows) - 1) * duration)
    return out


class TestDecodeTimestamps:
    def test_matches_row_by_row_reference(self):
        rng = np.random.default_rng(2)
        table = TemporalTable.init_sinusoidal(16, 8)
        preds = rng.standard_normal((40, 8)) * rng.uniform(0.1, 10.0, (40, 1))
        got = table.decode_timestamps(preds, 75.0)
        assert got.shape == (40,)
        np.testing.assert_array_equal(got, first_argmax_decode(table, preds, 75.0))

    def test_single_decode_is_the_batched_decode(self):
        rng = np.random.default_rng(3)
        table = TemporalTable.init_sinusoidal(12, 6)
        preds = rng.standard_normal((10, 6))
        batched = table.decode_timestamps(preds, 30.0)
        assert [table.decode_timestamp(p, 30.0) for p in preds] == batched.tolist()

    def test_duplicate_rows_tie_to_first_index(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((9, 6))
        data[5] = data[2]
        data[7] = data[2]
        table = TemporalTable(tt.Tensor(data, requires_grad=True))
        preds = np.vstack([data[7], 3.0 * data[5], data[2],
                           rng.standard_normal((5, 6))])
        got = table.decode_timestamps(preds, 16.0)
        assert got[:3].tolist() == [4.0, 4.0, 4.0]  # row 2 of 9 over 16 s
        np.testing.assert_array_equal(got, first_argmax_decode(table, preds, 16.0))

    def test_any_zero_row_is_degenerate(self):
        rng = np.random.default_rng(5)
        table = TemporalTable.init_sinusoidal(6, 4)
        for i in range(4):
            preds = rng.standard_normal((4, 4))
            preds[i] = 0.0
            with pytest.raises(NumericError):
                table.decode_timestamps(preds, 10.0)

    def test_stacked_with_per_chunk_durations(self):
        rng = np.random.default_rng(6)
        table = TemporalTable.init_sinusoidal(16, 8)
        preds = rng.standard_normal((3, 10, 8))
        durations = np.array([[40.0], [40.0], [7.5]])
        got = table.decode_timestamps(preds, durations)
        assert got.shape == (3, 10)
        for b in range(3):
            np.testing.assert_array_equal(
                got[b], first_argmax_decode(table, preds[b], durations[b, 0]))

    def test_one_bad_chunk_duration(self):
        table = TemporalTable.init_sinusoidal(6, 4)
        for bad in (0.0, -1.0, np.nan, np.inf):
            for b in range(3):
                durations = np.full((3, 1), 10.0)
                durations[b] = bad
                with pytest.raises(TimestampRangeError):
                    table.decode_timestamps(np.ones((3, 2, 4)), durations)

    def test_non_positive_duration(self):
        table = TemporalTable.init_sinusoidal(6, 4)
        for duration in (0.0, -1.0):
            with pytest.raises(TimestampRangeError):
                table.decode_timestamps(np.ones((2, 4)), duration)


class TestNonFiniteTimes:
    """A NaN or infinite time or duration is a TimestampRangeError, never a
    stray IndexError from a NaN row coordinate."""

    @pytest.mark.parametrize("t, duration", [
        (np.nan, 10.0), (5.0, np.nan), (5.0, np.inf), (np.inf, 10.0),
        (np.inf, np.inf), (5.0, -np.inf)])
    def test_embed(self, t, duration):
        table = TemporalTable.init_sinusoidal(6, 4)
        with pytest.raises(TimestampRangeError):
            table.embed_timestamps([t], duration)
        with pytest.raises(TimestampRangeError):
            table.embed_timestamps([1.0, t], duration)

    def test_embed_batch_with_one_bad_duration(self):
        table = TemporalTable.init_sinusoidal(6, 4)
        with pytest.raises(TimestampRangeError):
            table.embed_timestamps(np.ones((2, 3)), np.array([[10.0], [np.nan]]))

    @pytest.mark.parametrize("duration", [np.nan, np.inf])
    def test_decode_duration(self, duration):
        table = TemporalTable.init_sinusoidal(6, 4)
        with pytest.raises(TimestampRangeError):
            table.decode_timestamps(np.ones((2, 4)), duration)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_decode_prediction_row(self, bad):
        table = TemporalTable.init_sinusoidal(6, 4)
        preds = np.ones((3, 4))
        preds[1, 2] = bad
        with pytest.raises(NumericError):
            table.decode_timestamps(preds, 10.0)


def test_batched_embed_matches_per_row_calls():
    table = TemporalTable.init_sinusoidal(9, 6)
    times = np.array([[0.0, 3.5, 12.0], [1.0, 20.0, 7.25]])
    durations = np.array([[12.0], [20.0]])
    batched = table.embed_timestamps(times, durations).data
    assert batched.shape == (2, 3, 6)
    for row, duration in zip(range(2), (12.0, 20.0)):
        single = table.embed_timestamps(times[row], duration).data
        assert single.tobytes() == batched[row].tobytes()
