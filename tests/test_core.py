import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdas.core import (
    BLOCK_BYTES,
    DegenerateDatasetError,
    ImageDataset,
    NoiseSource,
    TensorFormatError,
    as_tensor,
    block_slices,
    export_image,
    load_dataset,
    load_tensor,
    save_dataset,
    save_tensor,
)


class TestAsTensor:
    def test_coerces_to_float64_contiguous(self):
        t = as_tensor(np.ones((2, 3, 4), dtype=np.float32))
        assert t.dtype == np.float64 and t.flags["C_CONTIGUOUS"]

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            as_tensor(np.ones((3, 4)))

    def test_rejects_non_finite(self):
        bad = np.ones((1, 2, 2))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            as_tensor(bad)


class TestNoiseSource:
    def test_same_seed_bit_identical(self):
        a = NoiseSource(9).normal((2, 4, 4))
        b = NoiseSource(9).normal((2, 4, 4))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(NoiseSource(1).normal((8,)), NoiseSource(2).normal((8,)))

    def test_worker_streams_independent_and_stable(self):
        a0 = NoiseSource.for_worker(5, 0).normal((16,))
        a1 = NoiseSource.for_worker(5, 1).normal((16,))
        again = NoiseSource.for_worker(5, 0).normal((16,))
        assert np.array_equal(a0, again)
        assert not np.array_equal(a0, a1)

    @pytest.mark.parametrize("master", [0, 5, 2000])
    @pytest.mark.parametrize("worker", [0, 1, 7, 199])
    def test_worker_stream_is_spawned_child(self, master, worker):
        # Oracle: the worker-th of worker + 1 children spawned from the master seed.
        child = np.random.SeedSequence(master).spawn(worker + 1)[worker]
        expected = np.random.Generator(np.random.PCG64(child)).standard_normal((64,))
        assert np.array_equal(NoiseSource.for_worker(master, worker).normal((64,)), expected)

    @pytest.mark.parametrize("seed", [2.7, 2.0, True, np.True_])
    def test_seed_must_be_an_integer(self, seed):
        # int() took 2.7 for 2 and True for 1, drawing another seed's stream.
        with pytest.raises(ValueError, match="seed"):
            NoiseSource(seed)
        with pytest.raises(ValueError, match="seed"):
            NoiseSource.for_worker(seed, 0)

    def test_numpy_integer_seeds_pass(self):
        assert np.array_equal(NoiseSource(np.int64(7)).normal((4,)), NoiseSource(7).normal((4,)))
        assert np.array_equal(NoiseSource.for_worker(np.uint32(7), 2).normal((4,)),
                              NoiseSource.for_worker(7, 2).normal((4,)))

    def test_rejects_empty_dims(self):
        with pytest.raises(ValueError):
            NoiseSource(0).normal((0, 4))

    @pytest.mark.parametrize("shape", [(0, 4), (2, -1)])
    def test_rejected_draw_consumes_nothing(self, shape):
        src = NoiseSource(3)
        with pytest.raises(ValueError):
            src.normal(shape)
        assert np.array_equal(src.normal((5,)), NoiseSource(3).normal((5,)))

    @pytest.mark.parametrize("shape", [8, (1, 4, 4), np.shape(np.zeros((2, 3))),
                                       (np.int64(2), 3)])
    def test_draw_is_generator_standard_normal(self, shape):
        expected = np.random.Generator(np.random.PCG64(4)).standard_normal(shape)
        assert np.array_equal(NoiseSource(4).normal(shape), expected)

    @pytest.mark.parametrize("shape", [(7,), (1, 4, 4), (2, 3, 5)])
    def test_draw_into_out_is_the_sized_draw(self, shape):
        src, ref = NoiseSource(11), NoiseSource(11)
        out = np.full(shape, np.nan)
        assert src.normal(out=out) is out
        assert np.array_equal(out, ref.normal(shape))
        assert src.normal(shape, out=np.empty(shape)).shape == shape
        ref.normal(shape)
        # The stream is left where the sized draws leave it.
        assert np.array_equal(src.normal((9,)), ref.normal((9,)))

    def test_draw_into_a_row_of_a_block(self):
        block = np.empty((3, 1, 4, 4))
        src, ref = NoiseSource(5), NoiseSource(5)
        for row in block:
            src.normal(out=row)
        assert np.array_equal(block, np.stack([ref.normal((1, 4, 4)) for _ in range(3)]))

    @pytest.mark.parametrize("shape, out", [
        ((4, 4), np.empty((4, 5))),
        (None, np.empty((4, 4), dtype=np.float32)),
        (None, np.empty((4, 8))[:, ::2]),
        (None, np.empty((4, 4), order="F")),
        (None, np.empty((0, 4))),
    ], ids=["shape", "float32", "strided", "fortran", "empty"])
    def test_rejected_out_consumes_nothing(self, shape, out):
        src = NoiseSource(3)
        with pytest.raises((TypeError, ValueError)):
            src.normal(shape, out=out)
        assert np.array_equal(src.normal((5,)), NoiseSource(3).normal((5,)))

    def test_needs_a_shape_or_out(self):
        with pytest.raises(TypeError):
            NoiseSource(0).normal()


@given(count=st.integers(0, 3000), item_bytes=st.integers(0, 3 * BLOCK_BYTES))
@settings(max_examples=200, deadline=None)
def test_block_slices_cover_the_range_in_bounded_blocks(count, item_bytes):
    slices = list(block_slices(count, item_bytes))
    assert [i for s in slices for i in range(count)[s]] == list(range(count))
    assert all(s.step is None and s.stop > s.start for s in slices)
    for s in slices:
        n = s.stop - s.start
        assert n * item_bytes <= BLOCK_BYTES or n == 1
    # Every block but the last is full: no smaller blocks than the bound needs.
    per_block = max(1, BLOCK_BYTES // max(1, item_bytes))
    assert all(s.stop - s.start == per_block for s in slices[:-1])


@pytest.mark.parametrize("item_bytes", [0, 8, BLOCK_BYTES, BLOCK_BYTES + 1])
def test_block_slices_of_nothing_is_empty(item_bytes):
    assert list(block_slices(0, item_bytes)) == []


class TestTensorIO:
    def test_roundtrip(self, tmp_path, rng):
        t = rng.standard_normal((3, 5, 7))
        save_tensor(t, tmp_path / "t.tdt")
        assert np.array_equal(load_tensor(tmp_path / "t.tdt"), t)

    def test_header_layout(self, tmp_path):
        save_tensor(np.zeros((2, 3, 4)), tmp_path / "t.tdt")
        raw = (tmp_path / "t.tdt").read_bytes()
        assert raw[:4] == b"TDT1"
        assert np.frombuffer(raw[4:16], dtype="<u4").tolist() == [2, 3, 4]
        assert len(raw) == 16 + 8 * 24

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad.tdt").write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(TensorFormatError):
            load_tensor(tmp_path / "bad.tdt")

    def test_truncated_payload(self, tmp_path):
        save_tensor(np.zeros((1, 2, 2)), tmp_path / "t.tdt")
        raw = (tmp_path / "t.tdt").read_bytes()
        (tmp_path / "t.tdt").write_bytes(raw[:-8])
        with pytest.raises(TensorFormatError):
            load_tensor(tmp_path / "t.tdt")

    def test_zero_dimension(self, tmp_path):
        (tmp_path / "z.tdt").write_bytes(b"TDT1" + np.array([0, 2, 2], "<u4").tobytes())
        with pytest.raises(TensorFormatError):
            load_tensor(tmp_path / "z.tdt")

    @given(
        shape=st.tuples(
            st.integers(1, 3), st.integers(1, 6), st.integers(1, 6)
        ),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, tmp_path_factory, shape, seed):
        t = np.random.Generator(np.random.PCG64(seed)).standard_normal(shape)
        path = tmp_path_factory.mktemp("io") / "t.tdt"
        save_tensor(t, path)
        assert np.array_equal(load_tensor(path), t)


class TestExportImage:
    def test_pgm_header_and_midpoint(self, tmp_path):
        t = np.full((1, 2, 2), 0.5)
        export_image(t, tmp_path / "a.pgm")
        raw = (tmp_path / "a.pgm").read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        assert all(b == 128 for b in raw[-4:])

    def test_ppm_interleaves_channels(self, tmp_path):
        t = np.zeros((3, 1, 1))
        t[1] = 1.0
        export_image(t, tmp_path / "a.ppm")
        assert (tmp_path / "a.ppm").read_bytes().endswith(bytes([0, 255, 0]))

    def test_clamps_out_of_range(self, tmp_path):
        t = np.array([[[-5.0, 5.0]]])
        export_image(t, tmp_path / "a.pgm")
        assert (tmp_path / "a.pgm").read_bytes()[-2:] == bytes([0, 255])

    def test_rejects_two_channels(self, tmp_path):
        with pytest.raises(ValueError):
            export_image(np.zeros((2, 2, 2)), tmp_path / "a.pgm")

    @pytest.mark.parametrize("clamp", [(0.5, 0.5), (1.0, 0.0), (0.0, np.nan)])
    def test_rejects_an_empty_clamp_range(self, tmp_path, clamp):
        with pytest.raises(ValueError, match="clamp"):
            export_image(np.zeros((1, 2, 2)), tmp_path / "a.pgm", clamp=clamp)
        assert not (tmp_path / "a.pgm").exists()


class TestDataset:
    def test_from_list_validates_shapes(self):
        with pytest.raises(ValueError):
            ImageDataset.from_list([np.zeros((1, 2, 2)), np.zeros((1, 3, 3))])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ImageDataset(np.zeros((0, 1, 2, 2)))

    def test_mean_abs(self):
        ds = ImageDataset(np.stack([np.full((1, 2, 2), -2.0), np.full((1, 2, 2), 4.0)]))
        assert np.allclose(ds.mean_abs(), 3.0)

    def test_save_load_roundtrip(self, tmp_path, small_dataset):
        save_dataset(small_dataset, tmp_path / "ds")
        back = load_dataset(tmp_path / "ds")
        assert np.array_equal(back.items, small_dataset.items)

    @pytest.mark.parametrize("claim, named", [({"count": 7}, ("count 7", "give 12")),
                                              ({"shape": [3, 9, 9]}, ("[3, 9, 9]", "[1, 8, 8]"))])
    def test_load_rejects_manifest_that_disagrees_with_items(self, tmp_path, small_dataset,
                                                             claim, named):
        save_dataset(small_dataset, tmp_path / "ds", extra_manifest=claim)
        with pytest.raises(ValueError, match="manifest claims") as exc:
            load_dataset(tmp_path / "ds")
        assert all(value in str(exc.value) for value in named)
