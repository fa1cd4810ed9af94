import numpy as np
import pytest

from twoarm.streams import CHUNK_SIZE, chunk_sizes, substream


def test_same_path_same_stream():
    a = substream(7, "cell", 0).random(8)
    b = substream(7, "cell", 0).random(8)
    np.testing.assert_array_equal(a, b)


def test_distinct_paths_differ():
    a = substream(7, "cell", 0).random(8)
    b = substream(7, "cell", 1).random(8)
    c = substream(7, "other", 0).random(8)
    d = substream(8, "cell", 0).random(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_string_and_int_components_mix():
    a = substream(0, "alloc", 3, "x").random(4)
    b = substream(0, "alloc", 3, "y").random(4)
    assert not np.array_equal(a, b)


def test_negative_path_component_rejected():
    with pytest.raises(ValueError):
        substream(1, -2)


def test_chunk_sizes_cover_total():
    sizes = chunk_sizes(2 * CHUNK_SIZE + 17)
    assert sizes == [CHUNK_SIZE, CHUNK_SIZE, 17]
    assert chunk_sizes(CHUNK_SIZE) == [CHUNK_SIZE]
    assert chunk_sizes(0) == []
    with pytest.raises(ValueError):
        chunk_sizes(-1)
