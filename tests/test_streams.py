import hashlib
import re

import numpy as np
import pytest

from twoarm.streams import BLOCK_ELEMENTS, CHUNK_SIZE, chunks, row_blocks, substream


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


@pytest.mark.parametrize(
    "part",
    [2.5, None, np.float64(1.0), np.bool_(True), True, False, b"cell"],
    ids=["float", "None", "np.float64", "np.bool_", "True", "False", "bytes"],
)
def test_path_parts_other_than_str_and_int_rejected(part):
    # a bool is not the integer it equals: True must not give stream 1
    with pytest.raises(ValueError, match="stream path parts must be .*got " + re.escape(repr(part))):
        substream(1, "cell", part)


def test_numpy_integer_parts_give_the_python_int_stream():
    want = substream(1, "cell", 3).random(4)
    for part in (np.int64(3), np.uint8(3)):
        np.testing.assert_array_equal(substream(1, "cell", part).random(4), want)


def _python_int_words(part):
    """A path part as the Python ints SeedSequence was once given."""
    if isinstance(part, int):
        return [part]
    digest = hashlib.sha256(part.encode("utf-8")).digest()
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 32, 4)]


@pytest.mark.parametrize("path", [(), ("cell", 0), (2**32, "role"), (0, 2**40 + 3, "x", 2**64)])
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5])
def test_uint32_words_give_the_python_int_entropy_pool(seed, path):
    # the uint32 words split as numpy splits a Python int, so the state
    # and every spawned child equal those of the list of Python ints
    words = [seed] + [w for part in path for w in _python_int_words(part)]
    got = substream(seed, *path)
    want = np.random.default_rng(np.random.SeedSequence(words))
    assert got.bit_generator.state == want.bit_generator.state
    for a, b in zip(got.spawn(40), want.spawn(40)):
        np.testing.assert_array_equal(a.permutation(96), b.permutation(96))


def test_chunks_cover_total():
    c = CHUNK_SIZE
    assert chunks(2 * c + 17) == [slice(0, c), slice(c, 2 * c), slice(2 * c, 2 * c + 17)]
    assert chunks(c) == [slice(0, c)]
    assert chunks(0) == []
    with pytest.raises(ValueError):
        chunks(-1)


@pytest.mark.parametrize(
    "n_rows, width",
    [(0, 96), (1, 96), (682, 96), (8192, 96), (5, 0), (3, BLOCK_ELEMENTS + 1)],
)
def test_row_blocks_cover_the_rows_in_order(n_rows, width):
    blocks = row_blocks(n_rows, width)
    step = max(1, BLOCK_ELEMENTS // max(1, width))
    assert [s.start for s in blocks] == list(range(0, n_rows, step))
    assert all(s.stop - s.start == step for s in blocks[:-1])
    assert (blocks[-1].stop if blocks else 0) == n_rows
