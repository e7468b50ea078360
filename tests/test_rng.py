import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wlab.rng import first_doubles, stream_key, substream


def test_same_inputs_same_stream():
    a = substream(7, "coeff", 3).random(10)
    b = substream(7, "coeff", 3).random(10)
    assert np.array_equal(a, b)


def test_different_paths_differ():
    a = substream(7, "coeff", 3).random(4)
    b = substream(7, "coeff", 4).random(4)
    c = substream(8, "coeff", 3).random(4)
    d = substream(7, "energy", 3).random(4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_negative_and_large_seeds():
    assert substream(-1, "x").random() != substream(1, "x").random()
    substream(2 ** 63 + 5, "x").random()  # must not raise


def test_stream_key_stable():
    # frozen: the key derivation is part of the reproducibility contract
    assert stream_key("coeff", 0) == stream_key("coeff", 0)
    assert stream_key("coeff", 0) != stream_key("coeff", 1)


def test_path_components_typed():
    with pytest.raises(TypeError):
        stream_key(1.5)
    with pytest.raises(TypeError):
        stream_key(True)


@given(seed=st.integers(-(2 ** 64), 2 ** 65), label=st.sampled_from(["coeff", "char_mc", ""]),
       count=st.integers(0, 40))
@settings(max_examples=40, deadline=None)
@example(seed=0, label="coeff", count=96)
@example(seed=2 ** 63, label="coeff", count=8)
@example(seed=2 ** 64 - 1, label="coeff", count=8)
@example(seed=-5, label="coeff", count=8)
@example(seed=-(2 ** 63), label="coeff", count=8)
def test_first_doubles_are_the_first_draws_of_their_substreams(seed, label, count):
    # one re-keyed Philox, and keys cached per (label, n), must give the
    # first double of every fresh substream; a second call reads the cache
    want = [substream(seed, label, n).random() for n in range(count)]
    assert first_doubles(seed, label, count) == want
    assert first_doubles(seed, label, count) == want


def test_first_doubles_label_typed():
    # the key cache is typed, so True does not stand in for 1: it raises
    # as stream_key(True) does, after 1 has been cached
    first_doubles(3, 1, 2)
    for label in (True, 1.5):
        with pytest.raises(TypeError):
            first_doubles(3, label, 2)
