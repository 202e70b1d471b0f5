"""Ring words from raw PCG64 outputs are the words ``integers`` draws.

:class:`RingWordStream` cuts ``random_raw`` outputs into ``uint32``
halves and holds an odd trailing half itself.  Every draw must equal an
identically seeded ``Generator.integers(0, 2**32, n, dtype=uint32)``
reference, and :attr:`RingWordStream.state` must equal the reference's
``bit_generator.state`` after every draw — including across an export
into a fresh stream, which is what a snapshot and a restore do.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import RingWordStream, random_ring_elements, spawn
from repro.mpc.runtime import MPCRuntime

#: draw sizes: the empty draw, single words, odd and even runs, and the
#: tail re-share's size class
SIZES = st.one_of(
    st.sampled_from([0, 1, 2, 3]),
    st.integers(0, 64),
    st.integers(0, 100_000),
)

#: a step is a draw of that size, or (None) an export → restore into a
#: fresh stream built on an unrelated generator
STEPS = st.lists(st.one_of(SIZES, st.none()), max_size=30)


@given(STEPS, st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_draws_and_states_equal_the_integers_reference(steps, seed):
    stream = RingWordStream(spawn(seed, "words"))
    reference = spawn(seed, "words")
    assert stream.state == reference.bit_generator.state
    for step in steps:
        if step is None:
            exported = stream.state
            stream = RingWordStream(spawn(seed + 1, "elsewhere"))
            stream.state = exported
        else:
            got = stream.draw(step)
            want = random_ring_elements(reference, step)
            assert got.dtype == np.uint32 and got.shape == (step,)
            assert np.array_equal(got, want)
        assert stream.state == reference.bit_generator.state


def test_state_dict_is_a_copy():
    """Reading the state hands out a fresh dict; editing it changes nothing."""
    stream = RingWordStream(spawn(1, "words"))
    stream.draw(3)
    state = stream.state
    state["uinteger"] = 0
    state["has_uint32"] = 0
    assert stream.state["has_uint32"] == 1
    assert stream.draw(1)[0] == RingWordStream(spawn(1, "words")).draw(4)[3]


def test_draws_are_fresh_writable_buffers():
    """Callers XOR into a draw in place; no draw may alias another or the
    held half-word."""
    stream = RingWordStream(spawn(2, "words"))
    reference = spawn(2, "words")
    first = stream.draw(5)  # holds a half
    first ^= np.uint32(0xFFFFFFFF)
    second = stream.draw(4)  # starts with the held half
    assert np.array_equal(second, random_ring_elements(reference, 9)[5:])
    assert first.flags.writeable and second.flags.writeable


def test_runtime_streams_continue_across_export():
    """The runtime's three streams, exported mid-stream with a half held,
    continue in a fresh runtime exactly as in the original."""
    a, b = MPCRuntime(seed=4), MPCRuntime(seed=77)
    with a.protocol("p") as ctx:
        ctx.joint_uniform_u32(3)
    a.owner_words.draw(7)
    held = [w.state["has_uint32"] for w in (a.server0.words, a.owner_words)]
    assert held == [1, 1]
    b.server0.words.state = a.server0.words.state
    b.server1.words.state = a.server1.words.state
    b.owner_words.state = a.owner_words.state
    with a.protocol("p") as ca, b.protocol("p") as cb:
        assert np.array_equal(ca.joint_uniform_u32(5), cb.joint_uniform_u32(5))
    assert np.array_equal(a.owner_words.draw(6), b.owner_words.draw(6))
