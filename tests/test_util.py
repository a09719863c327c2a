import numpy as np
import pytest

from markovdetect.util import seed_state, spawn_draws, spawn_rng, spawn_uniforms

PREFIXES = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3, 2 ** 70]
KEYS = np.array([0, 1, 2 ** 32 - 1])


def _stream(rng):
    return rng.bit_generator.state, rng.random(3).tolist(), rng.integers(0, 2 ** 63, 2).tolist()


@pytest.mark.parametrize("prefix", [(p,) for p in PREFIXES] + [(p, 20) for p in PREFIXES])
def test_spawn_draws_are_the_streams_of_spawn_rng(prefix):
    """Each batched row has the generator state and the draws of its own
    ``spawn_rng``, with the batched key last or first."""
    want = [_stream(spawn_rng(*prefix, int(k))) for k in KEYS]
    assert spawn_draws(_stream, *prefix, KEYS) == want
    want = [_stream(spawn_rng(int(k), *prefix)) for k in KEYS]
    assert spawn_draws(_stream, KEYS, *prefix) == want
    words = [np.random.SeedSequence([*prefix, int(k)]).generate_state(5) for k in KEYS]
    assert np.array_equal(seed_state(*prefix, KEYS, words=5), np.array(words))


@pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 40 + 3])
@pytest.mark.parametrize("draws", [1, 7])
def test_spawn_uniforms_are_the_uniforms_of_spawn_rng(seed, draws):
    """Row i holds ``spawn_rng(seed_i, *key_i).random(draws)`` bit for bit,
    with the batched key last or first, and a batch of one row."""
    want = np.array([spawn_rng(seed, 34, int(k)).random(draws) for k in KEYS])
    assert np.array_equal(spawn_uniforms(draws, seed, 34, KEYS), want)
    want = np.array([spawn_rng(int(k), seed).random(draws) for k in KEYS])
    assert np.array_equal(spawn_uniforms(draws, KEYS, seed), want)
    assert np.array_equal(spawn_uniforms(draws, seed, 34),
                          spawn_rng(seed, 34).random(draws)[None])


def test_spawn_uniforms_over_many_keys():
    """A thousand rows, as the bootstrap experiment draws: their 3,000
    outputs rotate by each of the 64 sizes."""
    keys = np.arange(1000)
    want = np.array([spawn_rng(7, int(k), 0).random(3) for k in keys])
    assert np.array_equal(spawn_uniforms(3, 7, keys, 0), want)


@pytest.mark.parametrize("keys", [np.array([0, -1]), np.array([2 ** 32])])
def test_batched_keys_outside_one_word_raise(keys):
    with pytest.raises(ValueError, match="2\\*\\*32"):
        spawn_draws(_stream, 0, 20, keys)


def test_negative_seed_raises():
    with pytest.raises(ValueError, match="non-negative"):
        spawn_draws(_stream, -1, 20, KEYS)
    with pytest.raises(ValueError, match="non-negative"):
        seed_state(0, -3, KEYS, words=1)
