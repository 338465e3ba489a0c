"""The per-step seed table against numpy's SeedSequence and ``_rng``."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fedgames.harness import _rng
from fedgames.streams import SeedTable, key_words, seed_words

SRC = Path(__file__).resolve().parents[1] / "src"

# one-word seeds up to 2^32 - 1, two words from 2^32, and three from 2^64,
# more than the 4 pool words with the purpose and index, so the hash's
# extra mixing rounds run
SEEDS = [0, 1, 2**31, 2**32 - 1, 2**32, 2**64 + 5]
INDICES = 301


@pytest.mark.parametrize("purpose", [5, 72])
@pytest.mark.parametrize("seed", SEEDS)
def test_table_words_are_the_seed_sequence_state(seed, purpose):
    words = seed_words(key_words((seed, purpose), INDICES))
    assert words.shape == (INDICES, 4) and words.dtype == np.uint64
    for i in range(INDICES):
        want = np.random.SeedSequence([seed, purpose, i]).generate_state(4, np.uint64)
        np.testing.assert_array_equal(words[i], want, err_msg=f"key ({seed}, {purpose}, {i})")


# the README's six stream kinds, keyed (seed, *middle, index): the pool
# (seed, 11), the agent noise (seed, 5, g), the bank encoders (seed, 71),
# the bank noise (seed, 72, t), a spawner round (seed, 999, r) and a
# convergence Monte-Carlo path (seed, 31, p)
STREAM_KINDS = {
    "pool": ((), 11),
    "agent noise": ((5,), 40),
    "bank encoders": ((), 71),
    "bank noise": ((72,), 200),
    "spawner": ((999,), 3),
    "mean-gap path": ((31,), 19),
}


@pytest.mark.parametrize("kind", sorted(STREAM_KINDS))
@pytest.mark.parametrize("seed", SEEDS)
def test_table_generators_draw_the_keyed_streams(seed, kind):
    middle, index = STREAM_KINDS[kind]
    prefix = (seed, *middle)
    got, want = SeedTable(prefix, index + 1).rng(index), _rng(*prefix, index)
    np.testing.assert_array_equal(got.standard_normal(64), want.standard_normal(64))
    np.testing.assert_array_equal(got.random(8), want.random(8))
    # a mean-gap path fills float buffers with uniforms, step after step
    got_u, want_u = np.empty((3, 2, 6)), np.empty((3, 2, 6))
    got.random(out=got_u), want.random(out=want_u)
    np.testing.assert_array_equal(got_u, want_u)


@pytest.mark.parametrize("seed", SEEDS)
def test_mean_gap_paths_draw_the_list_keyed_streams(seed):
    # the convergence diagnostic keyed its paths as default_rng([seed, 31, p])
    table = SeedTable((seed, 31), 20)
    for p in (0, 1, 19):
        np.testing.assert_array_equal(table.rng(p).random(40), np.random.default_rng([seed, 31, p]).random(40))


def test_table_refuses_other_state_requests():
    seed_seq = SeedTable((3, 5), 1).rng(0).bit_generator.seed_seq
    np.testing.assert_array_equal(seed_seq.generate_state(4, np.uint64), seed_words(key_words((3, 5), 1))[0])
    with pytest.raises(ValueError, match="4 uint64 words"):
        seed_seq.generate_state(8, np.uint32)


def test_negative_seed_is_refused_like_the_seed_sequence():
    with pytest.raises(ValueError, match="non-negative"):
        np.random.SeedSequence([-1, 5, 0])
    with pytest.raises(ValueError, match="non-negative"):
        SeedTable((-1, 5), 3)


def test_import_leaves_numpy_random_unloaded():
    # numpy.random costs ~14 ms to import; a module-level import of it in
    # fedgames would move that from the timed run into every process's
    # start-up, which shows as set-up time and not as a speedup
    code = "import sys, fedgames.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
