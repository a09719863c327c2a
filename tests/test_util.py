import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovdetect.util import dump_json, seed_state, spawn_draws, spawn_rng, spawn_uniforms

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


# -- dump_json against its oracle, json.dumps(obj, sort_keys=True, indent=2) --

_TRICKY_TEXT = ['"', "\\", "\x00\x1f\n\t", "é☃\U0001f600", "%s %% %(x)s", "", "\ud800"]
_KEYS = st.one_of(st.text(max_size=4), st.sampled_from(_TRICKY_TEXT))
_EDGE_NUMBERS = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 2 ** 64 + 1, -(2 ** 70)]
# scalars whose lists one exact type makes a fast column, then everything else
_COLUMNS = [st.floats(allow_nan=False, allow_infinity=False), st.integers(),
            st.text(), _KEYS, st.booleans(), st.none()]
_SCALARS = st.one_of(*_COLUMNS, st.floats(), st.sampled_from(_EDGE_NUMBERS),
                     st.floats(allow_nan=False).map(np.float64))


@st.composite
def _records(draw):
    """A list of flat dicts over one key set, one column type per key; with
    a row whose key set differs, or a row holding another type, at times."""
    keys = draw(st.lists(_KEYS, unique=True, max_size=4))
    columns = {key: draw(st.sampled_from(_COLUMNS + [_SCALARS])) for key in keys}
    rows = [{key: draw(columns[key]) for key in keys}
            for _ in range(draw(st.integers(1, 5)))]
    flaw = draw(st.sampled_from(["none", "none", "extra key", "missing key", "other type"]))
    row = rows[draw(st.integers(0, len(rows) - 1))]
    if flaw == "extra key":
        row[draw(_KEYS)] = draw(_SCALARS)
    elif flaw == "missing key" and keys:
        del row[keys[0]]
    elif flaw == "other type" and keys:
        row[keys[-1]] = draw(_SCALARS)
    return rows


_LISTS = st.one_of(*(st.lists(column, max_size=6)
                     for column in [*_COLUMNS, st.floats(), st.sampled_from(_EDGE_NUMBERS)]),
                   _records())
_VALUES = st.recursive(
    st.one_of(_SCALARS, _LISTS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=5),
        st.dictionaries(st.one_of(st.integers(), st.floats(), st.booleans(), st.none()),
                        inner, max_size=3),
    ),
    max_leaves=30,
)
# shaped like the artifacts: dicts of scalars, lists and dicts, so that the
# fast paths are reached more often than in the values above
_ARTIFACTS = st.recursive(st.one_of(_SCALARS, _LISTS),
                          lambda inner: st.dictionaries(_KEYS, inner, max_size=5),
                          max_leaves=20)


def _dump(path, obj):
    """The file text ``dump_json`` writes, or the type and message it raises."""
    try:
        dump_json(path, obj)
    except TypeError as exc:
        return "TypeError", str(exc)
    return path.read_text()


def _oracle(obj):
    try:
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    except TypeError as exc:
        return "TypeError", str(exc)


@settings(max_examples=400, deadline=None)
@given(obj=st.one_of(_VALUES, _ARTIFACTS))
def test_dump_json_writes_the_bytes_of_json_dumps(tmp_path_factory, obj):
    path = tmp_path_factory.getbasetemp() / "dump_json_oracle.json"
    assert _dump(path, obj) == _oracle(obj)


@pytest.mark.parametrize("obj", [
    {"points": [{"a": 1.5, "b%": 2}, {"a": 2.5, "b%": 3}], "nested": {"deep": [[1], [2.0]]}},
    {"argmax": {"mu": [0.25, float("inf")], "nu": [float("nan")], "index": 3}},
    {"rows": [{}, {}], "empty": [[], {}, ()]},
    {"x": [{"k": np.float64(1.0)}], "y": {"z": {"w": [1, True]}}},
    [{"b": "x\ny", "a": -0.0}, {"a": 5e-324, "b": "%s"}],
    {"records": [{"a": 1}, {"a": 2, "b": 3}], "column": list(range(3))},
    {"ragged": [{"a": 1}, {"b": 1}]},
    ({"a": (1, 2)}, [None, None], [True, False]),
])
def test_dump_json_on_every_path(tmp_path, obj):
    """Fast columns and records, a dict written whole because it holds a
    list of lists, nested dicts re-indented, and records whose key sets or
    column types differ."""
    assert _dump(tmp_path / "out.json", obj) == _oracle(obj)


@pytest.mark.parametrize("obj", [
    {"a": [1, 2], "b": np.int64(3)},
    {"a": {"b": [np.int64(3)]}},
    {"a": {1: 2, "b": 3}},
    [{"a": 1.0}, {"a": np.int64(1)}],
])
def test_dump_json_raises_the_type_errors_of_json_dumps(tmp_path, obj):
    """A value json cannot write, and keys that sort_keys cannot order."""
    got = _dump(tmp_path / "out.json", obj)
    assert got[0] == "TypeError"
    assert got == _oracle(obj)


def test_dump_json_names_a_cycle_as_json_dumps_does(tmp_path):
    obj = {"a": [1.0]}
    obj["b"] = {"self": obj}
    with pytest.raises(ValueError, match="Circular reference detected"):
        dump_json(tmp_path / "out.json", obj)
