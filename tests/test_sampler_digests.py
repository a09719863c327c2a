"""Pinned sha256 digests of every sampler that draws through the shared
inverse-CDF rule: :func:`sample`, :func:`hmm_sample`,
:func:`hmm_sample_windows`, :meth:`ChainWalk.windows` and the Monte Carlo
engines of :func:`np_threshold`, :func:`miss_probability` and
:func:`bayes_error` (streams 10, 11 and 12).  A change to the draw, the walk
or the order in which the statistics are summed that moves one bit of any
output fails here."""
import hashlib
import json

import numpy as np
import pytest

from markovdetect import markov
from markovdetect.corpus import Alphabet, TokenSeq
from markovdetect.hypotest import _WalkEngine, bayes_error, miss_probability, np_threshold
from markovdetect.markov import (ChainWalk, HiddenMarkovSource, fit_empirical, hmm_sample,
                                 hmm_sample_windows, sample)

TRIALS = 1000
SEED = 7


def _alphabet(a):
    return Alphabet(tuple(f"s{i}" for i in range(a)))


def _fits():
    """Seeded fits of orders 0-2: two smoothed 5-symbol texts, one unsmoothed
    5-symbol text that repeats its opening so every context has a row (rows
    with zero-mass columns), and a smoothed 17-symbol text."""
    rng = np.random.default_rng(2026)
    texts = [rng.choice(5, 6000, p=rng.dirichlet(np.full(5, 5.0))) for _ in range(2)]
    cyclic = np.concatenate([np.arange(5), rng.choice(5, 60, p=[0.5, 0.3, 0.1, 0.1, 0.0])])
    cyclic = np.concatenate([cyclic, cyclic[:2]])
    wide = rng.choice(17, 30_000, p=rng.dirichlet(np.full(17, 5.0)))
    fits = {}
    for k in range(3):
        fits[f"p{k}"] = fit_empirical(TokenSeq(texts[0]), k, _alphabet(5), smoothing=0.05)
        fits[f"q{k}"] = fit_empirical(TokenSeq(texts[1]), k, _alphabet(5), smoothing=0.05)
        fits[f"zeros{k}"] = fit_empirical(TokenSeq(cyclic), k, _alphabet(5))
    fits["wide_p2"] = fit_empirical(TokenSeq(wide), 2, _alphabet(17), smoothing=0.01)
    fits["wide_q2"] = fit_empirical(TokenSeq(wide), 2, _alphabet(17), smoothing=0.5)
    return fits


def _sources():
    rng = np.random.default_rng(2027)
    return {
        "sticky2": HiddenMarkovSource.with_stationary_start(
            np.array([[0.9, 0.1], [0.2, 0.8]]), np.array([[0.8, 0.2], [0.3, 0.7]])),
        "dirichlet3x4": HiddenMarkovSource.with_stationary_start(
            rng.dirichlet(np.ones(3), size=3), rng.dirichlet(np.full(4, 0.5), size=3)),
    }


# the zeros pairs score -inf steps and read contexts one model has no row for
_PAIRS = [("p0", "q0"), ("p1", "q1"), ("p2", "q2"), ("p0", "q2"), ("p2", "q1"),
          ("p1", "q2"), ("zeros2", "p2"), ("p2", "zeros1"), ("zeros2", "zeros1"),
          ("wide_p2", "wide_q2")]


def _digest(*values) -> str:
    h = hashlib.sha256()
    for value in values:
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(json.dumps(value, sort_keys=True).encode())
    return h.hexdigest()


def sampler_digests() -> dict[str, str]:
    fits, out = _fits(), {}
    for name, model in fits.items():
        out[f"sample {name}"] = _digest(sample(model, 400, seed=3).tokens)
        width = 9
        u = np.random.default_rng(4).random((300, 1 + width - model.order))
        out[f"windows {name}"] = _digest(ChainWalk.of(model).windows(width, u))
    for name, source in _sources().items():
        out[f"hmm_sample {name}"] = _digest(hmm_sample(source, 500, seed=5).tokens)
        out[f"hmm_sample_windows {name}"] = _digest(hmm_sample_windows(source, 300, 6, seed=6))
    for p_name, q_name in _PAIRS:
        p, q, n = fits[p_name], fits[q_name], 30
        engine = _WalkEngine(p, q, n, 0.05, TRIALS, SEED, 0)
        t_p = TRIALS // 4
        stats = [engine.draw(p, TRIALS, 10, 0), engine.draw(q, TRIALS, 11, 0),
                 engine.draw(p, t_p, 12, 0), engine.draw(q, TRIALS - t_p, 12, 1)]
        threshold = np_threshold(p, q, n, 0.05, TRIALS, SEED, method="mc")
        miss = miss_probability(p, q, n, threshold, TRIALS, SEED, 0.05, method="mc")
        bayes = bayes_error(p, q, n, 0.25, TRIALS, SEED, method="mc")
        out[f"mc {p_name}/{q_name}"] = _digest(*stats, threshold, miss.to_json(),
                                                bayes.to_json())
    return out


# recorded from an earlier implementation of the draw and the walk, so that
# these outputs are checked against a reference independent of the code
PINNED = {
    'sample p0': '1e48e95fe5e1ac453560baa7ebd214bcd12c80bd1dddf4e9c21dbd242ea6679c',
    'windows p0': 'a3b102f96265d083c3812c633f5f783c0af8266bbc9be01fe1150a75abe542af',
    'sample q0': '2900fb337eac8d788005b6b5b3019565ea4db8c9087974ae35b3b137e404095d',
    'windows q0': 'e428998c87ab329492c726a79a4c678cc67976fa6049d73d60b1fe4d6e5787cf',
    'sample zeros0': '3bf93cc7805f0fec2b4a479cf05c4d5493990df5f78fdb1173e8e5e27ddee6de',
    'windows zeros0': '501f5634acdb493dee369beb1602c9af93e057019c0e0d9dcb576fdfb9dccac5',
    'sample p1': 'd3377f91c6db3872b16bda50a75ff3b6a871e2ec295f22e89b797bf0e83e6095',
    'windows p1': 'a8486330fd760d6c09ca1cb866f94b9e7c94644eaf664861c0d8da1aa95808f7',
    'sample q1': 'd94d35fa9d76e3d03109e9a5282cd16959da4a4c214a0806d0114b59239a2c1d',
    'windows q1': '031cd36d2a2897171bca6d96214630d361fff93285ad5a44d4856cb6e1bbca32',
    'sample zeros1': '8e3b945e33975dbee3389a9866270dde1cc9426ef4376d3f6a2611facd59dc49',
    'windows zeros1': '6427204400c0f3f611f063a98e3988f918029a95fe94feefaa41e4d369faf8b8',
    'sample p2': 'd927d642dc2d424c9199419b99a67769e421149e9af4e547df8926229abff934',
    'windows p2': 'c84f3a50efd4b7f37eef6d818feff21fc98a8e4503bdce5aabcb52c29b78a520',
    'sample q2': '93ef7238e87d18a40fb5d8e4ae3d327856e8a19512f14a6d4319a426202b9a41',
    'windows q2': '2e5c09189fd824b0b4ecc952ee2ba8d32e6231dcecebbb256f1247c9010d64f7',
    'sample zeros2': '0ab04c3f095aff44e01fb38c4a56aaa9b468475e262e6e23d914471c1be8b84d',
    'windows zeros2': '3ae463fff1141966ade7dc0e0e33f71dfee09de1b561696f35acf5f5eb486afd',
    'sample wide_p2': 'fae007f3e03e18aa147b214e415a3e235b903bd52c836b414661c1f62a15ca9c',
    'windows wide_p2': '4180918bab4292f12a04f22de22a4c0df72187093ef626624894af28b9131a1a',
    'sample wide_q2': '1bcfdb626a0f4e0214df045d81f7b1daa526e65d98ecf776125449a93845a7dc',
    'windows wide_q2': '0218d5c7a4ae60c0af98fd04a9cb68eb0078809fa6415ea590afcdef48f94be1',
    'hmm_sample sticky2': '5f532f78c3d1024a5819a748b4f4ac273bbe852adbd0efbbedd6499a00b9d6c9',
    'hmm_sample_windows sticky2': 'f46f6fe443ac2a6916141dd4700cdb4564f856b5b626cee216880516ff0d1643',
    'hmm_sample dirichlet3x4': 'c850f1c652348214558dc951bc4e0c98ab60d7a6be292e0c81582f7f4f1565ca',
    'hmm_sample_windows dirichlet3x4': 'caa844b04940867df356a9c87a4f8af3a133270866ecbfa04d9285beab40bfd9',
    'mc p0/q0': 'f59003617ba8ce2cd0ed1248e769767b1f5d0ca542ff5f45bda7589383d1031f',
    'mc p1/q1': '29f4f85ee6f6884dfd90e61fe7169de2d5d98c9695c47b4dcddacce65369cde9',
    'mc p2/q2': '7952ce8b7ea29919b45b9a46d95d9151aa7c0df12bc1c8ec25ab5a51cff0cd74',
    'mc p0/q2': '2428130733ddbc5bfced7a44255c6c1cdd2524f76d8374136bbf6cef36009fc9',
    'mc p2/q1': '95103a8d4ba0b7bbec93ce7ee3091563389c38093f5f468ac91078d712438c87',
    'mc p1/q2': '1c302fd56823b1deb2a41eefc3a018f52a34b99366b2794f7d6cedbbfb5d7e00',
    'mc zeros2/p2': '16d5ed508513ac4d01848d467bd61957ffd7e320fbd61e329eded5b1684f8ea1',
    'mc p2/zeros1': '9b29fdaf2d7d2d42c1a45c7dd115e6a1152fc24a3cfeded660d96b14df061192',
    'mc zeros2/zeros1': 'dabbb44b407867c10331d4ba5124c4b638170bbf54a4c552d3a0d0fbd728c485',
    'mc wide_p2/wide_q2': '56cb7a5c18ce205eb6dfa7852b20d77fa5afc947687c5f458aec5deb7e7fedc1',
}


@pytest.mark.filterwarnings("ignore::markovdetect.errors.DegenerateStatisticWarning")
@pytest.mark.parametrize("guide_cap", [markov.GUIDE_CELL_CAP, 1])
def test_sampler_outputs_match_pinned_digests(monkeypatch, guide_cap):
    """Every sampler's output is pinned bit for bit, at the default guide
    size and with the guide shrunk to one cell a row."""
    monkeypatch.setattr(markov, "GUIDE_CELL_CAP", guide_cap)
    got = sampler_digests()
    assert sorted(got) == sorted(PINNED)
    assert {name: got[name] for name in got if got[name] != PINNED[name]} == {}
