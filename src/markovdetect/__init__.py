"""Hypothesis-testing toolkit for telling authentic text from language-model output.

The package is organized bottom-up:

- :mod:`markovdetect.corpus` — tokenization and n-gram counting;
- :mod:`markovdetect.markov` — Markov models, empirical fits, hidden-Markov
  sources, sampling and scoring;
- :mod:`markovdetect.infometrics` — entropies, divergences, divergence rates,
  and continuity profiles of sources;
- :mod:`markovdetect.transport` — exact per-letter transport distances via a
  min-cost flow on the Hamming graph or a transportation simplex, both with
  dual certificates;
- :mod:`markovdetect.hypotest` — calibrated likelihood-ratio tests, miss
  probabilities, error-exponent fits, Bayes error;
- :mod:`markovdetect.bounds_lab` — bound evaluation and inequality probes on
  synthetic sources;
- :mod:`markovdetect.cli` — the ``markovdetect`` command.
"""
from .corpus import Alphabet, NgramCounts, TokenSeq, count_ngrams, count_windows, tokenize
from .hypotest import (
    BayesErrorEstimate,
    ExponentFit,
    TestOutcome,
    bayes_error,
    exponent_fit,
    lrt_statistic,
    miss_probability,
    np_threshold,
)
from .infometrics import (
    ContinuityProfile,
    chernoff,
    cross_entropy,
    entropy,
    estimate_profile,
    kl,
    kl_rate,
    perplexity,
    perplexity_ratio,
)
from .markov import (
    HiddenMarkovSource,
    MarkovModel,
    chain_model,
    fit_empirical,
    iid_model,
    log_likelihood,
    sample,
    stationary,
)
from .transport import Coupling, dbar_between, dbar_empirical, dbar_exact, l1_distance, tv

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "NgramCounts", "TokenSeq", "count_ngrams", "count_windows", "tokenize",
    "BayesErrorEstimate", "ExponentFit", "TestOutcome", "bayes_error", "exponent_fit",
    "lrt_statistic", "miss_probability", "np_threshold",
    "ContinuityProfile", "chernoff", "cross_entropy", "entropy", "estimate_profile",
    "kl", "kl_rate", "perplexity", "perplexity_ratio",
    "HiddenMarkovSource", "MarkovModel", "chain_model", "fit_empirical", "iid_model",
    "log_likelihood", "sample", "stationary",
    "Coupling", "dbar_between", "dbar_empirical", "dbar_exact", "l1_distance", "tv",
    "__version__",
]
