"""Hypothesis-testing toolkit for telling authentic text from language-model output.

The package is organized bottom-up:

- :mod:`markovdetect.corpus` — tokenization and window counting;
- :mod:`markovdetect.markov` — Markov models, empirical fits, hidden-Markov
  sources, sampling and scoring;
- :mod:`markovdetect.infometrics` — entropies, divergences, divergence rates,
  and continuity profiles of sources;
- :mod:`markovdetect.transport` — exact per-letter transport distances, each
  one certified min-cost flow: on the Hamming graph of the word cube, by
  enumerated spanning-tree flows on the smallest cubes and HiGHS on the
  others, or by HiGHS on the bipartite graph of supports that do not embed
  in a cube;
- :mod:`markovdetect.hypotest` — calibrated likelihood-ratio tests, miss
  probabilities, error-exponent fits, Bayes error;
- :mod:`markovdetect.bounds_lab` — bound evaluation and inequality probes on
  synthetic sources;
- :mod:`markovdetect.cli` — the ``markovdetect`` command.
"""
from .corpus import Alphabet, TokenSeq, count_windows, tokenize
from .hypotest import (
    BayesErrorEstimate,
    ExponentFit,
    TestOutcome,
    bayes_error,
    class_statistic,
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
    "Alphabet", "TokenSeq", "count_windows", "tokenize",
    "BayesErrorEstimate", "ExponentFit", "TestOutcome", "bayes_error", "class_statistic",
    "exponent_fit", "lrt_statistic", "miss_probability", "np_threshold",
    "ContinuityProfile", "chernoff", "cross_entropy", "entropy", "estimate_profile",
    "kl", "kl_rate", "perplexity", "perplexity_ratio",
    "HiddenMarkovSource", "MarkovModel", "chain_model", "fit_empirical", "iid_model",
    "log_likelihood", "sample", "stationary",
    "Coupling", "dbar_between", "dbar_empirical", "dbar_exact", "l1_distance", "tv",
    "__version__",
]
