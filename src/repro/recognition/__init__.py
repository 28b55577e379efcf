"""Probabilistic recognition over usage streams (HMM substrate).

The paper's related work [2] infers activities from object
interactions with probabilistic models.  CoReDA knows each
deployment's ADL from its tools' node uids, so the one use here is
repairing gappy training logs against a known routine: a discrete
HMM with Viterbi decoding, and the repairer built on it.
"""

from repro.recognition.hmm import DiscreteHMM
from repro.recognition.repair import EpisodeRepairer

__all__ = [
    "DiscreteHMM",
    "EpisodeRepairer",
]
