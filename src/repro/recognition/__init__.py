"""Probabilistic recognition over usage streams (HMM substrate).

The paper's related work [2] infers activities from object
interactions with probabilistic models; this package provides that
capability on CoReDA's usage streams: a generic discrete HMM,
gappy-log repair against a known routine, and multi-ADL stream
classification.
"""

from repro.recognition.hmm import DiscreteHMM
from repro.recognition.recognizer import ActivityRecognizer
from repro.recognition.repair import EpisodeRepairer

__all__ = [
    "ActivityRecognizer",
    "DiscreteHMM",
    "EpisodeRepairer",
]
