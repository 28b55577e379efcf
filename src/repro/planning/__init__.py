"""The planning subsystem: TD(λ) Q-learning over ⟨prev, cur⟩ states."""

from repro.planning.action import PromptAction, action_space
from repro.planning.multi_routine import MultiRoutinePlanner, RoutineCluster
from repro.planning.online import OnlineAdaptation
from repro.planning.predictor import NextStepPredictor
from repro.planning.rewards_coreda import CoReDAReward
from repro.planning.state import PlanningState, episode_states
from repro.planning.store import load_predictor, save_predictor
from repro.planning.subsystem import PlanningSubsystem
from repro.planning.trainer import (
    LearningCurve,
    RoutineTrainer,
    TrainingResult,
    replay_episode,
)

__all__ = [
    "CoReDAReward",
    "LearningCurve",
    "MultiRoutinePlanner",
    "NextStepPredictor",
    "OnlineAdaptation",
    "PlanningState",
    "PlanningSubsystem",
    "PromptAction",
    "RoutineCluster",
    "RoutineTrainer",
    "TrainingResult",
    "action_space",
    "episode_states",
    "load_predictor",
    "replay_episode",
    "save_predictor",
]
