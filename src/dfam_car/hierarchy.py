"""Hierarchical three-state recognizer: gate on motion, branch on context,
then run concurrent-distraction recognition.

S1 watches for a moving pedestrian using a binary moving/not-moving model.
S2 consults the smartphone-in-use context flag: if set, a smartphone
distraction is reported straight away and the flow returns to S1; otherwise
S3 runs a binary distracted/not-distracted model on every window until the
periodic reset pulls the machine back to S1. Classification happens only in
the state that owns it, so the S3 (watch-heavy) model runs on a fraction of
the stream; the number of S3 invocations doubles as the energy proxy for
how often the watch channels had to be processed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .dfam import DfamModel, classify, extract_signature
from .errors import ConfigError
from .signals import Spectrum

S1, S2, S3 = "S1", "S2", "S3"

MOVING_LABEL = "moving"
NOT_MOVING_LABEL = "not_moving"
DISTRACTED_LABEL = "distracted"
NOT_DISTRACTED_LABEL = "not_distracted"

EVENT_SMARTPHONE = "smartphone_distraction"
EVENT_MOTION = "non_smartphone_distraction"

DEFAULT_RESET_PERIOD = 30


@dataclass(frozen=True)
class HierarchicalState:
    state: str = S1
    windows_since_reset: int = 0
    reset_period: int = DEFAULT_RESET_PERIOD

    def __post_init__(self):
        if self.state not in (S1, S2, S3):
            raise ConfigError(f"unknown state {self.state!r}")
        if self.reset_period < 1:
            raise ConfigError("reset_period must be >= 1")


@dataclass(frozen=True)
class DistractionEvent:
    window_index: int
    state: str
    event_type: str
    label: str
    score: float

    def to_dict(self) -> dict:
        return {
            "window_index": self.window_index,
            "state": self.state,
            "event_type": self.event_type,
            "label": self.label,
            "score": self.score,
        }


def _require_binary(model: DfamModel | None, expected: set[str], state: str) -> None:
    if model is None:
        raise ConfigError(f"state {state} requires a trained model")
    if set(model.labels) != expected:
        raise ConfigError(
            f"state {state} model must expose exactly the labels {sorted(expected)}, "
            f"got {list(model.labels)}"
        )


def _classify(spectra: Sequence[Spectrum], axes: tuple[int, ...] | None, model: DfamModel):
    pick = spectra if axes is None else [spectra[i] for i in axes]
    return classify(extract_signature(pick, model.layout), model)


class HierarchicalCar:
    """The state machine over one stream, with its counters and event log.

    Both models are checked once, here. One instance per stream; not shared
    across threads.
    """

    def __init__(
        self,
        s1_model: DfamModel,
        s3_model: DfamModel,
        reset_period: int = DEFAULT_RESET_PERIOD,
        s1_axes: Sequence[int] | None = None,
        s3_axes: Sequence[int] | None = None,
    ):
        _require_binary(s1_model, {MOVING_LABEL, NOT_MOVING_LABEL}, S1)
        _require_binary(s3_model, {DISTRACTED_LABEL, NOT_DISTRACTED_LABEL}, S3)
        self.s1_model = s1_model
        self.s3_model = s3_model
        self.s1_axes = tuple(s1_axes) if s1_axes is not None else None
        self.s3_axes = tuple(s3_axes) if s3_axes is not None else None
        self.state = HierarchicalState(S1, 0, reset_period)
        self.s1_invocations = 0
        self.s3_invocations = 0
        self.events: list[DistractionEvent] = []
        self.trace: list[str] = []
        self._window_index = 0

    @property
    def watch_windows_processed(self) -> int:
        # the watch sleeps outside S3, so its channels are touched once per S3 step
        return self.s3_invocations

    def process(
        self, spectra: Sequence[Spectrum], smartphone_in_use: bool = False
    ) -> DistractionEvent | None:
        """Process one window in the current state and advance the machine.

        The reset counter ticks on every window; when it reaches the period the
        machine returns to S1 unconditionally, overriding the computed move.
        """
        state, i = self.state, self._window_index
        self.trace.append(state.state)
        event = None
        if state.state == S1:
            self.s1_invocations += 1
            moving = _classify(spectra, self.s1_axes, self.s1_model).label == MOVING_LABEL
            next_state = S2 if moving else S1
        elif state.state == S2:
            if smartphone_in_use:
                event = DistractionEvent(i, S2, EVENT_SMARTPHONE, "using_smartphone", 1.0)
                next_state = S1
            else:
                next_state = S3
        else:
            self.s3_invocations += 1
            label, scores, _ = _classify(spectra, self.s3_axes, self.s3_model)
            if label == DISTRACTED_LABEL:
                event = DistractionEvent(i, S3, EVENT_MOTION, label, scores[label])
            next_state = S3
        ticks = state.windows_since_reset + 1
        if ticks >= state.reset_period:
            next_state, ticks = S1, 0
        self.state = HierarchicalState(next_state, ticks, state.reset_period)
        self._window_index += 1
        if event is not None:
            self.events.append(event)
        return event

    def run(
        self, stream: Sequence[tuple[Sequence[Spectrum], bool]]
    ) -> list[DistractionEvent]:
        for spectra, flag in stream:
            self.process(spectra, flag)
        return self.events


def write_events_jsonl(events: Sequence[DistractionEvent], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for ev in events:
            fh.write(json.dumps(ev.to_dict(), sort_keys=True) + "\n")
