"""Exception types shared across the package."""


class InsufficientDataError(ValueError):
    """Not enough samples to estimate the requested statistic."""


class IngestionError(RuntimeError):
    """A dataset file is missing, truncated, or malformed."""


class TrainingDivergedError(RuntimeError):
    """A loss, activation, gradient or logit became non-finite in training."""

    def __init__(self, step: int, temperature: float, stage: str, detail: str):
        self.step, self.temperature, self.stage = step, temperature, stage
        super().__init__(f"training diverged at step {step} (temperature "
                         f"{temperature:.6g}, {stage}): {detail}")
