"""The package's error types, each with its own CLI exit code: a rejected
value, file or state raises InputError (exit 1), and a computation that went
non-finite or failed numerically raises Divergence (exit 2). A run stage
that fails raises StageFailure (exit 2), naming the stage and its cause."""


class InputError(ValueError):
    pass


class Divergence(RuntimeError):
    pass


class StageFailure(RuntimeError):
    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause
