"""The package's error types, each with its own CLI exit code: a rejected
value, file or state raises InputError (exit 1), and a computation that went
non-finite or failed numerically raises Divergence (exit 2)."""


class InputError(ValueError):
    pass


class Divergence(RuntimeError):
    """`epoch` is the training epoch a trainer stopped at, else None."""

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch
