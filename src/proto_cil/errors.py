"""The package's two error types: a rejected value, file or state raises
InputError, and a trainer whose loss or weights go non-finite raises
Divergence."""


class InputError(ValueError):
    pass


class Divergence(RuntimeError):
    def __init__(self, what, epoch):
        super().__init__(f"non-finite {what} at epoch {epoch}")
        self.epoch = epoch
