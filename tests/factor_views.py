"""Dense views of a `PrototypeState`'s factor that only tests need: the root
R = diag(s) Vt and the Gram G = R^T R of every row accumulated so far."""


def root(state):
    return state.s[:, None] * state.Vt


def gram(state):
    R = root(state)
    return R.T @ R
