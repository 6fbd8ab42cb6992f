"""The Adam optimizer (Kingma & Ba), used for all FFN training in ELSI.

The paper trains every FFN with Adam at a learning rate of 0.01
(Section VII-B1); those are the defaults here.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Adam"]


class Adam:
    """Adam over a fixed list of parameter arrays (updated in place).

    An FFN is optimised as one array, its ``flat_params`` vector, so a step
    is one vector update however many layers the net has.

    Parameters
    ----------
    params:
        The arrays to optimise.  They are mutated in place by :meth:`step`
        so that the owning model sees the updates directly.
    lr, beta1, beta2, eps:
        Standard Adam hyperparameters; ``lr=0.01`` per the paper.
    """

    def __init__(
        self,
        params: list[np.ndarray],
        lr: float = 0.01,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must lie in [0, 1), got {beta1}, {beta2}")
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = [np.zeros_like(p) for p in params]
        self._v = [np.zeros_like(p) for p in params]
        # Two scratch arrays per parameter, so a step allocates nothing.
        self._scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
        self._t = 0

    def step(self, grads: list[np.ndarray]) -> None:
        """Apply one Adam update given gradients aligned with ``params``.

        Operation for operation the textbook update
        ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g``,
        ``p -= lr * m_hat / (sqrt(v_hat) + eps)``, written into scratch.
        """
        if len(grads) != len(self.params):
            raise ValueError(
                f"got {len(grads)} gradients for {len(self.params)} parameters"
            )
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for p, g, m, v, (a, s) in zip(
            self.params, grads, self._m, self._v, self._scratch
        ):
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=a)
            v *= self.beta2
            np.multiply(g, g, out=a)
            a *= 1.0 - self.beta2
            v += a
            np.divide(m, bias1, out=a)
            a *= self.lr
            np.divide(v, bias2, out=s)
            np.sqrt(s, out=s)
            s += self.eps
            a /= s
            p -= a

    def reset(self) -> None:
        """Clear the optimizer state (moments and step counter)."""
        for m in self._m:
            m.fill(0.0)
        for v in self._v:
            v.fill(0.0)
        self._t = 0
