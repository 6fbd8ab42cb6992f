"""Deep Q-network used by ELSI's RL index-building method (Section V-B2).

The RL method formulates training-set search as an MDP whose state is a
binary occupancy vector over an ``eta**d`` grid and whose actions toggle one
cell.  This module provides the generic DQN machinery: a replay buffer and
an agent with an epsilon-greedy policy, a target network, and periodic
training on recent transitions (the paper trains "after every five steps"
on the last ``alpha`` records in memory).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.adam import Adam
from repro.ml.ffn import FFN

__all__ = ["DQNAgent", "DQNConfig", "ReplayBuffer", "Transition"]


@dataclass(frozen=True)
class Transition:
    """One (s, a, r, s') record."""

    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray


class ReplayBuffer:
    """A bounded FIFO of transitions with recency-biased sampling.

    The paper trains the DQN on "recent state transition and reward records
    in memory"; :meth:`sample_recent` returns the most recent ``k`` records,
    while :meth:`sample` draws uniformly for conventional experience replay.
    """

    def __init__(self, capacity: int = 10_000, seed: int = 0) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._items: list[Transition] = []
        self._cursor = 0
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        return len(self._items)

    def push(self, transition: Transition) -> None:
        """Append a transition, evicting the oldest when full."""
        if len(self._items) < self.capacity:
            self._items.append(transition)
        else:
            self._items[self._cursor] = transition
            self._cursor = (self._cursor + 1) % self.capacity

    def sample(self, k: int) -> list[Transition]:
        """Uniform sample of min(k, len) transitions without replacement."""
        k = min(k, len(self._items))
        if k == 0:
            return []
        idx = self._rng.choice(len(self._items), size=k, replace=False)
        return [self._items[i] for i in idx]

    def sample_recent(self, k: int) -> list[Transition]:
        """The most recent min(k, len) transitions, oldest first."""
        k = min(k, len(self._items))
        if k == 0:
            return []
        if len(self._items) < self.capacity:
            return self._items[-k:]
        ordered = self._items[self._cursor :] + self._items[: self._cursor]
        return ordered[-k:]


@dataclass(frozen=True)
class DQNConfig:
    """Hyperparameters for :class:`DQNAgent`.

    ``gamma=0.9`` matches the paper's discount factor; ``train_every=5``
    matches its train-every-five-steps schedule.  ``epsilon`` is the
    exploration rate of the epsilon-greedy policy and decays geometrically.
    """

    gamma: float = 0.9
    epsilon: float = 0.5
    epsilon_decay: float = 0.99
    epsilon_min: float = 0.05
    train_every: int = 5
    batch_size: int = 64
    target_sync_every: int = 25
    hidden_size: int = 32
    lr: float = 0.01
    replay_capacity: int = 10_000


class DQNAgent:
    """Epsilon-greedy DQN over a discrete action space.

    Parameters
    ----------
    state_size:
        Dimensionality of the (binary) state vector.
    n_actions:
        Number of discrete actions (one Q-value head per action).
    """

    def __init__(
        self,
        state_size: int,
        n_actions: int,
        config: DQNConfig | None = None,
        seed: int = 0,
    ) -> None:
        if state_size <= 0 or n_actions <= 0:
            raise ValueError("state_size and n_actions must be positive")
        self.config = config or DQNConfig()
        self.n_actions = n_actions
        self.q_network = FFN(
            [state_size, self.config.hidden_size, n_actions], seed=seed
        )
        self.target_network = self.q_network.copy()
        self.replay = ReplayBuffer(self.config.replay_capacity, seed=seed)
        self._optimizer = Adam([self.q_network.flat_params], lr=self.config.lr)
        self._rng = np.random.default_rng(seed)
        self._epsilon = self.config.epsilon
        self._steps = 0

    @property
    def epsilon(self) -> float:
        """Current exploration rate."""
        return self._epsilon

    def select_action(self, state: np.ndarray) -> int:
        """Epsilon-greedy action for ``state``."""
        if self._rng.random() < self._epsilon:
            return int(self._rng.integers(self.n_actions))
        q = self.q_network.forward(state[None, :])[0]
        return int(np.argmax(q))

    def observe(self, transition: Transition) -> float | None:
        """Record a transition; train on schedule.  Returns the loss if trained."""
        self.replay.push(transition)
        self._steps += 1
        self._epsilon = max(
            self.config.epsilon_min, self._epsilon * self.config.epsilon_decay
        )
        loss = None
        if self._steps % self.config.train_every == 0:
            loss = self._train_batch()
        if self._steps % self.config.target_sync_every == 0:
            self.target_network = self.q_network.copy()
        return loss

    def _train_batch(self) -> float | None:
        """One TD(0) regression step on recent transitions."""
        batch = self.replay.sample_recent(self.config.batch_size)
        if not batch:
            return None
        states = np.stack([t.state for t in batch])
        next_states = np.stack([t.next_state for t in batch])
        actions = np.array([t.action for t in batch])
        rewards = np.array([t.reward for t in batch])

        next_q = self.target_network.forward(next_states)
        targets = self.q_network.forward(states).copy()
        td_target = rewards + self.config.gamma * next_q.max(axis=1)
        targets[np.arange(len(batch)), actions] = td_target

        loss, _ = self.q_network.loss_and_gradients(states, targets)
        self._optimizer.step([self.q_network.flat_grads])
        return loss
