"""The paper's neural contextual-bandit DVFS agent (Algorithm 1).

The agent maintains an MLP ``mu(s, a, theta)`` estimating the expected
reward of every V/f level in the observed state (Eq. 1). Acting samples
from the softmax policy over those estimates (Eq. 3) at an
exponentially decaying temperature; learning minimises the Huber
regression loss (Eq. 2) over batches drawn from a replay buffer, with
one optimisation step every ``H`` interactions.

The agent is deliberately unaware of federated learning: the federated
client (:mod:`repro.federated.client`) treats it as a container of
parameters, so the identical agent class serves the local-only
baseline and the federated system.
"""

from __future__ import annotations

from typing import Optional, List, Sequence

import numpy as np

from repro.errors import PolicyError
from repro.nn.losses import HuberLoss
from repro.nn.network import MLP
from repro.nn.optimizers import Adam
from repro.rl.policies import GreedyPolicy, SoftmaxPolicy
from repro.rl.replay import ReplayBuffer
from repro.rl.schedules import ExponentialDecaySchedule
from repro.utils.rng import SeedLike, as_generator, spawn_generator


class NeuralBanditAgent:
    """Reinforcement learning with a policy network (Algorithm 1).

    Defaults reproduce Table I exactly: a single hidden layer of 32
    ReLU neurons, Adam with learning rate 0.005, Huber loss, replay
    capacity 4,000, batch size 128, an optimisation step every 20
    interactions, and a softmax temperature decaying from 0.9 towards
    0.01 at rate 0.0005 per step.
    """

    def __init__(
        self,
        num_actions: int,
        num_features: int = 5,
        hidden_layers: Sequence[int] = (32,),
        learning_rate: float = 0.005,
        batch_size: int = 128,
        update_interval: int = 20,
        replay_capacity: int = 4000,
        temperature_schedule: Optional[ExponentialDecaySchedule] = None,
        loss: Optional[HuberLoss] = None,
        replay: Optional[object] = None,
        seed: SeedLike = None,
    ) -> None:
        if num_actions <= 0:
            raise PolicyError(f"num_actions must be positive, got {num_actions}")
        if num_features <= 0:
            raise PolicyError(f"num_features must be positive, got {num_features}")
        if batch_size <= 0:
            raise PolicyError(f"batch_size must be positive, got {batch_size}")
        if update_interval <= 0:
            raise PolicyError(
                f"update_interval must be positive, got {update_interval}"
            )
        root = as_generator(seed)
        self.num_actions = num_actions
        self.num_features = num_features
        self.batch_size = batch_size
        self.update_interval = update_interval
        self.network = MLP(
            (num_features, *hidden_layers, num_actions), seed=spawn_generator(root, 0)
        )
        self.optimizer = Adam(learning_rate=learning_rate)
        # A custom buffer (e.g. PrioritizedReplayBuffer) may be injected;
        # it must provide add/sample/__len__ like ReplayBuffer.
        self.replay = (
            replay
            if replay is not None
            else ReplayBuffer(replay_capacity, seed=spawn_generator(root, 1))
        )
        self.loss = loss or HuberLoss()
        self.temperature_schedule = temperature_schedule or ExponentialDecaySchedule(
            initial=0.9, rate=0.0005, minimum=0.01
        )
        self._softmax = SoftmaxPolicy(seed=spawn_generator(root, 2))
        self._greedy = GreedyPolicy()
        self._step_count = 0
        self._update_count = 0
        self._last_loss: Optional[float] = None
        self._last_action_greedy: Optional[bool] = None

    @property
    def step_count(self) -> int:
        """Environment interactions observed so far (t in Algorithm 1)."""
        return self._step_count

    @property
    def update_count(self) -> int:
        """Gradient updates applied so far."""
        return self._update_count

    @property
    def temperature(self) -> float:
        """Current softmax temperature tau (decays with step_count)."""
        return self.temperature_schedule.value(self._step_count)

    @property
    def last_loss(self) -> Optional[float]:
        """Training loss of the most recent update, if any."""
        return self._last_loss

    @property
    def last_action_greedy(self) -> Optional[bool]:
        """Whether the latest action matched the greedy argmax.

        ``None`` before any action. The flight recorder reads this to
        label each control step as exploration or exploitation.
        """
        return self._last_action_greedy

    def predict_rewards(self, state: np.ndarray) -> np.ndarray:
        """``mu(s, a, theta)`` for every action (Algorithm 1, line 4).

        The Q step of action selection; :meth:`choose_action` is the
        other half.
        """
        state = self._check_state(state)
        return self.network.predict(state)

    def choose_action(self, values: np.ndarray, explore: bool = True) -> int:
        """The choose step: turn ``predict_rewards`` output into an action.

        ``explore`` samples the softmax policy (lines 5-6, one draw from
        the softmax stream); otherwise the argmax is taken. Callers that
        must inspect the values first (the safety watchdog) compute them
        once and hand them here.
        """
        if not explore:
            self._last_action_greedy = True
            return self._greedy.select(values)
        action = self._softmax.select(values, self.temperature)
        self._last_action_greedy = bool(action == values.argmax())
        return action

    def act(self, state: np.ndarray) -> int:
        """Sample an action from the softmax policy (lines 4-6)."""
        return self.choose_action(self.predict_rewards(state), explore=True)

    def act_greedy(self, state: np.ndarray) -> int:
        """Exploit: the action with the highest predicted reward."""
        return self.choose_action(self.predict_rewards(state), explore=False)

    def action_probabilities(self, state: np.ndarray) -> np.ndarray:
        """The current policy ``pi(a | s)`` (Eq. 3), for analysis."""
        return self._softmax.probabilities(self.predict_rewards(state), self.temperature)

    def observe(self, state: np.ndarray, action: int, reward: float) -> None:
        """Store an interaction and learn on schedule (lines 8-13).

        Advances the step counter (which also decays the temperature,
        line 9) and triggers a gradient update every
        ``update_interval`` steps.
        """
        state = self._check_state(state)
        if not 0 <= action < self.num_actions:
            raise PolicyError(
                f"action {action} outside [0, {self.num_actions - 1}]"
            )
        self.replay.add(state, action, reward)
        self._step_count += 1
        if self._step_count % self.update_interval == 0:
            self.update()

    def update(self) -> float:
        """One gradient step on a replay batch (lines 11-12).

        Only the output corresponding to each sample's taken action
        receives a loss gradient — the network never gets a training
        signal for counterfactual actions.
        """
        if len(self.replay) == 0:
            raise PolicyError("cannot update from an empty replay buffer")
        sample = self.replay.sample(self.batch_size)
        if len(sample) == 4:
            states, actions, rewards, sample_indices = sample
        else:
            states, actions, rewards = sample
            sample_indices = None
        predictions = self.network.forward(states)
        batch_rows = np.arange(actions.shape[0])
        taken = predictions[batch_rows, actions]
        # One residual pass yields both the training signal and the
        # reported loss — no second Huber forward over the batch.
        if hasattr(self.loss, "value_and_gradient"):
            loss_value, residual_grad = self.loss.value_and_gradient(taken, rewards)
        else:  # injected custom losses only need value/gradient
            residual_grad = self.loss.gradient(taken, rewards)
            loss_value = self.loss.value(taken, rewards)

        grad_output = np.zeros_like(predictions)
        grad_output[batch_rows, actions] = residual_grad
        self.network.zero_gradients()
        self.network.backward(grad_output)
        self.optimizer.step(self.network.parameters, self.network.gradients)

        if sample_indices is not None and hasattr(self.replay, "update_priorities"):
            self.replay.update_priorities(sample_indices, np.abs(taken - rewards))

        self._update_count += 1
        self._last_loss = loss_value
        return self._last_loss

    def get_parameters(self) -> List[np.ndarray]:
        """Deep copies of the policy-network parameters (theta)."""
        return self.network.get_parameters()

    def set_parameters(
        self, parameters: Sequence[np.ndarray], reset_optimizer: bool = True
    ) -> None:
        """Replace theta, e.g. with a freshly broadcast global model.

        The optimiser's moment estimates describe the *previous*
        parameter trajectory, so they are reset by default whenever a
        foreign model is installed.
        """
        self.network.set_parameters(parameters)
        if reset_optimizer:
            self.optimizer.reset()

    def restore_progress(self, step_count: int) -> None:
        """Reset the interaction counter, e.g. from a checkpoint.

        The counter drives the temperature schedule, so restoring it
        resumes exploration where the saved agent left off.
        """
        if step_count < 0:
            raise PolicyError(f"step_count must be >= 0, got {step_count}")
        self._step_count = step_count

    def _check_state(self, state: np.ndarray) -> np.ndarray:
        state = np.asarray(state, dtype=np.float64)
        if state.shape != (self.num_features,):
            raise PolicyError(
                f"state must have shape ({self.num_features},), got {state.shape}"
            )
        return state
