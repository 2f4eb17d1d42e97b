"""Stacked per-device networks for the batched execution backend.

The batched backend (:mod:`repro.parallel.batched`) runs the whole
fleet's learning as a handful of numpy calls per control step instead
of a Python-level loop per device. The enabling data layout lives
here: every device's :class:`~repro.nn.network.MLP` parameters are
stacked along a leading device axis — weights become ``(D, in, out)``
arrays, biases ``(D, out)`` — so one ``np.matmul`` over the stack
replaces ``D`` small GEMMs, and the matching :class:`StackedAdam`
applies every device's update in one pass over the stacked moments.

Bit-identity contract
---------------------
The batched backend promises results bit-identical to serial. That
promise leans on two properties verified here:

* numpy's batched ``matmul``/``exp``/axis reductions produce exactly
  the same doubles as the equivalent per-device 2-D calls (checked at
  runtime by :func:`stacked_ops_bitexact`, and asserted by the test
  suite on every platform the tests run on);
* anything that is *not* reliably bit-equal is kept in scalar Python
  form. The one known offender is exponentiation: ``beta ** t`` via
  Python ``pow`` can differ in the last ulp from ``np.power``; the
  serial :class:`~repro.nn.optimizers.Adam` uses Python ``pow``, so
  :class:`StackedAdam` computes its per-device bias corrections in a
  scalar loop rather than vectorising them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PolicyError
from repro.nn.network import MLP
from repro.nn.optimizers import Adam


class StackedMLP:
    """``D`` identically-shaped MLPs stored as one array stack.

    Layer ``l`` holds ``weights[l]`` of shape ``(D, in_l, out_l)`` and
    ``biases[l]`` of shape ``(D, out_l)`` — row ``d`` is device ``d``'s
    parameter storage, laid out exactly like the per-device
    ``Linear.weight``/``Linear.bias`` arrays so rows copy straight in
    and out of :class:`~repro.nn.network.MLP` instances.
    """

    def __init__(self, layer_sizes: Sequence[int], num_devices: int) -> None:
        sizes = tuple(int(s) for s in layer_sizes)
        if len(sizes) < 2:
            raise PolicyError(
                f"a stacked MLP needs at least input and output sizes, got {sizes}"
            )
        if num_devices <= 0:
            raise PolicyError(
                f"num_devices must be positive, got {num_devices}"
            )
        self.layer_sizes: Tuple[int, ...] = sizes
        self.num_devices = int(num_devices)
        self.weights: List[np.ndarray] = [
            np.zeros((num_devices, fan_in, fan_out), dtype=np.float64)
            for fan_in, fan_out in zip(sizes[:-1], sizes[1:])
        ]
        self.biases: List[np.ndarray] = [
            np.zeros((num_devices, fan_out), dtype=np.float64)
            for fan_out in sizes[1:]
        ]
        # Reused forward/backward intermediates. The training arrays
        # are multi-megabyte at fleet scale; allocating them fresh every
        # update cycle costs more in mmap/page-fault churn than the
        # actual GEMMs (measured ~3x on the whole forward chain).
        # Writing into reused buffers via ``out=`` produces identical
        # doubles.
        self._scratch: dict = {}

    def _buf(
        self, key: str, shape: Tuple[int, ...], dtype=np.float64
    ) -> np.ndarray:
        buffer = self._scratch.get(key)
        if buffer is None or buffer.shape != shape or buffer.dtype != dtype:
            buffer = np.empty(shape, dtype=dtype)
            self._scratch[key] = buffer
        return buffer

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    # -- row <-> per-device network transfer ---------------------------
    @classmethod
    def from_networks(cls, networks: Sequence[MLP]) -> "StackedMLP":
        """Stack the parameters of homogeneous per-device networks."""
        if not networks:
            raise PolicyError("from_networks needs at least one network")
        sizes = networks[0].layer_sizes
        for network in networks:
            if network.layer_sizes != sizes:
                raise PolicyError(
                    f"heterogeneous layer sizes: {network.layer_sizes} vs {sizes}"
                )
        stack = cls(sizes, len(networks))
        for row, network in enumerate(networks):
            stack.load_row(row, network)
        return stack

    def load_row(self, row: int, network: MLP) -> None:
        """Copy one device network's parameters into stack row ``row``."""
        params = network.parameters
        for layer, (weight, bias) in enumerate(
            zip(params[0::2], params[1::2])
        ):
            self.weights[layer][row, :, :] = weight
            self.biases[layer][row, :] = bias

    def store_row(self, row: int, network: MLP) -> None:
        """Copy stack row ``row`` back into a device network (in place)."""
        params = network.parameters
        for layer in range(self.num_layers):
            np.copyto(params[2 * layer], self.weights[layer][row])
            np.copyto(params[2 * layer + 1], self.biases[layer][row])

    def set_row_parameters(
        self, row: int, parameters: Sequence[np.ndarray]
    ) -> None:
        """Install a serial-format parameter list into one row.

        Mirrors :meth:`MLP.set_parameters` validation (including its
        error type) so the batched backend reports installation
        failures exactly like a serial actor would.
        """
        if len(parameters) != 2 * self.num_layers:
            raise PolicyError(
                f"expected {2 * self.num_layers} parameter arrays, "
                f"got {len(parameters)}"
            )
        for layer in range(self.num_layers):
            weight = np.asarray(parameters[2 * layer], dtype=np.float64)
            bias = np.asarray(parameters[2 * layer + 1], dtype=np.float64)
            if weight.shape != self.weights[layer].shape[1:]:
                raise PolicyError(
                    f"parameter shape mismatch: "
                    f"{self.weights[layer].shape[1:]} vs {weight.shape}"
                )
            if bias.shape != self.biases[layer].shape[1:]:
                raise PolicyError(
                    f"parameter shape mismatch: "
                    f"{self.biases[layer].shape[1:]} vs {bias.shape}"
                )
            self.weights[layer][row, :, :] = weight
            self.biases[layer][row, :] = bias

    def get_row_parameters(self, row: int) -> List[np.ndarray]:
        """Deep copies of one row in serial parameter-list order."""
        out: List[np.ndarray] = []
        for layer in range(self.num_layers):
            out.append(self.weights[layer][row].copy())
            out.append(self.biases[layer][row].copy())
        return out

    # -- stacked compute ----------------------------------------------
    def predict(
        self, states: np.ndarray, rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per-device single-state forward: ``(E, F)`` -> ``(E, A)``.

        Row ``i`` of ``states`` runs through the network of device
        ``rows[i]`` (all devices when ``rows`` is ``None``). Produces
        the same doubles as each device's ``predict_single``.
        """
        x = states[:, None, :]
        last = self.num_layers - 1
        for layer in range(self.num_layers):
            weight = self.weights[layer]
            bias = self.biases[layer]
            if rows is not None:
                weight = weight[rows]
                bias = bias[rows]
            x = np.matmul(
                x,
                weight,
                out=self._buf(
                    f"pz{layer}", (x.shape[0], 1, weight.shape[-1])
                ),
            )
            x += bias[:, None, :]
            if layer < last:
                np.maximum(x, 0.0, out=x)
        return x[:, 0, :]

    def forward(
        self, inputs: np.ndarray, rows: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, list]:
        """Training forward over batches: ``(E, B, F)`` -> ``(E, B, A)``.

        Returns the output and the per-layer caches ``(x, z)`` needed
        by :meth:`backward` (layer input and pre-activation output).
        ``rows is None`` means "all devices, in row order" and skips
        the gather copies of the parameter stacks.
        """
        caches = []
        x = inputs
        last = self.num_layers - 1
        for layer in range(self.num_layers):
            weight = self.weights[layer]
            bias = self.biases[layer]
            if rows is not None:
                weight = weight[rows]
                bias = bias[rows]
            z_shape = (x.shape[0], x.shape[1], weight.shape[-1])
            z = np.matmul(x, weight, out=self._buf(f"fz{layer}", z_shape))
            z += bias[:, None, :]
            caches.append((x, z))
            if layer < last:
                x = np.maximum(z, 0.0, out=self._buf(f"fa{layer}", z_shape))
            else:
                x = z
        return x, caches

    def backward(
        self, grad_output: np.ndarray, caches: list, rows: Optional[np.ndarray]
    ) -> List[np.ndarray]:
        """Stacked backprop; returns gradients in serial parameter order.

        ``grad_output`` is ``(E, B, A)``; the result list alternates
        weight gradients ``(E, in, out)`` and bias gradients
        ``(E, out)`` exactly like ``MLP.gradients`` does per device.
        The transposed-matmul forms used here produce the same doubles
        as the serial layers' ``x.T @ g`` / ``g @ W.T`` 2-D calls
        (covered by :func:`stacked_ops_bitexact`).
        """
        grads: List[np.ndarray] = [
            np.empty(0) for _ in range(2 * self.num_layers)
        ]
        grad = grad_output
        devices = grad_output.shape[0]
        for layer in range(self.num_layers - 1, -1, -1):
            x, _ = caches[layer]
            grads[2 * layer] = np.matmul(
                x.swapaxes(1, 2),
                grad,
                out=self._buf(
                    f"bw{layer}", (devices, x.shape[2], grad.shape[2])
                ),
            )
            grads[2 * layer + 1] = grad.sum(
                axis=1, out=self._buf(f"bb{layer}", (devices, grad.shape[2]))
            )
            if layer > 0:
                weight = self.weights[layer]
                if rows is not None:
                    weight = weight[rows]
                # Input gradient through this layer's weights, then the
                # preceding ReLU's mask — the same `grad * (input > 0)`
                # the serial ReLU layer applies to its cached input.
                # The matmul output is scratch, so the mask multiply can
                # run in place without changing any double.
                z_prev = caches[layer - 1][1]
                grad = np.matmul(
                    grad,
                    weight.swapaxes(1, 2),
                    out=self._buf(f"bi{layer}", z_prev.shape),
                )
                grad *= np.greater(
                    z_prev,
                    0.0,
                    out=self._buf(f"bm{layer}", z_prev.shape, dtype=np.bool_),
                )
        return grads


class StackedAdam:
    """Adam over stacked parameters with independent per-device state.

    Moment arrays mirror the :class:`StackedMLP` layout — one leading
    device axis over each serial parameter array — and ``step_counts``
    holds every device's private update counter. A device's rows
    evolve exactly as its own serial :class:`~repro.nn.optimizers.Adam`
    would: the bias corrections ``1 - beta ** t`` are computed with
    Python ``pow`` per device (vectorised ``np.power`` can differ in
    the last ulp), while the element-wise moment updates vectorise
    safely across the stack.
    """

    def __init__(
        self,
        parameter_shapes: Sequence[Tuple[int, ...]],
        num_devices: int,
        learning_rate: float = 0.005,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.num_devices = int(num_devices)
        self._shapes = [tuple(shape) for shape in parameter_shapes]
        self._first_moment = [
            np.zeros((num_devices, *shape), dtype=np.float64)
            for shape in self._shapes
        ]
        self._second_moment = [
            np.zeros((num_devices, *shape), dtype=np.float64)
            for shape in self._shapes
        ]
        self.step_counts = np.zeros(num_devices, dtype=np.int64)
        # Reused element-wise temporaries for the all-devices step (two
        # per parameter stack); same doubles, no per-cycle allocations.
        self._scratch: dict = {}

    def _buf(self, key: str, shape: Tuple[int, ...]) -> np.ndarray:
        buffer = self._scratch.get(key)
        if buffer is None or buffer.shape != shape:
            buffer = np.empty(shape, dtype=np.float64)
            self._scratch[key] = buffer
        return buffer

    @classmethod
    def from_optimizers(
        cls,
        optimizers: Sequence[Adam],
        parameter_shapes: Sequence[Tuple[int, ...]],
    ) -> "StackedAdam":
        """Stack per-device Adam instances (hyperparameters must match)."""
        if not optimizers:
            raise PolicyError("from_optimizers needs at least one optimizer")
        first = optimizers[0]
        stack = cls(
            parameter_shapes,
            len(optimizers),
            learning_rate=first.learning_rate,
            beta1=first.beta1,
            beta2=first.beta2,
            epsilon=first.epsilon,
        )
        for row, optimizer in enumerate(optimizers):
            stack.load_row(row, optimizer)
        return stack

    # -- row <-> per-device optimizer transfer -------------------------
    def load_row(self, row: int, optimizer: Adam) -> None:
        """Adopt one device's Adam state into stack row ``row``."""
        self.step_counts[row] = optimizer.step_count
        if optimizer._first_moment:
            for index in range(len(self._shapes)):
                self._first_moment[index][row] = optimizer._first_moment[index]
                self._second_moment[index][row] = optimizer._second_moment[index]
        else:
            for index in range(len(self._shapes)):
                self._first_moment[index][row].fill(0.0)
                self._second_moment[index][row].fill(0.0)

    def store_row(self, row: int, optimizer: Adam) -> None:
        """Write stack row ``row`` back into a per-device Adam.

        A row that never stepped (count 0) restores the serial lazy
        state — empty moment lists — so a later ``reset()``/``step()``
        sequence behaves exactly as it would have under serial.
        """
        count = int(self.step_counts[row])
        optimizer._step_count = count
        if count == 0:
            optimizer._first_moment = []
            optimizer._second_moment = []
        else:
            optimizer._first_moment = [
                self._first_moment[index][row].copy()
                for index in range(len(self._shapes))
            ]
            optimizer._second_moment = [
                self._second_moment[index][row].copy()
                for index in range(len(self._shapes))
            ]

    def reset_rows(self, rows: Sequence[int]) -> None:
        """Per-device ``Adam.reset()``: drop moments and counters."""
        index = np.asarray(rows, dtype=np.int64)
        self.step_counts[index] = 0
        for first, second in zip(self._first_moment, self._second_moment):
            first[index] = 0.0
            second[index] = 0.0

    # -- stacked update ------------------------------------------------
    def step_rows(
        self,
        rows: Optional[np.ndarray],
        parameter_stacks: Sequence[np.ndarray],
        gradients: Sequence[np.ndarray],
    ) -> None:
        """One Adam update for every device in ``rows`` at once.

        ``parameter_stacks`` are the full ``StackedMLP`` arrays (in
        serial parameter order: weight, bias, weight, bias, ...);
        ``gradients[i]`` holds the gathered rows' gradients with shape
        ``(E, *parameter_shape)``. ``rows is None`` means every device
        in row order, which lets the moment updates run in place on the
        stacked state instead of gather/scatter copies (same doubles —
        identical element-wise arithmetic on identical values).
        """
        if rows is None:
            self.step_counts += 1
            counts = self.step_counts.tolist()
        else:
            self.step_counts[rows] += 1
            counts = self.step_counts[rows].tolist()
        # Python pow per device: matches serial `beta ** step_count`
        # bit-for-bit, which np.power does not guarantee.
        bias1 = np.array(
            [1.0 - self.beta1**count for count in counts], dtype=np.float64
        )
        bias2 = np.array(
            [1.0 - self.beta2**count for count in counts], dtype=np.float64
        )
        for index, (stack, grad) in enumerate(zip(parameter_stacks, gradients)):
            shape = (grad.shape[0],) + (1,) * (grad.ndim - 1)
            if rows is None:
                # In-place on the stacked moments with reused
                # temporaries: the exact serial expressions
                # ``beta*m + (1-beta)*g`` and
                # ``lr * m_hat / (sqrt(v_hat) + eps)`` evaluated in the
                # same operand order, just without fresh allocations.
                m = self._first_moment[index]
                v = self._second_moment[index]
                t = self._buf(f"t{index}", grad.shape)
                u = self._buf(f"u{index}", grad.shape)
                m *= self.beta1
                np.multiply(grad, 1.0 - self.beta1, out=t)
                m += t
                v *= self.beta2
                np.power(grad, 2, out=t)
                t *= 1.0 - self.beta2
                v += t
                np.divide(m, bias1.reshape(shape), out=u)
                u *= self.learning_rate
                np.divide(v, bias2.reshape(shape), out=t)
                np.sqrt(t, out=t)
                t += self.epsilon
                np.divide(u, t, out=u)
                stack -= u
            else:
                m = self._first_moment[index][rows]
                v = self._second_moment[index][rows]
                m *= self.beta1
                m += (1.0 - self.beta1) * grad
                v *= self.beta2
                v += (1.0 - self.beta2) * grad**2
                m_hat = m / bias1.reshape(shape)
                v_hat = v / bias2.reshape(shape)
                update = (
                    self.learning_rate
                    * m_hat
                    / (np.sqrt(v_hat) + self.epsilon)
                )
                self._first_moment[index][rows] = m
                self._second_moment[index][rows] = v
                stack[rows] -= update


_BITEXACT_CACHE: Optional[bool] = None


def stacked_ops_bitexact() -> bool:
    """Whether this BLAS/numpy build keeps stacked ops bit-equal.

    Probes every stacked primitive the batched backend relies on
    against its per-device 2-D form: forward/backward ``matmul``
    (including the transposed variants), ``exp`` over a 2-D array,
    axis-1 ``max``/``sum``/``mean``/``cumsum`` and the 3-D axis-1
    ``sum`` used for bias gradients — plus array ``exp`` against the
    scalar ``float(np.exp(x))`` the simulator applies to each jitter
    and sensor normal, which the device-axis simulator kernel
    (:mod:`repro.sim.stacked`) computes for a whole batch at once. The
    result is cached; the batched backend and the stacked evaluator
    refuse to stack anything when the probe fails, falling back to the
    serial per-device path so results stay correct (just not fast) on
    exotic BLAS builds.
    """
    global _BITEXACT_CACHE
    if _BITEXACT_CACHE is not None:
        return _BITEXACT_CACHE
    rng = np.random.default_rng(20260808)
    ok = True
    for batch in (1, 7):
        x = rng.normal(size=(5, batch, 6)) * 3.0
        w = rng.normal(size=(5, 6, 4))
        g = rng.normal(size=(5, batch, 4))
        stacked = np.matmul(x, w)
        weight_grad = np.matmul(x.swapaxes(1, 2), g)
        input_grad = np.matmul(g, w.swapaxes(1, 2))
        for row in range(x.shape[0]):
            ok &= bool((stacked[row] == x[row] @ w[row]).all())
            ok &= bool((weight_grad[row] == x[row].T @ g[row]).all())
            ok &= bool((input_grad[row] == g[row] @ w[row].T).all())
            ok &= bool((g.sum(axis=1)[row] == g[row].sum(axis=0)).all())
    values = rng.normal(size=(9, 15)) * 40.0
    ok &= bool((np.exp(values) == np.stack([np.exp(v) for v in values])).all())
    normals = rng.normal(0.0, 0.05, size=(101, 3))
    ok &= bool(
        (
            np.exp(normals).ravel()
            == np.array([float(np.exp(v)) for v in normals.ravel()])
        ).all()
    )
    ok &= bool(
        (values.max(axis=1) == np.array([v.max() for v in values])).all()
    )
    ok &= bool(
        (values.sum(axis=1) == np.array([v.sum() for v in values])).all()
    )
    ok &= bool(
        (values.mean(axis=1) == np.array([v.mean() for v in values])).all()
    )
    ok &= bool(
        (
            np.cumsum(values, axis=1)
            == np.stack([np.cumsum(v) for v in values])
        ).all()
    )
    _BITEXACT_CACHE = ok
    return ok
