"""The Adam optimizer over a flat list of parameters."""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.tensor.nn.module import Parameter
from repro.utils.validation import check_in_range, check_positive


class Optimizer:
    """Base optimizer over a flat list of parameters."""

    def __init__(self, parameters: Sequence[Parameter]) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015)."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        check_positive("lr", lr)
        check_in_range("beta1", betas[0], 0.0, 1.0, inclusive=False)
        check_in_range("beta2", betas[1], 0.0, 1.0, inclusive=False)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._step_count = 0

    def step(self) -> None:
        self._step_count += 1
        bias_correction1 = 1.0 - self.beta1**self._step_count
        bias_correction2 = 1.0 - self.beta2**self._step_count
        for param in self.parameters:
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m = self._m.get(id(param), np.zeros_like(param.data))
            v = self._v.get(id(param), np.zeros_like(param.data))
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * grad * grad
            self._m[id(param)], self._v[id(param)] = m, v
            m_hat = m / bias_correction1
            v_hat = v / bias_correction2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
