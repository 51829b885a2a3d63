"""One serializer shared by every estimator.

A saved estimator is a JSON object holding its constructor arguments, read
from the attributes of the same names, plus the fitted attributes its class
declares in ``STATE``. Each ``STATE`` entry maps an attribute name to the
loader that rebuilds it from its JSON form.
"""

from __future__ import annotations

import dataclasses
import inspect
from typing import Callable, Dict, Tuple

import numpy as np


def float_array(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def int_array(value) -> np.ndarray:
    return np.asarray(value, dtype=np.int64)


def _plain(value):
    """JSON form of an attribute: arrays and dataclasses become lists/dicts."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


class Estimator:
    """Base class giving ``to_dict``/``from_dict`` over declared fields."""

    STATE: Dict[str, Callable] = {}

    @classmethod
    def init_args(cls) -> Tuple[str, ...]:
        """Constructor parameter names, in signature order."""
        return tuple(inspect.signature(cls.__init__).parameters)[1:]

    def to_dict(self) -> dict:
        names = self.init_args() + tuple(self.STATE)
        return {name: _plain(getattr(self, name)) for name in names}

    @classmethod
    def from_dict(cls, state: dict):
        est = cls(**{name: state[name] for name in cls.init_args()})
        for name, load in cls.STATE.items():
            setattr(est, name, load(state[name]))
        return est
