"""Module system: parameter registration, traversal and state handling.

Mirrors the semantics of ``torch.nn.Module`` closely enough that the
paper's training recipes translate directly: attribute assignment
registers parameters and child modules, ``train()``/``eval()`` toggle
behavioural flags (batch-norm statistics, dropout), and
``state_dict``/``load_state_dict`` serialise weights to plain numpy
arrays for checkpointing.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.tensor.tensor import Tensor


def _floating(value) -> np.ndarray:
    """``value`` as an array that keeps a floating dtype, else float64."""
    array = np.asarray(value)
    return array if array.dtype.kind == "f" else array.astype(np.float64)


class HookHandle:
    """Removable reference to a registered forward hook."""

    def __init__(self, module: "Module", handle_id: int):
        self._module = module
        self._handle_id = handle_id

    def remove(self) -> None:
        self._module._forward_hooks.pop(self._handle_id, None)


class Parameter(Tensor):
    """A trainable tensor; registered automatically when set on a Module.

    Floating data keeps its dtype; anything else becomes float64.
    """

    def __init__(self, data, requires_grad: bool = True):
        super().__init__(_floating(data), requires_grad=requires_grad)

    def __repr__(self) -> str:
        return f"Parameter(shape={self.shape})"


class Module:
    """Base class for all layers and models."""

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_forward_hooks", OrderedDict())
        object.__setattr__(self, "_hook_counter", 0)
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._buffers.pop(name, None)
            self._modules.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
            self._buffers.pop(name, None)
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable state (e.g. batch-norm running stats).

        Floating data keeps its dtype; anything else becomes float64.
        """
        self._buffers[name] = _floating(value)
        object.__setattr__(self, name, self._buffers[name])

    def _set_buffer(self, name: str, value: np.ndarray) -> None:
        """Update a registered buffer in place of the registry entry.

        The buffer keeps its dtype, as a parameter does when loaded;
        :meth:`astype` is what changes it.
        """
        if name not in self._buffers:
            raise KeyError(f"buffer {name!r} was never registered")
        self._buffers[name] = np.asarray(value, dtype=self._buffers[name].dtype)
        object.__setattr__(self, name, self._buffers[name])

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (prefix + name, param)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix + child_name + ".")

    def parameters(self) -> List[Parameter]:
        return [param for _, param in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self) if prefix else ("", self)
        for child_name, child in self._modules.items():
            child_prefix = f"{prefix}{child_name}."
            yield from child.named_modules(child_prefix)

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name in self._buffers:
            yield (prefix + name, self._buffers[name])
        for child_name, child in self._modules.items():
            yield from child.named_buffers(prefix + child_name + ".")

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def apply(self, fn: Callable[["Module"], None]) -> "Module":
        for module in self.modules():
            fn(module)
        return self

    # ------------------------------------------------------------------
    # Modes and gradients
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def astype(self, dtype) -> "Module":
        """Cast every parameter and buffer to ``dtype``, in place.

        Forwards then compute in ``dtype`` for inputs of that dtype. A
        parameter that changes dtype loses its gradient; one that
        already has ``dtype`` is left as it is. Returns the module.
        """
        dtype = np.dtype(dtype)
        for module in self.modules():
            for param in module._parameters.values():
                if param.data.dtype != dtype:
                    param.data = param.data.astype(dtype)
                    param.grad = None
            for name, buffer in module._buffers.items():
                if buffer.dtype != dtype:
                    module._buffers[name] = buffer.astype(dtype)
                    object.__setattr__(module, name, module._buffers[name])
        return self

    def num_parameters(self) -> int:
        """Total number of trainable scalar weights."""
        return sum(param.size for param in self.parameters())

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = OrderedDict()
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buffer in self.named_buffers():
            state[name] = np.asarray(buffer).copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        own_params = dict(self.named_parameters())
        own_buffer_names = [name for name, _ in self.named_buffers()]
        missing = []
        for name, param in own_params.items():
            if name not in state:
                missing.append(name)
                continue
            value = np.asarray(state[name])
            if value.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: checkpoint {value.shape} "
                    f"vs model {param.shape}"
                )
            param.data[...] = value
        for name in own_buffer_names:
            if name not in state:
                missing.append(name)
                continue
            self._load_buffer_by_path(name, np.asarray(state[name]))
        unexpected = [
            key for key in state if key not in own_params and key not in own_buffer_names
        ]
        if strict and (missing or unexpected):
            raise KeyError(
                f"state dict mismatch; missing={missing}, unexpected={unexpected}"
            )

    def _load_buffer_by_path(self, path: str, value: np.ndarray) -> None:
        module: Module = self
        parts = path.split(".")
        for part in parts[:-1]:
            module = module._modules[part]
        module._set_buffer(parts[-1], value)

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError(
            f"{type(self).__name__} must implement forward()"
        )

    def __call__(self, *args, **kwargs):
        output = self.forward(*args, **kwargs)
        for hook in self._forward_hooks.values():
            hook(self, output)
        return output

    def register_forward_hook(self, hook: Callable) -> "HookHandle":
        """Register ``hook(module, output)`` to run after every forward.

        Returns a :class:`HookHandle` whose ``remove()`` detaches the hook.
        Used by the importance scorer to tap activations without
        modifying model code.
        """
        handle_id = self._hook_counter
        object.__setattr__(self, "_hook_counter", handle_id + 1)
        self._forward_hooks[handle_id] = hook
        return HookHandle(self, handle_id)

    def __repr__(self) -> str:
        child_lines = [
            f"  ({name}): {child!r}".replace("\n", "\n  ")
            for name, child in self._modules.items()
        ]
        header = type(self).__name__
        if not child_lines:
            return f"{header}()"
        return header + "(\n" + "\n".join(child_lines) + "\n)"


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        for index, module in enumerate(modules):
            setattr(self, str(index), module)

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def append(self, module: Module) -> "Sequential":
        setattr(self, str(len(self._modules)), module)
        return self

    def forward(self, x):
        for module in self._modules.values():
            x = module(x)
        return x


class ModuleList(Module):
    """List-like container whose items are registered child modules."""

    def __init__(self, modules: Optional[List[Module]] = None):
        super().__init__()
        for index, module in enumerate(modules or []):
            setattr(self, str(index), module)

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def append(self, module: Module) -> "ModuleList":
        setattr(self, str(len(self._modules)), module)
        return self

    def forward(self, *args, **kwargs):
        raise RuntimeError("ModuleList is a container and cannot be called")
