"""Specifications for the synthetic Apollo-like corpus.

The corpus generator is calibrated against every number the paper reports
(see :mod:`repro.corpus.apollo` for the calibrated instance).  A
:class:`ModuleSpec` describes one top-level Apollo module; the ``scale``
knob shrinks everything proportionally so unit tests can run on a small
corpus while benchmarks regenerate the full-size one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from ..errors import CorpusError


@dataclass(frozen=True)
class ComplexityProfile:
    """How many functions to generate in each cyclomatic-complexity band.

    ``low`` functions get CC drawn from 1-10; the other bands pin exact
    CC targets inside 11-20 / 21-50 / 51+, making framework-wide counts
    (the paper's "554 functions with moderate or higher complexity")
    reproducible to the unit.
    """

    low: int
    moderate: int
    risky: int
    unstable: int

    @property
    def total(self) -> int:
        return self.low + self.moderate + self.risky + self.unstable

    @property
    def over_ten(self) -> int:
        return self.moderate + self.risky + self.unstable

    def scaled(self, factor: float) -> "ComplexityProfile":
        return ComplexityProfile(
            low=max(1, round(self.low * factor)),
            moderate=max(1 if self.moderate else 0,
                         round(self.moderate * factor)),
            risky=max(1 if self.risky else 0, round(self.risky * factor)),
            unstable=max(1 if self.unstable else 0,
                         round(self.unstable * factor)),
        )


@dataclass(frozen=True)
class ModuleSpec:
    """One Apollo module's generation targets."""

    name: str
    profile: ComplexityProfile
    globals_count: int = 10
    cast_count: int = 40
    multi_exit_ratio: float = 0.35
    cuda_kernel_count: int = 0
    goto_count: int = 1
    recursive_functions: int = 0
    uninitialized_count: int = 8
    functions_per_file: int = 9
    defensive_ratio: float = 0.0
    dynamic_alloc_ratio: float = 0.45
    submodules: Tuple[str, ...] = ("core", "common", "util")

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise CorpusError(f"module name {self.name!r} must be an "
                              f"identifier")
        if not 0.0 <= self.multi_exit_ratio <= 1.0:
            raise CorpusError(
                f"multi-exit ratio must be in [0, 1], got "
                f"{self.multi_exit_ratio}")
        if not 0.0 <= self.defensive_ratio <= 1.0:
            raise CorpusError(
                f"defensive ratio must be in [0, 1], got "
                f"{self.defensive_ratio}")
        if self.functions_per_file < 1:
            raise CorpusError("functions_per_file must be >= 1")

    def scaled(self, factor: float) -> "ModuleSpec":
        return ModuleSpec(
            name=self.name,
            profile=self.profile.scaled(factor),
            globals_count=max(1, round(self.globals_count * factor)),
            cast_count=max(1, round(self.cast_count * factor)),
            multi_exit_ratio=self.multi_exit_ratio,
            cuda_kernel_count=(max(1, round(self.cuda_kernel_count * factor))
                               if self.cuda_kernel_count else 0),
            goto_count=(max(1, round(self.goto_count * factor))
                        if self.goto_count else 0),
            recursive_functions=self.recursive_functions,
            uninitialized_count=(max(1, round(self.uninitialized_count
                                              * factor))
                                 if self.uninitialized_count else 0),
            functions_per_file=self.functions_per_file,
            defensive_ratio=self.defensive_ratio,
            dynamic_alloc_ratio=self.dynamic_alloc_ratio,
            submodules=self.submodules,
        )


@dataclass(frozen=True)
class CorpusSpec:
    """The full corpus: modules plus global generation parameters."""

    modules: Tuple[ModuleSpec, ...]
    seed: int = 26262
    scale: float = 1.0

    def __post_init__(self) -> None:
        names = [module.name for module in self.modules]
        if len(set(names)) != len(names):
            raise CorpusError("duplicate module names in corpus spec")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise CorpusError(f"scale must be a finite number > 0, got "
                              f"{self.scale}")

    def effective_modules(self) -> List[ModuleSpec]:
        """Module specs with the scale factor applied."""
        if self.scale == 1.0:
            return list(self.modules)
        return [module.scaled(self.scale) for module in self.modules]

    @property
    def expected_over_ten(self) -> int:
        """Expected framework-wide count of CC>10 functions."""
        return sum(module.profile.over_ten
                   for module in self.effective_modules())
