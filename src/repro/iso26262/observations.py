"""The paper's fourteen observations, generated from measured evidence.

Each observation is re-derived from the assessment's numbers: the
generator states the observation, reports whether the analyzed codebase
supports it, and quotes the deciding metrics.  Running the pipeline on a
hypothetical MISRA-clean codebase would (correctly) fail to reproduce
Observations 1-7 — the observations are conclusions, not constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .evidence import EvidenceSet


@dataclass(frozen=True)
class Observation:
    """One numbered observation from the paper."""

    number: int
    title: str
    statement: str
    supported: bool
    metrics: Dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        flag = "SUPPORTED" if self.supported else "NOT SUPPORTED"
        return (f"Observation {self.number} [{flag}] {self.title}\n"
                f"    {self.statement}")


def generate_observations(evidence: EvidenceSet) -> List[Observation]:
    """Derive Observations 1-9, 13 and 14 from static-analysis evidence.

    Observations 10-12 rest on the dynamic experiments rather than on
    properties measurable in the code (structural coverage, GPU coverage
    tools, closed-source libraries); :func:`tooling_observations`
    contributes them from the coverage and performance experiments.
    """
    observations: List[Observation] = []

    complexity = evidence.get("complexity")
    over = complexity.stat("moderate_or_higher", 0)
    functions = complexity.stat("functions", 0)
    over_ratio = over / functions if functions else 0.0
    observations.append(Observation(
        number=1,
        title="High cyclomatic complexity",
        statement=(f"AD frameworks present a high complexity: "
                   f"{over:.0f} of {functions:.0f} functions "
                   f"({100 * over_ratio:.1f}%) exceed CC 10."),
        supported=over_ratio > 0.02,
        metrics={"moderate_or_higher": over,
                 "over_ratio": over_ratio}))

    misra = evidence.get("language_subset")
    per_kloc = misra.stat("violations_per_kloc", 0.0)
    observations.append(Observation(
        number=2,
        title="CPU code follows no safety-related guideline",
        statement=(f"The CPU part shows {per_kloc:.1f} MISRA "
                   f"violations/kLOC; adherence is achievable with "
                   f"moderate effort."),
        supported=per_kloc > 1.0,
        metrics={"violations_per_kloc": per_kloc}))

    gpu_functions = misra.stat("gpu_functions", 0)
    observations.append(Observation(
        number=3,
        title="No language subset exists for GPU code",
        statement=(f"{gpu_functions:.0f} GPU functions exist, and no "
                   f"MISRA-like subset or checker is defined for CUDA."),
        supported=gpu_functions > 0,
        metrics={"gpu_functions": gpu_functions}))

    gpu_pointers = misra.stat("gpu_functions_with_pointers", 0)
    pointer_ratio = (gpu_pointers / gpu_functions) if gpu_functions else 0.0
    observations.append(Observation(
        number=4,
        title="CUDA intrinsically uses non-recommended features",
        statement=(f"{100 * pointer_ratio:.0f}% of GPU functions use "
                   f"pointers, and kernels rely on dynamically allocated "
                   f"device memory."),
        supported=pointer_ratio > 0.9,
        metrics={"gpu_pointer_ratio": pointer_ratio}))

    typing = evidence.get("strong_typing")
    casts = typing.stat("explicit_casts", 0.0)
    analyzed_kloc = misra.stat("analyzed_lines", 0.0) / 1000.0
    casts_per_kloc = casts / analyzed_kloc if analyzed_kloc else 0.0
    observations.append(Observation(
        number=5,
        title="Weak typing in practice",
        statement=(f"{casts:.0f} explicit castings observed "
                   f"({casts_per_kloc:.1f}/kLOC), confronting the "
                   f"strong-typing requirement."),
        supported=casts_per_kloc > 3.0,
        metrics={"explicit_casts": casts,
                 "casts_per_kloc": casts_per_kloc}))

    defensive = evidence.get("defensive")
    ratio = defensive.stat("validation_ratio", 1.0)
    observations.append(Observation(
        number=6,
        title="No defensive programming",
        statement=(f"Only {100 * ratio:.0f}% of functions validate their "
                   f"inputs; defensive techniques are not used but can be "
                   f"added with limited effort."),
        supported=ratio < 0.5,
        metrics={"validation_ratio": ratio}))

    globals_item = evidence.get("globals")
    globals_count = globals_item.stat("mutable_globals", 0.0)
    globals_per_kloc = (globals_count / analyzed_kloc
                        if analyzed_kloc else 0.0)
    observations.append(Observation(
        number=7,
        title="Global variables are used",
        statement=(f"{globals_count:.0f} mutable globals "
                   f"({globals_per_kloc:.1f}/kLOC); eliminating them or "
                   f"justifying their use requires work."),
        supported=globals_per_kloc > 1.0,
        metrics={"mutable_globals": globals_count,
                 "globals_per_kloc": globals_per_kloc}))

    style = evidence.get("style")
    style_per_kloc = style.stat("violations_per_kloc", 0.0)
    observations.append(Observation(
        number=8,
        title="Style guides are followed",
        statement=(f"Style checking finds only {style_per_kloc:.2f} "
                   f"findings/kLOC; the Google C++ style guide is "
                   f"enforced."),
        supported=style_per_kloc <= 1.0,
        metrics={"violations_per_kloc": style_per_kloc}))

    naming = evidence.get("naming")
    conformance = naming.stat("conformance_ratio", 1.0)
    observations.append(Observation(
        number=9,
        title="Naming conventions are followed",
        statement=(f"{100 * conformance:.1f}% of checked names conform "
                   f"to the coding guidelines."),
        supported=conformance >= 0.97,
        metrics={"conformance_ratio": conformance}))

    architecture = evidence.get("architecture")
    oversized = architecture.stat("oversized_components", 0.0)
    observations.append(Observation(
        number=13,
        title="Architectural design principles not met",
        statement=(f"{oversized:.0f} components exceed the restricted-"
                   f"size principle; compliance is reachable with non-"
                   f"negligible effort."),
        supported=oversized > 0,
        metrics={"oversized_components": oversized}))

    unit = evidence.get("unit_design")
    multi_exit = unit.stat("multi_exit_ratio", 0.0)
    dynamic = unit.stat("dynamic_alloc_ratio", 0.0)
    observations.append(Observation(
        number=14,
        title="Unit design principles not met",
        statement=(f"{100 * multi_exit:.0f}% multi-exit functions and "
                   f"{100 * dynamic:.0f}% dynamically allocating "
                   f"functions violate the Table 8 principles."),
        supported=multi_exit > 0.2 or dynamic > 0.2,
        metrics={"multi_exit_ratio": multi_exit,
                 "dynamic_alloc_ratio": dynamic}))

    return observations


def tooling_observations(coverage_average: float,
                         gpu_coverage_tool_exists: bool = False,
                         open_vs_closed_relative: float = 1.0
                         ) -> List[Observation]:
    """Observations 10-12, grounded in the coverage/perf experiments.

    Args:
        coverage_average: mean statement coverage (%) of the real-scenario
            campaign (Figure 5).
        gpu_coverage_tool_exists: whether a qualified GPU coverage tool is
            available (the paper: none is).
        open_vs_closed_relative: open-source library performance relative
            to closed-source (Figures 7/8); near 1.0 supports the
            open-library recommendation of Observation 12.
    """
    return [
        Observation(
            number=10,
            title="Code coverage is low with available tests",
            statement=(f"Average statement coverage of the real-scenario "
                       f"tests is {coverage_average:.0f}%; additional "
                       f"test cases are required to approach 100%."),
            supported=coverage_average < 95.0,
            metrics={"statement_coverage": coverage_average}),
        Observation(
            number=11,
            title="No qualified GPU coverage tooling",
            statement=("Coverage of GPU code is only measurable by "
                       "porting kernels to the CPU (cuda4cpu-style); no "
                       "qualified on-target tool exists."),
            supported=not gpu_coverage_tool_exists,
            metrics={}),
        Observation(
            number=12,
            title="Closed-source libraries hamper compliance assessment",
            statement=(f"The DNN stack depends on closed cuBLAS/cuDNN; "
                       f"open replacements reach "
                       f"{open_vs_closed_relative:.2f}x relative "
                       f"performance, making the open-library route "
                       f"viable."),
            supported=open_vs_closed_relative > 0.7,
            metrics={"open_vs_closed_relative": open_vs_closed_relative}),
    ]
