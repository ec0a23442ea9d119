"""Configuration of the undefinedness checker.

Each flag corresponds to one of the paper's specification techniques
(Section 4).  Turning a flag off removes the corresponding "negative
semantics" while keeping the positive semantics intact, which is exactly the
ablation the paper's narrative implies: without the extra checks, undefined
programs silently receive a meaning.  The ablation benchmark
(``benchmarks/test_bench_ablation.py``) measures how much of each test-suite
class is lost when a technique is disabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cfront.ctypes import ImplementationProfile, LP64


#: The dynamic-stage engines :attr:`CheckerOptions.engine` may name.
ENGINES = ("walker", "lowered", "compiled")


@dataclass(frozen=True)
class CheckerOptions:
    """Options controlling which undefinedness checks the semantics applies."""

    #: §4.1.1 — side conditions on arithmetic rules (division by zero,
    #: signed overflow, invalid shifts, bad conversions).
    check_arithmetic: bool = True
    #: §4.1.2 — side conditions / embedded checks on memory access rules
    #: (null/void/dead/out-of-bounds dereference, bad free).
    check_memory: bool = True
    #: §4.2.1 — track the ``locsWrittenTo`` cell and flag unsequenced side
    #: effects on scalar objects.
    check_sequencing: bool = True
    #: §4.2.2 — track the ``notWritable`` cell and flag writes to const
    #: objects and string literals.
    check_const: bool = True
    #: §4.3.1 — symbolic base/offset locations: relational comparison and
    #: subtraction of pointers into different objects is flagged.
    check_pointer_provenance: bool = True
    #: §4.3.3 — indeterminate (``unknown``) bytes: using an uninitialized
    #: value is flagged (copying through character types stays allowed).
    check_uninitialized: bool = True
    #: §6.5:7 — effective-type (strict aliasing) checking.
    check_effective_types: bool = True
    #: function call checks (argument count/type, missing return value use).
    check_functions: bool = True

    #: Implementation profile (sizes of types etc., §2.5.1).
    profile: ImplementationProfile = field(default_factory=lambda: LP64)

    #: Resource limits so analysis of looping programs terminates.
    max_steps: int = 2_000_000
    max_call_depth: int = 400
    max_heap_objects: int = 100_000

    #: Use the lowered closure-tree fast path for the dynamic stage
    #: (:mod:`repro.core.lowering`).  Verdicts are identical either way (held
    #: to by the differential tests); turning it off (``--no-lowering`` on
    #: the CLI) falls back to the legacy recursive AST walker.
    enable_lowering: bool = True

    #: Dynamic-stage engine: ``"compiled"`` (flat register bytecode on the
    #: VM of :mod:`repro.core.vm`, falling back per function to the lowered
    #: closures), ``"lowered"`` (closure trees only), or ``"walker"`` (the
    #: legacy recursive AST walker).  Verdicts are identical across all
    #: three (held to by the three-way differential matrix in
    #: ``tests/core/test_engine_matrix.py``).  The compiled engine applies
    #: to single non-search runs; evaluation-order search always keeps the
    #: walker's decision points, and runs whose probes subscribe to events
    #: use the instrumented closure engine.
    engine: str = "compiled"

    #: Evaluation-order strategy: "left-to-right", "right-to-left" or
    #: "search" (explore orders of unsequenced subexpressions, §2.5.2).
    evaluation_order: str = "left-to-right"
    #: Bound on the number of evaluation orders explored in search mode.
    max_search_paths: int = 64

    def effective_engine(self) -> str:
        """The dynamic-stage engine this configuration selects.

        ``enable_lowering=False`` (the historical ``--no-lowering`` ablation)
        forces the walker regardless of :attr:`engine`, so existing ablation
        call sites keep their meaning.
        """
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; "
                             f"expected 'walker', 'lowered' or 'compiled'")
        if not self.enable_lowering:
            return "walker"
        return self.engine

    def without(self, **flags: bool) -> "CheckerOptions":
        """Return a copy with the given check flags overridden (for ablations)."""
        return replace(self, **flags)

    @classmethod
    def all_disabled(cls) -> "CheckerOptions":
        """A configuration with every undefinedness check turned off.

        This models the "positive semantics only" starting point the paper
        describes: a semantics of correct programs that silently gives
        meaning to many undefined ones.
        """
        return cls(
            check_arithmetic=False,
            check_memory=False,
            check_sequencing=False,
            check_const=False,
            check_pointer_provenance=False,
            check_uninitialized=False,
            check_effective_types=False,
            check_functions=False,
        )


DEFAULT_OPTIONS = CheckerOptions()
