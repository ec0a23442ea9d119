"""Per-layer tracing for the traced run, installed from outside the program.

The traced run wraps each layer's public entry point at runtime, on the
module attribute its caller looks up (``repro.cfront.parser.tokenize``,
``repro.core.kcc.parse``, ``KccTool.run_unit`` ...).  Nothing under
``src/`` changes, and the untraced run never sees a wrapper.

Every wrapped call records a span -- name, start, end and the span that was
open when it began -- in memory.  A layer's self time is its spans' total
duration minus the time their child spans cover.  Counters (tokens, steps,
cache lookups, natively compiled functions) are recorded at the same
boundaries.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Callable


class Tracer:
    """Spans kept in memory, parent-linked; counters beside them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.roots: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter = Counter()
        #: Host-speed scale per root span (see :mod:`hostspeed`).
        self.scales: dict[int, float] = {}
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.roots.append(self._stack[0] if self._stack else index)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def totals(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """(self seconds, inclusive seconds, span count) per span name, in
        seconds at the reference host speed."""
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for index, name in enumerate(self.names):
            duration = (self.ends[index] - self.starts[index]) * \
                self.scales.get(self.roots[index], 1.0)
            self_s[name] += duration
            total_s[name] += duration
            calls[name] += 1
            parent = self.parents[index]
            if parent >= 0:
                self_s[self.names[parent]] -= duration
        return dict(self_s), dict(total_s), calls

    def to_dict(self) -> dict:
        """The raw spans, for writing out when the run ends."""
        return {"names": self.names, "parents": self.parents,
                "starts": self.starts, "ends": self.ends,
                "scales": {str(k): v for k, v in self.scales.items()},
                "counts": dict(self.counts)}


def _span(tracer: Tracer, original: Callable, name_of: Callable,
          after: Callable | None = None) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name_of(args, kwargs))
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(args, kwargs, result)
        return result
    return wrapper


def _run_span_name(args, kwargs) -> str:
    tool = args[0]
    if tool.options.effective_engine() == "walker":
        return "core.run.walker"
    return "core.run.probed" if kwargs.get("probes") else "core.run"


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced entry point; returns the function that unwraps them."""
    import repro.api.session as session
    import repro.cfront.parser as parser
    import repro.core.bytecode as bytecode
    import repro.core.interpreter as interpreter
    import repro.core.kcc as kcc
    import repro.core.lowering as lowering
    import repro.fuzz.generator as generator
    import repro.fuzz.oracles as oracles
    import repro.suites.harness as harness
    from repro.cfront import ast as c_ast

    counts = tracer.counts
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attribute: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attribute)
        saved.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def spanned(name: str, after: Callable | None = None):
        return lambda original: _span(tracer, original, lambda a, k: name, after)

    def count_tokens(args, kwargs, tokens) -> None:
        counts["cfront.lex.tokens"] += len(tokens)

    def count_call(key: str):
        def after(args, kwargs, result) -> None:
            counts[key] += 1
        return after

    # cfront: kcc.parse runs preprocess and tokenize from the parser module.
    patch(parser, "preprocess", spanned("cfront.preprocess"))
    patch(parser, "tokenize", spanned("cfront.lex", count_tokens))
    patch(kcc, "parse", spanned("cfront.parse", count_call("cfront.parse.calls")))
    patch(kcc, "check_translation_unit", spanned("sema.static_checks"))
    patch(kcc.KccTool, "compile_unit",
          spanned("core.compile_unit", count_call("core.compile_unit.calls")))

    # CompiledUnit.lowered_for / compiled_for import these at call time.
    patch(lowering, "lower_unit", lambda original: _span(
        tracer, original,
        lambda a, k: ("core.lowering.instrumented" if k.get("instrument")
                      else "core.lowering.plain")))
    patch(bytecode, "compile_unit_bytecode", spanned("core.bytecode"))

    def compiled_for(original):
        @functools.wraps(original)
        def wrapper(unit, options):
            program = original(unit, options)
            defined = [d.name for d in unit.unit.declarations
                       if isinstance(d, c_ast.FunctionDef) and d.body is not None] \
                if unit.unit is not None else []
            native = program.functions if program is not None else {}
            counts["core.bytecode.units_run"] += 1
            counts["core.bytecode.fns_defined"] += len(defined)
            counts["core.bytecode.fns_native"] += sum(1 for n in defined if n in native)
            counts["core.bytecode.main_native"] += "main" in native
            return program
        return wrapper
    patch(kcc.CompiledUnit, "compiled_for", compiled_for)

    patch(kcc.KccTool, "run_unit",
          lambda original: _span(tracer, original, _run_span_name))

    def interpreter_run(original):
        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            try:
                return original(self, *args, **kwargs)
            finally:
                counts["core.run.steps"] += self._steps
        return wrapper
    patch(interpreter.Interpreter, "run", interpreter_run)

    def get_or_compile(original):
        @functools.wraps(original)
        def wrapper(self, source, *, compile_fn, **kwargs):
            missed = []

            def compile_and_note():
                missed.append(True)
                return compile_fn()
            result = original(self, source, compile_fn=compile_and_note, **kwargs)
            counts["api.session.cache_lookups"] += 1
            counts["api.session.cache_misses"] += bool(missed)
            return result
        return wrapper
    patch(session.CompileCache, "get_or_compile", get_or_compile)

    patch(harness, "run_probe_group", spanned("analyzers.run_probe_group"))
    patch(generator, "generate_case", spanned("fuzz.generate_case"))
    patch(oracles, "run_oracles", spanned("fuzz.run_oracles"))

    def uninstall() -> None:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
    return uninstall
