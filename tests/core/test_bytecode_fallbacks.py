"""Per-function fallback of the compiled engine: recorded, and never silent.

A function outside the bytecode's native subset runs on the lowered
closures, and :attr:`CompiledProgram.fallbacks` says why.  Anything else the
compiler or the lowering pass raises is a defect: it must surface from
``run_unit`` instead of quietly handing the whole unit to a slower engine,
where every verdict test would still pass.
"""

import pytest

from repro.core import bytecode, lowering
from repro.core.config import CheckerOptions
from repro.core.kcc import KccTool

TOOL = KccTool(CheckerOptions(engine="compiled"))


def test_pointer_features_outside_the_subset_fall_back():
    unit = TOOL.compile_unit(
        "int *first(int *v) { return v; }\n"
        "int deep(int **pp) { int **q = pp; return **q; }\n"
        "int addr(void) { int x = 1; int *p = &x; return *p; }\n"
        "int main(void) { int a[2] = {1, 2}; first(a); return a[0] - 1; }"
    )
    program = unit.compiled_for(TOOL.options)
    assert program is not None
    assert program.fallbacks == {
        "first": "non-flat return type",
        "deep": "declaration of type int * *",
        "addr": "unary operator '&'",
    }
    assert list(program.functions) == ["main"]


def test_a_unit_with_no_native_function_has_no_program():
    unit = TOOL.compile_unit("int main(void) { double d = 1.0; return (int)d; }")
    assert unit.compiled_for(TOOL.options) is None


def test_compiler_defects_surface_from_run_unit(monkeypatch):
    def broken(self):
        raise RuntimeError("compiler defect")

    monkeypatch.setattr(bytecode._FnCompiler, "compile", broken)
    unit = TOOL.compile_unit("int main(void) { return 0; }")
    with pytest.raises(RuntimeError, match="compiler defect"):
        TOOL.run_unit(unit)


def test_lowering_defects_surface_from_run_unit(monkeypatch):
    def broken(unit, options, **flags):
        raise RuntimeError("lowering defect")

    monkeypatch.setattr(lowering, "lower_unit", broken)
    unit = TOOL.compile_unit("int main(void) { return 0; }")
    with pytest.raises(RuntimeError, match="lowering defect"):
        TOOL.run_unit(unit)
