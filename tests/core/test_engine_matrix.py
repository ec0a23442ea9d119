"""Three-way differential matrix: walker vs lowered closures vs compiled VM.

PR 7 adds the register-bytecode engine (:mod:`repro.core.bytecode` +
:mod:`repro.core.vm`).  Like the lowered fast path before it, the compiled
engine must never change a verdict: for every program, the outcome kind,
the full structured diagnostics, stdout, and the exit code must be
identical across all three engines — over the fixed suites, a fixed-seed
fuzz corpus, and under ablated option sets (each ablation removes checks,
which shifts which fast paths the VM may take, so equality must hold per
configuration, not just for the default one).

This is the contract that lets ``--engine`` be an escape hatch rather than
three different tools.
"""

import pytest

from repro.core.config import CheckerOptions
from repro.core.kcc import KccTool
from repro.fuzz.generator import generate_cases
from repro.suites.juliet import generate_juliet_suite
from repro.suites.ubsuite import generate_undefinedness_suite

ENGINES = ("walker", "lowered", "compiled")

#: Fixed-seed fuzz corpus: 500 programs, mixed clean/injected.  Any change
#: to the seed or count is a deliberate corpus change, not noise.
FUZZ_SEED = 20260808
FUZZ_COUNT = 500

#: Ablated configurations: every check off (the paper's positive-semantics
#: starting point), and single-family ablations of the checks whose fast
#: paths the VM specializes hardest (uninitialized reads gate the register
#: file, sequencing gates the flat stores, arithmetic gates the inlined
#: plans, memory gates the array fast path).
ABLATIONS = {
    "default": CheckerOptions(),
    "all-disabled": CheckerOptions.all_disabled(),
    "no-uninitialized": CheckerOptions(check_uninitialized=False),
    "no-sequencing": CheckerOptions(check_sequencing=False),
    "no-arithmetic": CheckerOptions(check_arithmetic=False),
    "no-memory": CheckerOptions(check_memory=False),
}


def _tools(options: CheckerOptions) -> dict[str, KccTool]:
    return {engine: KccTool(options.without(engine=engine))
            for engine in ENGINES}


TOOLS = {label: _tools(options) for label, options in ABLATIONS.items()}


def facts(report):
    """What the matrix holds equal across engines."""
    outcome = report.outcome
    return (outcome.kind.name,
            [diagnostic.to_dict() for diagnostic in outcome.diagnostics()],
            outcome.stdout,
            outcome.exit_code)


def assert_matrix(source: str, name: str, tools: dict[str, KccTool],
                  label: str = "default") -> None:
    reports = {engine: tool.check(source, filename=name)
               for engine, tool in tools.items()}
    expected = facts(reports["walker"])
    for engine in ("lowered", "compiled"):
        assert facts(reports[engine]) == expected, (
            f"{engine} engine disagrees with the walker on {name} "
            f"under options {label!r}:\n"
            f"  {engine}: {facts(reports[engine])}\n"
            f"  walker:  {expected}")


@pytest.fixture(scope="module")
def ubsuite():
    return generate_undefinedness_suite()


@pytest.fixture(scope="module")
def juliet():
    return generate_juliet_suite()


@pytest.fixture(scope="module")
def fuzz_corpus():
    return generate_cases(FUZZ_SEED, FUZZ_COUNT, inject="mixed")


def test_compiled_engine_is_actually_used():
    """Guard against a silent fallback: native functions must be present
    in the bytecode program, and the compiled tool must select them."""
    tool = TOOLS["default"]["compiled"]
    unit = tool.compile_unit(
        "int main(void){ int i, s = 0; for (i = 0; i < 9; i++) s += i; "
        "return s > 0 ? 0 : 1; }")
    program = unit.compiled_for(tool.options)
    assert program is not None
    assert "main" in program.functions
    # And a function outside the native subset stays absent (per-function
    # fallback), without poisoning the rest of the program.
    mixed = tool.compile_unit(
        "int f(int v){ double d = v; return (int)d; }\n"
        "int g(void){ return 7; }\n"
        "int main(void){ int x = 1; return f(x) - g() + 6; }")
    mixed_program = mixed.compiled_for(tool.options)
    assert mixed_program is not None
    assert "f" not in mixed_program.functions
    assert "g" in mixed_program.functions
    assert "main" in mixed_program.functions
    # The fallback keeps its reason.
    assert mixed_program.fallbacks == {"f": "declaration of type double"}


def test_engine_option_validation():
    with pytest.raises(ValueError):
        CheckerOptions(engine="jit").effective_engine()
    # The historical --no-lowering ablation still forces the walker.
    assert CheckerOptions(enable_lowering=False).effective_engine() == "walker"
    assert CheckerOptions().effective_engine() == "compiled"


def test_every_ubsuite_case_is_engine_equivalent(ubsuite):
    for case in ubsuite.cases:
        assert_matrix(case.source, case.name, TOOLS["default"])


def test_every_juliet_case_is_engine_equivalent(juliet):
    for case in juliet.cases:
        assert_matrix(case.source, case.name, TOOLS["default"])


def test_fuzz_corpus_is_engine_equivalent(fuzz_corpus):
    for case in fuzz_corpus:
        assert_matrix(case.source, case.name, TOOLS["default"])


@pytest.mark.parametrize("label", [k for k in ABLATIONS if k != "default"])
def test_ubsuite_matrix_under_ablation(ubsuite, label):
    for case in ubsuite.cases:
        assert_matrix(case.source, case.name, TOOLS[label], label)


@pytest.mark.parametrize("label", [k for k in ABLATIONS if k != "default"])
def test_fuzz_sample_under_ablation(fuzz_corpus, label):
    # The full 500-case corpus runs under the default options above; each
    # ablation re-runs a fixed slice (every 5th case) to keep the matrix
    # affordable while still crossing every template family with every
    # ablated fast-path configuration.
    for case in fuzz_corpus[::5]:
        assert_matrix(case.source, case.name, TOOLS[label], label)


#: Targeted programs for the constructs PR 9 taught the generator: negative
#: signed arithmetic, function pointers, printf conversions, compound
#: literals, overlapping aggregate copies, and huge-object pointer
#: differences.  Each is run through every engine under every ablation — the
#: constructs stress exactly the paths where the VM falls back per-function
#: and the lowered engine routes through the generic interpreter.
NEW_CONSTRUCT_PROGRAMS = {
    "signed-trunc-division": """
int main(void) {
    int s = 3 - 40;
    int q = s / 7;
    int r = s % 7;
    printf("%d %d %d %d\\n", s, -s, q, r);
    return 0;
}
""",
    "division-quotient-unrepresentable": """
int main(void) {
    int lo = (-2147483647 - 1);
    int q = lo / -1;
    q = q;
    return 0;
}
""",
    "abs-of-most-negative": """
int main(void) {
    int r = abs(-2147483647 - 1);
    r = r;
    return 0;
}
""",
    "printf-format-grammar": """
int main(void) {
    int v = 48879;
    printf("x=%x X=%X o=%o u=%u c=%c\\n", v, v, v, v, 65);
    return 0;
}
""",
    "printf-pointer-for-int": """
int main(void) {
    int x = 1;
    printf("%d\\n", &x);
    return 0;
}
""",
    "printf-missing-argument": """
int main(void) {
    int x = 7;
    printf("%d %d\\n", x);
    return 0;
}
""",
    "clean-function-pointer": """
int twice(int a, int b) { return a + a + b; }
int main(void) {
    int (*fp)(int, int) = twice;
    printf("%d\\n", fp(3, 4));
    return 0;
}
""",
    "fnptr-wrong-type-call": """
int lone(int a) { return a + 1; }
int main(void) {
    int (*fn)(int, int) = (int (*)(int, int))lone;
    int r = fn(3, 4);
    r = r;
    return 0;
}
""",
    "clean-compound-literal": """
int main(void) {
    int v = (int){ 21 };
    printf("%d\\n", v + 1);
    return 0;
}
""",
    "compound-literal-escapes-scope": """
int main(void) {
    int *p;
    if (1) { p = &(int){21}; }
    int x = *p;
    x = x;
    return 0;
}
""",
    "overlapping-assignment": """
int main(void) {
    struct pair { int a; int b; };
    struct pair arr[3];
    arr[0].a = 1;
    arr[0].b = 2;
    arr[1].a = 3;
    arr[1].b = 4;
    struct pair *src = (struct pair *)((char *)arr + 4);
    arr[0] = *src;
    return 0;
}
""",
    "memcpy-overlapping": """
int main(void) {
    char buf[16];
    int i;
    for (i = 0; i < 16; i = i + 1) { buf[i] = i; }
    memcpy(buf + 2, buf, 8);
    return 0;
}
""",
    "pointer-difference-unrepresentable": """
int main(void) {
    static char vast[9223372036854775812];
    char *a = vast;
    char *b = vast + 9223372036854775810;
    long d = b - a;
    d = d;
    return 0;
}
""",
}


@pytest.mark.parametrize("label", list(ABLATIONS))
def test_new_constructs_under_every_ablation(label):
    for name, source in NEW_CONSTRUCT_PROGRAMS.items():
        assert_matrix(source, name, TOOLS[label], label)


#: Flat-integer pointer locals and parameters run natively on the VM; each
#: program names the function whose pointer code is under test.  Every
#: check on these paths goes through the shared pointer helpers, so the
#: three engines must agree under every ablation.
POINTER_PROGRAMS = {
    "walk-to-one-past-end": ("main", """
int main(void) {
    int a[4] = {1, 2, 3, 4};
    int *p = a;
    int s = 0;
    while (p < a + 4) { s += *p; p++; }
    return s;
}
"""),
    "deref-one-past-end": ("main", """
int main(void) {
    int a[4] = {1, 2, 3, 4};
    int *p = a;
    int s = 0;
    for (int i = 0; i < 4; i++) s += *p++;
    return s + *p;
}
"""),
    "null-deref-through-register": ("main", """
int main(void) {
    int a[2] = {5, 6};
    int *p = a;
    int s = *p;
    p = 0;
    if (!p) s = s + 1;
    return s + *p;
}
"""),
    "uninitialized-pointer-read": ("main", """
int main(void) {
    int a[2] = {5, 6};
    int *p;
    int *q = a;
    int s = q[1];
    if (s > 0) p = p + 1;
    return s;
}
"""),
    "difference-across-arrays": ("main", """
int main(void) {
    int a[4] = {0};
    int b[4] = {0};
    int *p = a + 1;
    int *q = b;
    long d = p - a;
    if (d == 1) d = p - q;
    return (int)d;
}
"""),
    "relational-across-arrays": ("main", """
int main(void) {
    int a[4] = {0};
    int b[4] = {0};
    int *p = a;
    int *q = b;
    int r = p == q;
    r = r + (p != q);
    if (p < q) return 1;
    return r;
}
"""),
    "char-pointer-over-int-array": ("main", """
int main(void) {
    int a[2] = {0x01020304, 5};
    char *c = (char *)a;
    int s = 0;
    for (int i = 0; i < 8; i++) s = s + c[i];
    c[0] = 9;
    return s + a[0] % 7;
}
"""),
    "int-pointer-over-char-array": ("main", """
int main(void) {
    char buf[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    int *p = (int *)buf;
    int s = buf[0];
    s = s + *p;
    return s;
}
"""),
    "pointer-outlives-block-array": ("main", """
int main(void) {
    int *p;
    int s = 0;
    {
        int b[3] = {7, 8, 9};
        p = b;
        s = p[1];
    }
    return s + *p;
}
"""),
    "deref-assign-of-post-increment": ("main", """
int main(void) {
    int a[4] = {1, 2, 3, 4};
    int *p = a;
    *p = *p++;
    return a[0] + *p;
}
"""),
    "unsequenced-writes-through-aliases": ("main", """
int main(void) {
    int a[2] = {1, 2};
    int *p = a;
    int *q = a;
    *p = (*q)++ + 1;
    return a[0];
}
"""),
    "pointer-parameter-fed-decayed-array": ("sum", """
int sum(int *v, int n) {
    int s = 0;
    for (int i = 0; i < n; i++) s += v[i];
    v[0] = s;
    return s;
}
int bump(char *s, int n) {
    char *e = s + n;
    int k = 0;
    while (s != e) { *s += 1; s++; k++; }
    return k;
}
int main(void) {
    int a[5] = {1, 2, 3, 4, 5};
    char t[3] = {1, 2, 3};
    int r = sum(a, 5) + bump(t, 3);
    return r + a[0] + t[2] + sum(a, 6);
}
"""),
    "pointer-operator-mix": ("main", """
int main(void) {
    int a[6] = {1, 2, 3, 4, 5, 6};
    int *p = a + 5, *q = a;
    char s[4] = {'a', 'b', 'c', 0};
    char *c = s;
    unsigned char *u = (unsigned char *)s;
    int n = 0;
    while (*c) { n += *c++ - 'a'; }
    p -= 2; q += 1; --p; ++q;
    p[0] += 10; *q *= 3; q[1]--; (*p)++;
    int *r = p > q ? p : q;
    if (p && !(q == 0) && r >= p) n += *r;
    n += (int)(p - q) + u[1] + 1[q];
    int *z = 0;
    if (z == 0 && (z || p)) n++;
    char *t = "xyz";
    n += t[1];
    t = "q";
    return n + *t;
}
"""),
}


@pytest.mark.parametrize("name", list(POINTER_PROGRAMS))
def test_pointer_function_runs_natively(name):
    function, source = POINTER_PROGRAMS[name]
    tool = TOOLS["default"]["compiled"]
    program = tool.compile_unit(source).compiled_for(tool.options)
    assert program is not None
    assert function in program.functions, program.fallbacks


@pytest.mark.parametrize("label", list(ABLATIONS))
def test_pointer_programs_under_every_ablation(label):
    for name, (_function, source) in POINTER_PROGRAMS.items():
        assert_matrix(source, name, TOOLS[label], label)
