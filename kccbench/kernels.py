"""Seeded loop kernels for the ``run-kernels`` workload.

Every kernel is a small C program built from a family template and a few
seeded constants.  Its expected answer -- the exit code, or the undefined
behavior the program ends in -- is computed here in Python from the same
constants, never by the checker under test.

Families fall in two groups, by how the checker executes them today:

* in the register-bytecode subset: ``arith``, ``array``, ``calls``;
* handed to the lowered closures: ``intptr`` (``int *`` locals),
  ``charptr`` (``char *`` locals), ``fnptr`` (an array of function
  pointers) and ``compound`` (compound literals).

Loop trip counts are fixed per family so that every kernel takes roughly
the same number of abstract machine steps (about 3,000); only the
constants, and which quarter of each family ends in which undefined tail,
vary with the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

FAMILIES = ("arith", "array", "calls", "intptr", "charptr", "fnptr", "compound")

#: The undefined tails a kernel may end in, with the UB kind each raises.
UB_TAILS = {
    "div0": "DIVISION_BY_ZERO",
    "overflow": "SIGNED_OVERFLOW",
    "oob": "INVALID_POINTER_ARITHMETIC",
    "uninit": "UNINITIALIZED_READ",
}

#: Loop trip counts, sized to ~3,000 steps per kernel.
_ITERATIONS = {"arith": 150, "calls": 130, "fnptr": 100, "compound": 90}
_ROUNDS = {"array": 4, "intptr": 4, "charptr": 4}  # rounds over 32 elements
#: Kernels per family in one seed's corpus.
PER_FAMILY = 20


@dataclass(frozen=True)
class Kernel:
    name: str
    family: str
    source: str
    #: Exit code of a defined kernel, else None.
    expected_exit: Optional[int]
    #: ``UBKind`` name the kernel must be flagged with, else None.
    expected_ub: Optional[str]


def _tail(ub: Optional[str]) -> list[str]:
    if ub is None:
        return ["    return acc % 256;"]
    return {
        "div0": ["    int z = acc - acc;", "    return acc / z;"],
        "overflow": ["    int big = 2147483647 - acc % 2;",
                     "    return (big + 2) % 256;"],
        "oob": ["    int b[4] = {0};", "    return b[5 + acc % 3];"],
        "uninit": ["    int u;", "    if (acc >= 0) return (u + acc) % 256;",
                   "    return 0;"],
    }[ub]


def _arith(rng: random.Random) -> tuple[list[str], list[str], int]:
    a0, m, c = rng.randrange(1, 9000), rng.randrange(2, 98), rng.randrange(1, 500)
    n = _ITERATIONS["arith"]
    acc = a0
    for i in range(n):
        acc = (acc * m + i + c) % 9973
    body = [f"    int acc = {a0};",
            f"    for (int i = 0; i < {n}; i++) {{",
            f"        acc = (acc * {m} + i + {c}) % 9973;",
            "    }"]
    return [], body, acc


def _table(rng: random.Random) -> tuple[int, int, list[int]]:
    p, q = rng.randrange(1, 100), rng.randrange(0, 100)
    return p, q, [(i * p + q) % 101 for i in range(32)]


def _array(rng: random.Random) -> tuple[list[str], list[str], int]:
    p, q, table = _table(rng)
    rounds = _ROUNDS["array"]
    acc = 0
    for r in range(rounds):
        for i in range(32):
            acc = (acc + table[i] * (r + 1)) % 10007
    body = ["    int a[32];",
            f"    for (int i = 0; i < 32; i++) a[i] = (i * {p} + {q}) % 101;",
            "    int acc = 0;",
            f"    for (int r = 0; r < {rounds}; r++) {{",
            "        for (int i = 0; i < 32; i++) acc = (acc + a[i] * (r + 1)) % 10007;",
            "    }"]
    return [], body, acc


def _calls(rng: random.Random) -> tuple[list[str], list[str], int]:
    a0, b = rng.randrange(0, 1009), rng.randrange(0, 1000)
    n = _ITERATIONS["calls"]
    acc = a0
    for i in range(n):
        acc = (acc * 31 + i + b) % 1009
    helpers = ["static int step(int x, int k) { return (x * 31 + k) % 1009; }"]
    body = [f"    int acc = {a0};",
            f"    for (int i = 0; i < {n}; i++) acc = step(acc, i + {b});"]
    return helpers, body, acc


def _intptr(rng: random.Random) -> tuple[list[str], list[str], int]:
    p, q, table = _table(rng)
    rounds = _ROUNDS["intptr"]
    acc = 0
    for r in range(rounds):
        for i in range(32):
            acc = (acc + table[i] * (r + 1)) % 10007
    body = ["    int a[32];",
            f"    for (int i = 0; i < 32; i++) a[i] = (i * {p} + {q}) % 101;",
            "    int acc = 0;",
            f"    for (int r = 0; r < {rounds}; r++) {{",
            "        int *p = a;",
            "        for (int i = 0; i < 32; i++) {",
            "            acc = (acc + *p * (r + 1)) % 10007;",
            "            p++;",
            "        }",
            "    }"]
    return [], body, acc


def _charptr(rng: random.Random) -> tuple[list[str], list[str], int]:
    p, q = rng.randrange(1, 26), rng.randrange(0, 26)
    text = [97 + (i * p + q) % 26 for i in range(32)]
    rounds = _ROUNDS["charptr"]
    acc = 0
    for _ in range(rounds):
        for ch in text:
            acc = (acc * 7 + ch) % 10007
    body = ["    char s[32];",
            f"    for (int i = 0; i < 32; i++) s[i] = (char)(97 + (i * {p} + {q}) % 26);",
            "    int acc = 0;",
            f"    for (int r = 0; r < {rounds}; r++) {{",
            "        char *p = s;",
            "        for (int i = 0; i < 32; i++) {",
            "            acc = (acc * 7 + *p) % 10007;",
            "            p++;",
            "        }",
            "    }"]
    return [], body, acc


def _fnptr(rng: random.Random) -> tuple[list[str], list[str], int]:
    a0, b = rng.randrange(0, 10007), rng.randrange(0, 3)
    n = _ITERATIONS["fnptr"]
    ops = (lambda x, y: (x + y) % 10007,
           lambda x, y: (x - y + 10007) % 10007,
           lambda x, y: (x * y) % 10007)
    acc = a0
    for i in range(n):
        acc = ops[(i + b) % 3](acc, i % 97 + 1)
    helpers = ["static int add(int x, int y) { return (x + y) % 10007; }",
               "static int sub(int x, int y) { return (x - y + 10007) % 10007; }",
               "static int mul(int x, int y) { return (x * y) % 10007; }"]
    body = ["    int (*ops[3])(int, int) = {add, sub, mul};",
            f"    int acc = {a0};",
            f"    for (int i = 0; i < {n}; i++) acc = ops[(i + {b}) % 3](acc, i % 97 + 1);"]
    return helpers, body, acc


def _compound(rng: random.Random) -> tuple[list[str], list[str], int]:
    a0, b = rng.randrange(0, 10007), rng.randrange(1, 50)
    n = _ITERATIONS["compound"]
    acc = a0
    for i in range(n):
        acc = (acc + (i % 7) * b + i % 13) % 10007
    body = [f"    int acc = {a0};",
            f"    for (int i = 0; i < {n}; i++) {{",
            f"        int *w = (int[3]){{i % 7, {b}, i % 13}};",
            "        acc = (acc + w[0] * w[1] + w[2]) % 10007;",
            "    }"]
    return [], body, acc


_BUILDERS = {"arith": _arith, "array": _array, "calls": _calls,
             "intptr": _intptr, "charptr": _charptr, "fnptr": _fnptr,
             "compound": _compound}


def make_kernels(seed: int, per_family: int = PER_FAMILY) -> list[Kernel]:
    """``per_family`` kernels of every family; a quarter of each family,
    seeded, ends in a seeded undefined tail.  Same seed, same kernels."""
    rng = random.Random(f"kccbench-kernels-{seed}")
    kernels = []
    for family in FAMILIES:
        undefined = set(rng.sample(range(per_family), per_family // 4))
        for index in range(per_family):
            helpers, body, acc = _BUILDERS[family](rng)
            ub = rng.choice(sorted(UB_TAILS)) if index in undefined else None
            lines = helpers + ([""] if helpers else []) + ["int main(void) {"]
            lines += body + _tail(ub) + ["}"]
            kernels.append(Kernel(
                name=f"{family}-{index}", family=family,
                source="\n".join(lines) + "\n",
                expected_exit=acc % 256 if ub is None else None,
                expected_ub=UB_TAILS[ub] if ub is not None else None))
    return kernels
