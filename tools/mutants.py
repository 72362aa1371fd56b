"""Seeded mutation testing of `fvlrp` modules, with the stdlib only.

A mutant changes one site of `src/fvlrp/<module>.py`: a comparison
`<` <-> `<=` or `>` <-> `>=`, an arithmetic operator `+` <-> `-` or
`*` <-> `/`, or a numeric constant plus one. The module is parsed with
`ast`, changed at that one node and written back with `ast.unparse`
into a temporary copy of the tree. There the module's own test file and
`tests/test_acceptance.py` run with `-x`. A mutant they pass survives:
either a test is missing or the change is equivalent.

The sites are a sample of `SITES` per module drawn with seed `SEED`,
so a run can be repeated:

    python tools/mutants.py imaging synth

It prints one line per mutant and exits 1 when any survives. The
unchanged tree is tested first; a failure there stops the run, and its
duration times `TIMEOUT_FACTOR` bounds each mutant's run, so a mutant
that loops forever is stopped (and counts as killed).
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SITES = 25
SEED = 0
TIMEOUT_FACTOR = 10
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
           ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


def sites(tree: ast.AST) -> list[tuple[int, int]]:
    """Every mutable site as (node number in `ast.walk` order, operand
    number): the comparison operator, the arithmetic operator or the
    numeric constant of that node."""
    found = []
    for n, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            found += [(n, i) for i, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            found.append((n, 0))
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            found.append((n, 0))
    return found


def mutate(source: str, site: tuple[int, int]) -> tuple[str, str]:
    """The module with `site` changed, and a one-line description."""
    tree = ast.parse(source)
    n, i = site
    node = next(node for k, node in enumerate(ast.walk(tree)) if k == n)
    if isinstance(node, ast.Compare):
        old = type(node.ops[i])
        node.ops[i] = SWAPS[old]()
        change = f"{SYMBOLS[old]} -> {SYMBOLS[SWAPS[old]]}"
    elif isinstance(node, ast.Constant):
        change = f"{node.value!r} -> {node.value + 1!r}"
        node.value += 1
    else:
        old = type(node.op)
        node.op = SWAPS[old]()
        change = f"{SYMBOLS[old]} -> {SYMBOLS[SWAPS[old]]}"
    return ast.unparse(tree) + "\n", f"line {node.lineno}: {change}"


def run_tests(tree_dir: str, tests: list[str], timeout: float | None) -> str | None:
    """None when `tests` pass in `tree_dir` within `timeout` seconds (no
    bound when None), else what stopped them: the first failing test id,
    or the timeout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree_dir, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *tests], cwd=tree_dir, env=env, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return f"timeout after {timeout:.0f} s"
    if done.returncode == 0:
        return None
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return failed.group(1) if failed else f"pytest exit {done.returncode}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", help="module names under src/fvlrp")
    args = parser.parse_args(argv)
    work = tempfile.mkdtemp(prefix="mutants-")
    survivors = 0
    try:
        for name in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, name), os.path.join(work, name),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), work)
        for module in args.modules:
            rel = os.path.join("src", "fvlrp", f"{module}.py")
            tests = [f"tests/test_{module}.py", "tests/test_acceptance.py"]
            with open(os.path.join(ROOT, rel), encoding="utf-8") as fh:
                source = fh.read()
            # the baseline is the module as unparsed, like every mutant
            with open(os.path.join(work, rel), "w", encoding="utf-8") as fh:
                fh.write(ast.unparse(ast.parse(source)) + "\n")
            start = time.monotonic()
            stopped = run_tests(work, tests, None)
            if stopped is not None:
                print(f"{module}: the unchanged tree fails ({stopped})")
                return 2
            timeout = TIMEOUT_FACTOR * (time.monotonic() - start)
            every = sites(ast.parse(source))
            chosen = sorted(random.Random(SEED).sample(every, min(SITES, len(every))))
            print(f"{module}: {len(chosen)} of {len(every)} sites, seed {SEED}")
            for site in chosen:
                mutant, what = mutate(source, site)
                with open(os.path.join(work, rel), "w", encoding="utf-8") as fh:
                    fh.write(mutant)
                stopped = run_tests(work, tests, timeout)
                survivors += stopped is None
                verdict = "SURVIVED" if stopped is None else f"killed by {stopped}"
                print(f"  {module}.py {what}: {verdict}", flush=True)
            with open(os.path.join(work, rel), "w", encoding="utf-8") as fh:
                fh.write(source)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{survivors} mutant(s) survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
