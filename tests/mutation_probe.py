"""Comparison-swap mutation probe: which comparisons do the tests pin?

    python tests/mutation_probe.py src/coiquery/trust.py src/coiquery/core.py

Each ``<``, ``<=``, ``>`` and ``>=`` in the named modules is swapped with
its strict or non-strict twin, one site at a time, in a copy of the
repository in a fresh temporary directory, removed at the end; the
checkout itself is never written.  The module's own test file
``tests/test_<module>.py`` runs on each mutant, and the whole ``tests``
directory runs on a mutant that file lets through.  Runs go one after
another, each in its own subprocess group killed after ``TIMEOUT``
seconds, so a mutant that makes a test loop is reported as hanging.
A mutant that survives the whole suite is either equivalent (argue it
in a comment) or a boundary no test pins (add one).  Standard library
only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}
TIMEOUT = 180  # seconds per pytest run, several times what the whole suite takes


def mutants(source: str):
    """Yield ``(label, mutated source)`` for every swappable comparison."""
    tree = ast.parse(source)
    owner = {
        id(node): scope.name
        for scope in ast.walk(tree)
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(scope)
    }  # walk order is outermost first, so a nested def's name wins
    for node in [n for n in ast.walk(tree) if isinstance(n, ast.Compare)]:
        for index, op in enumerate(node.ops):
            if type(op) not in SWAP:
                continue
            node.ops[index] = SWAP[type(op)]()
            site = f"{owner.get(id(node), '<module>')}:{node.lineno}"
            if len(node.ops) > 1:  # a chain such as ``1 <= d < z``
                site += f" (comparison {index + 1} of {len(node.ops)})"
            swap = f"{SYMBOL[type(op)]} -> {SYMBOL[type(node.ops[index])]}"
            yield f"{site} {swap}", ast.unparse(tree)
            node.ops[index] = op


def run_tests(copy: Path, tests: str) -> str:
    """``passes``, ``fails`` or ``hangs``: pytest on ``tests`` in ``copy``."""
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", tests]
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    with subprocess.Popen(
        argv,
        cwd=copy,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    ) as child:
        try:
            return "fails" if child.wait(TIMEOUT) else "passes"
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            return "hangs"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", type=Path, help="module files to mutate")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as scratch:
        return probe(args.modules, Path(scratch) / "repo")


def probe(modules: list[Path], copy: Path) -> int:
    """Copy the repository to ``copy`` and report each mutant of ``modules``."""
    skip = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".bench_work")
    shutil.copytree(ROOT, copy, ignore=skip)
    if run_tests(copy, "tests") != "passes":
        print("the unmutated suite does not pass; no mutant was run")
        return 2
    survivors = []
    for module in modules:
        relative = module.resolve().relative_to(ROOT)
        target, source = copy / relative, (ROOT / relative).read_text()
        own = f"tests/test_{relative.stem}.py"
        own = own if (copy / own).exists() else "tests"
        for label, mutated in mutants(source):
            target.write_text(mutated)
            result = run_tests(copy, own)
            if result == "passes" and own != "tests":
                result = run_tests(copy, "tests")
            outcome = {"fails": "killed", "passes": "SURVIVES"}.get(result, "HANGS")
            print(f"{relative.name} {label}: {outcome}", flush=True)
            if outcome != "killed":
                survivors.append(f"{relative.name} {label}: {outcome}")
        target.write_text(source)  # the next module's tests see this one unmutated
    print(f"{len(survivors)} not killed", *survivors, sep="\n  ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
