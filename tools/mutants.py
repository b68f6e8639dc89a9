"""Run tier-1 against a committed list of one-line mutants of the package.

Each mutant replaces one exact snippet of a source file. For every mutant
the runner copies src/, tests/ and pyproject.toml into a temporary
directory, applies the replacement there (the checkout is never edited)
and runs the tier-1 suite with -x. A mutant is killed when the suite
fails. Equivalent mutants change no observable behaviour, so no test can
kill them; they are listed with the reason, and only their snippets are
checked.

Exit status: 0 when every non-equivalent mutant is killed; 1 when one
survives, when a snippet no longer occurs exactly once (the list is stale)
or when the unmutated copy does not pass.

Usage: python tools/mutants.py    (from the repository root or anywhere)
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    equivalent: str | None = None  # why no test can kill it


MUTANTS = [
    Mutant("cutoff marks ties too", "src/qmaze/search.py",
           "marked = values > cutoff", "marked = values >= cutoff"),
    Mutant("known_count rounds r up", "src/qmaze/search.py",
           "return math.floor(math.pi / (4 * theta))",
           "return math.ceil(math.pi / (4 * theta))"),
    Mutant("oracle calls count one extra per round", "src/qmaze/search.py",
           "sum(rec.grover_r for rec in history)",
           "sum(rec.grover_r + 1 for rec in history)"),
    Mutant("window clamped to N instead of sqrt(N)", "src/qmaze/search.py",
           "min(window * 6 / 5, sqrt_n)", "min(window * 6 / 5, num_states)"),
    Mutant("window not reset on acceptance", "src/qmaze/search.py",
           "window = 1.0 if accepted else", "window = window if accepted else"),
    Mutant("start == end starts walking", "src/qmaze/fitness.py",
           "(cells if start != end else 0)", "cells"),
    Mutant("arrival does not stop the walk", "src/qmaze/fitness.py",
           "dest + cells * (dest != end_cell)", "dest + cells"),
    Mutant("cache refuses values equal to D_max", "src/qmaze/fitness.py",
           "if raw.max() > d_max:", "if raw.max() >= d_max:"),
    Mutant("default length one short", "src/qmaze/paths.py",
           "return 2 * (abs(er - sr) + abs(ec - sc))",
           "return 2 * (abs(er - sr) + abs(ec - sc)) - 1"),
    Mutant("a round hits when random() equals p", "src/qmaze/search.py",
           "hit = rng.random() < p", "hit = rng.random() <= p",
           equivalent="differs only when random() returns exactly p; for"
                      " p in {0, 1} that is random() == 0.0, probability 2**-53"),
    Mutant("rejection only above half the states", "src/qmaze/search.py",
           "if 2 * size >= num_states:", "if 2 * size > num_states:",
           equivalent="at 2 * size == N both branches draw uniformly from the"
                      " level set; only the RNG stream moves"),
    Mutant("BFS route padded with S", "src/qmaze/verify.py",
           "(Direction.N,) * (n - res.distance)",
           "(Direction.S,) * (n - res.distance)",
           equivalent="the padding follows arrival, and an arrived walk"
                      " absorbs every move"),
]


def _copy(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _env(tree: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tree / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _apply(tree: Path, mutant: Mutant) -> str | None:
    """Replace the mutant's snippet in the copy; the error text if it does
    not occur exactly once."""
    target = tree / mutant.path
    text = target.read_text()
    count = text.count(mutant.old)
    if count != 1:
        return f"snippet occurs {count} times in {mutant.path}: {mutant.old!r}"
    target.write_text(text.replace(mutant.old, mutant.new))
    return None


def _tier1(tree: Path) -> tuple[int, float]:
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env=_env(tree),
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode, time.perf_counter() - t0


def _check_baseline() -> str | None:
    """The unmutated copy must import its own package and pass."""
    with tempfile.TemporaryDirectory(prefix="qmaze-mutant-") as tmp:
        tree = Path(tmp)
        _copy(tree)
        where = subprocess.run(
            [sys.executable, "-c", "import qmaze; print(qmaze.__file__)"],
            cwd=tree, env=_env(tree), capture_output=True, text=True)
        if (where.returncode != 0 or not Path(where.stdout.strip()).resolve()
                .is_relative_to(tree.resolve())):
            return f"the copy does not import its own qmaze: {where.stdout}{where.stderr}"
        code, secs = _tier1(tree)
        print(f"baseline: exit {code} in {secs:.1f} s")
        return None if code == 0 else f"unmutated tier-1 exits {code}"


def main(mutants=MUTANTS) -> int:
    error = _check_baseline()
    if error:
        print(f"error: {error}")
        return 1
    killed = survived = stale = 0
    for mutant in mutants:
        with tempfile.TemporaryDirectory(prefix="qmaze-mutant-") as tmp:
            tree = Path(tmp)
            _copy(tree)
            error = _apply(tree, mutant)
            if error:
                stale += 1
                print(f"STALE     {mutant.name}: {error}")
                continue
            if mutant.equivalent:
                print(f"equiv     {mutant.name}: {mutant.equivalent}")
                continue
            code, secs = _tier1(tree)
        # pytest exits 1 on a failed test and 2 on a collection error
        dead = code in (1, 2)
        killed += dead
        survived += not dead
        print(f"{'killed' if dead else 'SURVIVED':9} {mutant.name}"
              f" (exit {code}, {secs:.1f} s)")
    equivalent = sum(bool(m.equivalent) for m in mutants)
    print(f"{killed} killed, {survived} survived, {stale} stale,"
          f" {equivalent} equivalent")
    return 1 if survived or stale else 0


if __name__ == "__main__":
    sys.exit(main())
