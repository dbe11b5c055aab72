"""Run the committed mutation corpus: every mutant must be killed.

    python tests/mutants/run.py

Each mutant in `mutants.json` is a name, a file under the repository root,
an exact text that occurs once in it, the text that replaces it, and the
pytest ids of the tests that must fail once it is applied.  For each mutant
the runner copies `src/`, `tests/` and `pyproject.toml` to a temporary
directory, runs the named tests there unmutated (they must pass), applies
the edit and runs them again with `PYTHONPATH` on the copy's `src/`, one
at a time.  A mutant is killed when every named test fails; otherwise it
survives.  The runner names every survivor, with the tests that passed,
and every mutant it could not run (an old text that is not found exactly
once, or tests that fail unmutated), and exits 1 if there is any.  It
needs only the standard library and pytest.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).with_name("mutants.json")


def _pytest(copy: Path, tests: list[str]) -> int:
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def run_mutant(mutant: dict) -> str:
    """'killed', 'SURVIVED' and the tests that passed, or why the mutant
    could not be run."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy2(ROOT / "pyproject.toml", copy)
        target = copy / mutant["path"]
        text = target.read_text()
        if (found := text.count(mutant["old"])) != 1:
            return f"ERROR: old text found {found} times in {mutant['path']}"
        if _pytest(copy, mutant["tests"]):
            return "ERROR: the tests fail unmutated"
        target.write_text(text.replace(mutant["old"], mutant["new"]))
        passed = [t for t in mutant["tests"] if not _pytest(copy, [t])]
        return f"SURVIVED ({', '.join(passed)} passed)" if passed else "killed"


def main() -> int:
    bad = []
    for mutant in json.loads(CORPUS.read_text()):
        verdict = run_mutant(mutant)
        print(f"{verdict:8s} {mutant['name']}", flush=True)
        if verdict != "killed":
            bad.append(mutant["name"])
    if bad:
        print(f"{len(bad)} not killed: {', '.join(bad)}")
        return 1
    print("every mutant killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
