"""Golden harness reports: the JSON report, exit code and tolerances of every
verdict step in .github/workflows/tier1.yml, one file per step.

tests/test_golden.py re-runs each step in process and compares it with its
file.  A change that moves the numbers on purpose regenerates the files:

    PYTHONPATH=src python tests/golden/regenerate.py

and says in CHANGES.md what moved and why; the diff of the files shows every
moved number.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
WORKFLOW = GOLDEN.parent.parent / ".github" / "workflows" / "tier1.yml"


def verdict_argvs() -> list[list[str]]:
    """The arguments of every `python -m extcalc` step of the workflow, in
    order, without its --format and --out; a step that loops over a shell
    variable ($seed) has no fixed verdict and no golden report."""
    argvs = []
    for line in WORKFLOW.read_text().splitlines():
        found = re.search(r"-m extcalc (.*)$", line)
        if found:
            words = found.group(1).split()
            for stop in ("--format", "||"):
                if stop in words:
                    words = words[:words.index(stop)]
            if not any("$" in word for word in words):
                argvs.append(words)
    return argvs


def file_name(argv: list[str]) -> str:
    return re.sub(r"[^A-Za-z0-9.+-]+", "_", " ".join(argv).replace("--", "")).strip("_") + ".json"


def run(argv: list[str]) -> dict:
    """One verdict through the CLI, in process: its argv, exit code, each
    identity's tolerance (the JSON report has none) and the report."""
    from extcalc import cli

    run_suite, tolerances = cli.run_suite, []

    def recording(config):
        results = run_suite(config)
        tolerances.extend(r.tolerance for r in results)
        return results

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        cli.run_suite = recording
        try:
            rc = cli.main(argv + ["--format", "json", "--out", str(out)])
        finally:
            cli.run_suite = run_suite
        report = json.loads(out.read_text())
    return {"argv": argv, "exit_code": rc, "tolerances": tolerances, "report": report}


def main() -> int:
    written = set()
    for argv in verdict_argvs():
        name = file_name(argv)
        (GOLDEN / name).write_text(json.dumps(run(argv), indent=1, sort_keys=True) + "\n")
        written.add(name)
        print(f"wrote {name}")
    for stale in GOLDEN.glob("*.json"):
        if stale.name not in written:
            stale.unlink()
            print(f"removed {stale.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
