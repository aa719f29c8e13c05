"""Output checks: a command counts as failed when any of these finds a problem."""
from __future__ import annotations

import hashlib
import math
import re
from pathlib import Path

from workloads import ROUNDS_HEADER, Inputs, Workload

VALIDATE_TOLERANCE = 0.01
_EXACT_REL_ERR = re.compile(r"^predicted \(exact\): \S+\s+rel err (\S+)$", re.M)
_SKIPPED = re.compile(r"skipped (\d+) rows")


def digests(out_dir: Path, stdout: str) -> dict:
    """sha256 of every output file and of the captured stdout."""
    found = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(Path(out_dir).iterdir()) if p.is_file()}
    found["<stdout>"] = hashlib.sha256(stdout.encode()).hexdigest()
    return found


def _check_rounds_csv(path: Path, expected_rows: int) -> list:
    if not path.is_file():
        return [f"{path.name} missing"]
    lines = path.read_text().splitlines()
    if not lines or lines[0] != ROUNDS_HEADER:
        return [f"{path.name}: header is not the frozen schema"]
    problems = []
    if len(lines) - 1 != expected_rows:
        problems.append(f"{path.name}: {len(lines) - 1} rows, expected {expected_rows}")
    width = ROUNDS_HEADER.count(",") + 1
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        try:
            finite = len(cells) == width and all(math.isfinite(float(c)) for c in cells)
        except ValueError:
            finite = False
        if not finite:
            problems.append(f"{path.name}:{number}: not {width} finite values")
            break
    return problems


def _check_validate(stdout: str, report: Path) -> list:
    if not report.is_file():
        return [f"{report.name} missing"]
    text = report.read_text()
    problems = []
    if text != stdout:
        problems.append(f"{report.name} differs from stdout")
    if "PASS" not in text.splitlines():
        problems.append("validate did not print PASS")
    match = _EXACT_REL_ERR.search(text)
    if match is None or not float(match.group(1)) <= VALIDATE_TOLERANCE:
        problems.append(f"exact relative error above {VALIDATE_TOLERANCE}")
    return problems


def check_command(workload: Workload, inputs: Inputs, exit_code, stdout: str,
                  warning_texts: list) -> list:
    """Problems with one command's exit code, stdout, warnings and output files."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    out = Path(inputs.out_dir)
    if workload.command == "validate":
        return _check_validate(stdout, out / "validate.txt")
    problems = _check_rounds_csv(out / "rounds.csv", workload.rounds_rows)
    if "diverged: 0" not in stdout:
        problems.append("a repeat diverged")
    if inputs.csv_rows:
        skipped = [int(m.group(1)) for t in warning_texts for m in _SKIPPED.finditer(t)]
        if skipped != [inputs.malformed]:
            problems.append(f"load_csv skipped {skipped}, generated {inputs.malformed} malformed")
    return problems


def check_csv_load(inputs: Inputs, kept_rows: int, dataset_rows: int,
                   train_fraction: float) -> list:
    """load_csv kept exactly the generated rows minus the malformed ones."""
    expected = inputs.csv_rows - inputs.malformed
    problems = []
    if kept_rows != expected:
        problems.append(f"load_csv kept {kept_rows} rows, expected {expected}")
    if dataset_rows != int(round(train_fraction * expected)):
        problems.append(f"the dataset holds {dataset_rows} rows, not the train split")
    return problems
