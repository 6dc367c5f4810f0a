"""Correctness gate: every answer a pass prints is checked before it counts.

Sweep cells are checked against closed forms where the paper or standard
group theory gives one, and against reference.json (recorded at the commit
that introduced the benchmark) everywhere else.  Subgroup counts from a
traced pass are checked the same way.  Each check returns
(attempted, failed, problems) so callers can sum them.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SIGMA_COLUMNS = ("sigma", "sigma_A", "sigma_P", "sigma_PE")
TOWER_MAX_N = 6

Outcome = Tuple[int, int, List[str]]


def load_reference(path: str = os.path.join(HERE, "reference.json")) -> Dict[str, dict]:
    """Reference rows keyed by catalog id, in built-in catalog order."""
    with open(path) as fh:
        groups = json.load(fh)["groups"]
    return {g["id"]: g for g in groups}


def _two_exponent(order: int) -> Optional[int]:
    """k with order = 2^k, else None."""
    return order.bit_length() - 1 if order > 0 and order & (order - 1) == 0 else None


def expected_sigma(ref: dict, column: str) -> str:
    """The cell a correct sweep prints for this reference row.

    Closed forms: a cyclic group has no cover (INF in every family); a
    noncyclic p-group has sigma = p+1; the dihedral group of order 2^(n+1) >= 8
    has sigma_P = sigma_A = 2^(n-1)+1; dihedral:32 has no powerfully embedded
    cover.  Any other cell is the recorded reference value.
    """
    kind = ref["id"].partition(":")[0]
    if kind == "cyclic":
        return "INF"
    if column == "sigma":
        return str(ref["p"] + 1)
    k = _two_exponent(ref["order"])
    if kind == "dihedral" and k is not None and k >= 3 and column in ("sigma_A", "sigma_P"):
        return str((1 << (k - 2)) + 1)
    if ref["id"] == "dihedral:32" and column == "sigma_PE":
        return "INF"
    return ref[column]


def read_sweep_csv(text: str) -> List[dict]:
    """Rows of a sweep CSV as dicts keyed by the header's column names.

    The sweep writes ids unquoted, so a product id such as
    product:(cyclic:4,cyclic:2) spills over into extra fields.  Only the id
    column (the first) can hold a comma (the writer turns commas in the error
    column into ';'), so surplus fields are joined back into the id.  A
    properly quoted file parses the same way.
    """
    records = list(csv.reader(io.StringIO(text)))
    if not records:
        return []
    header, rows = records[0], []
    for fields in records[1:]:
        surplus = len(fields) - len(header)
        if surplus > 0:
            fields = [",".join(fields[: surplus + 1])] + fields[surplus + 1 :]
        rows.append(dict(zip(header, fields)))
    return rows


def check_sweep_csv(text: str, catalog: Sequence[str], reference: Dict[str, dict]) -> Outcome:
    """Check every sigma cell of a sweep CSV, read by column name.

    Attempted is four cells per catalog entry.  A missing, duplicated or
    unknown row and an error in a row's error column fail four cells each; a
    wrong cell fails one.
    """
    problems: List[str] = []
    rows: Dict[str, dict] = {}
    failed = 0
    for row in read_sweep_csv(text):
        if row.get("id") in rows:
            failed += len(SIGMA_COLUMNS)
            problems.append(f"duplicate row {row.get('id')}")
        rows[row.get("id")] = row
    for gid in catalog:
        row = rows.pop(gid, None)
        if row is None:
            failed += len(SIGMA_COLUMNS)
            problems.append(f"{gid}: row missing")
            continue
        if row.get("error"):
            failed += len(SIGMA_COLUMNS)
            problems.append(f"{gid}: error {row['error']}")
            continue
        for column in SIGMA_COLUMNS:
            want = expected_sigma(reference[gid], column)
            got = row.get(column)
            if got != want:
                failed += 1
                problems.append(f"{gid}: {column} = {got!r}, expected {want!r}")
    for gid in rows:
        failed += len(SIGMA_COLUMNS)
        problems.append(f"{gid}: row not in the catalog")
    return len(SIGMA_COLUMNS) * len(catalog), failed, problems


_TOWER_LINE = re.compile(
    r"^\s+(ok |FAIL) dihedral:(\d+): tower index n=(\d+): sigma_P = (\S+), expected"
)


def check_tower(stdout: str, returncode: int, max_n: int = TOWER_MAX_N) -> Outcome:
    """main-theorem output: exit 0 and sigma_P(D_{2^(n+1)}) = 2^(n-1)+1 for
    n = 2..max_n, one check per n."""
    found: Dict[int, str] = {}
    for line in stdout.splitlines():
        m = _TOWER_LINE.match(line)
        if m:
            found[int(m.group(3))] = m.group(4)
    problems = []
    failed = 0
    for n in range(2, max_n + 1):
        want = str((1 << (n - 1)) + 1)
        got = found.get(n)
        if got != want or returncode != 0:
            failed += 1
            problems.append(
                f"dihedral:{1 << (n + 1)}: sigma_P = {got}, expected {want}, exit {returncode}"
            )
    return max_n - 1, failed, problems


def _divisors(m: int) -> List[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def _gaussian_binomial(k: int, i: int, p: int) -> int:
    num = den = 1
    for j in range(i):
        num *= p ** (k - j) - 1
        den *= p ** (j + 1) - 1
    return num // den


def expected_subgroups(descriptor: str, reference: Dict[str, dict]) -> Optional[int]:
    """Closed-form subgroup count, or the reference count, or None.

    C_{p^k}: k+1.  D_{2m}: tau(m)+sigma(m).  Q_{2^n}: n+2^(n-1)-1.
    Elementary p^k: sum over i of the Gaussian binomials [k choose i]_p.
    """
    kind, _, arg = descriptor.partition(":")
    if kind == "cyclic":
        return len(_divisors(int(arg)))  # tau(p^k) = k+1
    if kind == "dihedral":
        divs = _divisors(int(arg) // 2)
        return len(divs) + sum(divs)
    if kind == "quaternion":
        n = _two_exponent(int(arg))
        return None if n is None else n + (1 << (n - 1)) - 1
    if kind == "elementary":
        p, k = map(int, arg.split("^"))
        return sum(_gaussian_binomial(k, i, p) for i in range(k + 1))
    ref = reference.get(descriptor)
    return None if ref is None else ref["subgroups"]


def check_subgroup_counts(counts: Dict[str, int], reference: Dict[str, dict]) -> Outcome:
    """One check per group whose lattice a pass produced."""
    problems = []
    for descriptor, got in sorted(counts.items()):
        want = expected_subgroups(descriptor, reference)
        if got != want:
            problems.append(f"{descriptor}: {got} subgroups, expected {want}")
    return len(counts), len(problems), problems
