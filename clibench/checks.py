"""Correctness gates: reference bytes, pinned digests and exact counter
identities, computed here independently of the package under test."""

from __future__ import annotations

import csv
import hashlib
import io


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def expected_outputs(launch, reference: dict) -> dict[str, bytes]:
    """The CSV bytes a correct CLI writes for this launch: the header plus the
    reference row of each case, in the CLI's case order.  A case missing from
    the reference raises KeyError."""
    if launch.command == "lemmas":
        out = {"counterexamples.csv": reference["counterexamples_header"].encode()}
    else:
        out = {}
    rows = reference["rows"][launch.command]
    text = reference["headers"][launch.command] + "".join(
        rows[key] + "\n" for key in launch.row_keys()
    )
    out[launch.csv_names()[0]] = text.encode()
    return out


def failed_rows(launch, outputs: dict[str, bytes], expected: dict[str, bytes],
                first: dict[str, bytes] | None, digests: list | None) -> set[int]:
    """Indices of the launch's cases that fail a gate.

    A case fails when its CSV row is not `pass`, differs from the reference
    row, or differs from the run's first repetition.  A missing file, a wrong
    header or line count, a wrong counterexamples.csv, a byte difference no
    row explains, or a digest other than the pinned one fails every case.
    """
    names = launch.csv_names()
    everything = set(range(len(launch.row_keys())))
    if set(outputs) != set(names):
        return everything
    if digests is not None and [[f, sha256(outputs[f])] for f in names] != digests:
        return everything
    if any(outputs[f] != expected[f] for f in names[1:]):
        return everything
    main = names[0]
    got = outputs[main].decode("utf-8", "replace").split("\n")
    want = expected[main].decode().split("\n")
    prior = first[main].decode("utf-8", "replace").split("\n") if first else got
    if len(got) != len(want) or len(prior) != len(got) or got[0] != want[0]:
        return everything
    bad = {
        i for i in everything
        if got[i + 1] != want[i + 1] or got[i + 1] != prior[i + 1]
        or not got[i + 1].endswith(",pass")
    }
    if not bad and got != want:
        return everything
    return bad


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-subspaces of F_p^n; 0 outside 0 <= k <= n."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (k - i) - 1
    return num // den


def small_projection_exact(n: int, k: int, m: int, l: int, p: int) -> int:
    """Number of (n-k)-subspaces V with #proj_V(W) <= p^l for an m-subspace W.

    #proj_V(W) = p^(m - dim(W cap V)), so V qualifies iff dim(W cap V) >= m-l;
    the subspaces meeting W in dimension exactly j number
    p^((m-j)(n-k-j)) [m, j]_p [n-m, n-k-j]_p (the q-analogue count).
    """
    d = n - k
    return sum(
        p ** ((m - j) * (d - j)) * gaussian_binomial(m, j, p) * gaussian_binomial(n - m, d - j, p)
        for j in range(max(m - l, 0), min(m, d) + 1)
    )


def count_row_failures(csv_bytes: bytes) -> list[int]:
    """Row indices of a `count` CSV whose enumerated value is not the exact
    q-binomial count (grassmannian, affine, small_projection)."""
    bad = []
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8", "replace"))))
    for i, row in enumerate(rows):
        try:
            n, k, p, got = int(row["n"]), int(row["k"]), int(row["p"]), int(row["enumerated"])
            if row["kind"] == "grassmannian":
                want = gaussian_binomial(n, k, p)
            elif row["kind"] == "affine":
                want = p ** (n - k) * gaussian_binomial(n, k, p)
            else:
                want = small_projection_exact(n, k, int(row["m"]), int(row["l"]), p)
        except (KeyError, ValueError):
            want, got = None, 0
        if got != want:
            bad.append(i)
    return bad


def kernel_call_failures(spans) -> list:
    """`exceptional_set` spans whose kernel calls differ from the number of
    directions, gaussian_binomial(n, n-k, p)."""
    return [s for s in spans if s[3] != gaussian_binomial(s[0], s[0] - s[1], s[2])]
