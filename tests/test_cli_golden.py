"""Byte-exact CLI output, pinned by one sha256 per subcommand.

Each subcommand runs over a fixed sweep of argvs, and the digest covers
(argv, exit code, stdout) for every one of them, in order.  stderr and
``--help`` are left out because argparse's wording differs between Python
versions.  A change that alters any output byte of the sweep changes a
digest; a change that keeps the output identical keeps every digest.
"""

import contextlib
import hashlib
import io
import json

import pytest

from arcbricks.cli import main
from arcbricks.permutations import all_permutations

SUITES = ("all", "bijection", "homs", "mutation", "order", "quotients")

# Valid ideals, ideals with arrows outside small quivers, and malformed ones.
IDEALS = (
    "[]",
    '["a1-"]',
    '["a1 a1-"]',
    '["a1- a1"]',
    '["a1 a2"]',
    '["a1-", "a2 a3"]',
    '["a1 a2-"]',
    '["b1"]',
    '[""]',
    '"a1"',
    "[1]",
    "nope",
)


def sweeps() -> dict[str, list[list[str]]]:
    """The argvs of each subcommand, in a fixed order."""
    sweep = {name: [] for name in ("map", "mutate", "render", "hasse", "count", "check")}
    words = [(n, str(w)) for n in range(1, 4) for w in all_permutations(n)]
    for n, word in words:
        common = ["--n", str(n), "--perm", word]
        for fmt in ("json", "text"):
            sweep["map"].append(["map", *common, "--format", fmt])
        for fmt in ("svg", "tikz"):
            sweep["render"].append(["render", *common, "--format", fmt])
        for i in range(0, n + 2):
            for direction in ("left", "right"):
                for fmt in ("json", "text"):
                    sweep["mutate"].append(
                        ["mutate", *common, "--i", str(i), "--dir", direction,
                         "--format", fmt]
                    )
    for n in range(1, 5):
        for fmt in ("dot", "json"):
            sweep["hasse"].append(["hasse", "--n", str(n), "--format", fmt])
    for n in range(1, 7):
        for fmt in ("text", "json"):
            for family in ("nad", "rnad", "anad"):
                sweep["count"].append(
                    ["count", "--n", str(n), "--family", family, "--format", fmt]
                )
            sweep["count"].append(["count", "--n", str(n), "--family", "custom",
                                   "--format", fmt])
            for ideal in IDEALS:
                sweep["count"].append(
                    ["count", "--n", str(n), "--family", "custom", "--ideal", ideal,
                     "--format", fmt]
                )
    for suite in SUITES:
        for max_n in range(1, 4):
            sweep["check"].append(["check", "--suite", suite, "--max-n", str(max_n)])
    return sweep


def digest(argvs: list[list[str]]) -> str:
    h = hashlib.sha256()
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        h.update((json.dumps([argv, code, out.getvalue()]) + "\n").encode())
    return h.hexdigest()


PINNED = {
    "map": "24c90bdfbca0ec83da93d713b0dee83271ecb32974a0f4f2f336c2a66f327df3",
    "mutate": "95059108d841c0c61d6210257310b44861fa153a102bbbb440a939ea1e0354ef",
    "render": "829999a9142d2a625fe70c542f987a8d5271b338b8e392bb660edb48a974cd73",
    "hasse": "56597ef10b4861106447c0137437c315420e930afd65880a6554c9a1becdda7c",
    "count": "e02a2d54b3da9114237479968608c9ad2c192a673bd38dd2b1e606dd5987d619",
    "check": "a41c219f4ab7920f8d1763ec73bb9e0e1dcfaaa3b289e66b4a5bc2aafbeae58d",
}


@pytest.mark.parametrize("command", sorted(PINNED))
def test_cli_output_is_pinned(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert digest(sweeps()[command]) == PINNED[command]
