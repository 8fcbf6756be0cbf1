"""The benchmark's three verification workloads.

Each workload is built from a seed and a size ``n`` and returns its cases
plus a totals check.  A case is ``(fn, args)``: ``fn(*args)`` runs one claim
through two independent routes and returns whether they agree.  The totals
check runs after every case and returns a list of problems (empty when the
whole run is verified).

The workloads call only public functions of the package, always as
``module.function`` looked up at call time, so the tracer's wrappers are
seen.  They do not use ``arcbricks.checks``: its acceptance ranges will be
raised, and that must not change the benchmark's load.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

from arcbricks import arcs, cli, mutation, permutations, quiver, render, strings
from arcbricks.quotients import radical_square_ideal

# Sum of hom dimensions over all ordered arc pairs, and the number of
# hom-orthogonal unordered pairs of distinct arcs, pinned from the package
# as it stood when the benchmark was written.
HOM_TABLE_PINNED = {
    3: {"hom_dim_sum": 68, "orthogonal_pairs": 11},
    6: {"hom_dim_sum": 10272, "orthogonal_pairs": 1191},
}

# sha256 of `hasse --n <n> --format json`, pinned the same way.
HASSE_JSON_SHA256 = {
    3: "7839ae0f9740f3991bc2de17147f0c65bc3c22c6b7cbe92bdbb54568ccae5ee5",
    5: "508b5d44c4a607bf0c1dee2cc2b69214cb7298931c644322be63beb105b0eea3",
}

ORDER_PAIRS = 4000
MAP_WORDS = 4


def hom_table(seed: int, n: int = 6, tmpdir: str | None = None):
    """Every ordered arc pair at n: graph-map count against hom dimension.

    When a pair's reverse has already run, the case also checks that the
    two arcs are hom-orthogonal exactly when they form a noncrossing
    diagram.  Every hom system is solved once, so each is a cache miss.
    """
    if n not in HOM_TABLE_PINNED:
        raise ValueError(f"hom-table totals are pinned only for n in {sorted(HOM_TABLE_PINNED)}")
    rng = random.Random(seed)
    arc_list = arcs.enumerate_arcs(n)
    pairs = [(a, b) for a in arc_list for b in arc_list]
    rng.shuffle(pairs)
    dims: dict = {}
    orthogonal = 0

    def case(a, b):
        nonlocal orthogonal
        maps = strings.graph_map_count(a, b)
        dim = quiver.hom_dim(quiver.arc_module(a, n), quiver.arc_module(b, n))
        dims[a, b] = dim
        ok = maps == dim
        back = dims.get((b, a))
        if a != b and back is not None:
            ortho = dim == 0 and back == 0
            orthogonal += ortho
            ok = ok and arcs.check_nad([a, b]) == ortho
        return ok

    def totals():
        got = {
            "pairs": len(dims),
            "hom_dim_sum": sum(dims.values()),
            "orthogonal_pairs": orthogonal,
        }
        expected = {"pairs": len(arc_list) ** 2, **HOM_TABLE_PINNED[n]}
        return _differences(got, expected)

    return [(case, pair) for pair in pairs], totals


def module_mutation(seed: int, n: int = 5, tmpdir: str | None = None):
    """Every left mutation (w, i) at n, i a descent of w.

    The module route mutates psi(D_w) from hom/ext data and must match
    psi(D_{s_i w}); the diagram route mutate_dad(D_w, i) must equal
    D_{s_i w}.
    """
    rng = random.Random(seed)
    moves = [
        (w, i)
        for w in permutations.all_permutations(n)
        for i in permutations.descents(w)
    ]
    rng.shuffle(moves)
    done = 0

    def case(w, i):
        nonlocal done
        diagram = arcs.double_diagram(w)
        target = arcs.double_diagram(permutations.left_multiply_simple(i, w))
        got = mutation.mutate_smc_collection(mutation.psi(diagram), i)
        module_ok = mutation.collections_match(got, mutation.psi(target))
        diagram_ok = mutation.mutate_dad(diagram, i) == target
        done += 1
        return module_ok and diagram_ok

    def totals():
        # Descents are equidistributed: n/2 per word on average.
        return _differences(
            {"mutations": done}, {"mutations": n * math.factorial(n + 1) // 2}
        )

    return [(case, move) for move in moves], totals


def weak_order(seed: int, n: int = 5, tmpdir: str | None = None):
    """Combinatorial checks with no linear algebra.

    - seeded ordered pairs at n: smc_leq(D_u, D_w) against weak_leq(u, w);
    - every w at n+1: the join of the green joinands of D_w is w;
    - the CLI through ``cli.main(..., --out FILE)``: family counts at n+2
      against closed forms (anad also against the radical-square ideal),
      the mutation graph at n against its size and pinned digest, and
      map/render on seeded words at n+3, each issued twice and required
      to give the same bytes and to agree with the library.
    """
    if tmpdir is None:
        raise ValueError("weak-order writes CLI output and needs a tmpdir")
    if n not in HASSE_JSON_SHA256:
        raise ValueError(f"weak-order digests are pinned only for n in {sorted(HASSE_JSON_SHA256)}")
    rng = random.Random(seed)
    perms = permutations.all_permutations(n)
    cases = []
    tally = {"order_pairs": 0, "joins": 0}

    def order_case(u, w):
        tally["order_pairs"] += 1
        lower, upper = arcs.double_diagram(u), arcs.double_diagram(w)
        return mutation.smc_leq(lower, upper) == permutations.weak_leq(u, w)

    for _ in range(ORDER_PAIRS):
        u, w = rng.choice(perms), rng.choice(perms)
        cases.append((order_case, (u, w)))

    m = n + 1

    def join_case(w):
        tally["joins"] += 1
        total = permutations.identity_permutation(m)
        for arc in arcs.double_diagram(w).green_arcs():
            total = permutations.join(total, arcs.arc_to_join_irreducible(arc, m))
        return total == w

    for w in permutations.all_permutations(m):
        cases.append((join_case, (w,)))

    out_path = os.path.join(tmpdir, "cli.out")
    first_digest: dict = {}

    def run_cli(argv):
        """Run the CLI; return its output bytes, or None on a nonzero exit."""
        if cli.main([*argv, "--out", out_path]) != 0:
            return None
        with open(out_path, "rb") as fh:
            data = fh.read()
        os.remove(out_path)
        return data

    def same_bytes(argv, data):
        digest = hashlib.sha256(data).hexdigest()
        return first_digest.setdefault(tuple(argv), digest) == digest

    k = n + 2
    catalan = math.comb(2 * k + 2, k + 1) // (k + 2)
    counts = {
        "nad": math.factorial(k + 1),
        "rnad": catalan,
        "anad": math.comb(2 * k, k),
    }
    radical_square = json.dumps(
        [
            " ".join(quiver.arrow_name(a) for a in path)
            for path in radical_square_ideal(k).generators
        ]
    )

    def count_case(argv, expected):
        return run_cli(argv) == f"{expected}\n".encode()

    for family, expected in counts.items():
        argv = ["count", "--family", family, "--n", str(k)]
        cases.append((count_case, (argv, expected)))
    argv = ["count", "--family", "custom", "--n", str(k), "--ideal", radical_square]
    cases.append((count_case, (argv, counts["anad"])))

    def hasse_case():
        data = run_cli(["hasse", "--n", str(n), "--format", "json"])
        if data is None:
            return False
        graph = json.loads(data)
        return (
            len(graph["vertices"]) == math.factorial(n + 1)
            and len(graph["edges"]) == n * math.factorial(n + 1) // 2
            and hashlib.sha256(data).hexdigest() == HASSE_JSON_SHA256[n]
        )

    cases.append((hasse_case, ()))

    big = n + 3

    def map_case(w):
        argv = ["map", "--n", str(big), "--perm", str(w), "--format", "json"]
        data = run_cli(argv)
        if data is None:
            return False
        record = json.loads(data)
        expected = arcs.double_diagram(w).to_json()["arcs"]
        got = [{key: entry[key] for key in expected[0]} for entry in record["arcs"]]
        shifts_ok = all(
            entry["shift"] == (0 if entry["color"] == arcs.GREEN else 1)
            for entry in record["arcs"]
        )
        return (
            record["permutation"] == str(w)
            and got == expected
            and shifts_ok
            and same_bytes(argv, data)
        )

    def render_case(w):
        argv = ["render", "--n", str(big), "--perm", str(w), "--format", "svg"]
        data = run_cli(argv)
        if data is None:
            return False
        library = render.render_svg(arcs.double_diagram(w)).encode()
        return data == library and same_bytes(argv, data)

    words = [
        permutations.Permutation(tuple(rng.sample(range(1, big + 2), big + 1)))
        for _ in range(MAP_WORDS)
    ]
    for w in words:
        for _ in range(2):
            cases.append((map_case, (w,)))
            cases.append((render_case, (w,)))

    rng.shuffle(cases)

    def totals():
        return _differences(
            tally,
            {"order_pairs": ORDER_PAIRS, "joins": math.factorial(m + 1)},
        )

    return cases, totals


WORKLOADS = {
    "hom-table": hom_table,
    "module-mutation": module_mutation,
    "weak-order": weak_order,
}


def _differences(got: dict, expected: dict) -> list[str]:
    return [
        f"{key}: got {got.get(key)}, expected {value}"
        for key, value in expected.items()
        if got.get(key) != value
    ]
