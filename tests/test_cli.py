import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arcbricks.mutation as mutation
from arcbricks.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_map_json_golden(capsys):
    code, out, _ = run(capsys, "map", "--n", "2", "--perm", "312", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["permutation"] == "312"
    assert data["arcs"][0]["left"] == 1
    assert data["arcs"][0]["right"] == 3
    assert data["arcs"][0]["above"] == [2]
    assert data["arcs"][0]["color"] == "green"
    assert data["arcs"][0]["shift"] == 0
    assert data["arcs"][0]["module"]["dims"] == [1, 1]
    assert data["arcs"][1]["color"] == "red"
    assert data["arcs"][1]["shift"] == 1


def test_map_identity_is_red(capsys):
    code, out, _ = run(capsys, "map", "--n", "2", "--perm", "123", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [a["color"] for a in data["arcs"]] == ["red", "red"]
    assert [(a["left"], a["right"]) for a in data["arcs"]] == [(1, 2), (2, 3)]


def test_map_worked_example(capsys):
    code, out, _ = run(capsys, "map", "--n", "7", "--perm", "53271468")
    assert code == 0
    data = json.loads(out)
    greens = [
        (a["left"], a["right"], tuple(a["above"]))
        for a in data["arcs"]
        if a["color"] == "green"
    ]
    assert sorted(greens) == [(1, 7, (4, 6)), (2, 3, ()), (3, 5, (4,))]


def test_map_usage_errors(capsys):
    code, _, err = run(capsys, "map", "--n", "2", "--perm", "99")
    assert code == 2 and "bad permutation" in err
    code, _, err = run(capsys, "map", "--n", "3", "--perm", "312")
    assert code == 2 and "rank" in err
    code, _, _ = run(capsys, "map", "--n", "2")
    assert code == 2  # argparse: missing --perm


def test_map_deterministic(capsys):
    _, first, _ = run(capsys, "map", "--n", "4", "--perm", "35142")
    _, second, _ = run(capsys, "map", "--n", "4", "--perm", "35142")
    assert first == second


def test_mutate_figure_step(capsys):
    code, out, _ = run(
        capsys, "mutate", "--n", "3", "--perm", "4321", "--i", "3", "--dir", "left"
    )
    assert code == 0
    data = json.loads(out)
    assert data["permutation"] == "4312"
    code, out, _ = run(
        capsys, "mutate", "--n", "3", "--perm", "4321", "--i", "1", "--dir", "left"
    )
    assert json.loads(out)["permutation"] == "3421"


def test_mutate_right_direction(capsys):
    code, out, _ = run(
        capsys, "mutate", "--n", "2", "--perm", "123", "--i", "1", "--dir", "right"
    )
    assert code == 0
    assert json.loads(out)["permutation"] == "213"


def test_mutate_color_mismatch_exit(capsys):
    code, _, err = run(
        capsys, "mutate", "--n", "3", "--perm", "1234", "--i", "1", "--dir", "left"
    )
    assert code == 3
    assert err == "error: left mutation needs green at position 1, found red\n"


def test_mutate_right_at_a_green_position_exits_3(capsys):
    code, out, err = run(
        capsys, "mutate", "--n", "3", "--perm", "4321", "--i", "1", "--dir", "right"
    )
    assert (code, out) == (3, "")
    assert err == "error: right mutation needs red at position 1, found green\n"


@pytest.mark.parametrize("i", ["0", "-1", "4"])
def test_mutate_position_out_of_range_exits_3(capsys, i):
    # checked before the color: position 0 would read the last entry's
    code, out, err = run(
        capsys, "mutate", "--n", "3", "--perm", "1234", "--i", i, "--dir", "left"
    )
    assert (code, out) == (3, "")
    assert err == f"error: position {i} out of range 1..3\n"


def test_mutate_exits_3_when_the_half_twists_spell_no_diagram(monkeypatch, capsys):
    half_twist = mutation.half_twist

    def flipped(pivot, other, twist="left"):
        return half_twist(pivot, other, "right" if twist == "left" else "left")

    monkeypatch.setattr(mutation, "half_twist", flipped)
    code, out, err = run(
        capsys, "mutate", "--n", "3", "--perm", "1243", "--i", "2", "--dir", "right"
    )
    assert (code, out) == (3, "")
    assert err.startswith("error: internal cross-check failed: mutation at 2 ")


def test_hasse_dot(capsys):
    code, out, _ = run(capsys, "hasse", "--n", "2", "--format", "dot")
    assert code == 0
    assert out.count("[label=\"mu") == 6
    assert out.count("->") == 6
    assert len([l for l in out.splitlines() if "[label=\"" in l and "mu" not in l]) == 6


def test_hasse_cap(capsys):
    code, _, err = run(capsys, "hasse", "--n", "7")
    assert code == 4 and "cap" in err


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--family", "rnad", "--n", "4")
    assert code == 0 and out == "42\n"
    code, out, _ = run(capsys, "count", "--family", "nad", "--n", "3", "--format", "json")
    assert json.loads(out) == {"family": "nad", "n": 3, "count": 24}
    code, _, _ = run(capsys, "count", "--n", "9")
    assert code == 4


def test_count_custom_ideal(capsys):
    code, out, _ = run(
        capsys,
        "count",
        "--family",
        "custom",
        "--n",
        "2",
        "--ideal",
        '["a1-"]',
    )
    assert code == 0 and out == "5\n"
    code, _, err = run(capsys, "count", "--family", "custom", "--n", "2")
    assert code == 2
    code, _, err = run(
        capsys, "count", "--family", "custom", "--n", "2", "--ideal", '["q9"]'
    )
    assert code == 2
    code, _, err = run(
        capsys, "count", "--family", "custom", "--n", "2", "--ideal", '["a9"]'
    )
    assert code == 2 and "outside" in err


def test_check_suites(capsys):
    code, out, _ = run(capsys, "check", "--suite", "homs", "--max-n", "3")
    assert code == 0
    assert out.count("PASS") == 2
    assert "all checks passed" in out
    code, _, err = run(capsys, "check", "--suite", "nope", "--max-n", "3")
    assert code == 2
    code, _, err = run(capsys, "check", "--suite", "all", "--max-n", "6")
    assert code == 4


def test_check_all_suite_passes(capsys):
    code, out, _ = run(capsys, "check", "--suite", "all", "--max-n", "3")
    assert code == 0
    assert out.count("PASS") == 11


def test_render_svg(capsys):
    code, out, _ = run(capsys, "render", "--n", "2", "--perm", "312", "--format", "svg")
    assert code == 0
    assert out.startswith('<?xml version="1.0"')
    assert out.count("<path") == 2
    assert 'stroke="green"' in out and 'stroke="red"' in out
    assert out.count("<circle") == 3
    _, again, _ = run(capsys, "render", "--n", "2", "--perm", "312", "--format", "svg")
    assert out == again


def test_render_tikz(capsys):
    code, out, _ = run(capsys, "render", "--n", "2", "--perm", "312", "--format", "tikz")
    assert code == 0
    assert out.startswith("\\begin{tikzpicture}")
    assert "\\draw[green]" in out and "\\draw[red, dashed]" in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "g.dot"
    code, out, _ = run(capsys, "hasse", "--n", "2", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("digraph mutation {")


def test_an_empty_out_path_is_a_usage_error(capsys):
    code, out, err = run(capsys, "count", "--n", "3", "--out", "")
    assert (code, out) == (2, "")
    assert "error: cannot write " in err


@pytest.mark.parametrize(
    "argv,message",
    [
        ("hasse --n 0", "need n >= 1"),
        ("hasse --n -3", "need n >= 1"),
        ("count --family custom --n 2 --ideal [1]", "list of strings"),
        ("count --n 0", "need n >= 1"),
        ("count --family custom --n 2 --ideal {}", "list of strings"),
        ('count --n 3 --family nad --ideal ["a1"]', "--ideal needs --family custom"),
        ('count --n 3 --family rnad --ideal []', "--ideal needs --family custom"),
        ('count --n 3 --ideal ["a1-"]', "--ideal needs --family custom"),
        ('count --family custom --n 3 --ideal ["a²"]', "bad arrow name"),
        ('count --family custom --n 3 --ideal ["a٣"]', "bad arrow name"),
        ("map --n 2 --perm 3٢1", "malformed permutation"),
        ("map --n 2 --perm 321 --out /nonexistent/x", "cannot write /nonexistent/x"),
        ("check --max-n 0", "need n >= 1"),
        ("check --max-n -2", "need n >= 1"),
        ("mutate --n 2 --perm 321 --i 1 --dir sideways", "invalid choice: 'sideways'"),
    ],
)
def test_bad_arguments_are_usage_errors(capsys, argv, message):
    code, _, err = run(capsys, *argv.split())
    assert code == 2
    assert "error:" in err and message in err and "Traceback" not in err


def test_integer_options_take_only_ascii_digits(capsys):
    # int() alone reads ٣ as 3 and 1_0 as 10, which then hit the size cap
    for argv in (
        "count --n ٣",
        "count --n 1_0",
        "count --n +3",
        "hasse --n 3.0",
        "check --max-n ٣",
        "check --max-n 1_0",
        "mutate --n 3 --perm 1234 --i ٢ --dir left",
        "mutate --n 3 --perm 1234 --i 1_0 --dir left",
    ):
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (2, ""), argv
        assert "error:" in err and "need an integer, got " in err, argv
    code, out, err = run(capsys, "count", "--n", " 3")
    assert (code, out) == (2, "") and "need an integer, got ' 3'" in err


# Every flag each subcommand takes; the fuzz test drops some of them and adds
# one that belongs elsewhere, so missing and foreign flags are exercised too.
FUZZ_FLAGS = {
    "map": ("--n", "--perm", "--format", "--out"),
    "mutate": ("--n", "--perm", "--i", "--dir", "--format", "--out"),
    "hasse": ("--n", "--format", "--out"),
    "count": ("--n", "--family", "--ideal", "--format", "--out"),
    "check": ("--suite", "--max-n", "--out"),
    "render": ("--n", "--perm", "--format", "--out"),
}
FUZZ_FORMATS = {
    "map": ("json", "text"),
    "mutate": ("json", "text"),
    "hasse": ("dot", "json"),
    "count": ("text", "json"),
    "render": ("svg", "tikz"),
}
# (valid values, bad values) per flag; a valid --perm is drawn to match --n
# and a valid --format to suit the subcommand.
FUZZ_VALUES = {
    "--n": (("1", "2", "3", "4"), ("0", "-2", "x", "٣", "1_0")),
    "--perm": ((), ("21", "2413", "12", "1223", "abc", "")),
    "--i": (("1", "2", "3", "4"), ("0", "5", "-1", "x", "٣", "1_0")),
    "--dir": (("left", "right"), ("up",)),
    "--format": ((), ("csv",)),
    "--family": (("nad", "rnad", "anad", "custom"), ("all",)),
    "--ideal": (("[]", '["a1-"]', '["a1 a2", "a2-"]'), ('["a9"]', '["q"]', "[1]", "{}", "[")),
    "--suite": (("all", "bijection", "homs", "mutation", "order", "quotients"), ("none",)),
    # --max-n 4 (also check's default) re-runs whole sweeps, too slow to
    # repeat, so the fuzz always passes --max-n to check and keeps to 1..3.
    "--max-n": (("1", "2", "3"), ("0", "9", "٣", "1_0")),
    "--out": (("file",), ("missing",)),
}


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    flags = [f for f in FUZZ_FLAGS[command] if f == "--max-n" or draw(st.integers(0, 5))]
    if "--out" in flags and draw(st.integers(0, 2)):
        flags.remove("--out")
    if draw(st.integers(0, 7)) == 0:
        flags.append(draw(st.sampled_from(sorted(set(FUZZ_VALUES) - set(flags)))))
    argv = [command]
    for flag in flags:
        valid, bad = FUZZ_VALUES[flag]
        if flag == "--format":
            valid = FUZZ_FORMATS.get(command, ())
        if flag == "--perm" and "--n" in argv:
            n = argv[argv.index("--n") + 1]
            if n.isdigit() and int(n) >= 1:
                valid = ("".join(map(str, draw(st.permutations(range(1, int(n) + 2))))),)
        pool = valid if valid and draw(st.integers(0, 3)) else bad
        argv += [flag, draw(st.sampled_from(pool))]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(fuzz_argv())
def test_fuzzed_argv_exits_with_a_contract_code(argv):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {
            "missing": os.path.join(tmp, "missing", "out.txt"),
            "file": os.path.join(tmp, "out.txt"),
        }
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv = argv[:at] + [paths[argv[at]]] + argv[at + 1 :]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3, 4), argv
    assert code != 1 or argv[0] == "check", argv
    assert "Traceback" not in err.getvalue(), argv
