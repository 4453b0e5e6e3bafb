"""No input gives a traceback: seeded small edits of valid lattice, map and
derivation files, run through every command, each end in exit 0, 1 or 2,
and so do a few fixed inputs nested thousands of levels deep or a few MB
long."""

import random
import time

import pytest

from omlogic.cli import run
from omlogic.derive import derive_measurement
from omlogic.formats import serialize
from omlogic.lattice import mo

# what an edit inserts: the delimiters of every token and comment, names,
# ASCII and Unicode whitespace, and characters no grammar knows
ALPHABET = list("()\"#=,.{}*+-|<!'_ \t\n") + ["a", "b", "0", "1", "x", "K", "\x85", "⊥", "é"]

MAP = (
    "map blur over mo2  # measuring a\n"
    "on a -> {a}\non a' -> {a}\non b -> {a, a'}\non b' -> {a, a'}\non 1 -> {a, a'}\nend\n"
)
WITNESS = (
    '(rule forall_l (seq "forall x {<= 1, !in K(blur)} . In(x) |- In(a)")'
    " (witness ortho(ortho(a)))\n"
    '  (rule id (seq "In(a) |- In(a)")))\n'
)

# (file edited, argv): L, M, D and W name the files of the ``files``
# fixture, and N the names given to ``lattice gen``
COMMANDS = [
    ("L", ["lattice", "verify", "L", "--json", "r.json"]),
    ("L", ["propagate", "--lattice", "L", "--measure", "a", "--set", "{b}"]),
    ("L", ["quantale", "verify", "--lattice", "L", "--random-maps", "2", "--pairs", "2",
           "--join-maps", "2"]),
    ("L", ["counterexample", "order", "--lattice", "L"]),
    ("L", ["prop1", "--lattice", "L"]),
    ("L", ["prove", "composed", "--lattice", "L", "--actual", "a", "--measure", "b",
           "--then", "a"]),
    ("L", ["axiom", "instantiate", "--lattice", "L", "--schema", "Adjust1", "--bind", "x=a",
           "--bind", "y=b"]),
    ("M", ["propagate", "--lattice", "L", "--map", "M", "--set", "{b}", "--json", "r.json"]),
    ("M", ["check", "W", "--lattice", "L", "--register", "M"]),
    ("D", ["check", "D", "--lattice", "L"]),
    ("D", ["crosscheck", "D", "--lattice", "L", "--json", "r.json"]),
    ("W", ["check", "W", "--lattice", "L", "--register", "M"]),
    ("N", ["lattice", "gen", "--family", "boolean", "--n", "2", "--names", "N"]),
]


def edited(text: str, rng: random.Random) -> str:
    """``text`` with one to four edits, each a character deleted, inserted
    or replaced."""
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        pos = rng.randrange(len(chars) + 1)
        op = rng.randrange(3)
        if op == 1 or pos == len(chars):
            chars.insert(pos, rng.choice(ALPHABET))
        elif op == 0:
            del chars[pos]
        else:
            chars[pos] = rng.choice(ALPHABET)
    return "".join(chars)


def run_clean(argv: list[str], text: str) -> int:
    try:
        code = run(argv)
    except (Exception, SystemExit) as err:
        raise AssertionError(f"{argv} escaped on {text!r}") from err
    assert code in (0, 1, 2), (argv, text)
    return code


@pytest.fixture
def files(tmp_path, monkeypatch):
    """The valid inputs, written to the working directory: L a lattice, M a
    map, D a measurement derivation, W a derivation with a witness."""
    monkeypatch.chdir(tmp_path)
    lat = mo(2)
    texts = {"L": serialize(lat), "M": MAP, "D": serialize(derive_measurement(lat, "a", "b")),
             "W": WITNESS, "N": "p,q"}
    for name in "LMDW":
        (tmp_path / name).write_text(texts[name])
    return texts


def test_edited_inputs_never_traceback(files, capsys):
    rng = random.Random(20261019)
    codes = {0: 0, 1: 0, 2: 0}
    start = time.perf_counter()
    for _ in range(1000):
        kind, argv = rng.choice(COMMANDS)
        text = edited(files[kind], rng)
        if kind == "N":
            argv = [text if a == "N" else a for a in argv]
        else:
            with open(kind, "w", encoding="utf-8") as f:
                f.write(text)
        codes[run_clean(argv, text)] += 1
        if kind != "N":
            with open(kind, "w", encoding="utf-8") as f:
                f.write(files[kind])
        capsys.readouterr()
    assert time.perf_counter() - start < 10
    # the edits reach every outcome: most break the input, some keep it valid
    assert codes[2] > 500 and codes[0] > 10 and codes[1] > 0, codes


# Each fixed case, built on use: (file edited, its text, argv, exit code).
# Formulas and witnesses have no depth cap, so the deep witness (an even
# number of complements of a) checks, and the id over 5,000 quantifiers is
# read and found invalid.
FIXED = {
    "deep witness": lambda: (
        "D", WITNESS.replace("ortho(ortho(a))", "ortho(" * 5000 + "a" + ")" * 5000),
        ["check", "D", "--lattice", "L", "--register", "M"], 0,
    ),
    "deep forall": lambda: (
        "D", '(rule id (seq "' + "forall x . " * 5000 + 'In(x) |- In(a)"))\n',
        ["crosscheck", "D", "--lattice", "L"], 1,
    ),
    "long plus chain": lambda: (
        "D", '(rule id (seq "' + " + ".join(["In(a)"] * 5000) + ' |- In(a)"))\n',
        ["check", "D", "--lattice", "L"], 1,
    ),
    "deep nodes": lambda: ("D", "(rule id (seq " * 5000, ["check", "D", "--lattice", "L"], 2),
    # a few MB: a context of 400,000 formulas, and a long comment before a
    # stray character
    "wide context": lambda: (
        "D", '(rule id (seq "' + "In(a), " * 400000 + 'In(a) |- In(a)"))\n',
        ["check", "D", "--lattice", "L"], 1,
    ),
    "long comment": lambda: (
        "D", '(rule id (seq "In(a) |- In(a)"))\n# ' + "x" * 3000000 + "\n@",
        ["crosscheck", "D", "--lattice", "L"], 2,
    ),
    "long image": lambda: (
        "M", "map blur over mo2\non a -> {" + ", ".join(["a"] * 100000) + "}\nend\n",
        ["propagate", "--lattice", "L", "--map", "M", "--set", "{b}"], 2,
    ),
    "many comment lines": lambda: (
        "L", "lattice mo2\nelements 0 1 a\n" + "# x\n" * 100000 + "leq 0 a\nleq a 1\nend\n",
        ["lattice", "verify", "L"], 1,
    ),
}


@pytest.mark.parametrize("case", FIXED)
def test_fixed_case(files, capsys, case):
    kind, text, argv, code = FIXED[case]()
    with open(kind, "w", encoding="utf-8") as f:
        f.write(text)
    assert run_clean(argv, text[:200]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith(f"{kind}: ")
