"""Fuzz of the CLI boundary: ``cli.main`` on random argv and state files.

Every case must exit with a documented code (0 success, 1 property
violation, 2 usage or validation error, 3 budget error, 141 stdout closed by
its reader) and never leak a Python traceback, whatever the subcommand,
flags, values or state file.

A case is a valid command with one or two of its parts made invalid, so each
bad value reaches the code past argument parsing: huge, negative,
non-finite and non-numeric values; state files cut short, not UTF-8 or of
the wrong JSON type; an ``--output`` in a missing directory, on a directory
or on a dangling or looping symlink; no state source or two; a dropped
required flag, a stray token, or a stdout whose reader has gone.

``dist --check-odd-zero`` is also drawn with ``--cardinality`` or
``--subset-mask``: short of the whole register identical copies do give
odd-weight outcomes, so the check must refuse the set (exit 2), not report
a violation (exit 1).

Valid counts stay small: ``distill --runs``, ``verify --trials`` and state
sizes between 7 and the register cap have no work budget, so a large one
would run for minutes. The run is derandomized with a fixed example budget.
"""

import contextlib
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concentratable.cli import main
from concentratable.states import make_haar_random, statevector_to_dict
from concentratable.verify import CHECKS

DOCUMENTED_EXITS = {0, 1, 2, 3, 141}
# Only these commands report a property violation (exit 1). dist has none to
# report: identical copies tested on the whole register have no odd-weight
# outcome, and its check refuses any other set.
VIOLATION_COMMANDS = {"verify", "distill"}

WEIRD = ["", "-", "--", "abc", "nan", "inf", "-inf", "1e400", "1.5", "0x10", "1_000", "٣", "2 3", "\x00"]
HUGE = [str(10**3), str(10**11), str(2**63), str(2**64), str(10**30)]


def text(values):
    return values.map(str)


negatives = text(st.integers(-(2**66), 0))
# Seeds are parsed as the sizes are; past parsing, only a negative one is invalid.
seeds = (text(st.integers(0, 2**66)), text(st.integers(-(2**66), -1)))
# Each slot: (valid values, invalid values).
VALUES = {
    "size": (text(st.integers(1, 6)), negatives | st.sampled_from(HUGE + WEIRD)),
    "cardinality": (text(st.integers(1, 6)), negatives | st.sampled_from(HUGE + WEIRD)),
    "seed": seeds,
    "state-seed": seeds,
    # Counts with no work budget: small or invalid only.
    "count": (text(st.integers(1, 3)), negatives | st.sampled_from(WEIRD)),
    "shots": (
        text(st.integers(1, 1000)) | st.just(str(10**14)),
        negatives | st.sampled_from([str(2**63), str(10**20)] + WEIRD),
    ),
    "mask": (
        st.integers(1, 63).flatmap(lambda m: st.sampled_from([str(m), hex(m), bin(m)])),
        text(st.integers(-(2**70), 2**70)) | st.sampled_from(WEIRD),
    ),
    "epsilon": (
        text(st.floats(1e-6, 1.0)),
        st.floats(allow_nan=True, allow_infinity=True).map(repr) | st.sampled_from(["1e-8"] + WEIRD),
    ),
    "verify-n-max": (text(st.integers(2, 5)), st.sampled_from(["1", "-1", "15", str(10**6), str(10**30), "abc", "nan"])),
    "compare-n-max": (text(st.integers(4, 40)), st.sampled_from(["1025", "-1", str(10**30), "abc", "1e3"])),
    "method": (
        st.sampled_from(["auto", "purity_sum", "distribution_zero_set", "even_weight_sum"]),
        st.sampled_from(["bogus", ""]),
    ),
    "format": (st.sampled_from(["json", "csv"]), st.sampled_from(["xml", ""])),
    "property": (st.sampled_from(sorted(CHECKS)), st.sampled_from(["bogus", ""])),
}

SUBSET_FLAGS = {"--subset-mask": "mask", "--cardinality": "cardinality"}
# Per command: its required flags and its optional ones, each with its slot (None for a switch).
FLAGS = {
    "ce": (
        {},
        {**SUBSET_FLAGS, "--all-cardinalities": None, "--all-subsets": None, "--method": "method", "--format": "format"},
    ),
    "dist": ({}, {**SUBSET_FLAGS, "--check-odd-zero": None}),
    "dist --check-odd-zero": ({}, SUBSET_FLAGS),
    "sample": ({"--shots": "shots", "--seed": "seed"}, SUBSET_FLAGS),
    "verify": (
        {"--trials": "count"},
        {"--seed": "seed", "--n-max": "verify-n-max", "--property": "property", "--epsilon": "epsilon"},
    ),
    "compare": ({"--n-max": "compare-n-max"}, {}),
    "distill": ({"--seed": "seed"}, {"--runs": "count"}),
}
TAKES_STATE = {"ce", "dist", "sample", "distill"}
TAKES_OUTPUT = {"ce", "dist", "sample", "verify", "compare"}
SOURCES = ["--ghz", "--w", "--haar", "--file"]


def parts(command):
    """The parts of a command that a case may make invalid: its value slots and the rest."""
    required, optional = FLAGS[command]
    slots = {slot for slot in [*required.values(), *optional.values()] if slot is not None}
    name = command.split()[0]
    if name in TAKES_STATE:
        slots |= {"size", "state-seed", "source", "file", "file-path"}
    if name in TAKES_OUTPUT:
        slots.add("output")
    if required:
        slots.add("required")
    return sorted(slots | {"command", "junk", "stdout"})


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def state_files(draw, valid):
    """The bytes of a state file: valid, or cut short, not UTF-8 or of the wrong type."""
    n = draw(st.integers(1, 3))
    record = json.dumps(statevector_to_dict(make_haar_random(n, draw(st.integers(0, 9)))))
    if valid:
        return record.encode()
    kind = draw(st.sampled_from(["truncated", "not-utf8", "fields", "json", "nan", "empty"]))
    if kind == "truncated":
        return record.encode()[: draw(st.integers(0, len(record) - 1))]
    if kind == "not-utf8":
        return draw(st.sampled_from([b"\xff\xfe", b'{"n": \xe9}', record.encode("utf-16")]))
    if kind == "fields":
        n = draw(st.integers(-2, 4) | st.sampled_from([10**12, 2**64, True, 1.5, 1e400, "2", None]))
        amplitudes = draw(json_values | st.lists(st.lists(json_values, max_size=3), max_size=4))
        return json.dumps({"n": n, "amplitudes": amplitudes}).encode()
    if kind == "json":
        return json.dumps(draw(json_values)).encode()
    if kind == "nan":
        nan = [record.replace("0.", "NaN, 0.", 1), '{"n": 1, "amplitudes": [[NaN, 0], [Infinity, 0]]}']
        return draw(st.sampled_from(nan)).encode()
    return b""


class ClosedStdout(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "a-directory").mkdir()
    os.symlink(root / "missing" / "target.json", root / "dangling.json")
    os.symlink(root / "loop-b", root / "loop-a")
    os.symlink(root / "loop-a", root / "loop-b")
    return root


def draw_argv(data, fuzz_dir):
    """A command with one or two parts made invalid; returns its name, its argv and whether stdout is closed."""
    command = data.draw(st.sampled_from(sorted(FLAGS)), "command")
    bad = data.draw(st.sets(st.sampled_from(parts(command)), min_size=1, max_size=2), "invalid parts")
    if "command" in bad:
        command = data.draw(st.sampled_from(["bogus", "--version", "--help", ""]), "invalid command")
    argv = command.split() or [command]
    name = argv[0]

    def pick(slot, valid, invalid):
        return data.draw(invalid if slot in bad else valid, slot)

    def add(flag, slot):
        argv.append(flag)
        if slot is not None:
            argv.append(pick(slot, *VALUES[slot]))

    if name in TAKES_STATE:
        sources = pick("source", st.sampled_from(SOURCES).map(lambda s: [s]), st.sampled_from([[], ["--ghz", "--file"], ["--w", "--haar"]]))
        if bad & {"file", "file-path"}:
            sources = ["--file"]
        elif "state-seed" in bad:
            sources = ["--haar"]
        for source in sources:
            if source != "--file":
                add(source, "size")
                if source == "--haar":
                    add("--state-seed", "state-seed")
                continue
            path = fuzz_dir / "state.json"
            path.write_bytes(data.draw(state_files("file" not in bad), "state file"))
            wrong = [str(fuzz_dir / "a-directory"), str(fuzz_dir / "nope.json"), ""]
            argv += ["--file", pick("file-path", st.just(str(path)), st.sampled_from(wrong))]
    required, optional = FLAGS.get(command, ({}, {}))
    dropped = data.draw(st.sampled_from(sorted(required)), "dropped") if required and "required" in bad else None
    for flag, slot in required.items():
        if flag != dropped:
            add(flag, slot)
    # An optional flag is given when its value is the invalid part, else at random.
    chosen = {flag for flag, slot in optional.items() if slot in bad}
    chosen.update(data.draw(st.lists(st.sampled_from(sorted(optional)), max_size=2) if optional else st.just([]), "optional"))
    for flag in sorted(chosen):
        add(flag, optional[flag])
    if name in TAKES_OUTPUT and ("output" in bad or data.draw(st.booleans(), "output?")):
        valid = st.sampled_from([str(fuzz_dir / "out.json"), os.devnull])
        names = ("missing/out.json", "a-directory", "dangling.json", "loop-a", "")
        argv += ["--output", pick("output", valid, st.sampled_from([str(fuzz_dir / name) for name in names]))]
    if "junk" in bad:
        argv.insert(data.draw(st.integers(0, len(argv))), data.draw(st.sampled_from(WEIRD + ["--ghz", "--output", "-h"])))
    return name, argv, "stdout" in bad


@settings(
    max_examples=500,
    derandomize=True,
    database=None,
    deadline=None,
)
@given(data=st.data())
def test_cli_exits_with_a_documented_code_and_no_traceback(fuzz_dir, data):
    command, argv, closed = draw_argv(data, fuzz_dir)
    out, err = ClosedStdout() if closed else io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors, --help and --version
            code = exc.code
    stderr = err.getvalue()
    assert code in DOCUMENTED_EXITS, (argv, code, stderr)
    assert "Traceback" not in stderr, (argv, stderr)
    if code == 1:
        assert command in VIOLATION_COMMANDS, (argv, stderr)
    if code == 141:
        assert closed, (argv, stderr)
