"""Hostile-input fuzzing of `acnn tag` and `acnn eval`: whatever the checkpoint
bytes and corpus text, cli.main returns a documented exit code (0-3), never
raises, and leaves no *.tmp file behind."""

import struct
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from acnn import cli

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_NUMERIC}

# the u64 metadata length follows the 8-byte magic and the u32 version
META_LENGTH_AT = 12

# bracket and tabular fragments, separators, and bytes that are not UTF-8
PIECES = [b"[", b"]", b"{", b"}", b"+", b"a", b"b", b"Uh", b"wou-", b",", b"_", b"E",
          b" ", b"\t", b"\n", b"\r", b"a\t_\n", b"b\tE\n", b"\xff"]
# nested deeper than data.MAX_NESTING, and than the recursion limit that
# hypothesis raises while it runs an example
DEEP_LINE = b"[ a + " * 5000 + b"b" + b" ]" * 5000

corpus_bytes = st.one_of(
    st.lists(st.sampled_from(PIECES), max_size=40).map(b"".join),
    st.just(DEEP_LINE),
    st.lists(st.sampled_from(PIECES), max_size=10).map(lambda p: b"".join(p) + b"\n" + DEEP_LINE))
formats = st.sampled_from(["bracket-text", "tabular"])

# the fixture's checkpoint file is only read, never changed, by the examples
fuzz_settings = settings(max_examples=50, deadline=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


def mutated(draw, raw: bytes) -> bytes:
    """`raw` as is, truncated at a drawn offset, with one drawn bit flipped, or
    with its metadata length overwritten."""
    kind = draw(st.sampled_from(["as-is", "truncate", "flip-bit", "metadata-length"]))
    if kind == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    if kind == "flip-bit":
        bit = draw(st.integers(0, 8 * len(raw) - 1))
        out = bytearray(raw)
        out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)
    if kind == "metadata-length":
        length = struct.pack("<Q", draw(st.integers(0, 2 ** 64 - 1)))
        return raw[:META_LENGTH_AT] + length + raw[META_LENGTH_AT + 8:]
    return raw


def run_in(files: dict[str, bytes], argv) -> None:
    """Write `files` to a fresh directory, run `acnn` there with `argv`
    ("{dir}" stands for the directory), and check the exit code and that no
    *.tmp is left."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, raw in files.items():
            (d / name).write_bytes(raw)
        code = cli.main([arg.format(dir=d) for arg in argv])
        assert code in EXIT_CODES
        assert not list(d.rglob("*.tmp"))


@fuzz_settings
@given(st.data())
def test_tag_survives_hostile_inputs(valid_checkpoint, data):
    ckpt = mutated(data.draw, valid_checkpoint.read_bytes())
    run_in({"m.ckpt": ckpt, "in.txt": data.draw(corpus_bytes)},
           ["tag", "--checkpoint", "{dir}/m.ckpt", "--input", "{dir}/in.txt",
            "--format", data.draw(formats), "--out", "{dir}/out/o.tab"])


@fuzz_settings
@given(corpus_bytes, corpus_bytes, formats, st.booleans(), st.integers(0, 3))
def test_eval_survives_hostile_inputs(gold, predicted, gold_format, preprocess, errors):
    run_in({"gold.txt": gold, "pred.tab": predicted},
           ["eval", "--gold", "{dir}/gold.txt", "--predicted", "{dir}/pred.tab",
            "--gold-format", gold_format, "--errors", str(errors),
            "--out", "{dir}/out/r.tsv"] + (["--preprocess"] if preprocess else []))
