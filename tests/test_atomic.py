"""atomic.check_outputs, the one rule for which paths a run may write."""

import re

import pytest

from acnn.atomic import check_outputs

# inputs, outputs ("{d}" stands for a directory holding the file f and the
# empty directory sub/), the exception and what its message says
CHECK_OUTPUTS_CASES = {
    "output-is-input": ({"input": "{d}/f"}, {"output": "{d}/f"},
                        ValueError, "output {d}/f is also the input"),
    "output-is-output": ({}, {"checkpoint": "{d}/m", "log": "{d}/m"},
                         ValueError, "log {d}/m is also the checkpoint"),
    "output-tmp-is-input": ({"input": "{d}/t.tmp"}, {"output": "{d}/t"},
                            ValueError, "output {d}/t is written through {d}/t.tmp, the input"),
    "output-tmp-is-output": ({}, {"checkpoint": "{d}/m.tmp", "log": "{d}/m"},
                             ValueError, "log {d}/m is written through {d}/m.tmp, the checkpoint"),
    "output-is-directory": ({}, {"output": "{d}/sub"},
                            IsADirectoryError, "output path is a directory"),
    "output-under-a-file": ({"input": "{d}/f"}, {"output": "{d}/f/new/o"},
                            NotADirectoryError, "not a directory"),
}


def _tree(d):
    return {p: p.read_bytes() if p.is_file() else None for p in d.rglob("*")}


@pytest.fixture
def d(tmp_path):
    (tmp_path / "f").write_bytes(b"an input")
    (tmp_path / "sub").mkdir()
    return tmp_path


@pytest.mark.parametrize("case", sorted(CHECK_OUTPUTS_CASES))
def test_refused(case, d):
    inputs, outputs, error, message = CHECK_OUTPUTS_CASES[case]
    before = _tree(d)
    with pytest.raises(error, match=re.escape(message.format(d=d))):
        check_outputs({role: path.format(d=d) for role, path in inputs.items()},
                      {role: path.format(d=d) for role, path in outputs.items()})
    assert _tree(d) == before


def test_accepted_paths_are_not_created(d):
    """Outputs beside their inputs, in an existing directory or in one still
    missing, pass, and the check itself writes nothing."""
    before = _tree(d)
    check_outputs({"input": d / "f"},
                  {"output": d / "o", "log": d / "sub" / "o", "report": d / "new" / "o"})
    assert _tree(d) == before
