"""`acnn gradcheck`'s table, which criterion 02 and the CLI tests both read:
the dropout-off check of each arch runs once per test session."""

import contextlib
import functools
import io

from acnn import cli


@functools.cache
def gradcheck_table(arch):
    """`acnn gradcheck --arch arch`'s exit code and table rows, run once per
    arch for every test that reads them."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["gradcheck", "--arch", arch])
    return code, [line.split() for line in out.getvalue().splitlines()[1:]]
