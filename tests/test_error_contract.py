"""Error contract: only `DepsketchError` escapes the frontend, `resolve` and `emit_patch`.

A hypothesis fuzz over token soup, including characters the lexer rejects
or reads in a non-obvious way, checks that every failure is a
`DepsketchError` and that `depsketch sketch` exits with 0, 1 or 2.
"""

from __future__ import annotations

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from depsketch import emit_patch, resolve
from depsketch.cli import main
from depsketch.frontend import sketch_source
from depsketch.model import DepsketchError

from conftest import build_fixture_kb
from test_frontend_wrap import _TOKENS

_SOUP = st.lists(st.sampled_from([*_TOKENS, "package", "é", "²", "\\", "~"]), max_size=14).map(" ".join)
_KB = build_fixture_kb()


@settings(max_examples=300, deadline=None)
@given(source=_SOUP, allow_wrap=st.booleans())
def test_only_depsketch_errors_escape(source, allow_wrap):
    with contextlib.suppress(DepsketchError):
        sketch_source(source, allow_wrap=allow_wrap)
    with contextlib.suppress(DepsketchError):
        emit_patch(resolve(source, _KB, require_unit=not allow_wrap), source, partial=True)


@settings(max_examples=100, deadline=None)
@given(source=_SOUP, wrapped=st.sampled_from(["true", "false"]))
def test_sketch_exit_codes_stay_in_the_contract(source, wrapped, tmp_path_factory):
    path = tmp_path_factory.mktemp("soup") / "snippet.java"
    path.write_text(source, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["sketch", str(path), "--spans", "--wrapped", wrapped])
    assert code in (0, 1, 2)
